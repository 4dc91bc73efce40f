//! Phase 2 — robust optimization over the critical set (Eqs. 4–7): the
//! two-class instantiation of the generic robust search in
//! [`crate::robust`]. The [`RobustEngine`] implementation here also
//! drives DTR's Phase 1 ([`crate::phase1`], [`crate::phase1b`]).
//!
//! Minimizes the compound failure cost
//! `K̄fail = ⟨Σ_{l∈Ec} Λfail,l, Σ_{l∈Ec} Φfail,l⟩` subject to the
//! normal-conditions constraints: `Λnormal` may not degrade at all (Eq. 5 —
//! delay-sensitive applications fall off a cliff past the SLA), and
//! `Φnormal` may degrade by at most `(1+χ)` (Eq. 6 — elastic traffic
//! tolerates some slack in exchange for robustness).
//!
//! The search starts from, and diversifies back to, the Phase-1 archive of
//! acceptable settings. The speculative batched moves, incumbent-bounded
//! cutoff sweeps, portfolio replicas and checkpoints are the shared
//! search's (see [`crate::robust`]); this module supplies what is DTR's
//! own:
//! the [`RobustEngine`] implementation of `dtr_cost::Evaluator` — a move
//! re-draws one duplex link's `(delay, throughput)` weight pair, costs
//! are [`LexCost`], and the gate is [`feasible`].
//!
//! Both evaluation kinds ride the two-class instantiation of the
//! incremental engine in `dtr_cost::engine`: a neighbor move changes one
//! duplex link's weights, so the normal-conditions check re-routes only
//! the destinations whose distance field that change can provably
//! touch, and the failure sweep
//! runs through the **delta-state scenario cache** — per scenario, only
//! destinations whose effective routing the candidate diff really moves
//! are repaired from the resident incumbent state, the loads are folded
//! by replaying every destination's resolved routing, and only
//! delay-touched destinations re-run the SLA DP — for **every** scenario
//! kind the set holds (link, node, SRLG, double-link, probabilistically
//! weighted).

use dtr_cost::{Engine, Evaluator, LexCost};
use dtr_net::LinkId;
use dtr_persist::{Decoder, Encoder, SnapshotError};
use dtr_routing::{Scenario, WeightSetting};
use rand::rngs::StdRng;
use rand::Rng;

use crate::params::Params;
use crate::phase1::{self, Phase1Output};
use crate::robust::{self, RobustEngine, RobustKnobs, RobustOutput, RunControl};
use crate::scenario::{ScenarioSet, SliceSet};
use crate::search::{duplex_weights, set_duplex_weights};

/// Result of the robust search.
pub type Phase2Output = RobustOutput<WeightSetting, LexCost>;

/// Eq. (5)–(6) feasibility of a candidate's normal-conditions cost against
/// the Phase-1 benchmarks. Λ must not degrade (ε-equality; improving on
/// Λ* is even better and accepted); Φ gets the χ budget.
pub fn feasible(normal: &LexCost, lambda_star: f64, phi_star: f64, chi: f64) -> bool {
    normal.lambda <= lambda_star + dtr_cost::LAMBDA_EPS && normal.phi <= (1.0 + chi) * phi_star
}

/// DTR's robust engine: the two-class instantiation of the delta-state
/// engine, moves that re-draw a duplex link's `(delay, throughput)`
/// pair, and the Eq. 5–6 gate with Phase 1's `⟨Λ*, Φ*⟩` as benchmark
/// and χ as its parameter.
impl RobustEngine for Evaluator<'_> {
    type Weights = WeightSetting;
    type Cost = LexCost;
    type Move = (u32, u32);
    type GateParams = f64;

    const SNAPSHOT_KIND: u32 = dtr_persist::KIND_DTR_PHASE2;
    const SET_SIZE_MISMATCH: &'static str = "critical-set size differs";
    const PROMOTE_RESTART: bool = false;

    fn engine(&self) -> &Engine<'_> {
        Evaluator::engine(self)
    }

    fn draw_move(&self, lo: u32, wmax: u32, rng: &mut StdRng) -> (u32, u32) {
        (rng.gen_range(lo..=wmax), rng.gen_range(lo..=wmax))
    }

    fn read_move(&self, w: &WeightSetting, rep: LinkId) -> (u32, u32) {
        duplex_weights(w, rep)
    }

    fn apply_move(&self, w: &mut WeightSetting, rep: LinkId, &(wd, wt): &(u32, u32)) {
        set_duplex_weights(w, Evaluator::net(self), rep, wd, wt)
    }

    fn acceptable(&self, cost: &LexCost, best: &LexCost, z: f64, chi: &f64) -> bool {
        phase1::acceptable(cost, best, z, *chi, self.params().b1)
    }

    fn feasible(&self, normal: &LexCost, benchmark: &LexCost, chi: &f64) -> bool {
        feasible(normal, benchmark.lambda, benchmark.phi, *chi)
    }

    fn put_gate(chi: &f64, enc: &mut Encoder) {
        enc.put_f64(*chi);
    }

    fn check_gate(chi: &f64, rd: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        if rd.take_f64()?.to_bits() != chi.to_bits() {
            return Err(SnapshotError::Mismatch("chi differs"));
        }
        Ok(())
    }
}

impl From<&Params> for RobustKnobs {
    fn from(p: &Params) -> Self {
        RobustKnobs {
            seed: p.seed,
            wmax: p.wmax,
            q: p.q,
            z: p.z,
            left_tail_fraction: p.left_tail_fraction,
            tau: p.tau,
            e: p.e,
            max_top_up_rounds: p.max_phase1b_rounds,
            c: p.c,
            p1: p.p1,
            p2: p.p2,
            div_interval_1: p.div_interval_1,
            div_interval_2: p.div_interval_2,
            archive_size: p.archive_size,
            max_iterations: p.max_iterations,
            threads: p.threads,
            speculation: p.speculation,
            cutoff: p.cutoff,
            record_trace: p.record_trace,
            cache_budget_bytes: p.cache_budget_bytes,
            portfolio: p.portfolio,
            deadline_ms: p.deadline_ms,
            checkpoint_every: p.checkpoint_every,
        }
    }
}

/// Run Phase 2 over the scenarios of `indices` drawn from any
/// [`ScenarioSet`]. The set supplies both the scenarios and (for
/// probabilistic ensembles) their weights; uniform sets keep the paper's
/// plain Eq. (4) sum. The canonical single-link call passes the
/// [`crate::FailureUniverse`] itself; arbitrary scenario slices ride the
/// same path through [`SliceSet`] (see [`run_scenarios`]).
///
/// All failure sweeps run through the set-native sharded kernels in
/// [`crate::parallel`]: no scenario vector is materialized per sweep,
/// every worker reuses a pooled incremental workspace, and the weighted
/// reduction folds in index order — so the trajectory is bit-for-bit
/// identical for every `params.threads`, `params.speculation`, and
/// `params.cutoff` (see [`crate::robust`]).
pub fn run<S: ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    set: &S,
    indices: &[usize],
    params: &Params,
    phase1: &Phase1Output,
) -> Phase2Output {
    run_controlled(ev, set, indices, params, phase1, &mut RunControl::none())
        .expect("without a checkpoint sink no snapshot i/o can fail")
}

/// [`run`] under external control: checkpoints into `ctl.sink` every
/// `params.checkpoint_every` boundaries and honours `ctl.kill_after`
/// and `params.deadline_ms`. The only fallible step is storing a
/// snapshot, so with `RunControl::none()` this is exactly [`run`].
pub fn run_controlled<S: ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    set: &S,
    indices: &[usize],
    params: &Params,
    phase1: &Phase1Output,
    ctl: &mut RunControl<'_>,
) -> Result<Phase2Output, SnapshotError> {
    params.validate();
    robust::run_controlled(
        ev,
        set,
        indices,
        &params.into(),
        &phase1.best_cost,
        &params.chi,
        &phase1.archive,
        ctl,
    )
}

/// Restore a Phase-2 run from `snapshot` bytes and continue it under
/// `ctl`. The evaluator, scenario set, critical indices and the
/// trajectory-determining `params` knobs must match the saving run
/// ([`SnapshotError::Mismatch`] otherwise); `threads`, `speculation`,
/// `cutoff` and the cache budget may differ freely — the determinism
/// contract keeps the continued trajectory bit-identical regardless.
/// No `Phase1Output` is needed: the Λ*/Φ* benchmarks and the archive
/// travel inside the snapshot.
///
/// The wall-clock deadline, when set, is a fresh budget for this call —
/// time spent before the crash is not counted against it.
pub fn resume<S: ScenarioSet + Sync + ?Sized>(
    ev: &Evaluator<'_>,
    set: &S,
    indices: &[usize],
    params: &Params,
    snapshot: &[u8],
    ctl: &mut RunControl<'_>,
) -> Result<Phase2Output, SnapshotError> {
    params.validate();
    robust::resume(
        ev,
        set,
        indices,
        &params.into(),
        None,
        &params.chi,
        snapshot,
        ctl,
    )
}

/// Run Phase 2 against an arbitrary scenario slice — e.g. all single node
/// failures for the §V-F comparison routing, or sampled double-link
/// failures. The slice rides the set-native path through a [`SliceSet`]
/// adapter, so it gets the same sharded, speculative, cutoff-aware
/// kernel as [`run`] (weights, when given, multiply each scenario's
/// cost before the index-order fold).
pub fn run_scenarios(
    ev: &Evaluator<'_>,
    scenarios: &[Scenario],
    params: &Params,
    phase1: &Phase1Output,
    scenario_weights: Option<&[f64]>,
) -> Phase2Output {
    let set = SliceSet::new(scenarios, scenario_weights);
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    run(ev, &set, &indices, params, phase1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;
    use crate::phase1;
    use crate::universe::FailureUniverse;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    fn setup() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64, (i * i % 3) as f64)))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 2.5e6,
            ..gravity::GravityConfig::paper_default(6, 9)
        });
        (net, tm)
    }

    #[test]
    fn robust_solution_is_feasible_and_not_worse_than_start() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(21);
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let p2 = run(&ev, &universe, &all, &params, &p1);

        // Feasibility (Eqs. 5-6).
        assert!(feasible(
            &p2.best_normal,
            p1.best_cost.lambda,
            p1.best_cost.phi,
            params.chi
        ));
        // Kfail of the result must not exceed Kfail of the Phase-1 best.
        let scenarios = universe.scenarios();
        let k_start = parallel::sum_failure_costs(&ev, &p1.best, &scenarios, 1);
        assert!(
            !k_start.better_than(&p2.best_kfail),
            "phase 2 regressed: start {k_start} vs robust {}",
            p2.best_kfail
        );
        // Reported kfail must be truthful.
        let recheck = parallel::sum_failure_costs(&ev, &p2.best, &scenarios, 1);
        assert_eq!(recheck, p2.best_kfail);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(33);
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let a = run(&ev, &universe, &all, &params, &p1);
        let b = run(&ev, &universe, &all, &params, &p1);
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_kfail, b.best_kfail);
    }

    #[test]
    fn budget_bounded_cache_matches_unbounded_bit_for_bit() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params {
            record_trace: true,
            ..Params::quick(21)
        };
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let unbounded = run(&ev, &universe, &all, &params, &p1);
        assert_eq!(unbounded.stats.cache_resident_scenarios, all.len());
        assert_eq!(unbounded.stats.cache_fallback_evals, 0);
        // From "below one entry" through "a partial prefix" to "holds
        // everything": the trajectory never moves.
        for budget in [0usize, 4_096, 1 << 22] {
            let bounded = run(
                &ev,
                &universe,
                &all,
                &Params {
                    cache_budget_bytes: budget,
                    ..params
                },
                &p1,
            );
            assert_eq!(bounded.best, unbounded.best, "budget {budget}");
            assert_eq!(bounded.best_kfail, unbounded.best_kfail, "budget {budget}");
            assert_eq!(
                bounded.best_normal, unbounded.best_normal,
                "budget {budget}"
            );
            assert_eq!(bounded.trace, unbounded.trace, "budget {budget}");
            assert_eq!(
                bounded.constraint_rejections, unbounded.constraint_rejections,
                "budget {budget}"
            );
            // Every stat except the two residency counters matches. A
            // budget that keeps nothing resident runs every sweep on the
            // plain path, so its cuts count as `skipped_cutoff`, not
            // `skipped_cache`; their sum still matches.
            let mut masked = bounded.stats;
            masked.cache_resident_scenarios = unbounded.stats.cache_resident_scenarios;
            masked.cache_fallback_evals = unbounded.stats.cache_fallback_evals;
            if bounded.stats.cache_resident_scenarios == 0 {
                masked.skipped_cache += masked.skipped_cutoff;
                masked.skipped_cutoff = 0;
            }
            assert_eq!(masked, unbounded.stats, "budget {budget}");
            assert!(
                bounded.stats.cache_resident_scenarios <= all.len(),
                "budget {budget}"
            );
        }
        // A budget below one entry degrades the cache entirely — and the
        // fallback accounting must show it.
        let tiny = run(
            &ev,
            &universe,
            &all,
            &Params {
                cache_budget_bytes: 1,
                ..params
            },
            &p1,
        );
        assert_eq!(tiny.stats.cache_resident_scenarios, 0);
        assert!(tiny.stats.cache_fallback_evals > 0);
    }

    #[test]
    fn critical_subset_costs_fewer_evaluations() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(5);
        let p1 = phase1::run(&ev, &universe, &params);
        let all: Vec<usize> = (0..universe.len()).collect();
        let few = vec![0usize];
        let full = run(&ev, &universe, &all, &params, &p1);
        let crit = run(&ev, &universe, &few, &params, &p1);
        assert!(
            crit.stats.evaluations < full.stats.evaluations,
            "critical {} vs full {}",
            crit.stats.evaluations,
            full.stats.evaluations
        );
    }

    #[test]
    fn empty_critical_set_returns_start() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(5);
        let p1 = phase1::run(&ev, &universe, &params);
        let out = run(&ev, &universe, &[], &params, &p1);
        assert_eq!(out.best_kfail, LexCost::ZERO);
        assert_eq!(&out.best, &p1.archive.best().unwrap().0);
    }

    #[test]
    fn weighted_scenarios_change_the_objective() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(8);
        let p1 = phase1::run(&ev, &universe, &params);
        let idx: Vec<usize> = (0..universe.len()).collect();
        let uniform = run(&ev, &universe, &idx, &params, &p1);
        let scenarios = universe.scenarios_for(&idx);
        let weights = vec![0.5; idx.len()];
        let halved = run_scenarios(&ev, &scenarios, &params, &p1, Some(&weights));
        // Halving all weights halves the reported objective for the same
        // trajectory (acceptance decisions are scale-invariant).
        assert!((halved.best_kfail.lambda - 0.5 * uniform.best_kfail.lambda).abs() < 1e-6);
        assert!((halved.best_kfail.phi - 0.5 * uniform.best_kfail.phi).abs() < 1e-6);
    }

    #[test]
    fn cutoff_skips_scenario_evaluations_without_changing_the_result() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params_on = Params::quick(21);
        let params_off = Params {
            cutoff: false,
            ..params_on
        };
        let p1 = phase1::run(&ev, &universe, &params_on);
        let all: Vec<usize> = (0..universe.len()).collect();
        let on = run(&ev, &universe, &all, &params_on, &p1);
        let off = run(&ev, &universe, &all, &params_off, &p1);
        assert_eq!(on.best, off.best);
        assert_eq!(on.best_kfail, off.best_kfail);
        assert_eq!(on.best_normal, off.best_normal);
        assert_eq!(on.constraint_rejections, off.constraint_rejections);
        assert_eq!(on.stats.evaluations, off.stats.evaluations);
        assert_eq!(off.stats.scenario_evals_skipped, 0);
        assert!(
            on.stats.scenario_evals_skipped > 0,
            "cutoff never fired on a quick run with sweep rejections"
        );
        // Per-cause attribution partitions the legacy counter exactly.
        assert_eq!(
            on.stats.scenario_evals_skipped,
            on.stats.skipped_floor + on.stats.skipped_cache + on.stats.skipped_cutoff
        );
    }

    #[test]
    #[should_panic(expected = "one weight per critical scenario")]
    fn mismatched_weights_panic() {
        let (net, tm) = setup();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(8);
        let p1 = phase1::run(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let _ = run_scenarios(&ev, &scenarios, &params, &p1, Some(&[1.0]));
    }
}
