//! Robust optimization over the critical set — the MTR generalization of
//! Phase 2 (Eqs. 4–7 with k classes), as the k-class instantiation of
//! the generic robust search `dtr_core::robust`.
//!
//! Minimizes the compound failure cost (component-wise sum of the k-vector
//! cost over the critical failure scenarios) subject to the per-class
//! normal-conditions constraints: each class's [`NormalConstraint`]
//! decides how much normal-performance degradation may be traded for
//! robustness — `Pin` none (Eq. 5), `Relax(χ)` a χ budget (Eq. 6).
//!
//! The speculative batched moves, incumbent-bounded cutoff sweeps through
//! the delta-state scenario cache, portfolio replicas and checkpoints are
//! the shared search's, bit for bit the same machinery as
//! `dtr_core::phase2`. This module supplies what is MTR's own: the
//! `RobustEngine` implementation of [`MtrEvaluator`] — a move re-draws
//! all k class weights of one duplex link, costs are [`VecCost`], the
//! gate is [`feasible`], and a diversification restart that lands on a
//! feasible setting beating the best `K̄fail` becomes the new best.
//!
//! [`NormalConstraint`]: crate::class::NormalConstraint

use dtr_core::robust::{self, RobustEngine, RobustKnobs, RobustOutput};
use dtr_core::search::Archive;
use dtr_core::{RunControl, SliceSet};
use dtr_cost::Engine;
use dtr_net::LinkId;
use dtr_persist::{Decoder, Encoder, SnapshotError};
use dtr_routing::Scenario;
use rand::rngs::StdRng;
use rand::Rng;

use crate::class::ClassSpec;
use crate::cost::VecCost;
use crate::evaluator::MtrEvaluator;
use crate::params::MtrParams;
use crate::weights::MtrWeightSetting;

/// Result of the robust search.
pub type MtrRobustOutput = RobustOutput<MtrWeightSetting, VecCost>;

/// Per-class feasibility of a candidate's normal-conditions cost against
/// the regular-phase benchmarks (the k-class Eqs. 5–6).
pub fn feasible(normal: &VecCost, benchmark: &VecCost, specs: &[ClassSpec]) -> bool {
    debug_assert_eq!(normal.len(), specs.len());
    normal
        .components()
        .iter()
        .zip(benchmark.components())
        .zip(specs)
        .all(|((&c, &b), spec)| spec.constraint.allows(c, b))
}

/// MTR's robust engine: the k-class instantiation of the delta-state
/// engine, moves that re-draw every class weight of a duplex link, and
/// the per-class constraint gate against the regular phase's benchmark
/// (the constraints live in the evaluator's class specs, so the gate
/// carries no further parameters).
impl RobustEngine for MtrEvaluator<'_> {
    type Weights = MtrWeightSetting;
    type Cost = VecCost;
    type Move = Vec<u32>;
    type GateParams = ();

    const SNAPSHOT_KIND: u32 = dtr_persist::KIND_MTR_ROBUST;
    const SET_SIZE_MISMATCH: &'static str = "scenario count differs";
    const PROMOTE_RESTART: bool = true;

    fn engine(&self) -> &Engine<'_> {
        MtrEvaluator::engine(self)
    }

    fn draw_move(&self, wmax: u32, rng: &mut StdRng) -> Vec<u32> {
        (0..self.num_classes())
            .map(|_| rng.gen_range(1..=wmax))
            .collect()
    }

    fn read_move(&self, w: &MtrWeightSetting, rep: LinkId) -> Vec<u32> {
        (0..self.num_classes()).map(|c| w.get(c, rep)).collect()
    }

    fn apply_move(&self, w: &mut MtrWeightSetting, rep: LinkId, mv: &Vec<u32>) {
        for (c, &v) in mv.iter().enumerate() {
            w.set_duplex(MtrEvaluator::net(self), c, rep, v);
        }
    }

    fn feasible(&self, normal: &VecCost, benchmark: &VecCost, _gate: &()) -> bool {
        feasible(normal, benchmark, &self.config().specs)
    }

    fn put_gate(_gate: &(), _enc: &mut Encoder) {}

    fn check_gate(_gate: &(), _rd: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

impl From<&MtrParams> for RobustKnobs {
    fn from(p: &MtrParams) -> Self {
        RobustKnobs {
            seed: p.seed,
            wmax: p.wmax,
            c: p.c,
            p2: p.p2,
            div_interval_2: p.div_interval_2,
            archive_size: p.archive_size,
            max_iterations: p.max_iterations,
            threads: p.threads,
            speculation: p.speculation,
            eager_min_batch: p.eager_min_batch,
            cutoff: p.cutoff,
            phi_floors: p.phi_floors,
            record_trace: p.record_trace,
            cache_budget_bytes: p.cache_budget_bytes,
            portfolio: p.portfolio,
            deadline_ms: p.deadline_ms,
            checkpoint_every: p.checkpoint_every,
        }
    }
}

/// Run the robust phase against `scenarios` (typically the critical-set
/// failures), starting from `archive` (the regular phase's acceptable
/// settings). `scenario_weights`, if given, makes the objective a
/// probability-weighted sum.
///
/// With `params.portfolio.replicas > 1` the run becomes a portfolio
/// search: independent chains from distinct derived seeds exchanging
/// archive elites at fixed rendezvous points, replica-index-ordered
/// merges — the same search loop (and determinism contract) as
/// `dtr_core::phase2::run`, on k-vector costs.
///
/// # Panics
/// Panics if the archive is empty or `scenario_weights` mismatches
/// `scenarios` in length.
pub fn run(
    ev: &MtrEvaluator<'_>,
    scenarios: &[Scenario],
    params: &MtrParams,
    benchmark: &VecCost,
    archive: &Archive<MtrWeightSetting, VecCost>,
    scenario_weights: Option<&[f64]>,
) -> MtrRobustOutput {
    run_controlled(
        ev,
        scenarios,
        params,
        benchmark,
        archive,
        scenario_weights,
        &mut RunControl::none(),
    )
    .expect("without a checkpoint sink no snapshot i/o can fail")
}

/// [`run`] under external control: checkpoints into `ctl.sink` every
/// [`MtrParams::checkpoint_every`] boundaries and honours
/// `ctl.kill_after` and [`MtrParams::deadline_ms`]. The only fallible
/// step is storing a snapshot, so with
/// [`RunControl::none`](dtr_core::RunControl::none) this is exactly
/// [`run`].
///
/// # Panics
/// Panics if the archive is empty or `scenario_weights` mismatches
/// `scenarios` in length.
pub fn run_controlled(
    ev: &MtrEvaluator<'_>,
    scenarios: &[Scenario],
    params: &MtrParams,
    benchmark: &VecCost,
    archive: &Archive<MtrWeightSetting, VecCost>,
    scenario_weights: Option<&[f64]>,
    ctl: &mut RunControl<'_>,
) -> Result<MtrRobustOutput, SnapshotError> {
    params.validate();
    let set = SliceSet::new(scenarios, scenario_weights);
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    robust::run_controlled(
        ev,
        &set,
        &indices,
        &params.into(),
        benchmark,
        &(),
        archive,
        ctl,
    )
}

/// Restore a robust-phase run from `snapshot` bytes and continue it
/// under `ctl`. The evaluator, scenario slice, benchmark and the
/// trajectory-determining `params` knobs must match the saving run
/// ([`SnapshotError::Mismatch`] otherwise); `threads`, `speculation`,
/// `cutoff`, `phi_floors` and the cache budget may differ freely — the
/// determinism contract keeps the continued trajectory bit-identical
/// regardless. No regular-phase archive is needed: it travels inside
/// the snapshot.
///
/// The wall-clock deadline, when set, is a fresh budget for this call —
/// time spent before the crash is not counted against it.
///
/// # Panics
/// Panics if `scenario_weights` mismatches `scenarios` in length.
pub fn resume(
    ev: &MtrEvaluator<'_>,
    scenarios: &[Scenario],
    params: &MtrParams,
    benchmark: &VecCost,
    scenario_weights: Option<&[f64]>,
    snapshot: &[u8],
    ctl: &mut RunControl<'_>,
) -> Result<MtrRobustOutput, SnapshotError> {
    params.validate();
    let set = SliceSet::new(scenarios, scenario_weights);
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    robust::resume(
        ev,
        &set,
        &indices,
        &params.into(),
        Some(benchmark),
        &(),
        snapshot,
        ctl,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassSpec, MtrConfig, NormalConstraint};
    use crate::search::{self};
    use dtr_core::parallel::{evaluate_set, sum_set_costs, sum_set_costs_bounded};
    use dtr_core::parallel::{SetSweep, SweepScratch};
    use dtr_core::search::{SearchCost, StopRule};
    use dtr_core::FailureUniverse;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::TrafficMatrix;
    use rand::SeedableRng;

    /// 6-ring with two chords and `classes` random demand matrices.
    fn testbed(classes: usize) -> (Network, Vec<TrafficMatrix>) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new((i as f64).cos(), (i as f64).sin())))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[2], n[5], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();

        let mut rng = StdRng::seed_from_u64(21);
        let mut tms = vec![TrafficMatrix::zeros(6); classes];
        for tm in tms.iter_mut() {
            for s in 0..6 {
                for t in 0..6 {
                    if s != t {
                        tm.set(s, t, rng.gen_range(1e3..4e4));
                    }
                }
            }
        }
        (net, tms)
    }

    fn config() -> MtrConfig {
        MtrConfig::dtr(25e-3, 0.2)
    }

    #[test]
    fn feasibility_enforces_class_constraints() {
        let specs = vec![
            ClassSpec::sla("voice", 25e-3), // Pin
            ClassSpec::congestion("bulk").relaxed(0.2),
        ];
        let bench = VecCost::new(vec![100.0, 10.0]);
        assert!(feasible(&VecCost::new(vec![100.0, 12.0]), &bench, &specs));
        assert!(feasible(&VecCost::new(vec![99.0, 10.0]), &bench, &specs));
        assert!(!feasible(&VecCost::new(vec![100.1, 10.0]), &bench, &specs));
        assert!(!feasible(&VecCost::new(vec![100.0, 12.5]), &bench, &specs));
    }

    #[test]
    fn robust_solution_satisfies_constraints_and_is_truthful() {
        let (net, tms) = testbed(2);
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(5);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let out = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);

        // Constraints hold for the final solution.
        assert!(feasible(
            &out.best_normal,
            &reg.best_cost,
            &ev.config().specs
        ));
        assert_eq!(ev.cost(&out.best, Scenario::Normal), out.best_normal);
        // Reported kfail is truthful.
        let mut acc = VecCost::zeros(2);
        for &sc in &scenarios {
            acc = acc.add(&ev.cost(&out.best, sc));
        }
        assert_eq!(acc, out.best_kfail);
    }

    #[test]
    fn budget_bounded_cache_matches_unbounded_bit_for_bit() {
        let (net, tms) = testbed(2);
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams {
            record_trace: true,
            ..MtrParams::quick(5)
        };
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let unbounded = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
        assert_eq!(
            unbounded.stats.cache_resident_scenarios,
            scenarios.len(),
            "unbounded cache holds the full set"
        );
        assert_eq!(unbounded.stats.cache_fallback_evals, 0);
        for budget in [0usize, 8_192, 1 << 22] {
            let bounded = run(
                &ev,
                &scenarios,
                &MtrParams {
                    cache_budget_bytes: budget,
                    ..params
                },
                &reg.best_cost,
                &reg.archive,
                None,
            );
            assert_eq!(bounded.best, unbounded.best, "budget {budget}");
            assert_eq!(bounded.best_kfail, unbounded.best_kfail, "budget {budget}");
            assert_eq!(
                bounded.best_normal, unbounded.best_normal,
                "budget {budget}"
            );
            assert_eq!(bounded.trace, unbounded.trace, "budget {budget}");
            // A budget that keeps nothing resident runs every sweep on
            // the plain path, so its cuts count as `skipped_cutoff`, not
            // `skipped_cache`; their sum still matches.
            let mut masked = bounded.stats;
            masked.cache_resident_scenarios = unbounded.stats.cache_resident_scenarios;
            masked.cache_fallback_evals = unbounded.stats.cache_fallback_evals;
            if bounded.stats.cache_resident_scenarios == 0 {
                masked.skipped_cache += masked.skipped_cutoff;
                masked.skipped_cutoff = 0;
            }
            assert_eq!(masked, unbounded.stats, "budget {budget}");
        }
        // A sub-entry budget degrades the cache entirely and the
        // fallback accounting shows it.
        let tiny = run(
            &ev,
            &scenarios,
            &MtrParams {
                cache_budget_bytes: 1,
                ..params
            },
            &reg.best_cost,
            &reg.archive,
            None,
        );
        assert_eq!(tiny.stats.cache_resident_scenarios, 0);
        assert!(tiny.stats.cache_fallback_evals > 0);
    }

    #[test]
    fn robust_does_not_lose_to_regular_on_kfail() {
        let (net, tms) = testbed(2);
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(9);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let out = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);

        let mut reg_kfail = VecCost::zeros(2);
        for &sc in &scenarios {
            reg_kfail = reg_kfail.add(&ev.cost(&reg.best, sc));
        }
        // The robust search starts from the archive best (= regular best)
        // and only accepts kfail improvements, so it can't end up worse.
        assert!(
            !reg_kfail.better_than(&out.best_kfail),
            "robust kfail {} worse than regular {}",
            out.best_kfail,
            reg_kfail
        );
    }

    #[test]
    fn empty_scenario_set_returns_archive_best() {
        let (net, tms) = testbed(2);
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(1);
        let reg = search::regular(&ev, &universe, &params);
        let out = run(&ev, &[], &params, &reg.best_cost, &reg.archive, None);
        assert_eq!(out.best, reg.archive.best().unwrap().0);
        assert_eq!(out.best_kfail, VecCost::zeros(2));
    }

    #[test]
    fn scenario_weights_scale_the_objective() {
        let (net, tms) = testbed(2);
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(3);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios: Vec<_> = universe.scenarios().into_iter().take(3).collect();
        let weights = vec![2.0; scenarios.len()];
        let out = run(
            &ev,
            &scenarios,
            &params,
            &reg.best_cost,
            &reg.archive,
            Some(&weights),
        );
        // Doubling every weight doubles the reported kfail of the final
        // solution versus its unweighted sum.
        let mut unweighted = VecCost::zeros(2);
        for &sc in &scenarios {
            unweighted = unweighted.add(&ev.cost(&out.best, sc));
        }
        let scaled = unweighted.scale(2.0);
        for (a, b) in out.best_kfail.components().iter().zip(scaled.components()) {
            assert!((a - b).abs() < 1e-6 * b.abs().max(1.0));
        }
    }

    #[test]
    fn pinned_everything_still_finds_a_solution() {
        let (net, tms) = testbed(2);
        let mut cfg = config();
        cfg.specs[1].constraint = NormalConstraint::Pin;
        let ev = MtrEvaluator::new(&net, &tms, cfg).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(17);
        let reg = search::regular(&ev, &universe, &params);
        let scenarios = universe.scenarios();
        let out = run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
        // With both classes pinned the benchmark itself remains feasible.
        assert!(feasible(
            &out.best_normal,
            &reg.best_cost,
            &ev.config().specs
        ));
    }

    // -----------------------------------------------------------------
    // The generic kernel and search state at k = 3: the shared bounded
    // sweep, `StopRule<VecCost>` and `Archive<MtrWeightSetting, VecCost>`
    // instantiated with the k-class engine.

    fn k3_config() -> MtrConfig {
        MtrConfig::new(vec![
            ClassSpec::sla("voice", 25e-3),
            ClassSpec::sla("video", 50e-3).relaxed(0.1),
            ClassSpec::congestion("bulk").relaxed(0.2),
        ])
    }

    fn scenario_zoo(net: &Network) -> Vec<Scenario> {
        let mut scenarios = vec![Scenario::Normal];
        scenarios.extend(Scenario::all_link_failures(net));
        scenarios.extend(Scenario::all_node_failures(net));
        scenarios
    }

    fn positions(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let (net, tms) = testbed(3);
        let ev = MtrEvaluator::new(&net, &tms, k3_config()).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let scenarios = scenario_zoo(&net);
        let set = SliceSet::new(&scenarios, None);
        let idx = positions(scenarios.len());
        let serial = evaluate_set(&ev, &w, &set, &idx, 1);
        let threaded = evaluate_set(&ev, &w, &set, &idx, 4);
        assert_eq!(serial, threaded);
        assert_eq!(
            sum_set_costs(&ev, &w, &set, &idx, 1),
            sum_set_costs(&ev, &w, &set, &idx, 3)
        );
    }

    #[test]
    fn batched_matches_reference_per_scenario() {
        let (net, tms) = testbed(3);
        let ev = MtrEvaluator::new(&net, &tms, k3_config()).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let scenarios = scenario_zoo(&net);
        let set = SliceSet::new(&scenarios, None);
        let costs = evaluate_set(&ev, &w, &set, &positions(scenarios.len()), 2);
        for (i, &sc) in scenarios.iter().enumerate() {
            assert_eq!(costs[i], ev.evaluate(&w, sc).cost, "{sc}");
        }
    }

    #[test]
    fn weighted_sum_scales_components() {
        let (net, tms) = testbed(3);
        let ev = MtrEvaluator::new(&net, &tms, k3_config()).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let idx = positions(scenarios.len());
        let weights = vec![0.5; scenarios.len()];
        let weighted = sum_set_costs(&ev, &w, &SliceSet::new(&scenarios, Some(&weights)), &idx, 2);
        let plain = sum_set_costs(&ev, &w, &SliceSet::new(&scenarios, None), &idx, 1);
        for (a, b) in weighted.components().iter().zip(plain.components()) {
            assert!((a - 0.5 * b).abs() < 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn empty_scenarios_sum_to_zero() {
        let (net, tms) = testbed(3);
        let ev = MtrEvaluator::new(&net, &tms, k3_config()).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let set = SliceSet::new(&[], None);
        assert_eq!(sum_set_costs(&ev, &w, &set, &[], 4), VecCost::zeros(3));
    }

    #[test]
    fn bounded_sweep_completes_bit_for_bit_under_unbeatable_incumbent() {
        let (net, tms) = testbed(3);
        let ev = MtrEvaluator::new(&net, &tms, k3_config()).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let idx = positions(scenarios.len());
        let weights = vec![0.5; scenarios.len()];
        let never = VecCost::new(vec![f64::MAX; 3]);
        let order: Vec<u32> = (0..scenarios.len() as u32).rev().collect();
        let mut scratch = SweepScratch::new();
        for weighting in [None, Some(weights.as_slice())] {
            let set = SliceSet::new(&scenarios, weighting);
            for threads in [1, 4] {
                let got = sum_set_costs_bounded(
                    &ev,
                    &w,
                    &set,
                    &idx,
                    threads,
                    &never,
                    &order,
                    &[],
                    None,
                    None,
                    &mut scratch,
                );
                let want = sum_set_costs(&ev, &w, &set, &idx, 1);
                assert_eq!(got, SetSweep::Complete(want), "threads={threads}");
                // Per-position costs match the plain sweep.
                assert_eq!(scratch.costs, evaluate_set(&ev, &w, &set, &idx, 1));
            }
        }
    }

    #[test]
    fn bounded_sweep_cuts_against_a_zero_incumbent() {
        let (net, tms) = testbed(3);
        let ev = MtrEvaluator::new(&net, &tms, k3_config()).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let order: Vec<u32> = (0..scenarios.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        let got = sum_set_costs_bounded(
            &ev,
            &w,
            &SliceSet::new(&scenarios, None),
            &positions(scenarios.len()),
            1,
            &VecCost::zeros(3),
            &order,
            &[],
            None,
            None,
            &mut scratch,
        );
        assert_eq!(
            got,
            SetSweep::Cut {
                evaluated: 1,
                floor_cut: false
            }
        );
    }

    #[test]
    fn floors_hasten_cuts_without_changing_completions() {
        let (net, tms) = testbed(3);
        let ev = MtrEvaluator::new(&net, &tms, k3_config()).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let scenarios = scenario_zoo(&net);
        let set = SliceSet::new(&scenarios, None);
        let idx = positions(scenarios.len());
        let mut ws = ev.acquire_workspace();
        let floors: Vec<VecCost> = scenarios
            .iter()
            .map(|&sc| VecCost::new(ev.engine().scenario_floor(&mut ws, sc, true).to_vec()))
            .collect();
        MtrEvaluator::release_workspace(&ev, ws);
        // Sanity: the load-aware floors are non-trivial on this testbed.
        let mut floor_sum = VecCost::zeros(3);
        for f in &floors {
            floor_sum.add_assign(f);
        }
        assert!(floor_sum.components().iter().any(|&c| c > 0.0));
        // Per-component soundness: every floor bounds its scenario's
        // exact cost from below.
        let exact = evaluate_set(&ev, &w, &set, &idx, 1);
        for ((f, c), sc) in floors.iter().zip(&exact).zip(&scenarios) {
            for (fk, ck) in f.components().iter().zip(c.components()) {
                assert!(fk <= ck, "floor exceeds exact component under {sc}");
            }
        }
        let order: Vec<u32> = (0..scenarios.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        // Beatable incumbent: floors never change a completed sweep.
        let never = VecCost::new(vec![f64::MAX; 3]);
        for threads in [1, 3] {
            let got = sum_set_costs_bounded(
                &ev,
                &w,
                &set,
                &idx,
                threads,
                &never,
                &order,
                &[],
                Some(&floors),
                None,
                &mut scratch,
            );
            let want = sum_set_costs(&ev, &w, &set, &idx, 1);
            assert_eq!(got, SetSweep::Complete(want), "threads={threads}");
        }
        // An incumbent below the summed floors is cut without finishing.
        let below = floor_sum.scale(0.5);
        let got = sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &idx,
            1,
            &below,
            &order,
            &[],
            Some(&floors),
            None,
            &mut scratch,
        );
        assert!(
            matches!(got, SetSweep::Cut { .. }),
            "expected a cut, got {got:?}"
        );
    }

    #[test]
    fn stop_rule_stops_on_stagnation() {
        let mut rule = StopRule::new(2, 0.001);
        let c = VecCost::new(vec![5.0, 1.0, 2.0]);
        assert!(!rule.record(c.clone()));
        assert!(!rule.record(c.clone()));
        assert!(rule.record(c));
    }

    #[test]
    fn stop_rule_keeps_going_while_improving() {
        let mut rule = StopRule::new(1, 0.001);
        assert!(!rule.record(VecCost::new(vec![100.0, 1.0, 7.0])));
        assert!(!rule.record(VecCost::new(vec![50.0, 1.0, 7.0])));
        assert!(!rule.record(VecCost::new(vec![25.0, 1.0, 7.0])));
        // Only the last component moves, and by less than `c`.
        assert!(rule.record(VecCost::new(vec![25.0, 1.0, 6.9999])));
    }

    #[test]
    fn stop_rule_history_is_bounded_to_its_window() {
        let mut rule = StopRule::new(2, 1e-9);
        for i in 0..500 {
            assert!(!rule.record(VecCost::new(vec![1e9 / (i + 1) as f64, 0.0, 1.0])));
            assert!(rule.history().len() <= 3);
        }
    }

    /// The fingerprint screen must dedup exactly like the historical full
    /// weight-vector scan.
    #[test]
    fn archive_fingerprint_dedup_matches_exact_scan() {
        struct RefArchive {
            entries: Vec<(MtrWeightSetting, VecCost)>,
            cap: usize,
        }
        impl RefArchive {
            fn offer(&mut self, w: &MtrWeightSetting, cost: VecCost) {
                if self.entries.iter().any(|(e, _)| e == w) {
                    return;
                }
                let pos = self
                    .entries
                    .iter()
                    .position(|(_, c)| SearchCost::better_than(&cost, c))
                    .unwrap_or(self.entries.len());
                if pos >= self.cap {
                    return;
                }
                self.entries.insert(pos, (w.clone(), cost));
                self.entries.truncate(self.cap);
            }
        }

        let mut rng = StdRng::seed_from_u64(31);
        let mut fast = Archive::new(3);
        let mut slow = RefArchive {
            entries: Vec::new(),
            cap: 3,
        };
        let mut seen: Vec<MtrWeightSetting> = Vec::new();
        for i in 0..150 {
            let w = if i % 4 == 0 && !seen.is_empty() {
                seen[i % seen.len()].clone()
            } else {
                let w = MtrWeightSetting::random(3, 6, 20, &mut rng);
                seen.push(w.clone());
                w
            };
            let cost = VecCost::new(vec![
                (i * 31 % 17) as f64,
                (i * 13 % 7) as f64,
                (i % 5) as f64,
            ]);
            fast.offer(&w, cost.clone());
            slow.offer(&w, cost);
            assert_eq!(
                fast.entries(),
                slow.entries.as_slice(),
                "diverged at offer {i}"
            );
        }
    }

    #[test]
    fn archive_orders_best_first_and_caps() {
        let mut a = Archive::new(2);
        let w1 = MtrWeightSetting::uniform(3, 4, 20);
        let mut w2 = w1.clone();
        w2.set(0, LinkId::new(0), 2);
        let mut w3 = w1.clone();
        w3.set(2, LinkId::new(1), 3);
        a.offer(&w1, VecCost::new(vec![10.0, 0.0, 0.0]));
        a.offer(&w2, VecCost::new(vec![5.0, 0.0, 0.0]));
        a.offer(&w3, VecCost::new(vec![7.0, 0.0, 0.0]));
        assert_eq!(a.len(), 2);
        assert_eq!(a.best().unwrap().1, VecCost::new(vec![5.0, 0.0, 0.0]));
        // Duplicate weights ignored.
        a.offer(&w2, VecCost::new(vec![1.0, 0.0, 0.0]));
        assert_eq!(a.len(), 2);
    }
}
