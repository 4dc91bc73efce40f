//! Phase 1a — regular optimization with failure-cost sample harvesting,
//! written once for every cost vector.
//!
//! Local search on the normal-conditions cost (`Knormal = ⟨Λnormal,
//! Φnormal⟩`, Eq. 3, for DTR; the k-vector for MTR). Every sweep re-draws
//! the class weights of each physical link in random order, accepting
//! lexicographic improvements. Two side products are collected *for
//! free* (§IV-D1):
//!
//! * **failure-cost samples** — when a proposal lands in the
//!   failure-emulation band `[q·wmax, wmax]` in every class for a
//!   failable link *and* the pre-perturbation setting was "acceptable"
//!   ([`RobustEngine::acceptable`]; DTR: `Λ` within `z·B1` of the running
//!   best, `Φ` within `(1+χ)×`), the post-perturbation cost is recorded
//!   as a sample of that link's conditional failure-cost distribution;
//! * **an archive of acceptable settings** — Phase 2 diversifies from
//!   these instead of from random noise.
//!
//! The criticality ranking is re-estimated every `τ` average samples per
//! link; Phase 1a reports whether it converged (else Phase 1b tops up).
//!
//! [`harvest`] is generic over [`RobustEngine`], like the robust search:
//! [`run`] is DTR's instantiation and `dtr_mtr::search::regular` MTR's.
//! Both seed the RNG with `seed ^ 0x9e37_79b9_7f4a_7c15` and draw one
//! weight per class per link, in class order, for moves and restarts.
//!
//! Each sweep is the shared serial move loop ([`crate::search::sweep`]):
//! sample harvesting, archive offers and the accept/reject sequence
//! happen in draw order on the caller's thread, whatever `threads` is.

use dtr_cost::{Evaluator, LexCost};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use dtr_routing::{Scenario, WeightSetting};

use crate::criticality::Criticality;
use crate::parallel::cost_of;
use crate::params::Params;
use crate::ranking::RankTracker;
use crate::robust::{RobustEngine, RobustKnobs};
use crate::samples::SampleStore;
use crate::search::{sweep, Archive, Decision, MoveOutcome, SearchCost, SearchStats, StopRule};
use crate::universe::FailureUniverse;

/// Everything Phase 1 hands to the rest of the pipeline (DTR's cost by
/// default; `dtr_mtr::MtrRegularOutput` is the k-class instance).
#[derive(Clone, Debug)]
pub struct Phase1Output<C = LexCost> {
    /// Best weight setting found for normal conditions.
    pub best: WeightSetting,
    /// Its cost — the benchmarks `Λ*normal`, `Φ*normal` of Eqs. (5)–(6).
    pub best_cost: C,
    /// Acceptable settings collected along the way (Phase-2 start points;
    /// always contains `best`).
    pub archive: Archive<C>,
    /// Failure-cost samples per (class, failable link).
    pub store: SampleStore,
    /// Rank tracker (carried into Phase 1b if needed).
    pub tracker: RankTracker,
    /// `true` if the criticality ranking converged during Phase 1a.
    pub converged: bool,
    /// Per-proposal accept/reject sequence (empty unless
    /// `params.record_trace`).
    pub trace: Vec<MoveOutcome>,
    pub stats: SearchStats,
}

/// Pre-perturbation acceptability (§IV-D1's relaxed Eqs. 5–6): `Λ` within
/// `z·B1` of the best seen so far, `Φ` within `(1+χ)` of it.
pub fn acceptable(cost: &LexCost, best: &LexCost, z: f64, chi: f64, b1: f64) -> bool {
    cost.lambda <= best.lambda + z * b1 && cost.phi <= (1.0 + chi) * best.phi
}

/// Run DTR's Phase 1a.
pub fn run(ev: &Evaluator<'_>, universe: &FailureUniverse, params: &Params) -> Phase1Output {
    harvest(ev, universe, params)
}

/// Phase 1a for any [`RobustEngine`]: the regular search on the
/// normal-conditions cost with the failure-cost sample harvest, the
/// archive of acceptable settings and the rank-convergence checks.
pub fn harvest<E: RobustEngine>(
    ev: &E,
    universe: &FailureUniverse,
    params: &E::Params,
) -> Phase1Output<E::Cost> {
    let (knobs, gate) = (&E::knobs(params), &E::gate(params));
    let mut rng = StdRng::seed_from_u64(knobs.seed ^ 0x9e37_79b9_7f4a_7c15);

    let mut store = SampleStore::with_classes(ev.engine().num_classes(), universe.len());
    let mut tracker = RankTracker::new();
    let mut converged = false;
    let mut next_checkpoint = knobs.tau * universe.len().max(1);

    let mut stats = SearchStats::default();
    let mut stop = StopRule::new(knobs.p1, knobs.c);
    let mut archive = Archive::new(knobs.archive_size);

    let mut current = random_setting(ev, knobs.wmax, &mut rng);
    let mut current_cost = normal_cost(ev, &current);
    stats.evaluations += 1;
    let mut best = current.clone();
    let mut best_cost = current_cost.clone();
    archive.offer(&best, best_cost.clone());

    let mut reps: Vec<_> = universe.all_duplex.clone();
    let mut stale_sweeps = 0usize;
    let mut trace: Vec<MoveOutcome> = Vec::new();

    while stats.iterations < knobs.max_iterations {
        stats.iterations += 1;
        reps.shuffle(&mut rng);
        let mut improved = false;

        sweep(
            ev,
            &reps,
            knobs.wmax,
            &mut rng,
            &mut current,
            |cand_w, rep, cand| {
                stats.evaluations += 1;
                // `current_cost` is the pre-move cost here (the driver
                // applies the move to the setting only, never the cost).
                let base_acceptable = ev.acceptable(&current_cost, &best_cost, knobs.z, gate);

                // Sample harvest: the proposal emulates this link's
                // failure.
                if base_acceptable && cand_w.emulates_failure(rep, knobs.q) {
                    if let Some(fi) = universe.failure_index(rep) {
                        store.record(fi, cand);
                    }
                }

                if cand.better_than(&current_cost) {
                    current_cost = cand.clone();
                    improved = true;
                    if cand.better_than(&best_cost) {
                        best.clone_from(cand_w);
                        best_cost = cand.clone();
                    }
                    if ev.acceptable(cand, &best_cost, knobs.z, gate) {
                        archive.offer(cand_w, cand.clone());
                    }
                    if knobs.record_trace {
                        trace.push(MoveOutcome::Accept);
                    }
                    Decision::Accept
                } else {
                    if knobs.record_trace {
                        trace.push(MoveOutcome::Reject);
                    }
                    Decision::Reject
                }
            },
        );

        // Criticality-rank convergence checks every τ samples/link.
        while store.total() >= next_checkpoint {
            if let Some(c) = rank_check(&store, &mut tracker, knobs) {
                converged = c;
            }
            next_checkpoint += knobs.tau * universe.len().max(1);
        }

        stale_sweeps = if improved { 0 } else { stale_sweeps + 1 };
        if stale_sweeps >= knobs.div_interval_1 {
            stats.diversifications += 1;
            stale_sweeps = 0;
            if stop.record(best_cost.clone()) {
                break;
            }
            current = random_setting(ev, knobs.wmax, &mut rng);
            current_cost = normal_cost(ev, &current);
            stats.evaluations += 1;
        }
    }

    // The final best is acceptable by definition (Λ = Λ*, Φ = Φ*).
    archive.offer(&best, best_cost.clone());

    Phase1Output {
        best,
        best_cost,
        archive,
        store,
        tracker,
        converged,
        trace,
        stats,
    }
}

/// Re-estimate the criticality, feed its rankings to the tracker and
/// report whether every class's rank-change index is at or below `e`
/// (`None` on the tracker's first update).
pub(crate) fn rank_check(
    store: &SampleStore,
    tracker: &mut RankTracker,
    knobs: &RobustKnobs,
) -> Option<bool> {
    let crit = Criticality::estimate(store, knobs.left_tail_fraction);
    tracker
        .update(&crit.rankings())
        .map(|changes| changes.iter().all(|&s| s <= knobs.e))
}

/// The normal-conditions cost of `w`, through a pooled workspace of the
/// engine.
pub(crate) fn normal_cost<E: RobustEngine>(ev: &E, w: &WeightSetting) -> E::Cost {
    let eng = ev.engine();
    let mut ws = eng.acquire_workspace();
    let cost = cost_of(eng.cost_with(&mut ws, w, Scenario::Normal));
    eng.release_workspace(ws);
    cost
}

/// A symmetric random setting (diversification restart state): every
/// directed link starts at weight 1, then each physical link gets one
/// fresh move on both directions.
pub(crate) fn random_setting<E: RobustEngine>(
    ev: &E,
    wmax: u32,
    rng: &mut StdRng,
) -> WeightSetting {
    let net = ev.engine().net();
    let mut w = WeightSetting::uniform_k(ev.engine().num_classes(), net.num_links(), wmax);
    for rep in net.duplex_representatives() {
        let mv = ev.draw_move(1, wmax, rng);
        ev.apply_move(&mut w, rep, &mv);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    /// Small 2-connected test network: 6-ring with two chords.
    fn testbed() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new((i as f64 * 1.05).cos(), (i as f64 * 1.05).sin())))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let mut tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 2e6,
            ..gravity::GravityConfig::paper_default(6, 5)
        });
        // Moderate load.
        tm.scale(1.0);
        (net, tm)
    }

    #[test]
    fn phase1_improves_over_random_start() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(7);
        let out = run(&ev, &universe, &params);

        // The found best must beat (or match) a handful of random settings.
        let mut rng = StdRng::seed_from_u64(999);
        for _ in 0..10 {
            let w = random_setting(&ev, params.wmax, &mut rng);
            let c = ev.cost(&w, Scenario::Normal);
            assert!(
                !c.better_than(&out.best_cost),
                "random setting beat phase-1 best: {c} < {}",
                out.best_cost
            );
        }
        assert!(out.stats.evaluations > 50);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn rank_check_needs_every_class_converged() {
        let knobs = RobustKnobs {
            e: 0.5,
            ..Evaluator::knobs(&Params::quick(1))
        };
        let mut store = SampleStore::new(3);
        let mut tracker = RankTracker::new();
        // Link i spreads by i in Λ and by 2 − i in Φ: opposed rankings.
        for i in 0..3 {
            for v in [0.0, 1.0] {
                let (l, p) = (10.0 + v * i as f64, 10.0 + v * (2 - i) as f64);
                store.record(i, &LexCost::new(l, p));
            }
        }
        assert_eq!(rank_check(&store, &mut tracker, &knobs), None);
        assert_eq!(rank_check(&store, &mut tracker, &knobs), Some(true));
        // Widen link 0's Λ spread only: Λ re-ranks (index 1.5), Φ stays.
        store.record(0, &LexCost::new(0.0, 10.0));
        store.record(0, &LexCost::new(100.0, 12.0));
        assert_eq!(rank_check(&store, &mut tracker, &knobs), Some(false));
        assert_eq!(rank_check(&store, &mut tracker, &knobs), Some(true));
    }

    #[test]
    fn random_setting_is_symmetric() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = random_setting(&ev, 20, &mut StdRng::seed_from_u64(3));
        for l in net.links() {
            let r = net.reverse_link(l).unwrap();
            assert_eq!(w.weights(0)[l.index()], w.weights(0)[r.index()]);
            assert_eq!(w.weights(1)[l.index()], w.weights(1)[r.index()]);
        }
    }

    #[test]
    fn best_cost_matches_reported_weights() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let out = run(&ev, &universe, &Params::quick(3));
        let recheck = ev.cost(&out.best, Scenario::Normal);
        assert_eq!(recheck, out.best_cost);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let a = run(&ev, &universe, &Params::quick(11));
        let b = run(&ev, &universe, &Params::quick(11));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.store.total(), b.store.total());
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let a = run(&ev, &universe, &Params::quick(1));
        let b = run(&ev, &universe, &Params::quick(2));
        // Different trajectories (costs may coincide, weights rarely do).
        assert!(a.best != b.best || a.stats.evaluations != b.stats.evaluations);
    }

    #[test]
    fn samples_are_harvested_for_failable_links() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let out = run(&ev, &universe, &Params::quick(5));
        // With wmax=20 and q=0.7 the emulation band is [14,20]^2:
        // (7/20)^2 ≈ 12% of proposals; the quick run makes hundreds.
        assert!(
            out.store.total() > 0,
            "expected some failure-emulating samples"
        );
    }

    #[test]
    fn archive_entries_are_acceptable() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(13);
        let out = run(&ev, &universe, &params);
        let b1 = ev.params().b1;
        for (w, c) in out.archive.entries() {
            // Cached cost must be truthful.
            assert_eq!(*c, ev.cost(w, Scenario::Normal));
            // And acceptable relative to the final best.
            assert!(acceptable(c, &out.best_cost, params.z, params.chi, b1));
        }
    }

    #[test]
    fn acceptability_definition() {
        let best = LexCost::new(100.0, 10.0);
        // z=0.5, B1=100 -> Λ slack 50; χ=0.2 -> Φ cap 12.
        assert!(acceptable(
            &LexCost::new(150.0, 12.0),
            &best,
            0.5,
            0.2,
            100.0
        ));
        assert!(!acceptable(
            &LexCost::new(151.0, 10.0),
            &best,
            0.5,
            0.2,
            100.0
        ));
        assert!(!acceptable(
            &LexCost::new(100.0, 12.1),
            &best,
            0.5,
            0.2,
            100.0
        ));
    }
}
