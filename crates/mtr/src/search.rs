//! Regular optimization + sample harvest for k classes — the MTR
//! generalization of Phases 1a/1b.
//!
//! The local search minimizes the normal-conditions k-vector cost. Every
//! sweep re-draws all k weights of each physical link in random order,
//! accepting lexicographic improvements. Failure-emulating proposals
//! (every class weight of a link in `[q·wmax, wmax]`) harvested from
//! acceptable settings feed the per-class criticality estimates; if the
//! k rankings have not all converged, targeted sampling tops them up.

use dtr_net::Network;
use dtr_routing::Scenario;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dtr_core::ranking::weighted_rank_change;
use dtr_core::robust::RobustEngine;
use dtr_core::search::{
    speculative_sweep, Archive, Decision, MoveOutcome, SearchStats, SpecBuffers, StopRule,
};
use dtr_core::FailureUniverse;

use crate::class::ClassSpec;
use crate::cost::VecCost;
use crate::criticality::KWayCriticality;
use crate::evaluator::MtrEvaluator;
use crate::params::MtrParams;
use crate::samples::MtrSampleStore;
use crate::weights::MtrWeightSetting;

/// Rank-convergence tracker over k class rankings (§IV-D1 generalized):
/// converged when the weighted rank-change index of *every* class is at
/// or below `e`.
#[derive(Clone, Debug, Default)]
pub struct KRankTracker {
    prev: Option<Vec<Vec<usize>>>,
}

impl KRankTracker {
    /// Fresh tracker with no baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the current per-class rankings; returns the per-class change
    /// indices, or `None` on the first call.
    pub fn update(&mut self, rankings: &[Vec<usize>]) -> Option<Vec<f64>> {
        let change = self.prev.as_ref().map(|prev| {
            prev.iter()
                .zip(rankings)
                .map(|(p, c)| weighted_rank_change(p, c))
                .collect()
        });
        self.prev = Some(rankings.to_vec());
        change
    }
}

/// `true` when every class's rank-change index is at or below `e`.
pub fn all_converged(changes: &[f64], e: f64) -> bool {
    changes.iter().all(|&s| s <= e)
}

/// Pre-perturbation acceptability (§IV-D1 relaxed, per class): each
/// class's cost within its constraint-derived slack of the best seen.
pub fn acceptable(cost: &VecCost, best: &VecCost, specs: &[ClassSpec], z: f64) -> bool {
    debug_assert_eq!(cost.len(), specs.len());
    cost.components()
        .iter()
        .zip(best.components())
        .zip(specs)
        .all(|((&c, &b), spec)| {
            let z_b1 = match spec.cost {
                crate::class::CostModel::SlaDelay { b1, .. } => z * b1,
                crate::class::CostModel::Congestion => 0.0,
            };
            c <= spec.constraint.sample_slack(b, z_b1) + crate::cost::COMPONENT_EPS
        })
}

/// Everything the regular phase hands to the rest of the pipeline.
#[derive(Clone, Debug)]
pub struct MtrRegularOutput {
    /// Best weight setting found for normal conditions.
    pub best: MtrWeightSetting,
    /// Its cost — the per-class benchmarks of the robust phase.
    pub best_cost: VecCost,
    /// Acceptable settings collected along the way.
    pub archive: Archive<MtrWeightSetting, VecCost>,
    /// Failure-cost samples per (class, failable link).
    pub store: MtrSampleStore,
    /// Rank tracker (carried into the top-up step).
    pub tracker: KRankTracker,
    /// `true` if every class's criticality ranking converged.
    pub converged: bool,
    /// Per-proposal accept/reject sequence (empty unless
    /// `params.record_trace`).
    pub trace: Vec<MoveOutcome>,
    /// Effort spent.
    pub stats: SearchStats,
}

/// Draw k weights in the failure-emulation band `[⌈q·wmax⌉, wmax]`.
fn failure_emulating_weights(k: usize, wmax: u32, q: f64, rng: &mut StdRng) -> Vec<u32> {
    let floor = ((q * wmax as f64).ceil() as u32).clamp(1, wmax);
    (0..k).map(|_| rng.gen_range(floor..=wmax)).collect()
}

/// Run the regular phase (Phase-1a analogue).
pub fn regular(
    ev: &MtrEvaluator<'_>,
    universe: &FailureUniverse,
    params: &MtrParams,
) -> MtrRegularOutput {
    params.validate();
    let net = ev.net();
    let k = ev.num_classes();
    let specs = &ev.config().specs;
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x9e37_79b9_7f4a_7c15);

    let mut store = MtrSampleStore::new(k, universe.len());
    let mut tracker = KRankTracker::new();
    let mut converged = false;
    let mut next_checkpoint = params.tau * universe.len().max(1);

    let mut stats = SearchStats::default();
    let mut stop = StopRule::new(params.p1, params.c);
    let mut archive = Archive::new(params.archive_size);

    let mut current = MtrWeightSetting::random_symmetric(k, net, params.wmax, &mut rng);
    let mut current_cost = ev.cost(&current, Scenario::Normal);
    stats.evaluations += 1;
    let mut best = current.clone();
    let mut best_cost = current_cost.clone();
    archive.offer(&best, best_cost.clone());

    let mut reps = universe.all_duplex.clone();
    let mut stale_sweeps = 0usize;
    let mut spec = SpecBuffers::new();
    let mut trace: Vec<MoveOutcome> = Vec::new();

    while stats.iterations < params.max_iterations {
        stats.iterations += 1;
        reps.shuffle(&mut rng);
        let mut improved = false;
        let mut wasted = 0usize;

        speculative_sweep(
            &reps,
            &mut rng,
            params.speculation,
            params.threads,
            params.eager_min_batch,
            &mut current,
            &mut spec,
            &mut wasted,
            |rng| ev.draw_move(params.wmax, rng),
            |w, rep| ev.read_move(w, rep),
            |w, rep, mv| ev.apply_move(w, rep, mv),
            |w| ev.cost(w, Scenario::Normal),
            |cand_w, rep, cand: &VecCost| {
                stats.evaluations += 1;
                // `current_cost` is the pre-move cost here.
                let base_acceptable = acceptable(&current_cost, &best_cost, specs, params.z);

                // Sample harvest: the proposal emulates this link's
                // failure.
                if base_acceptable && cand_w.emulates_failure(rep, params.q) {
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
                    if acceptable(cand, &best_cost, specs, params.z) {
                        archive.offer(cand_w, cand.clone());
                    }
                    if params.record_trace {
                        trace.push(MoveOutcome::Accept);
                    }
                    Decision::Accept
                } else {
                    if params.record_trace {
                        trace.push(MoveOutcome::Reject);
                    }
                    Decision::Reject
                }
            },
        );
        stats.speculative_wasted += wasted;

        // Convergence checks every τ samples/link.
        while store.total() >= next_checkpoint {
            let crit = KWayCriticality::estimate(&store, params.left_tail_fraction);
            if let Some(changes) = tracker.update(&crit.rankings()) {
                converged = all_converged(&changes, params.e);
            }
            next_checkpoint += params.tau * universe.len().max(1);
        }

        stale_sweeps = if improved { 0 } else { stale_sweeps + 1 };
        if stale_sweeps >= params.div_interval_1 {
            stats.diversifications += 1;
            stale_sweeps = 0;
            if stop.record(best_cost.clone()) {
                break;
            }
            current = MtrWeightSetting::random_symmetric(k, net, params.wmax, &mut rng);
            current_cost = ev.cost(&current, Scenario::Normal);
            stats.evaluations += 1;
        }
    }

    archive.offer(&best, best_cost.clone());

    MtrRegularOutput {
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

/// Targeted sample top-up (Phase-1b analogue): manufacture failure-
/// emulating samples from archived settings until every class ranking
/// converges (or the round cap is hit). Returns the number of rounds and
/// evaluations spent.
pub fn top_up_samples(
    ev: &MtrEvaluator<'_>,
    universe: &FailureUniverse,
    params: &MtrParams,
    out: &mut MtrRegularOutput,
) -> (usize, usize) {
    if out.converged || universe.is_empty() {
        return (0, 0);
    }
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x517c_c1b7_2722_0a95);
    let net: &Network = ev.net();
    let k = ev.num_classes();
    let mut rounds = 0usize;
    let mut evaluations = 0usize;

    while !out.converged && rounds < params.max_sampling_rounds {
        rounds += 1;
        let mut order: Vec<usize> = (0..universe.len()).collect();
        order.sort_by_key(|&i| out.store.count(i));
        // Manufactured samples have no acceptance step, so they batch
        // like the Phase-1b kernel: pre-draw in RNG order, evaluate
        // concurrently, record in draw order (bit-for-bit the serial
        // sample stream for every batch size and thread count).
        let batch_size = params.speculation.max(1);
        let mut cands: Vec<(usize, MtrWeightSetting)> = Vec::with_capacity(batch_size);
        for _ in 0..params.tau {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch_size) {
                cands.clear();
                for &fi in chunk {
                    let rep = universe.failable[fi];
                    let (base, _) = out
                        .archive
                        .sample(&mut rng)
                        .expect("regular phase always archives its best setting");
                    let mut w = base.clone();
                    for (c, &v) in failure_emulating_weights(k, params.wmax, params.q, &mut rng)
                        .iter()
                        .enumerate()
                    {
                        w.set_duplex(net, c, rep, v);
                    }
                    debug_assert!(w.emulates_failure(rep, params.q));
                    cands.push((fi, w));
                }
                let costs = dtr_core::parallel::parallel_map(&cands, params.threads, |(_, w)| {
                    ev.cost(w, Scenario::Normal)
                });
                for ((fi, _), cost) in cands.iter().zip(costs) {
                    evaluations += 1;
                    out.store.record(*fi, &cost);
                }
            }
        }
        let crit = KWayCriticality::estimate(&out.store, params.left_tail_fraction);
        if let Some(changes) = out.tracker.update(&crit.rankings()) {
            out.converged = all_converged(&changes, params.e);
        }
    }
    (rounds, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassSpec, MtrConfig};
    use dtr_net::{NetworkBuilder, Point};
    use dtr_traffic::TrafficMatrix;

    fn testbed() -> (Network, Vec<TrafficMatrix>) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new((i as f64).cos(), (i as f64).sin())))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();

        let mut rng = StdRng::seed_from_u64(42);
        let mut tms = vec![TrafficMatrix::zeros(6); 3];
        for tm in tms.iter_mut() {
            for s in 0..6 {
                for t in 0..6 {
                    if s != t {
                        tm.set(s, t, rng.gen_range(1e3..3e4));
                    }
                }
            }
        }
        (net, tms)
    }

    fn config() -> MtrConfig {
        MtrConfig::new(vec![
            ClassSpec::sla("voice", 10e-3),
            ClassSpec::sla("video", 50e-3).relaxed(0.1),
            ClassSpec::congestion("bulk"),
        ])
    }

    #[test]
    fn regular_improves_over_random_settings() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(7);
        let out = regular(&ev, &universe, &params);

        let mut rng = StdRng::seed_from_u64(999);
        for _ in 0..10 {
            let w = MtrWeightSetting::random_symmetric(3, &net, params.wmax, &mut rng);
            let c = ev.cost(&w, Scenario::Normal);
            assert!(
                !c.better_than(&out.best_cost),
                "random setting beat the regular-phase best"
            );
        }
        assert!(out.stats.evaluations > 50);
        assert!(!out.archive.is_empty());
    }

    #[test]
    fn best_cost_is_truthful() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let out = regular(&ev, &universe, &MtrParams::quick(3));
        assert_eq!(ev.cost(&out.best, Scenario::Normal), out.best_cost);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let a = regular(&ev, &universe, &MtrParams::quick(11));
        let b = regular(&ev, &universe, &MtrParams::quick(11));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.store.total(), b.store.total());
    }

    #[test]
    fn top_up_reaches_convergence_or_cap() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(5);
        let mut out = regular(&ev, &universe, &params);
        let before = out.store.total();
        let (rounds, evals) = top_up_samples(&ev, &universe, &params, &mut out);
        if !out.converged {
            assert_eq!(rounds, params.max_sampling_rounds);
        }
        if rounds > 0 {
            assert!(out.store.total() > before);
            assert!(evals > 0);
            // Every failable link now has a healthy sample count.
            assert!(out.store.min_count() >= params.tau * rounds.min(2));
        }
    }

    #[test]
    fn archive_entries_are_acceptable_and_truthful() {
        let (net, tms) = testbed();
        let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = MtrParams::quick(13);
        let out = regular(&ev, &universe, &params);
        for (w, c) in out.archive.entries() {
            assert_eq!(*c, ev.cost(w, Scenario::Normal));
            assert!(acceptable(c, &out.best_cost, &ev.config().specs, params.z));
        }
    }

    #[test]
    fn acceptability_honors_per_class_constraints() {
        let specs = vec![
            ClassSpec::sla("voice", 10e-3),             // Pin, B1=100, z slack
            ClassSpec::congestion("bulk").relaxed(0.2), // 20% budget
        ];
        let best = VecCost::new(vec![100.0, 10.0]);
        // z = 0.5: Λ slack 50, Φ cap 12.
        assert!(acceptable(
            &VecCost::new(vec![150.0, 12.0]),
            &best,
            &specs,
            0.5
        ));
        assert!(!acceptable(
            &VecCost::new(vec![151.0, 10.0]),
            &best,
            &specs,
            0.5
        ));
        assert!(!acceptable(
            &VecCost::new(vec![100.0, 12.5]),
            &best,
            &specs,
            0.5
        ));
    }

    #[test]
    fn rank_tracker_reports_changes_after_baseline() {
        let mut t = KRankTracker::new();
        assert!(t.update(&[vec![0, 1, 2], vec![2, 1, 0]]).is_none());
        let changes = t.update(&[vec![0, 1, 2], vec![2, 1, 0]]).unwrap();
        assert_eq!(changes, vec![0.0, 0.0]);
        assert!(all_converged(&changes, 2.0));
        let changes = t.update(&[vec![2, 1, 0], vec![2, 1, 0]]).unwrap();
        assert!(changes[0] > 0.0);
        assert_eq!(changes[1], 0.0);
    }
}
