//! The regular phase and the sample top-up for k classes — MTR's
//! instantiation of dtr-core's one Phase 1 (`dtr_core::phase1::harvest`
//! and `dtr_core::phase1b::top_up`).
//!
//! The local search minimizes the normal-conditions k-vector cost. Every
//! sweep re-draws all k weights of each physical link in random order,
//! accepting lexicographic improvements. Failure-emulating proposals
//! (every class weight of a link in `[q·wmax, wmax]`) harvested from
//! acceptable settings feed the per-class criticality estimates; if the
//! k rankings have not all converged, targeted sampling tops them up.
//! What is MTR's own is the sample gate, [`acceptable`]; the sampling
//! loops, the store, the rank tracking and the criticality estimate are
//! shared with DTR.

use dtr_core::{phase1, phase1b, FailureUniverse};

use crate::class::ClassSpec;
use crate::cost::VecCost;
use crate::evaluator::MtrEvaluator;
use crate::params::MtrParams;

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

/// Everything the regular phase hands to the rest of the pipeline: the
/// k-class instance of dtr-core's Phase-1 output.
pub type MtrRegularOutput = phase1::Phase1Output<VecCost>;

/// Run the regular phase (Phase-1a analogue).
pub fn regular(
    ev: &MtrEvaluator<'_>,
    universe: &FailureUniverse,
    params: &MtrParams,
) -> MtrRegularOutput {
    phase1::harvest(ev, universe, params)
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
    let stats = phase1b::top_up(ev, universe, params, out);
    (stats.rounds, stats.evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassSpec, MtrConfig};
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_routing::{Scenario, WeightSetting};
    use dtr_traffic::TrafficMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let w = WeightSetting::random_symmetric(3, &net, params.wmax, &mut rng);
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
}
