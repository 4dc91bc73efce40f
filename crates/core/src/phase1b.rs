//! Phase 1b — targeted sample generation until rank convergence, written
//! once for every cost vector.
//!
//! Phase 1a's samples are a by-product of the optimization walk: a link
//! only gets one when a random proposal happens to land in the failure-
//! emulation band. If the criticality *ranking* has not stabilized by the
//! end of Phase 1a (rank-change index above `e` in some class), Phase 1b
//! manufactures samples directly (§IV-D1): take an acceptable setting from
//! the archive, force one failable link's class weights into
//! `[⌈q·wmax⌉, wmax]`, evaluate, record. Each round adds `τ` samples per
//! link (poorest-sampled links first within a round), then re-checks
//! convergence.
//!
//! [`top_up`] is generic over [`RobustEngine`]: [`run`] is DTR's
//! instantiation and `dtr_mtr::search::top_up_samples` MTR's. Both seed
//! the RNG with `seed ^ 0x517c_c1b7_2722_0a95`.
//!
//! Manufactured samples are embarrassingly parallel — no acceptance, no
//! state mutation between evaluations. Candidates are pre-drawn in RNG
//! order in batches of `4 · threads`, evaluated concurrently on
//! `threads` pooled workspaces, and recorded serially in draw order, so
//! the recorded samples are bit-for-bit (and in the same order as) the
//! serial loop's for every thread count.

use dtr_cost::Evaluator;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::params::Params;
use crate::phase1::{normal_cost, rank_check, Phase1Output};
use crate::robust::{RobustEngine, RobustKnobs};
use crate::search::{emulation_floor, ClassWeights};
use crate::universe::FailureUniverse;

/// Phase-1b accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Phase1bStats {
    /// Sampling rounds executed (0 if Phase 1a had already converged).
    pub rounds: usize,
    /// Evaluations spent on manufactured samples.
    pub evaluations: usize,
    /// Whether the ranking converged by the end.
    pub converged: bool,
}

/// Run DTR's Phase 1b in place on the Phase-1 output. No-op if already
/// converged or if nothing can fail.
pub fn run(
    ev: &Evaluator<'_>,
    universe: &FailureUniverse,
    params: &Params,
    phase1: &mut Phase1Output,
) -> Phase1bStats {
    top_up(ev, universe, &params.into(), phase1)
}

/// Phase 1b for any [`RobustEngine`], in place on the Phase-1 output:
/// manufacture failure-emulating samples from archived settings until
/// every class ranking converges or `max_top_up_rounds` rounds ran.
/// No-op if already converged or if nothing can fail.
pub fn top_up<E: RobustEngine>(
    ev: &E,
    universe: &FailureUniverse,
    knobs: &RobustKnobs,
    phase1: &mut Phase1Output<E::Weights, E::Cost>,
) -> Phase1bStats {
    let mut stats = Phase1bStats {
        converged: phase1.converged,
        ..Default::default()
    };
    if phase1.converged || universe.is_empty() {
        return stats;
    }
    let mut rng = StdRng::seed_from_u64(knobs.seed ^ 0x517c_c1b7_2722_0a95);
    let floor = emulation_floor(knobs.wmax, knobs.q);

    while !stats.converged && stats.rounds < knobs.max_top_up_rounds {
        stats.rounds += 1;

        // τ samples per link this round, poorest links first so coverage
        // stays balanced (the estimate quality is gated by the weakest
        // link's sample count).
        let mut order: Vec<usize> = (0..universe.len()).collect();
        order.sort_by_key(|&i| phase1.store.count(i));
        let batch_size = 4 * knobs.threads;
        let mut cands: Vec<(usize, E::Weights)> = Vec::with_capacity(batch_size);
        for _ in 0..knobs.tau {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch_size) {
                // Pre-draw the whole batch in RNG order, then evaluate it
                // concurrently and record in draw order.
                cands.clear();
                for &fi in chunk {
                    let rep = universe.failable[fi];
                    let (base, _) = phase1
                        .archive
                        .sample(&mut rng)
                        .expect("phase 1 always archives its best setting");
                    let mut w = base.clone();
                    let mv = ev.draw_move(floor, knobs.wmax, &mut rng);
                    ev.apply_move(&mut w, rep, &mv);
                    debug_assert!(w.emulates_failure(rep, knobs.q));
                    cands.push((fi, w));
                }
                let costs = crate::parallel::parallel_map(&cands, knobs.threads, |(_, w)| {
                    normal_cost(ev, w)
                });
                for ((fi, _), cost) in cands.iter().zip(costs) {
                    stats.evaluations += 1;
                    phase1.store.record(*fi, &cost);
                }
            }
        }

        if let Some(c) = rank_check(&phase1.store, &mut phase1.tracker, knobs) {
            stats.converged = c;
        }
    }
    phase1.converged = stats.converged;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase1;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    fn testbed() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64, (i % 2) as f64)))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 2e6,
            ..gravity::GravityConfig::paper_default(6, 1)
        });
        (net, tm)
    }

    #[test]
    fn tops_up_samples_until_convergence_or_cap() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(2);
        let mut p1 = phase1::run(&ev, &universe, &params);
        let before = p1.store.total();
        p1.converged = false; // force Phase 1b to run
        let stats = run(&ev, &universe, &params, &mut p1);
        assert!(stats.rounds >= 1);
        assert!(p1.store.total() > before);
        // Every round adds exactly tau samples per failable link.
        assert_eq!(
            p1.store.total() - before,
            stats.rounds * params.tau * universe.len()
        );
        assert_eq!(stats.evaluations, p1.store.total() - before);
    }

    #[test]
    fn noop_when_already_converged() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(2);
        let mut p1 = phase1::run(&ev, &universe, &params);
        p1.converged = true;
        let before = p1.store.total();
        let stats = run(&ev, &universe, &params, &mut p1);
        assert_eq!(stats.rounds, 0);
        assert_eq!(p1.store.total(), before);
        assert!(stats.converged);
    }

    #[test]
    fn sample_balance_improves() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(4);
        let mut p1 = phase1::run(&ev, &universe, &params);
        p1.converged = false;
        run(&ev, &universe, &params, &mut p1);
        // After 1b, every failable link has at least tau samples.
        assert!(p1.store.min_count() >= params.tau);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(6);
        let mk = || {
            let mut p1 = phase1::run(&ev, &universe, &params);
            p1.converged = false;
            let st = run(&ev, &universe, &params, &mut p1);
            (st, p1.store.total())
        };
        assert_eq!(mk(), mk());
    }
}
