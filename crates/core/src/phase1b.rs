//! Phase 1b — targeted sample generation until rank convergence, written
//! once for every cost vector.
//!
//! Phase 1a's samples are a by-product of the optimization walk: a link
//! only gets one when a random proposal happens to land in the failure-
//! emulation band. If the criticality *ranking* has not stabilized by the
//! end of Phase 1a (rank-change index above `e` in some class), Phase 1b
//! manufactures samples directly (§IV-D1): take an acceptable setting from
//! the archive, force one failable link's class weights into
//! `[⌈q·wmax⌉, wmax]`, evaluate, record. A round is `τ` passes over every
//! failable link, each pass in a fresh shuffle of the link order, so
//! every link gets exactly `τ` samples per round; then convergence is
//! re-checked.
//!
//! [`top_up`] is generic over [`RobustEngine`]: [`run`] is DTR's
//! instantiation and `dtr_mtr::search::top_up_samples` MTR's. Both seed
//! the RNG with `seed ^ 0x517c_c1b7_2722_0a95`.
//!
//! Manufactured samples are embarrassingly parallel — no acceptance, no
//! state mutation between evaluations. Each round is drawn whole first,
//! in RNG order, as `(failure index, archive member, move)` triples.
//! It is then evaluated grouped by archive member, in a stable sort. The
//! member-ordered round is split into up to `threads` contiguous chunks
//! ([`crate::parallel::parallel_map`]), each with one pooled workspace
//! and one weight buffer. At the first draw of each member group in a
//! chunk the workspace baseline moves onto the member
//! ([`dtr_cost::Engine::ensure_baseline`]); after that a draw differs
//! from the baseline's member on one duplex link only, so its baseline
//! repair covers that link, and the next draw's baseline first swaps
//! the records that repair replaced back (the engine's undo) and then
//! repairs its own link. The samples are recorded in draw order. A cost
//! has the same bits from any workspace baseline, so the recorded
//! samples are bit-for-bit (and in the same order as) the serial loop's
//! for every thread count.

use dtr_cost::Evaluator;
use dtr_routing::Scenario;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::parallel::{cost_of, parallel_map};
use crate::params::Params;
use crate::phase1::{rank_check, Phase1Output};
use crate::robust::RobustEngine;
use crate::search::emulation_floor;
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
    top_up(ev, universe, params, phase1)
}

/// Phase 1b for any [`RobustEngine`], in place on the Phase-1 output:
/// manufacture failure-emulating samples from archived settings until
/// every class ranking converges or `max_top_up_rounds` rounds ran.
/// No-op if already converged or if nothing can fail.
pub fn top_up<E: RobustEngine>(
    ev: &E,
    universe: &FailureUniverse,
    params: &E::Params,
    phase1: &mut Phase1Output<E::Cost>,
) -> Phase1bStats {
    let knobs = &E::knobs(params);
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

        // Draw the round whole, in RNG order: per pass the shuffle, per
        // link the archive pick and then the emulating move. Each pass
        // shuffles every link, so each gets exactly τ samples; sorting
        // by sample count only fixes the order the first shuffle starts
        // from, which the RNG stream (and so every sample) depends on.
        let mut order: Vec<usize> = (0..universe.len()).collect();
        order.sort_by_key(|&i| phase1.store.count(i));
        let mut round: Vec<(usize, usize, E::Move)> = Vec::with_capacity(knobs.tau * order.len());
        for _ in 0..knobs.tau {
            order.shuffle(&mut rng);
            for &fi in &order {
                let member = phase1
                    .archive
                    .sample_index(&mut rng)
                    .expect("phase 1 always archives its best setting");
                round.push((fi, member, ev.draw_move(floor, knobs.wmax, &mut rng)));
            }
        }

        // Evaluate grouped by member (the stable sort keeps draw order
        // within a group). The baseline moves onto each member once per
        // group, so a draw diffs one duplex link against its member and
        // the next draw undoes back to it.
        let mut by_member: Vec<usize> = (0..round.len()).collect();
        by_member.sort_by_key(|&d| round[d].1);
        let members = phase1.archive.entries();
        let costs = parallel_map(&by_member, knobs.threads, |part| {
            let eng = ev.engine();
            let mut ws = eng.acquire_workspace();
            let mut w = members[0].0.clone();
            let mut baseline_at = None;
            let costs = part
                .iter()
                .map(|&d| {
                    let (fi, member, ref mv) = round[d];
                    let rep = universe.failable[fi];
                    if baseline_at != Some(member) {
                        eng.ensure_baseline(&mut ws, &members[member].0);
                        baseline_at = Some(member);
                    }
                    w.clone_from(&members[member].0);
                    ev.apply_move(&mut w, rep, mv);
                    debug_assert!(w.emulates_failure(rep, knobs.q));
                    cost_of::<E::Cost>(eng.cost_with(&mut ws, &w, Scenario::Normal))
                })
                .collect();
            eng.release_workspace(ws);
            costs
        });

        // Record in draw order: `costs[at[d]]` is draw `d`'s cost.
        let mut at = vec![0; round.len()];
        for (j, &d) in by_member.iter().enumerate() {
            at[d] = j;
        }
        for (&(fi, _, _), &j) in round.iter().zip(&at) {
            stats.evaluations += 1;
            phase1.store.record(fi, &costs[j]);
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
