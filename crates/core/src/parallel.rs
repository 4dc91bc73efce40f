//! Parallel failure-cost sums.
//!
//! The robust objective `K̄fail` (Eq. 7) requires one full evaluation per
//! critical scenario. The scenarios are independent, so [`evaluate_set`]
//! fans them out over `std::thread::scope` workers in contiguous chunks
//! of stable scenario *indices*, materializing each `Copy` scenario
//! inside the worker instead of allocating a scenario vector per sweep.
//! Each worker checks a private workspace out of the engine's pool:
//! every thread gets its own scratch buffers and no-failure baseline,
//! and only the destinations each failure actually touches are
//! re-routed. Per-scenario costs land back in index order and are
//! reduced **in index order**, so the floating-point sum — and therefore
//! the whole optimization trajectory — is identical for every thread
//! count (and bit-for-bit identical to serial per-scenario evaluation).
//!
//! [`evaluate_set`], [`sum_set_costs`] and the incumbent-bounded
//! [`sum_set_costs_bounded`] (serial, on the caller's thread: each of
//! its cut checks reads every evaluation before it) are generic over
//! the [`RobustEngine`] trait and call its delta-state [`Engine`]
//! directly, so one kernel serves DTR (k = 2) and MTR (any k) alike;
//! since the engine handles every scenario kind incrementally, one
//! sweep serves the single-link universe and the node / SRLG /
//! double-link / probabilistic ensembles. The slice forms ([`failure_costs`],
//! [`sum_failure_costs`]) ride the same kernel through a [`SliceSet`].
//!
//! The robust search runs each chain on one thread, so its full sweeps
//! call [`sum_set_costs`] with one worker. Its `threads` knob caps the
//! two fan-outs over independent work that remain: Phase 1b's rounds
//! ([`parallel_map`]) and a portfolio's replicas ([`scoped_fanout`]).

use dtr_cost::{Engine, EvalWorkspace, Evaluator, LexCost, ScenarioCache};
use dtr_routing::{ClassWeights, Scenario, WeightSetting};

use crate::robust::RobustEngine;
use crate::scenario::{ScenarioSet, SliceSet};
use crate::search::SearchCost;

/// Split `items` into up to `threads` contiguous chunks, map each whole
/// chunk with `f` on its own scoped worker (a single chunk runs on the
/// caller's thread) and splice the results back in input order. `f`
/// sees its whole chunk, so it can hold one pooled workspace across it;
/// as long as each item's result does not depend on that state, the
/// output is a serial map's for every thread count. Phase 1b's rounds
/// fan out through it, each worker taking a contiguous chunk of the
/// member-ordered round ([`crate::phase1b::top_up`]).
pub fn parallel_map<T, C, F>(items: &[T], threads: usize, f: F) -> Vec<C>
where
    T: Sync,
    C: Send,
    F: Fn(&[T]) -> Vec<C> + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return f(items);
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(move || f(part)))
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel-map worker panicked"));
        }
    });
    out
}

/// Run `f` on every element of `items` on at most `threads` scoped
/// workers, each taking one contiguous chunk and running it in order,
/// and join them all before returning; a single worker runs on the
/// caller's thread. This is the only sanctioned thread fan-out primitive
/// outside this module — the static pass (`dtr-analysis`, lint
/// `policy-thread`) rejects direct `thread::scope`/`thread::spawn`
/// elsewhere, so the robust search's portfolio runs its replicas
/// through here instead of open-coding the scope.
pub fn scoped_fanout<T: Send>(items: &mut [T], threads: usize, f: impl Fn(&mut T) + Sync) {
    let workers = threads.min(items.len());
    if workers <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .map(|part| s.spawn(move || part.iter_mut().for_each(f)))
            .collect();
        for h in handles {
            h.join().expect("scoped fan-out worker panicked");
        }
    });
}

/// A cost built from an engine's component slice (see
/// [`SearchCost::assign`]; allocation-free for `LexCost`).
pub(crate) fn cost_of<C: SearchCost>(components: &[f64]) -> C {
    let mut c = C::zeros(components.len());
    c.assign(components);
    c
}

/// Per-scenario costs of `w` under every scenario, in input order: the
/// slice form of [`evaluate_set`], through a [`SliceSet`].
pub fn failure_costs(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    scenarios: &[Scenario],
    threads: usize,
) -> Vec<LexCost> {
    let idx: Vec<usize> = (0..scenarios.len()).collect();
    evaluate_set(ev, w, &SliceSet::new(scenarios, None), &idx, threads)
}

/// Ordered sum of [`failure_costs`]: the compound `K̄fail`.
pub fn sum_failure_costs(
    ev: &Evaluator<'_>,
    w: &WeightSetting,
    scenarios: &[Scenario],
    threads: usize,
) -> LexCost {
    let idx: Vec<usize> = (0..scenarios.len()).collect();
    sum_set_costs(ev, w, &SliceSet::new(scenarios, None), &idx, threads)
}

/// Sharded evaluation of a [`ScenarioSet`]: the costs of `w` under the
/// scenarios at `indices`, in index order, **without materializing** a
/// scenario vector. Indices are partitioned into contiguous chunks, one
/// per worker; each worker checks one workspace out of the engine's pool
/// (its own scratch buffers and cached no-failure baseline) and
/// materializes each `Copy` scenario on the fly with
/// [`ScenarioSet::scenario`]. Results are spliced back in index order,
/// so parallel equals serial to the bit — for every scenario kind the
/// set can hold (link, node, SRLG, double-link, and their
/// probabilistically weighted ensembles) and at any class count.
pub fn evaluate_set<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    ev: &E,
    w: &E::Weights,
    set: &S,
    indices: &[usize],
    threads: usize,
) -> Vec<E::Cost> {
    assert!(threads >= 1);
    let mut out = vec![E::Cost::zeros(ev.engine().num_classes()); indices.len()];
    let workers = threads.min(indices.len());
    if workers <= 1 {
        sweep_chunk(ev, w, set, indices, &mut out);
        return out;
    }
    let chunk = indices.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = indices
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
            .map(|(k, (part, dst))| {
                s.spawn(move || {
                    sweep_chunk(ev, w, set, part, dst);
                    k * chunk
                })
            })
            .collect();
        let mut expect = 0usize;
        for h in handles {
            let start = h.join().expect("scenario-evaluation worker panicked");
            // Order stamp: workers write disjoint pre-chunked slices, so
            // joining them in spawn order must walk the output in index
            // order — the runtime mirror of the dtr-analysis determinism
            // contract (parallel == serial to the bit).
            debug_assert_eq!(expect, start, "evaluate_set chunk out of index order");
            expect = start + chunk;
        }
    });
    out
}

/// Worker kernel of [`evaluate_set`]: evaluate the scenarios at `part`
/// into `dst` in place, one pooled workspace for the whole chunk. The
/// kernel is allocation-free in steady state (registered in
/// `crates/analysis/hot_paths.toml`; `tests/alloc_free.rs` proves the
/// sweep around it) — callers own the output buffer.
fn sweep_chunk<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    ev: &E,
    w: &E::Weights,
    set: &S,
    part: &[usize],
    dst: &mut [E::Cost],
) {
    debug_assert_eq!(part.len(), dst.len());
    let eng = ev.engine();
    let mut ws = eng.acquire_workspace();
    for (d, &i) in dst.iter_mut().zip(part) {
        d.assign(eng.cost_with(&mut ws, w, set.scenario(i)));
    }
    eng.release_workspace(ws);
}

/// Reusable buffers of the incumbent-bounded sweep
/// ([`sum_set_costs_bounded`]); one per search run, warmed after the
/// first sweep (no steady-state allocation).
#[derive(Clone, Debug)]
pub struct SweepScratch<C = LexCost> {
    /// Per-*position* raw scenario costs (aligned with the `indices`
    /// slice of the sweep); fully populated on [`SetSweep::Complete`].
    pub costs: Vec<C>,
    done: Vec<bool>,
}

impl<C> SweepScratch<C> {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        SweepScratch {
            costs: Vec::new(),
            done: Vec::new(),
        }
    }
}

impl<C> Default for SweepScratch<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of an incumbent-bounded set sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SetSweep<C = LexCost> {
    /// All scenarios evaluated; the compound cost is bit-for-bit the
    /// [`sum_set_costs`] index-order weighted fold.
    Complete(C),
    /// The partial fold proved the candidate cannot beat the incumbent;
    /// `evaluated` scenarios were evaluated before the sweep was
    /// abandoned (the rest are the caller's `scenario_evals_skipped`).
    Cut {
        /// Scenarios evaluated before the proof fired.
        evaluated: usize,
        /// `true` when the floors were *necessary* for this cut: the
        /// same partial fold without floor stand-ins would still have
        /// beaten the incumbent, so the skip is attributable to the
        /// floors (`SearchStats::skipped_floor`) rather than to the
        /// plain cutoff.
        floor_cut: bool,
    },
}

/// Index-order weighted fold over a sweep's evaluated subset into
/// `acc`, with each not-yet-evaluated position standing in at its floor
/// (skipped when no floors are supplied). Every stand-in bounds its
/// scenario's contribution from below **componentwise** and IEEE
/// addition is monotone in each addend, so the fold bounds the
/// completed compound cost from below in every component — and equals
/// it exactly, bit-for-bit, once every position is done (floors are
/// then never read). The componentwise bound carries through the
/// lexicographic `better_than` of either cost type (see the antitone
/// lemma on [`LexCost::better_than`]). A zero floor adds `+0.0`, which
/// leaves the non-negative partial sum's bits unchanged, and a uniform
/// set's unit weights scale every term exactly.
fn fold_bound<C: SearchCost, S: ScenarioSet + ?Sized>(
    set: &S,
    indices: &[usize],
    scratch: &SweepScratch<C>,
    floors: Option<&[C]>,
    acc: &mut C,
) {
    acc.reset();
    for (pos, &i) in indices.iter().enumerate() {
        let c = if scratch.done[pos] {
            &scratch.costs[pos]
        } else if let Some(f) = floors {
            &f[pos]
        } else {
            continue;
        };
        acc.add_scaled_assign(c, set.weight(i));
    }
}

/// Incumbent-bounded compound sweep: evaluates the scenarios at
/// `indices` in the caller-supplied `order` (a permutation of positions
/// `0..indices.len()`, typically costliest-under-the-incumbent first)
/// and abandons the sweep as soon as the index-order fold over the
/// evaluated subset — with every unevaluated scenario standing in at
/// its floor (`floors`, aligned with `indices`; see
/// [`Engine::scenario_floor`]) — proves the candidate cannot be
/// lexicographically better than `incumbent`. When a delta-state
/// `cache` (pointed at the incumbent via [`Engine::cache_begin`]) is
/// supplied, resident positions run through [`Engine::cost_cached`]
/// instead of the plain incremental path — same bits, a fraction of the
/// work.
///
/// The proof is float-exact, not heuristic: per-scenario contributions
/// are non-negative, IEEE addition of non-negative terms is monotone,
/// and `better_than` is antitone in its left argument (see the lemma on
/// [`LexCost::better_than`]) — so `!partial.better_than(incumbent)`
/// implies the full sweep's total cannot beat the incumbent either.
/// Consequently:
///
/// * a [`SetSweep::Complete`] result is **bit-for-bit** the
///   [`sum_set_costs`] value (the final fold runs over all positions in
///   index order, regardless of the evaluation order), and
/// * a [`SetSweep::Cut`] result only ever replaces a sweep whose
///   candidate the full fold would have rejected anyway,
///
/// which is why a hill climber that accepts only strictly-better
/// compound costs keeps its trajectory unchanged to the bit.
///
/// The sweep runs on the caller's thread and re-checks the proof every
/// `max(1, n / 128)` evaluations, so its cut decisions and `evaluated`
/// counts are a function of the inputs alone.
#[allow(clippy::too_many_arguments)]
pub fn sum_set_costs_bounded<E: RobustEngine, S: ScenarioSet + ?Sized>(
    ev: &E,
    w: &E::Weights,
    set: &S,
    indices: &[usize],
    incumbent: &E::Cost,
    order: &[u32],
    floors: Option<&[E::Cost]>,
    cache: Option<&ScenarioCache>,
    scratch: &mut SweepScratch<E::Cost>,
) -> SetSweep<E::Cost> {
    let n = indices.len();
    assert_eq!(order.len(), n, "order must be a permutation of positions");
    if let Some(f) = floors {
        assert_eq!(f.len(), n, "one floor per scenario position");
    }
    let eng = ev.engine();
    let k = eng.num_classes();
    // Only reshape on arity/size changes: the per-position costs are
    // overwritten before any read (the `done` flags gate the fold), so
    // a warm scratch re-sweeps without touching its allocations.
    if scratch.costs.len() != n || scratch.costs.iter().any(|c| c.arity() != k) {
        scratch.costs.clear();
        scratch.costs.resize(n, E::Cost::zeros(k));
    }
    scratch.done.clear();
    scratch.done.resize(n, false);
    let mut acc = E::Cost::zeros(k);
    // Evaluate in priority order, prove-or-continue every `check_every`
    // scenarios (re-folding the evaluated subset costs O(n) cost adds —
    // noise next to one scenario evaluation).
    let check_every = (n / 128).max(1);
    let mut ws = eng.acquire_workspace();
    for (e, &pos) in order.iter().enumerate() {
        let pos = pos as usize;
        // Non-resident positions of a budget-bounded cache take the
        // plain repair-seeded path — the same bits, just uncached.
        let sc = set.scenario(indices[pos]);
        scratch.costs[pos].assign(scenario_cost(eng, &mut ws, w, sc, cache, pos));
        scratch.done[pos] = true;
        let evaluated = e + 1;
        if evaluated < n && evaluated % check_every == 0 {
            // The cut: the floored partial fold no longer beats the
            // incumbent. It is floor-attributed iff the evaluated subset
            // alone (floor-less fold) would *not* have proven it.
            fold_bound(set, indices, scratch, floors, &mut acc);
            if !acc.better_than(incumbent) {
                let floor_cut = floors.is_some() && {
                    fold_bound(set, indices, scratch, None, &mut acc);
                    acc.better_than(incumbent)
                };
                eng.release_workspace(ws);
                return SetSweep::Cut {
                    evaluated,
                    floor_cut,
                };
            }
        }
    }
    eng.release_workspace(ws);
    fold_bound(set, indices, scratch, floors, &mut acc);
    SetSweep::Complete(acc)
}

/// The components of `w` under the scenario at sweep position `pos`:
/// through the delta-state `cache` when the position is resident, on the
/// plain repair-seeded path otherwise — the same bits either way.
fn scenario_cost<'w, W: ClassWeights>(
    eng: &Engine<'_>,
    ws: &'w mut EvalWorkspace,
    w: &W,
    sc: Scenario,
    cache: Option<&ScenarioCache>,
    pos: usize,
) -> &'w [f64] {
    match cache {
        Some(c) if c.is_resident(pos) => eng.cost_cached(ws, w, sc, c, pos),
        _ => eng.cost_with(ws, w, sc),
    }
}

/// Compound (weight-aware) cost of `w` over a scenario set's indices:
/// the probability-weighted sum, which for a uniform set (unit weights,
/// exact multiplications) is the plain ordered sum. The reduction runs
/// in index order — the exact float-add sequence of the seed's
/// per-scenario accumulation.
pub fn sum_set_costs<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    ev: &E,
    w: &E::Weights,
    set: &S,
    indices: &[usize],
    threads: usize,
) -> E::Cost {
    let costs = evaluate_set(ev, w, set, indices, threads);
    let mut acc = E::Cost::zeros(ev.engine().num_classes());
    for (c, &i) in costs.iter().zip(indices) {
        acc.add_scaled_assign(c, set.weight(i));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::ClassMatrices;

    fn ring(n: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node(Point::ORIGIN)).collect();
        for i in 0..n {
            b.add_duplex_link(ids[i], ids[(i + 1) % n], 100.0, 1e-3)
                .unwrap();
        }
        b.build().unwrap()
    }

    fn setup(n: usize) -> (Network, ClassMatrices) {
        let net = ring(n);
        let mut tm = ClassMatrices::zeros(n);
        for s in 0..n {
            tm.delay.set(s, (s + 1) % n, 5.0);
            tm.throughput.set(s, (s + 2) % n, 10.0);
        }
        (net, tm)
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        assert_eq!(scenarios.len(), 6);
        let serial = failure_costs(&ev, &w, &scenarios, 1);
        let parallel = failure_costs(&ev, &w, &scenarios, 4);
        assert_eq!(serial, parallel);
        let s1 = sum_failure_costs(&ev, &w, &scenarios, 1);
        let s4 = sum_failure_costs(&ev, &w, &scenarios, 4);
        assert_eq!(s1, s4);
    }

    #[test]
    fn sum_matches_manual_accumulation() {
        let (net, tm) = setup(5);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let costs = failure_costs(&ev, &w, &scenarios, 1);
        let manual = costs.iter().fold(LexCost::ZERO, |a, c| a.add(c));
        assert_eq!(manual, sum_failure_costs(&ev, &w, &scenarios, 1));
    }

    #[test]
    fn empty_scenarios_sum_to_zero() {
        let (net, tm) = setup(4);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        assert_eq!(sum_failure_costs(&ev, &w, &[], 4), LexCost::ZERO);
    }

    #[test]
    fn evaluate_set_matches_slice_path_and_is_thread_invariant() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let via_set_serial = evaluate_set(&ev, &w, &set, &indices, 1);
        let via_set_parallel = evaluate_set(&ev, &w, &set, &indices, 4);
        let via_slice = failure_costs(&ev, &w, &crate::scenario::ScenarioSet::scenarios(&set), 1);
        assert_eq!(via_set_serial, via_set_parallel);
        assert_eq!(via_set_serial, via_slice);
    }

    #[test]
    fn weighted_set_sum_reduces_in_index_order() {
        use crate::ext::probabilistic::FailureModel;
        use crate::scenario::{Probabilistic, ScenarioSet};
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let universe = crate::universe::FailureUniverse::of(&net);
        let model = FailureModel::length_proportional(&net, &universe);
        let set = Probabilistic::with_model(&net, model);
        let indices = set.all_indices();
        let serial = sum_set_costs(&ev, &w, &set, &indices, 1);
        let parallel = sum_set_costs(&ev, &w, &set, &indices, 4);
        assert_eq!(serial, parallel);
        // And the sum is the exact in-order weighted fold.
        let costs = evaluate_set(&ev, &w, &set, &indices, 1);
        let manual = costs
            .iter()
            .zip(&indices)
            .fold(LexCost::ZERO, |a, (c, &i)| {
                let p = set.weight(i);
                a.add(&LexCost::new(c.lambda * p, c.phi * p))
            });
        assert_eq!(manual, serial);
    }

    #[test]
    fn bounded_sweep_completes_bit_for_bit_under_unbeatable_incumbent() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let never = LexCost::new(f64::INFINITY, f64::INFINITY);
        let order: Vec<u32> = (0..indices.len() as u32).rev().collect(); // any permutation
        let mut scratch = SweepScratch::new();
        let got = sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &indices,
            &never,
            &order,
            None,
            None,
            &mut scratch,
        );
        let want = sum_set_costs(&ev, &w, &set, &indices, 1);
        assert_eq!(got, SetSweep::Complete(want));
        // Per-position costs match the plain sweep.
        let costs = evaluate_set(&ev, &w, &set, &indices, 1);
        assert_eq!(scratch.costs, costs);
    }

    #[test]
    fn bounded_sweep_cuts_against_a_zero_incumbent() {
        let (net, tm) = setup(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let order: Vec<u32> = (0..indices.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        // Nothing is strictly better than zero cost, so the sweep must
        // cut after the very first evaluation.
        let got = sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &indices,
            &LexCost::ZERO,
            &order,
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
        let (net, tm) = setup(7);
        // A 3 ms SLA bound: a failed ring link detours its one delay
        // pair over six 1 ms links, so every scenario's Λ floor is
        // positive.
        let ev = Evaluator::new(&net, &tm, CostParams::with_theta(3e-3));
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let mut ws = ev.acquire_workspace();
        let floors: Vec<LexCost> = indices
            .iter()
            .map(|&i| ev.scenario_floor(&mut ws, set.scenario(i)))
            .collect();
        ev.release_workspace(ws);
        // Soundness: every floor bounds its scenario's exact cost, and
        // the congestion component is exactly 0.
        let exact = evaluate_set(&ev, &w, &set, &indices, 1);
        for (f, c) in floors.iter().zip(&exact) {
            assert!(f.lambda <= c.lambda, "floor {f} exceeds exact {c}");
            assert_eq!(f.phi, 0.0);
        }
        let total = sum_set_costs(&ev, &w, &set, &indices, 1);
        let order: Vec<u32> = (0..indices.len() as u32).collect();
        let mut scratch = SweepScratch::new();
        // Beatable incumbent: the floored sweep must still complete with
        // the exact bit-for-bit total.
        let above = LexCost::new(total.lambda + 1.0, total.phi);
        let got = sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &indices,
            &above,
            &order,
            Some(&floors),
            None,
            &mut scratch,
        );
        assert_eq!(got, SetSweep::Complete(total));
        // An incumbent below the summed floors is unbeatable from
        // position zero: the floored sweep cuts at its first check, and
        // the cut is attributed to the floors whenever the evaluated
        // subset alone would not have proven it.
        let floor_sum: f64 = floors.iter().map(|f| f.lambda).sum();
        assert!(floor_sum > 0.0, "testbed floors are degenerate");
        let below_floors = LexCost::new(floor_sum * 0.5, 0.0);
        match sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &indices,
            &below_floors,
            &order,
            Some(&floors),
            None,
            &mut scratch,
        ) {
            SetSweep::Cut { evaluated, .. } => assert!(evaluated < indices.len()),
            SetSweep::Complete(c) => assert!(!c.better_than(&below_floors)),
        }
    }

    #[test]
    fn bounded_sweep_cut_is_sound_for_every_incumbent_prefix() {
        // For incumbents slightly below the true total, the sweep must
        // cut; for incumbents above it, it must complete with the exact
        // sum — under any evaluation order.
        let (net, tm) = setup(7);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let set = crate::universe::FailureUniverse::of(&net);
        let indices: Vec<usize> = crate::scenario::ScenarioSet::all_indices(&set);
        let total = sum_set_costs(&ev, &w, &set, &indices, 1);
        let mut order: Vec<u32> = (0..indices.len() as u32).collect();
        order.reverse();
        let mut scratch = SweepScratch::new();
        let below = LexCost::new(total.lambda, total.phi * 0.5);
        match sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &indices,
            &below,
            &order,
            None,
            None,
            &mut scratch,
        ) {
            SetSweep::Cut { evaluated, .. } => assert!(evaluated <= indices.len()),
            SetSweep::Complete(c) => {
                // Completing is allowed (the cut is opportunistic), but
                // the sum must be exact and not better.
                assert_eq!(c, total);
                assert!(!c.better_than(&below));
            }
        }
        let above = LexCost::new(total.lambda + 1.0, total.phi);
        let got = sum_set_costs_bounded(
            &ev,
            &w,
            &set,
            &indices,
            &above,
            &order,
            None,
            None,
            &mut scratch,
        );
        assert_eq!(got, SetSweep::Complete(total));
    }

    #[test]
    fn scoped_fanout_runs_contiguous_chunks_on_at_most_threads_workers() {
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};
        let caller = thread::current().id();
        for threads in [1, 2, 3, 8] {
            let log: Mutex<Vec<(ThreadId, usize)>> = Mutex::new(Vec::new());
            let mut items: Vec<usize> = (0..7).collect();
            scoped_fanout(&mut items, threads, |i| {
                log.lock().unwrap().push((thread::current().id(), *i));
                *i += 100;
            });
            assert_eq!(items, (100..107).collect::<Vec<_>>(), "threads={threads}");
            let log = log.into_inner().unwrap();
            // Each worker's items, in the order it ran them.
            let mut workers: Vec<(ThreadId, Vec<usize>)> = Vec::new();
            for &(id, i) in &log {
                match workers.iter_mut().find(|(w, _)| *w == id) {
                    Some((_, run)) => run.push(i),
                    None => workers.push((id, vec![i])),
                }
            }
            assert!(
                workers.len() <= threads.min(7),
                "threads={threads}: {} workers",
                workers.len()
            );
            for (_, run) in &workers {
                assert!(
                    run.windows(2).all(|p| p[1] == p[0] + 1),
                    "threads={threads}: a worker ran {run:?}"
                );
            }
            if threads == 1 {
                assert!(log.iter().all(|&(id, _)| id == caller));
            }
        }
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let (net, tm) = setup(4);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let scenarios = Scenario::all_link_failures(&net);
        let wide = failure_costs(&ev, &w, &scenarios, 64);
        let narrow = failure_costs(&ev, &w, &scenarios, 1);
        assert_eq!(wide, narrow);
    }
}
