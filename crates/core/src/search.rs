//! Shared local-search machinery for Phases 1 and 2.
//!
//! Both phases are the same hill-climbing skeleton (§IV-A): sweep all
//! physical links in random order, re-draw each link's two class weights,
//! accept the move iff the objective improves (lexicographically), restart
//! from a diversification point after an improvement drought, and stop
//! when the trailing window of diversifications yields less than `c`
//! relative improvement.
//!
//! # The move loop
//!
//! [`sweep`] is that loop, written once for Phase 1a and the robust
//! phase: for each physical link in the shuffled order it draws a move,
//! skips a no-op, applies it, evaluates the normal-conditions cost and
//! lets the phase decide; a rejected move is reverted. Each move is
//! judged against the setting every earlier accept produced, so the loop
//! is serial by construction. Parallelism lives outside it: Phase 1b's
//! rounds and a portfolio's replicas fan out over independent work (see
//! [`crate::parallel`]).

use dtr_cost::LexCost;
use dtr_net::{LinkId, Network};
use dtr_routing::{Class, WeightSetting};
use rand::rngs::StdRng;
use rand::Rng;

use crate::phase1::normal_cost;
use crate::robust::RobustEngine;

/// Apply new class weights `(wd, wt)` to the physical link represented by
/// `rep`, symmetrically on both directions (see
/// [`crate::FailureUniverse`] for why symmetric).
pub fn set_duplex_weights(w: &mut WeightSetting, net: &Network, rep: LinkId, wd: u32, wt: u32) {
    w.set_duplex(net, Class::Delay, rep, wd);
    w.set_duplex(net, Class::Throughput, rep, wt);
}

/// Current class weights of the physical link (forward direction is
/// authoritative; both directions are kept equal by the search).
pub fn duplex_weights(w: &WeightSetting, rep: LinkId) -> (u32, u32) {
    (w.get(Class::Delay, rep), w.get(Class::Throughput, rep))
}

/// Lower edge `⌈q·wmax⌉` of the failure-emulation band `[⌈q·wmax⌉, wmax]`
/// (§IV-D1), clamped into `[1, wmax]`.
pub fn emulation_floor(wmax: u32, q: f64) -> u32 {
    ((q * wmax as f64).ceil() as u32).clamp(1, wmax)
}

/// Draw a failure-emulating pair in `[⌈q·wmax⌉, wmax]²` (§IV-D1).
pub fn failure_emulating_pair(wmax: u32, q: f64, rng: &mut StdRng) -> (u32, u32) {
    let floor = emulation_floor(wmax, q);
    (rng.gen_range(floor..=wmax), rng.gen_range(floor..=wmax))
}

/// Why a robust search returned.
///
/// The reason never affects *what* is returned — `best`, costs, trace
/// and stats are bit-identical functions of how many boundaries ran —
/// only *why* the boundary loop ended. See "The checkpoint contract"
/// in `DETERMINISM.md`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Terminated {
    /// The stop rule fired (or the `max_iterations` backstop bound).
    #[default]
    Converged,
    /// The wall-clock deadline (or an injected kill-point) ended the
    /// run at a sweep/rendezvous boundary; the output is the
    /// best-so-far, never a half-applied accept.
    Deadline,
    /// The restored snapshot was already terminal — every chain had
    /// converged before the checkpoint was taken.
    Restored,
}

/// Counters reported by each search phase. Every counter is
/// thread-invariant: every robust chain runs on one thread, and the two
/// fan-outs (Phase 1b's rounds, a portfolio's replicas) only move
/// independent work between threads (the parallel-search contract in
/// `DETERMINISM.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full sweeps over all links.
    pub iterations: usize,
    /// *Logical* objective evaluations — what the cutoff-free loop would
    /// perform (normal-conditions evaluations in Phase 1; in Phase 2
    /// each failure-scenario evaluation counts separately). Invariant
    /// across thread count and cutoff setting.
    pub evaluations: usize,
    /// Diversification restarts performed.
    pub diversifications: usize,
    /// Failure-scenario evaluations (already counted in `evaluations`)
    /// that the incumbent-bounded sweep proved unnecessary and skipped —
    /// the observable win of the early cutoff. Always the exact sum of
    /// `skipped_cache` and `skipped_cutoff` (kept for trace
    /// compatibility).
    pub scenario_evals_skipped: usize,
    /// Always 0: a bounded sweep folds only the scenarios it has
    /// evaluated, so no cut has a third cause. Kept, with its snapshot
    /// slot, for the benchmark reports that read it.
    pub skipped_floor: usize,
    /// Skips from cuts on a sweep whose delta-state scenario cache held
    /// at least one resident scenario.
    pub skipped_cache: usize,
    /// Skips from cuts on a sweep whose cache held no resident scenario
    /// (every evaluation on the plain path, e.g. `cache_budget_bytes:
    /// 0`).
    pub skipped_cutoff: usize,
    /// Always 0: the move loop evaluates each proposal once, in draw
    /// order. Kept, with its snapshot slot, for the benchmark reports
    /// that read it.
    pub speculative_wasted: usize,
    /// Extra scenario evaluations spent rebuilding the delta-state
    /// scenario cache outside a logical full sweep — the capture sweep
    /// of a run restored from a snapshot (physical overhead, never
    /// counted in `evaluations`). The delta-state refresh keeps cache
    /// coverage exact on every accept, so an uninterrupted run reports 0.
    pub cache_rebuild_evals: usize,
    /// Gauge: how many scenarios the delta-state cache held resident
    /// under its byte budget (`Params::cache_budget_bytes`) at the last
    /// rebuild. Equals the critical-set size when the budget never
    /// binds; merged by max.
    pub cache_resident_scenarios: usize,
    /// Scenario evaluations a budget-bounded cache routed through the
    /// plain repair-seeded path because their position was not resident
    /// (bit-identical results, attributed for the benches). Stays 0
    /// whenever the budget does not bind.
    pub cache_fallback_evals: usize,
}

impl SearchStats {
    pub fn merge(&mut self, other: &SearchStats) {
        self.iterations += other.iterations;
        self.evaluations += other.evaluations;
        self.diversifications += other.diversifications;
        self.scenario_evals_skipped += other.scenario_evals_skipped;
        self.skipped_floor += other.skipped_floor;
        self.skipped_cache += other.skipped_cache;
        self.skipped_cutoff += other.skipped_cutoff;
        self.speculative_wasted += other.speculative_wasted;
        self.cache_rebuild_evals += other.cache_rebuild_evals;
        // A gauge, not a counter: phases sharing one cache report the
        // same residency, so the merged value is the max, not the sum.
        self.cache_resident_scenarios = self
            .cache_resident_scenarios
            .max(other.cache_resident_scenarios);
        self.cache_fallback_evals += other.cache_fallback_evals;
    }
}

/// Outcome of one proposal, recorded into the search trace when
/// `Params::record_trace` is set. The trace pins the **full**
/// accept/reject sequence, so the equivalence suite can assert the
/// trajectory — not just its end state — is identical across thread
/// counts and cutoff settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveOutcome {
    /// Rejected by the normal-conditions constraint gate (Phase 2 /
    /// robust phase only) — never paid for a failure sweep.
    ConstraintReject,
    /// Rejected on the objective (in Phase 2: by the failure sweep,
    /// whether fully evaluated or provably cut early).
    Reject,
    /// Accepted.
    Accept,
}

/// Verdict a phase hands back to [`sweep`] for one proposal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Keep the move applied.
    Accept,
    /// Revert the move.
    Reject,
}

/// One sweep of the hill climber — the move loop of Phase 1a and the
/// robust phase (see the module docs).
///
/// For each physical link in `reps` order a move is drawn (one weight in
/// `[1, wmax]` per class; the draw consumes the RNG whether or not the
/// move is a no-op), a no-op re-draw is skipped, and otherwise the move
/// is applied to `current`, its normal-conditions cost evaluated, and
/// `process` invoked with `current` *carrying the move*. `process`
/// decides: [`Decision::Accept`] keeps the move, [`Decision::Reject`]
/// reverts it. `process` never touches the RNG, so the draw order is a
/// function of the seed alone.
pub fn sweep<E: RobustEngine>(
    ev: &E,
    reps: &[LinkId],
    wmax: u32,
    rng: &mut StdRng,
    current: &mut WeightSetting,
    mut process: impl FnMut(&WeightSetting, LinkId, &E::Cost) -> Decision,
) {
    for &rep in reps {
        let mv = ev.draw_move(1, wmax, rng);
        let old = ev.read_move(current, rep);
        if mv == old {
            continue;
        }
        ev.apply_move(current, rep, &mv);
        let cost = normal_cost(ev, current);
        if process(current, rep, &cost) == Decision::Reject {
            ev.apply_move(current, rep, &old);
        }
    }
}

/// A cost vector the search minimizes: `K = ⟨Λ, Φ⟩` for DTR
/// ([`LexCost`]), the k-component `VecCost` for MTR. Everything the
/// shared search machinery — [`StopRule`], [`Archive`], the bounded
/// sweeps of [`crate::parallel`] and the robust search of
/// [`crate::robust`] — does with a cost goes through these operations.
///
/// Each instantiation keeps its own order: [`LexCost::better_than`]
/// compares Φ strictly once Λ ties within `LAMBDA_EPS`, while `VecCost`
/// compares every component within `COMPONENT_EPS`. The fold
/// ([`add_scaled_assign`](Self::add_scaled_assign)) multiplies each
/// component before adding it (`acc + c·p`, never a fused multiply-add),
/// so a uniform set's unit weights add each cost exactly and every
/// index-order sum is bit-for-bit the plain one.
pub trait SearchCost: Clone + PartialEq + std::fmt::Debug + Send + Sync {
    /// The zero cost with `k` components.
    fn zeros(k: usize) -> Self;
    /// Number of components.
    fn arity(&self) -> usize;
    /// Component `i`, in precedence order.
    fn component(&self, i: usize) -> f64;
    /// Rebuild a cost from its components (snapshot decoding); `None`
    /// when the components cannot form a cost of this type.
    fn from_components(components: Vec<f64>) -> Option<Self>;
    /// Set every component to zero, keeping any allocation.
    fn reset(&mut self);
    /// Overwrite every component from an evaluation engine's component
    /// slice (in precedence order), keeping any allocation — the one
    /// place engine output becomes a cost.
    fn assign(&mut self, components: &[f64]);
    /// `self += other·p`, multiplying each component before the add.
    fn add_scaled_assign(&mut self, other: &Self, p: f64);
    /// Strictly better than `other` in the type's lexicographic order.
    fn better_than(&self, other: &Self) -> bool;
    /// Relative improvement over `other` on the dominant component
    /// (drives the `c%` stopping rule).
    fn relative_improvement_over(&self, other: &Self) -> f64;
}

impl SearchCost for LexCost {
    fn zeros(k: usize) -> Self {
        debug_assert_eq!(k, 2, "a LexCost has two components");
        LexCost::ZERO
    }

    fn arity(&self) -> usize {
        2
    }

    fn component(&self, i: usize) -> f64 {
        match i {
            0 => self.lambda,
            1 => self.phi,
            _ => panic!("LexCost has two components, asked for {i}"),
        }
    }

    fn from_components(components: Vec<f64>) -> Option<Self> {
        match components[..] {
            [lambda, phi] => Some(LexCost::new(lambda, phi)),
            _ => None,
        }
    }

    fn reset(&mut self) {
        *self = LexCost::ZERO;
    }

    fn assign(&mut self, components: &[f64]) {
        debug_assert_eq!(components.len(), 2, "a LexCost has two components");
        *self = LexCost::new(components[0], components[1]);
    }

    fn add_scaled_assign(&mut self, other: &Self, p: f64) {
        *self = self.add(&LexCost::new(other.lambda * p, other.phi * p));
    }

    fn better_than(&self, other: &Self) -> bool {
        LexCost::better_than(self, other)
    }

    fn relative_improvement_over(&self, other: &Self) -> f64 {
        LexCost::relative_improvement_over(self, other)
    }
}

/// The paper's stopping rule: after each diversification, stop once the
/// relative improvement of the global best over the trailing `window`
/// diversifications drops below `c`.
///
/// Only the trailing `window + 1` records are retained — the rule never
/// looks further back, and long runs diversify tens of thousands of
/// times.
#[derive(Clone, Debug)]
pub struct StopRule<C = LexCost> {
    window: usize,
    c: f64,
    history: Vec<C>,
}

impl<C: SearchCost> StopRule<C> {
    pub fn new(window: usize, c: f64) -> Self {
        assert!(window >= 1);
        StopRule {
            window,
            c,
            history: Vec::new(),
        }
    }

    /// Record the global best at the end of a diversification; returns
    /// `true` when the search should stop.
    pub fn record(&mut self, global_best: C) -> bool {
        self.history.push(global_best);
        if self.history.len() <= self.window {
            return false;
        }
        if self.history.len() > self.window + 1 {
            // Keep exactly the trailing window (+ the new record); the
            // comparison below only ever reads that far back.
            let excess = self.history.len() - (self.window + 1);
            self.history.drain(..excess);
        }
        let newest = &self.history[self.history.len() - 1];
        let reference = &self.history[self.history.len() - 1 - self.window];
        newest.relative_improvement_over(reference) < self.c
    }

    /// Trailing history records, oldest first — exactly what a snapshot
    /// must carry so a restored search makes the same stop decision as
    /// an uninterrupted one (see "The checkpoint contract" in
    /// `DETERMINISM.md`).
    pub fn history(&self) -> &[C] {
        &self.history
    }

    /// Replace the trailing history (snapshot restore).
    pub fn restore_history(&mut self, records: Vec<C>) {
        self.history = records;
    }
}

/// Cheap 64-bit fingerprint of a weight setting (FNV-1a over every
/// class weight vector, in class order). Used by [`Archive::offer`] to
/// reject duplicates with one integer compare per entry instead of an
/// O(links) vector scan; equal fingerprints fall back to full equality,
/// so dedup behaviour is *identical* to the exact scan.
pub fn weight_fingerprint(w: &WeightSetting) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in 0..w.num_classes() {
        for &x in w.weights(k) {
            h ^= u64::from(x);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Bounded archive of good weight settings, ordered best-first by
/// lexicographic cost. Phase 1 (and MTR's regular phase) feeds it with
/// acceptable settings; the robust phase diversifies from it.
#[derive(Clone, Debug)]
pub struct Archive<C = LexCost> {
    entries: Vec<(WeightSetting, C)>,
    /// Per-entry [`weight_fingerprint`], aligned with `entries`.
    fingerprints: Vec<u64>,
    cap: usize,
}

impl<C: SearchCost> Archive<C> {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        Archive {
            entries: Vec::new(),
            fingerprints: Vec::new(),
            cap,
        }
    }

    /// Offer a setting; kept if among the `cap` best seen (duplicates by
    /// exact weight equality are ignored — screened by fingerprint, so
    /// the common miss costs one integer compare per entry).
    pub fn offer(&mut self, w: &WeightSetting, cost: C) {
        let f = weight_fingerprint(w);
        if self
            .fingerprints
            .iter()
            .zip(&self.entries)
            .any(|(&g, (e, _))| g == f && e == w)
        {
            return;
        }
        let pos = self
            .entries
            .iter()
            .position(|(_, c)| cost.better_than(c))
            .unwrap_or(self.entries.len());
        if pos >= self.cap {
            return;
        }
        self.entries.insert(pos, (w.clone(), cost));
        self.fingerprints.insert(pos, f);
        self.entries.truncate(self.cap);
        self.fingerprints.truncate(self.cap);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[(WeightSetting, C)] {
        &self.entries
    }

    /// Uniformly random entry.
    pub fn sample(&self, rng: &mut StdRng) -> Option<&(WeightSetting, C)> {
        self.sample_index(rng).map(|i| &self.entries[i])
    }

    /// Index of a uniformly random entry: the draw [`Archive::sample`]
    /// makes, with the same RNG use.
    pub fn sample_index(&self, rng: &mut StdRng) -> Option<usize> {
        if self.entries.is_empty() {
            None
        } else {
            Some(rng.gen_range(0..self.entries.len()))
        }
    }

    /// Best entry.
    pub fn best(&self) -> Option<&(WeightSetting, C)> {
        self.entries.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_net::{NetworkBuilder, Point};
    use rand::SeedableRng;

    fn triangle() -> Network {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..3).map(|_| b.add_node(Point::ORIGIN)).collect();
        b.add_duplex_link(n[0], n[1], 1e9, 1e-3).unwrap();
        b.add_duplex_link(n[1], n[2], 1e9, 1e-3).unwrap();
        b.add_duplex_link(n[2], n[0], 1e9, 1e-3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn duplex_weights_stay_symmetric() {
        let net = triangle();
        let mut w = WeightSetting::uniform(net.num_links(), 20);
        let rep = net.duplex_representatives()[0];
        set_duplex_weights(&mut w, &net, rep, 7, 13);
        let rev = net.reverse_link(rep).unwrap();
        assert_eq!(w.get(Class::Delay, rep), 7);
        assert_eq!(w.get(Class::Delay, rev), 7);
        assert_eq!(w.get(Class::Throughput, rep), 13);
        assert_eq!(w.get(Class::Throughput, rev), 13);
        assert_eq!(duplex_weights(&w, rep), (7, 13));
    }

    #[test]
    fn failure_emulating_pair_in_band() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let (a, b) = failure_emulating_pair(20, 0.7, &mut rng);
            assert!((14..=20).contains(&a));
            assert!((14..=20).contains(&b));
        }
    }

    #[test]
    fn stop_rule_waits_for_full_window() {
        let mut sr = StopRule::new(3, 0.001);
        // Big improvements: never stop.
        assert!(!sr.record(LexCost::new(0.0, 100.0)));
        assert!(!sr.record(LexCost::new(0.0, 50.0)));
        assert!(!sr.record(LexCost::new(0.0, 25.0)));
        // Window full now; 25 -> 12.5 over 3 records is 50% improvement.
        assert!(!sr.record(LexCost::new(0.0, 12.5)));
        // Stagnation: improvement < 0.1% over the window eventually.
        assert!(!sr.record(LexCost::new(0.0, 12.49)));
        assert!(!sr.record(LexCost::new(0.0, 12.49)));
        assert!(sr.record(LexCost::new(0.0, 12.49)));
    }

    #[test]
    fn stop_rule_uses_lexicographic_improvement() {
        let mut sr = StopRule::new(1, 0.001);
        assert!(!sr.record(LexCost::new(200.0, 1.0)));
        // Lambda halved: 50% improvement, keep going.
        assert!(!sr.record(LexCost::new(100.0, 1.0)));
        // No movement: stop.
        assert!(sr.record(LexCost::new(100.0, 1.0)));
    }

    #[test]
    fn archive_keeps_best_and_dedups() {
        let net = triangle();
        let mut rng = StdRng::seed_from_u64(9);
        let mut arch = Archive::new(2);
        let w1 = WeightSetting::random(net.num_links(), 20, &mut rng);
        let w2 = WeightSetting::random(net.num_links(), 20, &mut rng);
        let w3 = WeightSetting::random(net.num_links(), 20, &mut rng);
        arch.offer(&w1, LexCost::new(0.0, 30.0));
        arch.offer(&w1, LexCost::new(0.0, 30.0)); // dup ignored
        assert_eq!(arch.len(), 1);
        arch.offer(&w2, LexCost::new(0.0, 10.0));
        arch.offer(&w3, LexCost::new(0.0, 20.0)); // evicts w1 (worst)
        assert_eq!(arch.len(), 2);
        assert_eq!(arch.best().unwrap().1.phi, 10.0);
        assert!(arch.entries().iter().all(|(_, c)| c.phi < 30.0));
    }

    #[test]
    fn stop_rule_history_is_bounded_to_its_window() {
        let mut sr = StopRule::new(3, 1e-9);
        for i in 0..1000 {
            // Keep improving so the rule never fires.
            assert!(!sr.record(LexCost::new(0.0, 1e9 / (i + 1) as f64)));
            assert!(
                sr.history.len() <= sr.window + 1,
                "history grew to {} at step {i}",
                sr.history.len()
            );
        }
    }

    /// The fingerprint screen must dedup exactly like the historical full
    /// weight-vector scan.
    #[test]
    fn archive_fingerprint_dedup_matches_exact_scan() {
        /// The pre-fingerprint archive, verbatim.
        struct RefArchive {
            entries: Vec<(WeightSetting, LexCost)>,
            cap: usize,
        }
        impl RefArchive {
            fn offer(&mut self, w: &WeightSetting, cost: LexCost) {
                if self.entries.iter().any(|(e, _)| e == w) {
                    return;
                }
                let pos = self
                    .entries
                    .iter()
                    .position(|(_, c)| cost.better_than(c))
                    .unwrap_or(self.entries.len());
                if pos >= self.cap {
                    return;
                }
                self.entries.insert(pos, (w.clone(), cost));
                self.entries.truncate(self.cap);
            }
        }

        let net = triangle();
        let mut rng = StdRng::seed_from_u64(77);
        let mut fast = Archive::new(4);
        let mut slow = RefArchive {
            entries: Vec::new(),
            cap: 4,
        };
        // A mix of fresh settings, exact duplicates, and re-offers of
        // retained entries under different costs.
        let mut seen: Vec<WeightSetting> = Vec::new();
        for i in 0..200 {
            let w = if i % 3 == 0 && !seen.is_empty() {
                seen[i % seen.len()].clone()
            } else {
                let w = WeightSetting::random(net.num_links(), 20, &mut rng);
                seen.push(w.clone());
                w
            };
            let cost = LexCost::new(0.0, (i * 7919 % 101) as f64);
            fast.offer(&w, cost);
            slow.offer(&w, cost);
            assert_eq!(
                fast.entries(),
                slow.entries.as_slice(),
                "diverged at offer {i}"
            );
        }
    }

    #[test]
    fn archive_sample_is_deterministic_per_seed() {
        let net = triangle();
        let mut rng = StdRng::seed_from_u64(9);
        let mut arch = Archive::new(4);
        for i in 0..4 {
            let w = WeightSetting::random(net.num_links(), 20, &mut rng);
            arch.offer(&w, LexCost::new(0.0, i as f64));
        }
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(
            arch.sample(&mut r1).unwrap().1,
            arch.sample(&mut r2).unwrap().1
        );
    }
}
