//! The robust search over a critical scenario set (Eqs. 4–7), written
//! once for every cost vector.
//!
//! Minimizes the compound failure cost `K̄fail` — the index-order
//! (optionally probability-weighted) sum of per-scenario costs over the
//! critical set — subject to the normal-conditions constraints of
//! Eqs. 5–6, starting from and diversifying back to an archive of
//! acceptable settings ("each diversification round starts with a
//! weight setting close to one that already satisfies the constraints",
//! §V-A3).
//!
//! DTR is the k = 2 case of MTR (the paper's "most basic setting"):
//! both robust phases evaluate on the one delta-state engine
//! (`dtr_cost::Engine`) and differ only in their cost order, move
//! encoding and gate; both move the one `dtr_routing::WeightSetting`.
//! The search here is generic over [`RobustEngine`], which names exactly
//! those; `dtr_core::phase2` instantiates it with `dtr_cost::Evaluator`
//! and `dtr_mtr::robust` with `MtrEvaluator`. Dispatch is static: each
//! instantiation compiles its own search loop, with no `dyn` on the
//! sweep path, over engine kernels that take the one weight setting and
//! so compile once.
//!
//! # The move loop and its cutoff sweep
//!
//! The hill climber is the shared serial move loop
//! ([`crate::search::sweep`]): each re-drawn link is judged against the
//! setting every earlier accept produced. A candidate first meets the
//! Eq. 5–6 gate on its normal-conditions cost, which kills most moves.
//! One that survives pays the critical-set failure sweep. With the
//! cutoff on, that sweep is a **monotone early-cutoff sweep**:
//! [`parallel::sum_set_costs_bounded`] abandons it as soon as the
//! index-order fold over the scenarios evaluated so far *proves* the
//! candidate cannot beat the incumbent `K̄fail` — the scenarios left
//! can only add non-negative costs. Scenarios are evaluated
//! costliest-under-the-incumbent first to make that proof fire early,
//! each through the engine's delta-state scenario cache; a cache whose
//! byte budget holds no resident scenario evaluates everything on the
//! plain path. A cut's skipped scenarios count as `skipped_cache` when
//! the cache held a resident scenario and as `skipped_cutoff`
//! otherwise.
//!
//! The cutoff is float-exact: accepted moves always complete their
//! sweep (whose index-order reduction is bit-for-bit the plain
//! [`parallel::sum_set_costs`] fold), and it only fires on moves the
//! full sweep would reject. The best setting, its costs and the full
//! accept/reject sequence are therefore identical for every thread
//! count, cutoff and cache setting, and every [`SearchStats`] counter is
//! identical for every thread count — pinned by
//! `tests/search_equivalence.rs`. A chain runs on one thread: its move
//! loop, bounded sweeps, capture sweeps, plain full sweeps and
//! accept-path cache refreshes run in order on the thread that sweeps
//! it. Here `threads` reaches only a portfolio, whose replicas run on at
//! most `threads` workers (Phase 1b's rounds are the other fan-out it
//! caps).
//!
//! # Portfolio search and checkpoints
//!
//! With `replicas > 1` independent chains run from derived seeds and
//! exchange archive elites at fixed rendezvous points (the
//! parallel-search contract in `DETERMINISM.md`). At every sweep (or
//! rendezvous) boundary the search may write a snapshot and decide to
//! stop; [`resume`] continues a snapshot bit for bit ("The checkpoint
//! contract", `DETERMINISM.md`).

use std::time::{Duration, Instant};

use dtr_cost::{Engine, ScenarioCache};
use dtr_net::LinkId;
use dtr_persist::{CheckpointSink, Decoder, Encoder, SnapshotError};
use dtr_routing::WeightSetting;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::parallel::{self, SetSweep, SweepScratch};
use crate::params::{replica_seed, PortfolioParams};
use crate::scenario::ScenarioSet;
use crate::search::{
    sweep, Archive, Decision, MoveOutcome, SearchCost, SearchStats, StopRule, Terminated,
};

/// What an instantiation of the search supplies besides the shared
/// delta-state [`Engine`] it evaluates on and the one [`WeightSetting`]
/// it moves: its parameter block, the cost type and its order, the move
/// encoding, the two normal-conditions gates and the robust phase's
/// snapshot parameters, the snapshot tags and one control-flow
/// difference. One implementation serves every stage: Phase 1
/// ([`crate::phase1::harvest`], [`crate::phase1b::top_up`]), the robust
/// search in this module and the pipeline ([`crate::pipeline`]).
///
/// * **Parameters** — [`Params`](Self::Params), validated and projected
///   onto the shared [`RobustKnobs`] by [`knobs`](Self::knobs) and onto
///   the gate's own parameters by [`gate`](Self::gate).
/// * **Cost** — [`SearchCost`]. The two instantiations keep their own
///   order: `LexCost::better_than` compares Φ strictly once Λ ties
///   within `LAMBDA_EPS`, while `VecCost` compares every component
///   within `COMPONENT_EPS`. The engine's components become a cost in
///   one place, [`SearchCost::assign`].
/// * **Move** — [`draw_move`](Self::draw_move),
///   [`read_move`](Self::read_move), [`apply_move`](Self::apply_move):
///   DTR re-draws a duplex link's `(delay, throughput)` pair, MTR its k
///   class weights. The draw's lower bound also makes Phase 1's random
///   restarts (`1`) and failure-emulating draws (`⌈q·wmax⌉`).
/// * **Gates** — [`acceptable`](Self::acceptable), Phase 1's relaxed
///   sample gate (DTR's `z·B1` slack on Λ and `(1+χ)` on Φ, MTR's
///   per-class `sample_slack`), and [`feasible`](Self::feasible), the
///   Eqs. 5–6 test of a robust candidate's normal-conditions cost
///   against the benchmark: DTR's Λ-pin plus χ budget on Φ, MTR's
///   per-class `NormalConstraint`s.
/// * One control-flow difference, [`PROMOTE_RESTART`](Self::PROMOTE_RESTART).
///
/// Unifying the orders, gates and move encodings is a separate step: it
/// needs a differential test first, since ε-handling can move a
/// trajectory. At k = 2 the order and the sample gate are the only
/// Phase-1 difference left between the two instantiations.
pub trait RobustEngine: Sync {
    /// The caller's parameter block (`Params` for DTR, `MtrParams` for
    /// MTR).
    type Params;
    /// The cost vector.
    type Cost: SearchCost;
    /// One duplex link's new class weights (`Sync`: Phase 1b draws a
    /// whole round of moves before its workers evaluate them).
    type Move: PartialEq + Sync;
    /// Gate parameters beyond the benchmark (DTR's χ; MTR's constraints
    /// live in its evaluator's class specs).
    type GateParams: Copy + Sync;

    /// Snapshot kind tag written by this instantiation.
    const SNAPSHOT_KIND: u32;
    /// `Mismatch` message when a snapshot's scenario count differs.
    const SET_SIZE_MISMATCH: &'static str;
    /// After a diversification restart, make the restart point the best
    /// setting when it is feasible and beats the best `K̄fail`. MTR does;
    /// DTR never does (its best only advances on accepted moves).
    const PROMOTE_RESTART: bool;

    /// Check `params` (panicking on an out-of-range value) and project
    /// them onto the knobs every stage reads.
    fn knobs(params: &Self::Params) -> RobustKnobs;
    /// The gate parameters within `params`.
    fn gate(params: &Self::Params) -> Self::GateParams;
    /// The delta-state engine every evaluation of the search runs on.
    fn engine(&self) -> &Engine<'_>;
    /// Draw a fresh move, one weight in `[lo, wmax]` per class, in class
    /// order.
    fn draw_move(&self, lo: u32, wmax: u32, rng: &mut StdRng) -> Self::Move;
    /// The move currently applied on `rep`.
    fn read_move(&self, w: &WeightSetting, rep: LinkId) -> Self::Move;
    /// Apply `mv` to both directions of `rep`.
    fn apply_move(&self, w: &mut WeightSetting, rep: LinkId, mv: &Self::Move);
    /// §IV-D1's relaxed Eqs. 5–6 (Phase 1): is a setting of
    /// normal-conditions cost `cost` close enough to the best cost seen
    /// so far that a failure-emulating move from it yields a sample, and
    /// that it may enter the archive? `z` scales the SLA classes' `B1`
    /// slack.
    fn acceptable(
        &self,
        cost: &Self::Cost,
        best: &Self::Cost,
        z: f64,
        gate: &Self::GateParams,
    ) -> bool;
    /// Eqs. 5–6: may a setting with normal-conditions cost `normal`
    /// replace one benchmarked at `benchmark`?
    fn feasible(
        &self,
        normal: &Self::Cost,
        benchmark: &Self::Cost,
        gate: &Self::GateParams,
    ) -> bool;
    /// Write the gate parameters into a snapshot's config section.
    fn put_gate(gate: &Self::GateParams, enc: &mut Encoder);
    /// Read them back, refusing a snapshot taken under other ones.
    fn check_gate(gate: &Self::GateParams, rd: &mut Decoder<'_>) -> Result<(), SnapshotError>;
}

/// The search knobs every stage reads, projected from `Params` (DTR) or
/// `MtrParams` (MTR) by [`RobustEngine::knobs`]; the two parameter
/// blocks share every one of these fields with the same meaning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RobustKnobs {
    /// Master seed.
    pub seed: u64,
    /// Largest link weight.
    pub wmax: u32,
    /// Failure-emulation band: `[⌈q·wmax⌉, wmax]` for every class weight.
    pub q: f64,
    /// Phase-1 sample-acceptance slack factor on `B1`.
    pub z: f64,
    /// Left-tail fraction of the criticality estimate.
    pub left_tail_fraction: f64,
    /// Target critical-set size as a fraction of the failure universe.
    pub critical_fraction: f64,
    /// Average new samples per link between rank re-checks (`τ`).
    pub tau: usize,
    /// Rank-change convergence threshold `e`.
    pub e: f64,
    /// Cap on Phase-1b top-up rounds (`Params::max_phase1b_rounds`,
    /// `MtrParams::max_sampling_rounds`).
    pub max_top_up_rounds: usize,
    /// Stop-rule improvement threshold `c`.
    pub c: f64,
    /// Phase-1 stop-rule window (diversifications).
    pub p1: usize,
    /// Robust-phase stop-rule window (diversifications).
    pub p2: usize,
    /// Phase-1 stale sweeps before a diversification restart.
    pub div_interval_1: usize,
    /// Robust-phase stale sweeps before a diversification restart.
    pub div_interval_2: usize,
    /// Archive capacity (snapshot decoding).
    pub archive_size: usize,
    /// Sweep backstop (per phase).
    pub max_iterations: usize,
    /// Worker cap of Phase 1b's rounds and of a portfolio's replicas;
    /// each chain runs on one thread.
    pub threads: usize,
    /// Incumbent-bounded failure sweeps through the scenario cache.
    pub cutoff: bool,
    /// Record the accept/reject trace.
    pub record_trace: bool,
    /// Scenario-cache byte budget.
    pub cache_budget_bytes: usize,
    /// Portfolio shape.
    pub portfolio: PortfolioParams,
    /// Wall-clock budget per call.
    pub deadline_ms: Option<u64>,
    /// Checkpoint cadence in boundaries (0 = off).
    pub checkpoint_every: usize,
}

impl RobustKnobs {
    /// The replica-local knobs of portfolio chain `r`: its derived seed.
    fn replica(&self, r: usize) -> Self {
        if self.portfolio.replicas == 1 {
            return *self;
        }
        RobustKnobs {
            seed: replica_seed(self.seed, r),
            ..*self
        }
    }
}

/// Result of the robust search (`Phase2Output` and `MtrRobustOutput`
/// are its two instantiations).
#[derive(Clone, Debug)]
pub struct RobustOutput<C> {
    /// The robust weight setting.
    pub best: WeightSetting,
    /// Its compound failure cost over the critical set.
    pub best_kfail: C,
    /// Its normal-conditions cost (satisfies Eqs. 5–6 against the
    /// benchmark).
    pub best_normal: C,
    /// Moves rejected by the normal-conditions constraints (cheap
    /// rejections — they skip the failure sweep).
    pub constraint_rejections: usize,
    /// Per-proposal accept/reject sequence (empty unless
    /// `record_trace`). In a portfolio run this is the winning
    /// replica's trace.
    pub trace: Vec<MoveOutcome>,
    /// Per-replica accept/reject traces of a portfolio run, in replica
    /// index order (empty unless `record_trace` and `replicas > 1`).
    /// Bit-for-bit reproducible for a given
    /// `(seed, replicas, rendezvous_period)` at any thread count — the
    /// parallel-search contract in `DETERMINISM.md`.
    pub replica_traces: Vec<Vec<MoveOutcome>>,
    /// Effort spent (portfolio runs merge per-replica stats in replica
    /// index order via [`SearchStats::merge`]).
    pub stats: SearchStats,
    /// Why the run returned (convergence, deadline/kill, or an
    /// already-terminal restored snapshot). Never affects *what* is
    /// returned — see "The checkpoint contract" in `DETERMINISM.md`.
    pub terminated: Terminated,
}

/// External control of a robust search run: an optional checkpoint
/// sink fed every `checkpoint_every` boundaries, and a deterministic
/// kill-point for the fault-injection harness.
///
/// A *boundary* is one chain sweep for a single-chain run and one
/// rendezvous (fan-out + elite merge) for a portfolio run — the only
/// points where all chain state is consistent, hence the only points
/// where snapshots are taken and termination is decided.
pub struct RunControl<'a> {
    /// Where checkpoints go. `None` disables checkpointing even when
    /// `checkpoint_every` is set.
    pub sink: Option<&'a mut dyn CheckpointSink>,
    /// Deterministic kill-point: stop (as if the deadline fired) once
    /// this many boundaries have completed, counted across restores —
    /// so a resumed run's kill indices stay globally aligned with an
    /// uninterrupted run's.
    pub kill_after: Option<u64>,
}

impl<'a> RunControl<'a> {
    /// No checkpointing, no kill-point: plain `run` behaviour.
    pub fn none() -> Self {
        RunControl {
            sink: None,
            kill_after: None,
        }
    }

    /// Checkpoint into `sink` every `checkpoint_every` boundaries.
    pub fn with_sink(sink: &'a mut dyn CheckpointSink) -> Self {
        RunControl {
            sink: Some(sink),
            kill_after: None,
        }
    }
}

/// Evaluation-order state of the cutoff sweeps: positions into the
/// `indices` slice, costliest-under-the-incumbent first, the shared
/// per-position cost scratch, and the delta-state scenario cache.
struct SweepState<E: RobustEngine> {
    order: Vec<u32>,
    scratch: SweepScratch<E::Cost>,
    cache: ScenarioCache,
}

impl<E: RobustEngine> SweepState<E> {
    /// Sweep state over the `indices` positions.
    fn new(indices: &[usize], knobs: &RobustKnobs) -> Self {
        SweepState {
            order: (0..indices.len() as u32).collect(),
            scratch: SweepScratch::new(),
            cache: ScenarioCache::with_budget(knobs.cache_budget_bytes),
        }
    }

    /// Re-sort the evaluation order by the incumbent's per-scenario
    /// (weighted) cost, component by component in precedence order,
    /// descending, ties by position — so the order, and therefore the
    /// deterministic skip accounting, is fully pinned. A bounded sweep's
    /// partial fold advances toward the incumbent by each evaluated
    /// scenario's weighted cost, so front-loading the scenarios that
    /// cost the incumbent most makes a losing candidate's proof fire as
    /// early as possible.
    fn refresh<S: ScenarioSet + ?Sized>(&mut self, set: &S, indices: &[usize]) {
        let costs = &self.scratch.costs;
        let p = |pos: u32| set.weight(indices[pos as usize]);
        self.order.sort_by(|&a, &b| {
            let (ca, cb) = (&costs[a as usize], &costs[b as usize]);
            let (pa, pb) = (p(a), p(b));
            for i in 0..ca.arity() {
                let xa = ca.component(i) * pa;
                let xb = cb.component(i) * pb;
                let o = xb.total_cmp(&xa);
                if o.is_ne() {
                    return o;
                }
            }
            a.cmp(&b)
        });
    }
}

/// Full compound sweep (init, diversification restarts and the
/// cutoff-off path): bit-for-bit [`parallel::sum_set_costs`]. With the
/// cutoff enabled it captures the delta-state scenario cache on `w` and
/// refreshes the per-position costs and evaluation order as it goes
/// (the index-order weighted fold is exactly the plain sweep's
/// float-add sequence).
fn full_sweep<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    ev: &E,
    set: &S,
    indices: &[usize],
    knobs: &RobustKnobs,
    w: &WeightSetting,
    stats: &mut SearchStats,
    st: &mut SweepState<E>,
) -> E::Cost {
    stats.evaluations += indices.len();
    if !knobs.cutoff {
        return parallel::sum_set_costs(ev, w, set, indices, 1);
    }
    rebuild_cache(ev, set, indices, w, st);
    let resident = st.cache.resident_scenarios();
    stats.cache_resident_scenarios = stats.cache_resident_scenarios.max(resident);
    stats.cache_fallback_evals += indices.len() - resident;
    let mut acc = E::Cost::zeros(ev.engine().num_classes());
    for (c, &i) in st.scratch.costs.iter().zip(indices) {
        acc.add_scaled_assign(c, set.weight(i));
    }
    st.refresh(set, indices);
    acc
}

/// Capture sweep over `w`, in position order on one pooled workspace:
/// rebuilds the delta-state scenario cache (the incumbent baseline plus
/// every resident scenario's state) and refreshes the per-position cost
/// scratch.
///
/// Budget-bounded caches first capture position 0 as a calibration
/// probe and plan the resident prefix from its measured footprint; the
/// positions past that prefix are evaluated on the plain repair-seeded
/// path, which returns the same bits (pinned by
/// `tests/scenario_engine_equivalence.rs`). A budget below one entry
/// keeps the calibration probe allocated but marks nothing resident —
/// at most one entry of slack over the configured budget.
fn rebuild_cache<E: RobustEngine, S: ScenarioSet + ?Sized>(
    ev: &E,
    set: &S,
    indices: &[usize],
    w: &WeightSetting,
    st: &mut SweepState<E>,
) {
    let eng = ev.engine();
    let n = indices.len();
    let mut ws = eng.acquire_workspace();
    eng.cache_rebuild_begin(&mut ws, &mut st.cache, w, n);
    st.scratch.costs.clear();
    st.scratch
        .costs
        .resize(n, E::Cost::zeros(eng.num_classes()));
    let mut captured = 0usize;
    if st.cache.budget_bytes() != usize::MAX && n > 0 {
        let sc = set.scenario(indices[0]);
        st.scratch.costs[0].assign(eng.cost_capture(&mut ws, w, sc, &mut st.cache, 0));
        captured = 1;
    }
    st.cache.plan_residency(n);
    // Position 0 is already exact even when non-resident: the capture
    // eval and the plain eval are bit-identical.
    for (pos, &i) in indices.iter().enumerate().skip(captured) {
        let sc = set.scenario(i);
        let c = if st.cache.is_resident(pos) {
            eng.cost_capture(&mut ws, w, sc, &mut st.cache, pos)
        } else {
            eng.cost_with(&mut ws, w, sc)
        };
        st.scratch.costs[pos].assign(c);
    }
    eng.release_workspace(ws);
}

/// One replica's persistent search state: everything the classic
/// single-chain loop keeps across sweeps, owned per replica so portfolio
/// chains can run concurrently between rendezvous (the parallel-search
/// contract in `DETERMINISM.md`). `knobs` is the replica-local copy —
/// the derived master seed; every other knob matches the run's. With
/// `replicas == 1` the chain *is* the classic search, bit for bit.
struct Chain<E: RobustEngine> {
    knobs: RobustKnobs,
    rng: StdRng,
    stats: SearchStats,
    constraint_rejections: usize,
    trace: Vec<MoveOutcome>,
    st: SweepState<E>,
    current: WeightSetting,
    current_normal: E::Cost,
    current_kfail: E::Cost,
    best: WeightSetting,
    best_kfail: E::Cost,
    best_normal: E::Cost,
    stop: StopRule<E::Cost>,
    reps: Vec<LinkId>,
    stale_sweeps: usize,
    /// Replica-local archive (a clone of the start archive):
    /// diversification restarts sample from it, and rendezvous merges
    /// offer the other replicas' elites into it in replica index order.
    archive: Archive<E::Cost>,
    done: bool,
}

impl<E: RobustEngine> Chain<E> {
    /// Start a chain from the best archived setting — the classic
    /// prologue (initial full sweep included).
    fn new<S: ScenarioSet + Sync + ?Sized>(
        ev: &E,
        set: &S,
        indices: &[usize],
        knobs: RobustKnobs,
        archive: &Archive<E::Cost>,
    ) -> Self {
        let rng = StdRng::seed_from_u64(knobs.seed ^ 0x2545_f491_4f6c_dd1d);
        let mut stats = SearchStats::default();
        let mut st = SweepState::new(indices, &knobs);
        let archive = archive.clone();
        let (current, current_normal) = archive
            .best()
            .cloned()
            .expect("the start archive holds at least its best setting");
        let current_kfail = full_sweep(ev, set, indices, &knobs, &current, &mut stats, &mut st);
        Chain {
            rng,
            stats,
            constraint_rejections: 0,
            trace: Vec::new(),
            st,
            best: current.clone(),
            best_kfail: current_kfail.clone(),
            best_normal: current_normal.clone(),
            current,
            current_normal,
            current_kfail,
            stop: StopRule::new(knobs.p2, knobs.c),
            reps: ev.engine().net().duplex_representatives(),
            stale_sweeps: 0,
            archive,
            done: false,
            knobs,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot codec ("The checkpoint contract", DETERMINISM.md). Layout
// version 2 serves both kinds.
//
// A snapshot captures every bit of chain state the trajectory depends
// on: the RNG stream position, current/best settings and costs, the
// stop-rule trailing history, the shuffled representative order, the
// replica-local archive, stats and trace. The delta-state scenario
// cache is NOT serialized: its entries are a pure function of the
// current incumbent, so restore rebuilds them with a capture sweep that
// is bit-identical to the refreshed cache it replaces (pinned by the
// cache equivalence suites); the per-position cost scratch and the
// evaluation order fall out of the same sweep.

const SEC_CONFIG: u32 = 0x10;
const SEC_CHAIN: u32 = 0x20;

fn put_cost<C: SearchCost>(enc: &mut Encoder, c: &C) {
    enc.put_usize(c.arity());
    for i in 0..c.arity() {
        enc.put_f64(c.component(i));
    }
}

fn take_cost<C: SearchCost>(rd: &mut Decoder<'_>, k: usize) -> Result<C, SnapshotError> {
    let v = rd.take_vec_f64()?;
    if v.len() != k {
        return Err(SnapshotError::Corrupt("cost vector length differs"));
    }
    C::from_components(v).ok_or(SnapshotError::Corrupt("cost component out of range"))
}

fn put_weights(enc: &mut Encoder, w: &WeightSetting) {
    for k in 0..w.num_classes() {
        enc.put_slice_u32(w.weights(k));
    }
}

fn take_weights(
    rd: &mut Decoder<'_>,
    k: usize,
    wmax: u32,
    num_links: usize,
) -> Result<WeightSetting, SnapshotError> {
    let mut per_class = Vec::with_capacity(k);
    for _ in 0..k {
        let v = rd.take_vec_u32()?;
        if v.len() != num_links {
            return Err(SnapshotError::Corrupt("weight vector length differs"));
        }
        if v.iter().any(|&w| w < 1 || w > wmax) {
            return Err(SnapshotError::Corrupt("weight outside [1, wmax]"));
        }
        per_class.push(v);
    }
    Ok(WeightSetting::from_class_vecs(per_class, wmax))
}

fn put_stats(enc: &mut Encoder, s: &SearchStats) {
    enc.put_usize(s.iterations);
    enc.put_usize(s.evaluations);
    enc.put_usize(s.diversifications);
    enc.put_usize(s.scenario_evals_skipped);
    enc.put_usize(s.skipped_floor);
    enc.put_usize(s.skipped_cache);
    enc.put_usize(s.skipped_cutoff);
    enc.put_usize(s.speculative_wasted);
    enc.put_usize(s.cache_rebuild_evals);
    enc.put_usize(s.cache_resident_scenarios);
    enc.put_usize(s.cache_fallback_evals);
}

fn take_stats(rd: &mut Decoder<'_>) -> Result<SearchStats, SnapshotError> {
    Ok(SearchStats {
        iterations: rd.take_usize()?,
        evaluations: rd.take_usize()?,
        diversifications: rd.take_usize()?,
        scenario_evals_skipped: rd.take_usize()?,
        skipped_floor: rd.take_usize()?,
        skipped_cache: rd.take_usize()?,
        skipped_cutoff: rd.take_usize()?,
        speculative_wasted: rd.take_usize()?,
        cache_rebuild_evals: rd.take_usize()?,
        cache_resident_scenarios: rd.take_usize()?,
        cache_fallback_evals: rd.take_usize()?,
    })
}

/// Serialize one chain into an open snapshot. Steady-state
/// allocation-free: every write appends into the encoder's reusable
/// buffer, which stops growing once it has seen the largest snapshot
/// (registered in `crates/analysis/hot_paths.toml`, proven by
/// `tests/alloc_free.rs`).
fn encode_chain<E: RobustEngine>(enc: &mut Encoder, ch: &Chain<E>) {
    enc.begin_section(SEC_CHAIN);
    for word in ch.rng.state() {
        enc.put_u64(word);
    }
    put_stats(enc, &ch.stats);
    enc.put_usize(ch.constraint_rejections);
    enc.put_usize(ch.trace.len());
    for m in &ch.trace {
        enc.put_u8(match m {
            MoveOutcome::ConstraintReject => 0,
            MoveOutcome::Reject => 1,
            MoveOutcome::Accept => 2,
        });
    }
    put_weights(enc, &ch.current);
    put_cost(enc, &ch.current_normal);
    put_cost(enc, &ch.current_kfail);
    put_weights(enc, &ch.best);
    put_cost(enc, &ch.best_kfail);
    put_cost(enc, &ch.best_normal);
    enc.put_usize(ch.stop.history().len());
    for c in ch.stop.history() {
        put_cost(enc, c);
    }
    enc.put_usize(ch.reps.len());
    for r in &ch.reps {
        enc.put_u32(r.index() as u32);
    }
    enc.put_usize(ch.stale_sweeps);
    enc.put_usize(ch.archive.len());
    for (w, normal) in ch.archive.entries() {
        put_weights(enc, w);
        put_cost(enc, normal);
    }
    enc.put_bool(ch.done);
    enc.end_section();
}

/// Rebuild one chain from an open snapshot. `knobs` is the
/// replica-local block the resumed run would hand a fresh chain.
/// Decoding allocates freely — restore runs once, outside every sweep
/// kernel.
fn decode_chain<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    rd: &mut Decoder<'_>,
    ev: &E,
    set: &S,
    indices: &[usize],
    knobs: RobustKnobs,
) -> Result<Chain<E>, SnapshotError> {
    rd.section(SEC_CHAIN)?;
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = rd.take_u64()?;
    }
    let rng = StdRng::from_state(state);
    let mut stats = take_stats(rd)?;
    let constraint_rejections = rd.take_usize()?;
    let trace_len = rd.take_len(1)?;
    let mut trace = Vec::with_capacity(trace_len);
    for _ in 0..trace_len {
        trace.push(match rd.take_u8()? {
            0 => MoveOutcome::ConstraintReject,
            1 => MoveOutcome::Reject,
            2 => MoveOutcome::Accept,
            _ => return Err(SnapshotError::Corrupt("move outcome out of range")),
        });
    }
    let k = ev.engine().num_classes();
    let num_links = ev.engine().net().num_links();
    let current = take_weights(rd, k, knobs.wmax, num_links)?;
    let current_normal = take_cost(rd, k)?;
    let current_kfail = take_cost(rd, k)?;
    let best = take_weights(rd, k, knobs.wmax, num_links)?;
    let best_kfail = take_cost(rd, k)?;
    let best_normal = take_cost(rd, k)?;
    let hist_len = rd.take_len(8)?;
    let mut history = Vec::with_capacity(hist_len);
    for _ in 0..hist_len {
        history.push(take_cost(rd, k)?);
    }
    let mut stop = StopRule::new(knobs.p2, knobs.c);
    stop.restore_history(history);
    let reps_len = rd.take_len(4)?;
    let mut reps = Vec::with_capacity(reps_len);
    for _ in 0..reps_len {
        let x = rd.take_u32()? as usize;
        if x >= num_links {
            return Err(SnapshotError::Corrupt("representative link out of range"));
        }
        reps.push(LinkId::new(x));
    }
    let stale_sweeps = rd.take_usize()?;
    let arch_len = rd.take_len(8)?;
    let mut archive = Archive::new(knobs.archive_size);
    for _ in 0..arch_len {
        let w = take_weights(rd, k, knobs.wmax, num_links)?;
        let normal = take_cost(rd, k)?;
        // Entries were stored best-first, so re-offering in order
        // reproduces the archive exactly (each entry appends; the
        // fingerprints are recomputed).
        archive.offer(&w, normal);
    }
    let done = rd.take_bool()?;

    // Rebuild the evaluation-order state. The delta-state cache is a
    // pure function of the restored incumbent: a capture sweep over
    // `current` reproduces, bit for bit, the entries and per-position
    // costs the refreshed cache held at the checkpoint. The physical
    // re-evaluations are attributed to `cache_rebuild_evals`, never to
    // the logical `evaluations`.
    let mut st = SweepState::new(indices, &knobs);
    if knobs.cutoff && !indices.is_empty() {
        rebuild_cache(ev, set, indices, &current, &mut st);
        stats.cache_rebuild_evals += indices.len();
        stats.cache_resident_scenarios = stats
            .cache_resident_scenarios
            .max(st.cache.resident_scenarios());
        st.refresh(set, indices);
    }
    Ok(Chain {
        knobs,
        rng,
        stats,
        constraint_rejections,
        trace,
        st,
        current,
        current_normal,
        current_kfail,
        best,
        best_kfail,
        best_normal,
        stop,
        reps,
        stale_sweeps,
        archive,
        done,
    })
}

/// Write the whole run state (config fingerprint + every chain) into
/// `enc`, leaving it ready for `finish()`. Steady-state
/// allocation-free like [`encode_chain`].
fn encode_snapshot<E: RobustEngine>(
    enc: &mut Encoder,
    run: &Run<'_, E>,
    boundary: u64,
    chains: &[Chain<E>],
) {
    let knobs = run.knobs;
    enc.begin(E::SNAPSHOT_KIND);
    enc.begin_section(SEC_CONFIG);
    enc.put_u64(knobs.seed);
    enc.put_usize(knobs.portfolio.replicas);
    enc.put_usize(knobs.portfolio.rendezvous_period);
    enc.put_usize(run.set_len);
    enc.put_usize(run.ev.engine().net().num_links());
    enc.put_usize(run.ev.engine().num_classes());
    enc.put_u32(knobs.wmax);
    enc.put_usize(knobs.p2);
    enc.put_f64(knobs.c);
    enc.put_usize(knobs.div_interval_2);
    enc.put_usize(knobs.max_iterations);
    enc.put_usize(knobs.archive_size);
    put_cost(enc, run.benchmark);
    E::put_gate(run.gate, enc);
    enc.put_u64(boundary);
    enc.put_usize(chains.len());
    enc.end_section();
    for ch in chains {
        encode_chain(enc, ch);
    }
}

/// Check the stored config fingerprint against the resuming run and
/// recover the benchmark and the boundary counter. Only
/// trajectory-determining knobs are fingerprinted: `threads`, `cutoff`
/// and the cache budget may all legally differ between the saving and
/// the resuming process — the determinism contract makes the continued
/// trajectory identical regardless. A
/// `benchmark` of `None` takes the stored one (DTR resumes without its
/// Phase-1 output); `Some` must match it bit for bit.
fn decode_config<E: RobustEngine>(
    rd: &mut Decoder<'_>,
    ev: &E,
    knobs: &RobustKnobs,
    set_len: usize,
    benchmark: Option<&E::Cost>,
    gate: &E::GateParams,
) -> Result<(E::Cost, u64), SnapshotError> {
    rd.section(SEC_CONFIG)?;
    let k = ev.engine().num_classes();
    if rd.take_u64()? != knobs.seed {
        return Err(SnapshotError::Mismatch("seed differs"));
    }
    if rd.take_usize()? != knobs.portfolio.replicas {
        return Err(SnapshotError::Mismatch("replica count differs"));
    }
    if rd.take_usize()? != knobs.portfolio.rendezvous_period {
        return Err(SnapshotError::Mismatch("rendezvous period differs"));
    }
    if rd.take_usize()? != set_len {
        return Err(SnapshotError::Mismatch(E::SET_SIZE_MISMATCH));
    }
    if rd.take_usize()? != ev.engine().net().num_links() {
        return Err(SnapshotError::Mismatch("link count differs"));
    }
    if rd.take_usize()? != k {
        return Err(SnapshotError::Mismatch("class count differs"));
    }
    if rd.take_u32()? != knobs.wmax {
        return Err(SnapshotError::Mismatch("wmax differs"));
    }
    if rd.take_usize()? != knobs.p2 {
        return Err(SnapshotError::Mismatch("stop window differs"));
    }
    if rd.take_f64()?.to_bits() != knobs.c.to_bits() {
        return Err(SnapshotError::Mismatch("stop threshold differs"));
    }
    if rd.take_usize()? != knobs.div_interval_2 {
        return Err(SnapshotError::Mismatch("diversification interval differs"));
    }
    if rd.take_usize()? != knobs.max_iterations {
        return Err(SnapshotError::Mismatch("iteration cap differs"));
    }
    if rd.take_usize()? != knobs.archive_size {
        return Err(SnapshotError::Mismatch("archive size differs"));
    }
    let stored: E::Cost = take_cost(rd, k)?;
    if let Some(b) = benchmark {
        if (0..k).any(|i| stored.component(i).to_bits() != b.component(i).to_bits()) {
            return Err(SnapshotError::Mismatch("benchmark differs"));
        }
    }
    E::check_gate(gate, rd)?;
    let boundary = rd.take_u64()?;
    if rd.take_usize()? != knobs.portfolio.replicas {
        return Err(SnapshotError::Corrupt("chain count differs from replicas"));
    }
    Ok((stored, boundary))
}

/// What every chain of one run shares: the engine, the critical-set
/// size, the run-level knobs, and the gate candidates are checked
/// against — the normal-conditions benchmark (the start phase's best
/// cost) and the instantiation's gate parameters.
struct Run<'r, E: RobustEngine> {
    ev: &'r E,
    set_len: usize,
    knobs: &'r RobustKnobs,
    benchmark: &'r E::Cost,
    gate: &'r E::GateParams,
}

impl<E: RobustEngine> Run<'_, E> {
    /// Eqs. 5–6 for a candidate's normal-conditions cost.
    fn feasible(&self, normal: &E::Cost) -> bool {
        self.ev.feasible(normal, self.benchmark, self.gate)
    }
}

/// Boundary bookkeeping: checkpoint when the cadence is due, then
/// decide whether the run ends here (injected kill-point or wall-clock
/// deadline). The decision only reads *whether* to stop — never which
/// move to accept — so every prefix of the trajectory matches an
/// uncontrolled run's bit for bit.
fn at_boundary<E: RobustEngine>(
    enc: &mut Encoder,
    run: &Run<'_, E>,
    boundary: u64,
    chains: &[Chain<E>],
    deadline: Option<Instant>,
    ctl: &mut RunControl<'_>,
) -> Result<Option<Terminated>, SnapshotError> {
    let every = run.knobs.checkpoint_every;
    if every != 0 && boundary.is_multiple_of(every as u64) {
        if let Some(sink) = ctl.sink.as_mut() {
            encode_snapshot(enc, run, boundary, chains);
            sink.store(enc.finish())?;
        }
    }
    if ctl.kill_after.is_some_and(|k| boundary >= k) {
        return Ok(Some(Terminated::Deadline));
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Ok(Some(Terminated::Deadline));
    }
    Ok(None)
}

/// Boundary-driven loop behind [`run_controlled`] and [`resume`]:
/// sweeps chains between boundaries, checkpoints and decides
/// termination only at boundaries, and assembles the output.
fn drive<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    set: &S,
    indices: &[usize],
    run: &Run<'_, E>,
    mut chains: Vec<Chain<E>>,
    start_boundary: u64,
    restored: bool,
    ctl: &mut RunControl<'_>,
) -> Result<RobustOutput<E::Cost>, SnapshotError> {
    let knobs = run.knobs;
    let deadline = knobs
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut enc = Encoder::new();
    let mut boundary = start_boundary;
    let mut terminated = if restored && chains.iter().all(|c| c.done) {
        Terminated::Restored
    } else {
        Terminated::Converged
    };

    // A single chain sweeps once per boundary. A portfolio (the
    // parallel-search contract, `DETERMINISM.md`) runs independent
    // chains from distinct derived seeds on at most `threads` workers
    // (a done chain's sweeps return at once), exchanging archive elites
    // at fixed rendezvous points. Every cross-replica step — elite
    // collection, archive offers, the final winner pick and stat merge
    // — happens in replica index order on the coordinating thread, so
    // the output depends only on `(seed, replicas, rendezvous_period)`,
    // never on thread count.
    let mut elites: Vec<(WeightSetting, E::Cost)> = Vec::new();
    while !indices.is_empty() && chains.iter().any(|c| !c.done) {
        if let [ch] = chains.as_mut_slice() {
            chain_sweep(set, indices, run, ch);
        } else {
            parallel::scoped_fanout(&mut chains, knobs.threads, |ch| {
                for _ in 0..knobs.portfolio.rendezvous_period {
                    chain_sweep(set, indices, run, ch);
                    if ch.done {
                        break;
                    }
                }
            });
            // Rendezvous: collect every replica's elite in index order,
            // then offer the batch into every archive in that same
            // order. `Archive::offer` dedups by fingerprint, so repeat
            // offers across rendezvous are no-ops and the merge is
            // idempotent.
            elites.clear();
            elites.extend(
                chains
                    .iter()
                    .map(|c| (c.best.clone(), c.best_normal.clone())),
            );
            for ch in chains.iter_mut() {
                for (w, normal) in &elites {
                    ch.archive.offer(w, normal.clone());
                }
            }
        }
        boundary += 1;
        if let Some(t) = at_boundary(&mut enc, run, boundary, &chains, deadline, ctl)? {
            terminated = t;
            break;
        }
    }

    // Winner: best compound failure cost, lowest replica index on ties.
    // A single chain is its own winner with its own stats and trace.
    let mut win = 0usize;
    for r in 1..chains.len() {
        if chains[r].best_kfail.better_than(&chains[win].best_kfail) {
            win = r;
        }
    }
    let mut stats = SearchStats::default();
    let mut constraint_rejections = 0usize;
    for c in &chains {
        stats.merge(&c.stats);
        constraint_rejections += c.constraint_rejections;
    }
    let mut replica_traces: Vec<Vec<MoveOutcome>> = Vec::new();
    let trace = if chains.len() == 1 {
        std::mem::take(&mut chains[0].trace)
    } else {
        if knobs.record_trace {
            replica_traces.extend(chains.iter_mut().map(|c| std::mem::take(&mut c.trace)));
        }
        replica_traces.get(win).cloned().unwrap_or_default()
    };
    let winner = chains.swap_remove(win);
    Ok(RobustOutput {
        best: winner.best,
        best_kfail: winner.best_kfail,
        best_normal: winner.best_normal,
        constraint_rejections,
        trace,
        replica_traces,
        stats,
        terminated,
    })
}

/// One sweep of one chain — the classic loop body (the serial move
/// loop, Eq. 5–6 gate, bounded failure sweeps, diversification and the
/// stop rule). Sets `ch.done` when the chain's stop rule or the
/// iteration backstop fires; a done chain is never swept again.
fn chain_sweep<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    set: &S,
    indices: &[usize],
    run: &Run<'_, E>,
    ch: &mut Chain<E>,
) {
    if ch.done {
        return;
    }
    if ch.stats.iterations >= ch.knobs.max_iterations {
        ch.done = true;
        return;
    }
    let ev = run.ev;
    let eng = ev.engine();
    let knobs = ch.knobs;
    let Chain {
        rng,
        stats,
        constraint_rejections,
        trace,
        st,
        current,
        current_normal,
        current_kfail,
        best,
        best_kfail,
        best_normal,
        stop,
        reps,
        stale_sweeps,
        archive,
        done,
        ..
    } = ch;

    stats.iterations += 1;
    reps.shuffle(rng);
    let mut improved = false;

    sweep(
        ev,
        reps,
        knobs.wmax,
        rng,
        current,
        |cand_w, _rep, cand_normal| {
            // Cheap constraint gate: one normal-conditions evaluation.
            stats.evaluations += 1;
            if !run.feasible(cand_normal) {
                *constraint_rejections += 1;
                if knobs.record_trace {
                    trace.push(MoveOutcome::ConstraintReject);
                }
                return Decision::Reject;
            }
            stats.evaluations += indices.len();
            let outcome = if knobs.cutoff {
                eng.cache_begin(&mut st.cache, cand_w);
                let outcome = parallel::sum_set_costs_bounded(
                    ev,
                    cand_w,
                    set,
                    indices,
                    current_kfail,
                    &st.order,
                    Some(&st.cache),
                    &mut st.scratch,
                );
                // Attribute plain-path (non-resident) evaluations of
                // this bounded sweep: the `evaluated`-long prefix of the
                // deterministic order.
                let resident = st.cache.resident_scenarios();
                stats.cache_fallback_evals += match &outcome {
                    SetSweep::Complete(_) => indices.len() - resident,
                    SetSweep::Cut { evaluated, .. } => st.order[..*evaluated]
                        .iter()
                        .filter(|&&p| p as usize >= resident)
                        .count(),
                };
                outcome
            } else {
                SetSweep::Complete(parallel::sum_set_costs(ev, cand_w, set, indices, 1))
            };
            match outcome {
                SetSweep::Complete(kfail) if kfail.better_than(current_kfail) => {
                    *current_kfail = kfail;
                    if knobs.cutoff {
                        // Re-point the cache at the new incumbent so the
                        // next candidate's diff is again a single duplex
                        // move. The delta-state refresh keeps
                        // affected-set coverage *exact*, so no periodic
                        // full rebuild is needed.
                        let mut ws = eng.acquire_workspace();
                        eng.cache_refresh(&mut ws, &mut st.cache, cand_w, |pos| {
                            set.scenario(indices[pos])
                        });
                        eng.release_workspace(ws);
                        st.refresh(set, indices);
                    }
                    current_normal.clone_from(cand_normal);
                    improved = true;
                    if current_kfail.better_than(best_kfail) {
                        best.clone_from(cand_w);
                        best_kfail.clone_from(current_kfail);
                        best_normal.clone_from(cand_normal);
                    }
                    if knobs.record_trace {
                        trace.push(MoveOutcome::Accept);
                    }
                    Decision::Accept
                }
                SetSweep::Complete(_) => {
                    if knobs.record_trace {
                        trace.push(MoveOutcome::Reject);
                    }
                    Decision::Reject
                }
                SetSweep::Cut { evaluated } => {
                    let skips = indices.len() - evaluated;
                    stats.scenario_evals_skipped += skips;
                    if st.cache.resident_scenarios() == 0 {
                        // Every evaluation ran on the plain path.
                        stats.skipped_cutoff += skips;
                    } else {
                        stats.skipped_cache += skips;
                    }
                    if knobs.record_trace {
                        trace.push(MoveOutcome::Reject);
                    }
                    Decision::Reject
                }
            }
        },
    );

    *stale_sweeps = if improved { 0 } else { *stale_sweeps + 1 };
    if *stale_sweeps >= knobs.div_interval_2 {
        stats.diversifications += 1;
        *stale_sweeps = 0;
        if stop.record(best_kfail.clone()) {
            *done = true;
            return;
        }
        // Restart from a random archived setting. An archive entry may
        // violate Eq. 5 slightly (accepted under the z·B1 slack); it
        // still serves as a diversification point — only *accepted
        // moves* must be feasible, and the best tracker only advances
        // on feasible candidates.
        let (w, normal) = archive.sample(rng).expect("archive is non-empty");
        current.clone_from(w);
        current_normal.clone_from(normal);
        *current_kfail = full_sweep(ev, set, indices, &knobs, current, stats, st);
        if E::PROMOTE_RESTART
            && run.feasible(current_normal)
            && current_kfail.better_than(best_kfail)
        {
            best.clone_from(current);
            best_kfail.clone_from(current_kfail);
            best_normal.clone_from(current_normal);
        }
    }
}

/// Build the chain vector [`drive`] runs: one classic chain, or
/// `replicas` portfolio chains from distinct derived seeds, whose
/// initial full sweeps run on at most `threads` workers.
fn build_chains<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    ev: &E,
    set: &S,
    indices: &[usize],
    knobs: &RobustKnobs,
    archive: &Archive<E::Cost>,
) -> Vec<Chain<E>> {
    let mut slots: Vec<(RobustKnobs, Option<Chain<E>>)> = (0..knobs.portfolio.replicas)
        .map(|r| (knobs.replica(r), None))
        .collect();
    parallel::scoped_fanout(&mut slots, knobs.threads, |(k, slot)| {
        *slot = Some(Chain::new(ev, set, indices, *k, archive));
    });
    slots
        .into_iter()
        .map(|(_, s)| s.expect("every replica slot is initialised"))
        .collect()
}

/// Refuse invalid probability weights on the critical scenarios.
fn check_weights<S: ScenarioSet + ?Sized>(set: &S, indices: &[usize]) {
    if set.weighted() {
        for &i in indices {
            let p = set.weight(i);
            assert!(
                p >= 0.0 && p.is_finite(),
                "scenario {i} has invalid weight {p}"
            );
        }
    }
}

/// Run the robust search over the scenarios of `indices` drawn from
/// `set`, starting from `archive`, under external control: checkpoints
/// into `ctl.sink` every `checkpoint_every` boundaries and honours
/// `ctl.kill_after` and `deadline_ms`. The only fallible step is
/// storing a snapshot.
///
/// # Panics
/// Panics if `params` are invalid, the archive is empty or a scenario
/// weight is negative or not finite.
pub fn run_controlled<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    ev: &E,
    set: &S,
    indices: &[usize],
    params: &E::Params,
    benchmark: &E::Cost,
    archive: &Archive<E::Cost>,
    ctl: &mut RunControl<'_>,
) -> Result<RobustOutput<E::Cost>, SnapshotError> {
    let (knobs, gate) = (E::knobs(params), E::gate(params));
    check_weights(set, indices);
    let chains = build_chains(ev, set, indices, &knobs, archive);
    let run = Run {
        ev,
        set_len: indices.len(),
        knobs: &knobs,
        benchmark,
        gate: &gate,
    };
    drive(set, indices, &run, chains, 0, false, ctl)
}

/// Restore a robust run from `snapshot` bytes and continue it under
/// `ctl`. The engine, scenario set, critical indices, gate and the
/// trajectory-determining knobs must match the saving run
/// ([`SnapshotError::Mismatch`] otherwise); `threads`, `cutoff` and the
/// cache budget may differ freely — the determinism contract keeps the
/// continued trajectory bit-identical regardless. The archive travels
/// inside the snapshot, and so does the benchmark: pass `None` to take
/// it from there, or `Some` to have it checked.
///
/// The wall-clock deadline, when set, is a fresh budget for this call —
/// time spent before the crash is not counted against it.
///
/// # Panics
/// Panics if `params` are invalid or a scenario weight is negative or
/// not finite.
pub fn resume<E: RobustEngine, S: ScenarioSet + Sync + ?Sized>(
    ev: &E,
    set: &S,
    indices: &[usize],
    params: &E::Params,
    benchmark: Option<&E::Cost>,
    snapshot: &[u8],
    ctl: &mut RunControl<'_>,
) -> Result<RobustOutput<E::Cost>, SnapshotError> {
    let (knobs, gate) = (&E::knobs(params), &E::gate(params));
    check_weights(set, indices);
    let mut rd = dtr_persist::open(snapshot, E::SNAPSHOT_KIND)?;
    let (stored, boundary) = decode_config(&mut rd, ev, knobs, indices.len(), benchmark, gate)?;
    let mut chains = Vec::with_capacity(knobs.portfolio.replicas);
    for r in 0..knobs.portfolio.replicas {
        chains.push(decode_chain(&mut rd, ev, set, indices, knobs.replica(r))?);
    }
    rd.finish()?;
    let run = Run {
        ev,
        set_len: indices.len(),
        knobs,
        benchmark: &stored,
        gate,
    };
    drive(set, indices, &run, chains, boundary, true, ctl)
}
