//! The allocation-free, incremental, delta-state evaluation engine — one
//! engine for any number of traffic classes.
//!
//! The reference evaluators ([`crate::Evaluator::evaluate`] for DTR,
//! `MtrEvaluator::evaluate` in `dtr-mtr` for k classes) recompute
//! everything from scratch and allocate their full breakdowns. The local
//! search does not need the breakdown — it needs millions of scalar cost
//! answers — so this module provides the machinery that produces *the
//! same bits* without the per-evaluation work. An [`Engine`] is built
//! from an ordered class list (a traffic matrix plus a [`CostModel`] per
//! class) and writes the k cost components of every evaluation into its
//! workspace, returning them as a slice. DTR is its k = 2 instantiation:
//! an SLA class followed by a congestion class.
//!
//! 1. **Workspaces** ([`EvalWorkspace`]): every scratch vector an
//!    evaluation needs (Dijkstra heap, distance fields, load buffers,
//!    the scenario mask, per-pair delays, the cost components) lives in a
//!    per-thread workspace drawn from the engine's pool. After warm-up,
//!    an evaluation of **any** scenario kind performs **zero** heap
//!    allocations at any k (`tests/alloc_free.rs` pins this for link,
//!    SRLG and node sweeps, the delta-state cached path and the cache
//!    refresh, at k = 2 and k = 3).
//! 2. **Baseline caching**: the workspace keeps, per traffic class, the
//!    full no-failure routing of the *current* weight setting as
//!    replayable [`DestRouting`] records (one per demand destination).
//! 3. **Mask-diff incremental SPF across scenarios**: each scenario is
//!    reduced to its *down-set* — the directed links its mask fails: one
//!    duplex pair (`Link`), several pairs (`Srlg`, `DoubleLink`), or a
//!    router's full incidence set (`Node`). Only destinations whose
//!    no-failure **flow** uses a down link ([`flow_uses_any`]: a down
//!    link among the baseline record's `load_adds`, after the cheaper
//!    shortest-path-DAG test) are re-routed; all other destinations
//!    replay their recorded load accumulations bit-for-bit, and their
//!    SLA senders' delays, which the flow delay DP reads off the same
//!    record, are the masked route's too. A kept record's distance field
//!    is the all-up one, which a failure off the flow may move at nodes
//!    without inflow; nothing in a scenario evaluation reads it but the
//!    sender emission, whose reachability test it answers correctly.
//!    Probabilistic ensembles are sets of these same scenarios — their
//!    per-scenario weights are applied by the caller in scenario-index
//!    order, so the weighted sum is also bit-stable.
//! 4. **Incremental SPF across search moves**: when the weight setting
//!    changes (a neighbor move re-draws one duplex link's class
//!    weights), the baseline is diffed against the new weights, and only
//!    destinations whose distance field may be affected
//!    ([`weight_change_affects`]) are touched. Those are *repaired* from
//!    their previous routing ([`route_destination_reweight`]: orphans
//!    of the rising links re-settled, then a Dijkstra from the tails of
//!    the falling ones), not re-routed — bit-equal to a full route.
//!    A local search rejects most moves, so the next candidate is
//!    usually one link off the setting *before* the last one: each
//!    class baseline keeps the records its last change replaced, and
//!    when the new weights differ from the previous setting on fewer
//!    links than from the current one, it swaps those records back
//!    (an undo, no routing) and repairs only the shorter diff.
//!    The workspace baseline is the only no-failure routing the engine
//!    repairs; the scenario cache's incumbent baseline copies from it.
//! 5. **Delta-state scenario cache across moves × scenarios**
//!    ([`ScenarioCache`]): the robust phase's sweep evaluates the *same
//!    scenarios* for a stream of candidates that differ from the
//!    incumbent by one duplex link. The cache keeps **persistent
//!    per-scenario state** of the incumbent — see the next section — so
//!    a candidate's per-scenario cost ([`Engine::cost_cached`])
//!    re-routes only the flow-affected ∩ move-affected destinations,
//!    folds the loads through the same replay as the plain evaluation,
//!    and re-runs each SLA class's delay DP only for destinations whose
//!    routing or flow-link delays changed. The accept path re-points the
//!    cache at the new incumbent ([`Engine::cache_refresh`]) by
//!    evaluating the accepted candidate against each entry the same way
//!    and committing that result into the entry.
//! 6. **Per-class floors** ([`Engine::scenario_floor`]): the
//!    propagation-delay Λ floor of each SLA class, a routing-independent
//!    lower bound of its cost under a scenario; congestion classes get
//!    0. No search calls them: the incumbent-bounded sweep
//!    `dtr_core::parallel::sum_set_costs_bounded` folds only the
//!    scenarios it has evaluated, since standing a floor in for the rest
//!    cut too few sweeps to pay for one float Dijkstra per demand
//!    destination per critical scenario. They stay for the benchmark
//!    probe that times them (perfbench's `cost.floor_us`) and their
//!    soundness tests, and leave together with that probe.
//! 7. **Repair-seeded routing everywhere**: the plain
//!    [`Engine::cost_with`]/`cost_scenario` path — capture sweeps,
//!    reference anchors, every uncached failure sweep — seeds
//!    [`route_destination_repair`] from the workspace's resident
//!    no-failure baseline (orphan detection + boundary Dijkstra); it
//!    never runs a from-scratch Dijkstra per flow-affected destination.
//!    Weight moves are repaired the same way: the workspace baseline
//!    ([`Engine::ensure_baseline`]) runs the weight-move kernel
//!    ([`route_destination_reweight`]) into the destination's spare
//!    record and swaps it in, keeping the replaced record for an undo,
//!    and [`route_destination`] runs only where no previous routing
//!    exists; the cache's incumbent baseline copies the records an
//!    accepted move really changed from such a workspace baseline (the
//!    close of [`Engine::cache_refresh`]).
//!    Integer distances make every repair bit-equal to the full route,
//!    so repair changes only the time an evaluation takes.
//!
//! The "same bits" guarantee is a workspace-wide contract — parallel ==
//! serial, cached == uncached, repair == full-route, and cross-process
//! reproducibility — enforced dynamically by the equivalence suites and
//! statically by the `dtr-analysis` pass; `DETERMINISM.md` at the
//! workspace root states the contract and how to run and extend the
//! pass (this module's kernels are registered allocation-free in
//! `crates/analysis/hot_paths.toml`).
//!
//! # The delta-state model
//!
//! A plain scenario evaluation repairs every flow-affected destination
//! and re-runs the end-to-end delay DP for every SLA destination — even
//! when the candidate's one-duplex-link diff provably touched none of
//! them. The [`ScenarioCache`] keeps, per scenario, the *resolved* state
//! of the incumbent, and candidates pay for routing and delay DPs only
//! where their diff moves something:
//!
//! * **What persists per scenario**: per class, the recomputed routings
//!   of every flow-affected destination — exactly the destinations whose
//!   no-failure flow ([`flow_uses_any`]) uses a down link, so where
//!   demand is sparse an entry lists fewer destinations than the mask
//!   touches DAGs of; the resident **per-link delays** of the total
//!   loads; and, per SLA class, the resident **pair-delay triples**
//!   segmented by destination. The cache also holds the incumbent's
//!   no-failure **baseline** routings per class (the effective routing
//!   of every destination whose flow the mask leaves whole).
//! * **Who writes an entry**: one `commit`, from the result an
//!   evaluation leaves in the workspace. Capture commits a plain
//!   evaluation of the incumbent; the accept-path refresh commits the
//!   accepted candidate's cached evaluation against the entry. Both
//!   evaluations resolve every destination to exactly the routing its
//!   effective state needs — kept from the entry, freshly repaired, or
//!   the baseline — so the committed affected list is exactly the
//!   flow-affected set under the new incumbent, whichever path wrote it
//!   (both run the same screen and the same `commit`).
//! * **When a destination is changed**: the conservative
//!   [`weight_change_affects`] pre-screen is sharpened into an *exact*
//!   per-candidate baseline diff (`baseline_unchanged`, computed once
//!   per candidate against the workspace's maintained candidate
//!   baseline and shared by the whole scenario sweep): a destination is
//!   baseline-changed only when its distance field or DAG really moved.
//!   A changed destination's *scenario* routing is still reused from the
//!   entry whenever the diff provably cannot touch it; otherwise it is
//!   **repaired** from the candidate baseline
//!   ([`route_destination_repair`]: orphan detection plus a boundary
//!   Dijkstra over the invalidated region — integer distances make the
//!   repair bit-equal to a from-scratch route) instead of paying a full
//!   Dijkstra.
//! * **One load fold**: the plain and the cached evaluation end in the
//!   same fold. Each destination's resolved routing — the baseline, the
//!   entry's, or a fresh repair — replays its recorded adds into its
//!   class's loads in destination-index order, class by class; the
//!   classes sum into the total loads in class order; and every link's
//!   delay is a pure function of its total load. That is the float
//!   sequence of a from-scratch evaluation, so loads and delays are
//!   bit-for-bit the reference's.
//! * **Which pair segments are reused**: every SLA destination's
//!   segment comes from the flow delay DP
//!   ([`delay::flow_pair_delays_into`]), which folds the resolved
//!   record's `load_adds` backwards and so reads the delays of the links
//!   that carry the destination's flow and no others. A segment is
//!   therefore read back from the entry unless the destination's
//!   routing changed or one of its flow links has delay bits different
//!   from the entry's `link_delays` — one pass over its adds. The one
//!   exception is a record with a zero share (a subnormal demand split
//!   to `0.0`): its DP falls back to the arc scan, which reads more than
//!   the flow, so its segment is always recomputed. The final Λ and Φ
//!   folds run over the assembled per-pair and per-link values in the
//!   reference order, so they reproduce [`Engine::cost_with`] — and
//!   therefore the reference path — bit for bit.
//!
//! # Node failures: masks that also remove traffic
//!
//! A node failure downs every link incident to the dead router `v` *and*
//! removes the traffic `v` sources and sinks. The engine still evaluates
//! it against the **base** traffic matrices, without cloning, because the
//! mask makes the traffic change self-enforcing:
//!
//! * if `v` was reachable towards a destination `t` and sends to it, the
//!   first hop of `v`'s shortest path carries `v`'s demand — a down link
//!   in `t`'s flow — so [`flow_uses_any`] flags `t` and it is re-routed.
//!   Under the node mask `v` has no surviving out-link, so `v`'s demand
//!   lands in the dropped accumulator and contributes no load addition —
//!   the per-link float adds are exactly those of routing with `v`'s row
//!   zeroed;
//! * a destination is only *replayed* when no flow towards it touches
//!   `v` — `v` sends it nothing (or was already unreachable, in
//!   degenerate topologies) and relays none of its flow — so `v`'s
//!   demand never produced a load addition in the first place;
//! * the dead node is skipped as a destination, and the shared SLA
//!   kernels ([`delay::flow_pair_delays_into`] and its fallback) are
//!   told to skip it as a sender, so the emitted `(s, t, ξ)` triples
//!   match the reference's zeroed-matrix emission pair for pair.
//!
//! The only reference quantity the engine does not reproduce for node
//! scenarios is the `dropped` accounting (the reference removes the dead
//! node's demand before routing; the engine records it as dropped) —
//! `dropped` is diagnostic and never part of a cost.
//!
//! # Equivalence guarantees
//!
//! Bit-for-bit equivalence with the reference paths is not best-effort —
//! it is load-bearing (the optimization trajectory must not depend on
//! which engine evaluated a candidate) and pinned for **every**
//! `Scenario` kind by `tests/engine_equivalence.rs`,
//! `tests/mtr_scenarios.rs` and the randomized differential harness
//! `tests/scenario_engine_equivalence.rs` (including randomized
//! move/accept chains through the delta-state cache, its refreshes, and
//! full rebuilds, under non-default cost parameters). It holds because a
//! replayed destination re-issues the exact floating-point additions, in
//! the exact order, that a fresh computation would perform; a re-routed
//! destination runs the exact same [`route_destination`] kernel the
//! reference paths are built on; and the one load fold and the pair pass
//! keep the reference accumulation order per link and per pair (see
//! above).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dtr_net::{LinkId, LinkMask, Network, NodeId};
use dtr_routing::workspace::{
    flow_uses_any, route_destination, route_destination_repair, route_destination_reweight,
    weight_change_affects, DestRouting, WeightChange,
};
use dtr_routing::{delay, Scenario, SpfWorkspace, WeightSetting};
use dtr_traffic::TrafficMatrix;

use crate::params::{CostModel, CostParams, DelayAggregation};
use crate::{congestion, delay_model, sla};

/// Source of unique per-[`Engine`] identities (see
/// [`EvalWorkspace::owner`]); 0 is reserved for "never owned". Also
/// stamps cache generations.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(1);

fn next_engine_id() -> u64 {
    NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Marker for "this destination keeps its baseline routing".
/// Deliberately outside the [`CACHED_BIT`] range (high bit clear) so the
/// `scratch_map` decode is order-independent: no sentinel can alias a
/// tagged cache-entry slot regardless of which test runs first.
const NOT_RECOMPUTED: u32 = 0x7fff_fffe;

/// Tag bit marking a `scratch_map` slot that resolves into the scenario
/// cache's recomputed routings instead of the recompute scratch.
const CACHED_BIT: u32 = 0x8000_0000;

/// Tag marking a `scratch_map` slot that resolves into the workspace's
/// candidate baseline (a move-touched destination the scenario mask does
/// not affect) on the delta-state path.
const WS_BASE: u32 = 0x7fff_ffff;

/// `true` when a destination's candidate baseline routing is bit-for-bit
/// its cached incumbent baseline routing, proven from the candidate's
/// freshly maintained distance field:
///
/// * the distance fields are bitwise equal, and
/// * every changed link is off the shortest-path DAG under **both** its
///   old and its new weight (`dist[u] != dist[v] + w` for both; links
///   with an unreachable endpoint are never on a DAG).
///
/// Unchanged links keep their DAG status trivially (same weight, same
/// distances), so the two DAGs coincide on every link — and
/// [`route_destination`] is a deterministic function of (distances, DAG
/// membership, traffic), so the full record (order, load adds, drops) is
/// identical. This is the *exact* per-destination baseline diff: the
/// conservative [`weight_change_affects`] pre-screen errs towards
/// "changed" (e.g. a lowered weight that fails to create a shortcut),
/// and every such false positive would otherwise re-run the per-scenario
/// delay DP for nothing.
fn baseline_unchanged(
    net: &Network,
    cand_dist: &[u64],
    inc_dist: &[u64],
    diff: &[WeightChange],
) -> bool {
    if cand_dist != inc_dist {
        return false;
    }
    diff.iter().all(|c| {
        let link = net.link(c.link);
        let (u, v) = (link.src.index(), link.dst.index());
        if cand_dist[u] == dtr_routing::UNREACHABLE || cand_dist[v] == dtr_routing::UNREACHABLE {
            return true;
        }
        cand_dist[u] != cand_dist[v] + u64::from(c.old)
            && cand_dist[u] != cand_dist[v] + u64::from(c.new)
    })
}

/// The routing a `scratch_map` resolution code names: the workspace
/// baseline `base` for [`NOT_RECOMPUTED`] and [`WS_BASE`] (on the cached
/// path `NOT_RECOMPUTED` implies `base_same`, so the workspace baseline
/// is bit-for-bit the incumbent's), the entry's affected `list` for
/// [`CACHED_BIT`] slots, the scratch pool otherwise.
fn resolve<'r>(
    code: u32,
    base: &'r DestRouting,
    list: &'r [(u32, DestRouting)],
    scratch: &'r [DestRouting],
) -> &'r DestRouting {
    match code {
        NOT_RECOMPUTED | WS_BASE => base,
        c if c & CACHED_BIT != 0 => &list[(c & !CACHED_BIT) as usize].1,
        slot => &scratch[slot as usize],
    }
}

/// The `old → new` per-link weight changes of one class, into `out`.
fn weight_diff(old: &[u32], new: &[u32], out: &mut Vec<WeightChange>) {
    out.clear();
    out.extend(
        old.iter()
            .zip(new)
            .enumerate()
            .filter(|(_, (o, n))| o != n)
            .map(|(l, (&o, &n))| WeightChange {
                link: LinkId::new(l),
                old: o,
                new: n,
            }),
    );
}

/// Persistent per-scenario state of the cached incumbent: per class, the
/// recomputed routings of exactly the flow-affected destinations, plus
/// the resident delays a candidate evaluation diffs against (see the
/// module docs).
///
/// Equality is bitwise: two entries are equal when they hold the same
/// routings, link delays and pair triples bit for bit (floats compare
/// by `to_bits`), which is what a refreshed entry must share with a
/// fresh capture at the same incumbent.
#[derive(Clone, Debug, Default)]
pub struct ScenarioEntry {
    /// Per class: `(slot into the class's demand-destination list,
    /// routing)` — exactly the flow-affected destinations, ascending.
    routed: Vec<Vec<(u32, DestRouting)>>,
    /// Resident per-link delays of the incumbent's total loads.
    link_delays: Vec<f64>,
    /// Per SLA class: resident `(s, t, ξ)` triples of the incumbent, in
    /// reference emission order (destinations ascending, senders
    /// ascending); empty for congestion classes.
    pairs: Vec<Vec<(usize, usize, f64)>>,
    /// Per SLA class: `pair_off[k][di]..pair_off[k][di+1]` indexes
    /// `pairs[k]` for destination `di` (length = destinations + 1);
    /// empty for congestion classes.
    pair_off: Vec<Vec<u32>>,
}

impl ScenarioEntry {
    /// Bytes of resident delta-state this captured entry holds, computed
    /// from element counts (not vector capacities), so the figure is
    /// identical on every process and thread — the residency planner
    /// divides the cache budget by it.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let routed: usize = self
            .routed
            .iter()
            .flatten()
            .map(|(_, r)| size_of::<(u32, DestRouting)>() + r.resident_bytes())
            .sum();
        // The SLA segments: link delays, pair triples, segment offsets.
        let pairs: usize = self.pairs.iter().map(Vec::len).sum();
        let offs: usize = self.pair_off.iter().map(Vec::len).sum();
        routed
            + self.link_delays.len() * size_of::<f64>()
            + pairs * size_of::<(usize, usize, f64)>()
            + offs * size_of::<u32>()
    }
}

impl PartialEq for ScenarioEntry {
    fn eq(&self, other: &Self) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let pair_bits = |a: &[(usize, usize, f64)], b: &[(usize, usize, f64)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
        };
        self.routed == other.routed
            && bits(&self.link_delays, &other.link_delays)
            && self.pairs.len() == other.pairs.len()
            && self
                .pairs
                .iter()
                .zip(&other.pairs)
                .all(|(a, b)| pair_bits(a, b))
            && self.pair_off == other.pair_off
    }
}

/// Delta-state scenario cache: the persistent per-scenario evaluation
/// state of an *incumbent* weight setting, enabling candidate sweeps
/// that pay only for their diff (see the module docs and
/// [`Engine::cost_cached`]).
///
/// Build it with [`Engine::cache_rebuild_begin`] +
/// [`Engine::cost_capture`] sweeps over the incumbent, point candidates
/// at it with [`Engine::cache_begin`] (which computes the per-class
/// weight diff), evaluate through [`Engine::cost_cached`], and re-point
/// it at an accepted candidate with [`Engine::cache_refresh`]. Capture
/// and refresh write an entry through the same commit of an
/// evaluation's result, so a refreshed entry is exactly the entry a
/// fresh capture at the new incumbent would hold, and no periodic full
/// rebuild is needed for correctness or freshness.
///
/// ## Residency budget
///
/// Per-scenario entries hold per-link load vectors and SLA pair triples,
/// so at large node counts the cache's footprint grows roughly as
/// `scenarios × links` (quadratic-ish in network size for single-link
/// failure universes). A cache built with
/// [`with_budget`](Self::with_budget) therefore keeps only a *resident
/// prefix* of its positions: after the first capture,
/// [`plan_residency`](Self::plan_residency) divides the byte budget by
/// the measured entry size, and positions past the resident count are
/// never captured — callers evaluate them through the plain
/// (repair-seeded) [`Engine::cost_with`] path instead, which is
/// bit-for-bit identical (determinism invariant 2), just slower. The
/// eviction order is deterministic by construction: always the positions
/// `resident..`, i.e. the tail of the caller's fixed position order,
/// independent of thread count and wall clock.
#[derive(Debug)]
pub struct ScenarioCache {
    /// The incumbent every entry describes, and the pending candidate
    /// diff.
    inc: CacheIncumbent,
    /// Per-position scenario entries (positions are caller-defined and
    /// must match the `pos` arguments of capture/evaluate calls).
    entries: Vec<ScenarioEntry>,
    /// Residency budget in bytes (`usize::MAX` = unbounded).
    budget: usize,
    /// Positions `0..resident` are captured and delta-evaluated; the
    /// rest fall back to the plain path (see the type docs).
    resident: usize,
}

/// The shared half of a [`ScenarioCache`]: what every entry's cached
/// evaluation reads and no entry owns (see
/// [`ScenarioCache::capture_split`]).
#[derive(Debug, Default)]
pub struct CacheIncumbent {
    /// Per-class weights of the cached incumbent.
    weights: Vec<Vec<u32>>,
    /// The incumbent's no-failure baseline routing per class, aligned
    /// with the engine's demand-destination lists.
    base: Vec<Vec<DestRouting>>,
    /// Per-class weight diff of the current candidate vs `weights`,
    /// refreshed by [`Engine::cache_begin`].
    diff: Vec<Vec<WeightChange>>,
    /// Globally unique stamp of the current (incumbent, candidate diff)
    /// pair, advanced by every rebuild / begin / refresh. Workspaces use
    /// it to compute their per-candidate exact baseline diff flags once
    /// and reuse them across the candidate's whole scenario sweep.
    generation: u64,
}

impl Default for ScenarioCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioCache {
    /// Fresh, empty, unbounded cache: every position is resident.
    pub fn new() -> Self {
        ScenarioCache {
            inc: CacheIncumbent::default(),
            entries: Vec::new(),
            budget: usize::MAX,
            resident: 0,
        }
    }

    /// Fresh cache bounded to `bytes` of per-scenario resident state.
    /// The resident count is planned at the first capture of every
    /// rebuild (see [`plan_residency`](Self::plan_residency)).
    pub fn with_budget(bytes: usize) -> Self {
        ScenarioCache {
            budget: bytes,
            ..Self::new()
        }
    }

    /// The configured residency budget in bytes (`usize::MAX` =
    /// unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// How many positions are currently resident (captured and
    /// delta-evaluated); the `cache_resident_scenarios` stat.
    pub fn resident_scenarios(&self) -> usize {
        self.resident
    }

    /// `true` when position `pos` is resident — callers route
    /// non-resident positions through the plain evaluation path, which
    /// returns the same bits.
    #[inline]
    pub fn is_resident(&self, pos: usize) -> bool {
        pos < self.resident
    }

    /// Plan the resident prefix for a rebuild over `positions` slots:
    /// divide the budget by the measured size of the already-captured
    /// entry 0 (every position when the budget is unbounded).
    /// Deterministic because entry sizes are a pure function of
    /// (incumbent weights, scenario) element counts — never of vector
    /// capacities, thread count or timing. Call after capturing
    /// position 0; positions `< resident_scenarios()` must then be
    /// captured, and the rest left uncaptured. With a budget smaller
    /// than one entry the count is 0 and the cache degrades to the
    /// plain path entirely.
    pub fn plan_residency(&mut self, positions: usize) {
        if self.budget == usize::MAX {
            self.resident = positions;
            return;
        }
        let per_entry = self
            .entries
            .first()
            .map_or(0, ScenarioEntry::resident_bytes);
        self.resident = match self.budget.checked_div(per_entry) {
            Some(fit) => fit.min(positions),
            // Zero-sized entry (nothing captured): keep everything.
            None => positions,
        };
    }

    /// Split the cache into its shared incumbent half and the
    /// per-position entries: the refresh reads the one while it commits
    /// into the other, and callers read an entry (its
    /// [`ScenarioEntry::resident_bytes`], say) through the slice.
    pub fn capture_split(&mut self) -> (&CacheIncumbent, &mut [ScenarioEntry]) {
        (&self.inc, &mut self.entries)
    }
}

/// The cached no-failure routing of one traffic class under the
/// workspace's current weight setting, plus what undoes its last weight
/// change.
///
/// A repair writes into the destination's `spare` and swaps it in, so
/// after a change `spare[di]` holds, for every slot in `changed`, the
/// record it replaced: with `prev`, the baseline of the setting before
/// the change. Every other destination's record is exact under both
/// settings (the change provably left its distances and DAG alone), so
/// swapping `changed` back restores that baseline bit for bit. A record
/// only ever swaps with its own destination's spare.
#[derive(Debug, Default)]
struct ClassBaseline {
    /// Weights this baseline was computed with (diffed on every reuse).
    weights: Vec<u32>,
    /// One replayable record per demand destination, aligned with the
    /// engine's per-class demand-destination list.
    state: Vec<DestRouting>,
    /// One spare record per demand destination: a repair's target, and
    /// for the slots in `changed` the record the last change replaced.
    /// Sized lazily (see [`DestRouting::reserve_capacity_of`]).
    spare: Vec<DestRouting>,
    /// Slots the last weight change repaired, ascending.
    changed: Vec<u32>,
    /// Weights before the last weight change; empty when there is none
    /// to undo (a fresh full route).
    prev: Vec<u32>,
    valid: bool,
}

/// Per-thread scratch for the engine. Acquire one from
/// [`Engine::acquire_workspace`] and reuse it: all buffers reach
/// steady-state capacity after warm-up. Besides scratch it
/// holds, per class, the no-failure baseline of the last weight setting
/// it evaluated and the records that undo that setting's last change
/// (see [`Engine::ensure_baseline`]), so consecutive evaluations of
/// nearby settings pay only for their diff.
#[derive(Debug, Default)]
pub struct EvalWorkspace {
    /// Identity of the engine whose baselines this workspace holds; 0 =
    /// none yet. Two engines can share a link count while disagreeing
    /// on traffic or parameters, so baseline reuse is gated on
    /// identity, not on buffer sizes.
    owner: u64,
    spf: SpfWorkspace,
    mask: LinkMask,
    /// All-links-up mask for candidate-baseline routing inside the
    /// delta-state path (kept pristine; `mask` holds the scenario).
    up_mask: LinkMask,
    /// Directed link ids down under the current scenario.
    down: Vec<u32>,
    /// Weight diffs of the current `ensure_baseline` call.
    diff: Vec<WeightChange>,
    base: Vec<ClassBaseline>,
    /// Recomputed per-destination routings of the current evaluation
    /// (all classes share the pool; SLA classes read them in the DP).
    scratch: Vec<DestRouting>,
    /// Per-class destination index → resolution code: slot in
    /// `scratch`, [`NOT_RECOMPUTED`], [`WS_BASE`], or
    /// [`CACHED_BIT`]`| entry slot`.
    scratch_map: Vec<Vec<u32>>,
    class_loads: Vec<Vec<f64>>,
    total_loads: Vec<f64>,
    link_delays: Vec<f64>,
    node_delay: Vec<f64>,
    /// Per SLA class: the `(s, t, ξ)` triples of the last evaluation,
    /// destinations ascending; empty for congestion classes.
    pairs: Vec<Vec<(usize, usize, f64)>>,
    /// Per SLA class: `pair_off[k][di]..pair_off[k][di+1]` indexes
    /// `pairs[k]` for destination `di`.
    pair_off: Vec<Vec<u32>>,
    /// The k cost components (or floors) of the last evaluation — what
    /// the kernels return a slice of.
    costs: Vec<f64>,
    /// Commit scratch: the previous affected list of the entry being
    /// committed (drained back into the entry; capacity converges).
    refresh_list: Vec<(u32, DestRouting)>,
    /// Commit scratch: recycled routing buffers of destinations that
    /// left an affected list; a commit copies fresh routings into them.
    /// Contents are never read before being overwritten, so pooling
    /// cannot change any bit.
    routing_pool: Vec<DestRouting>,
    /// [`ScenarioCache`] generation the `base_same` flags were computed
    /// against (0 = never).
    cand_gen: u64,
    /// Per-class per-destination exact baseline diff of the current
    /// candidate vs the cache incumbent ([`baseline_unchanged`]),
    /// computed once per candidate and shared by its scenario sweep.
    base_same: Vec<Vec<bool>>,
}

impl EvalWorkspace {
    /// Bind the workspace to an engine identity with `k` classes,
    /// (re)sizing the masks and per-class buffers and dropping stale
    /// baselines when it changes hands.
    fn bind(&mut self, owner: u64, num_links: usize, k: usize) {
        if self.owner != owner {
            self.owner = owner;
            self.mask = LinkMask::all_up(num_links);
            self.up_mask = LinkMask::all_up(num_links);
            self.base.clear();
        } else if self.up_mask.len() != num_links {
            self.up_mask = LinkMask::all_up(num_links);
        }
        self.base.resize_with(k, ClassBaseline::default);
        self.scratch_map.resize_with(k, Vec::new);
        self.class_loads.resize_with(k, Vec::new);
        self.pairs.resize_with(k, Vec::new);
        self.pair_off.resize_with(k, Vec::new);
        self.base_same.resize_with(k, Vec::new);
        self.costs.resize(k, 0.0);
    }
}

/// The k-class delta-state evaluation engine: the network, one traffic
/// matrix and [`CostModel`] per class in precedence order, the shared
/// delay-model parameters, and a pool of per-thread workspaces. See the
/// module docs.
pub struct Engine<'a> {
    net: &'a Network,
    matrices: Vec<&'a TrafficMatrix>,
    models: Vec<CostModel>,
    /// Shared delay-model parameters (µ, κ, knee, ECMP aggregation).
    delay_params: CostParams,
    /// Per class: `delay_params` with the SLA class's θ/B1/B2 patched in
    /// (congestion classes keep `delay_params`).
    class_params: Vec<CostParams>,
    capacities: Vec<f64>,
    prop_delays: Vec<f64>,
    /// Per-class demand destinations (nodes that sink positive demand),
    /// ascending.
    demand_dests: Vec<Vec<u32>>,
    /// Lock contention is negligible: one lock per *batch* of
    /// evaluations, against milliseconds of routing work.
    pool: Mutex<Vec<EvalWorkspace>>,
    /// Unique identity gating workspace-baseline reuse.
    engine_id: u64,
}

fn demand_dests(tm: &TrafficMatrix) -> Vec<u32> {
    let n = tm.num_nodes();
    (0..n as u32)
        .filter(|&t| (0..n).any(|s| s != t as usize && tm.demand(s, t as usize) > 0.0))
        .collect()
}

impl<'a> Engine<'a> {
    /// Build an engine over `classes` — one `(traffic matrix, cost
    /// model)` pair per class, in precedence order — with the shared
    /// delay-model parameters `delay_params` (their θ/B1/B2 are ignored;
    /// each SLA class brings its own). Callers validate the parameters
    /// and the matrix sizes.
    pub fn new(
        net: &'a Network,
        classes: Vec<(&'a TrafficMatrix, CostModel)>,
        delay_params: CostParams,
    ) -> Self {
        assert!(!classes.is_empty(), "at least one traffic class");
        let class_params = classes
            .iter()
            .map(|&(_, model)| match model {
                CostModel::SlaDelay {
                    theta,
                    b1,
                    b2_per_ms,
                } => CostParams {
                    theta,
                    b1,
                    b2_per_ms,
                    ..delay_params
                },
                CostModel::Congestion => delay_params,
            })
            .collect();
        Engine {
            net,
            demand_dests: classes.iter().map(|&(tm, _)| demand_dests(tm)).collect(),
            matrices: classes.iter().map(|&(tm, _)| tm).collect(),
            models: classes.iter().map(|&(_, model)| model).collect(),
            delay_params,
            class_params,
            capacities: net.links().map(|l| net.link(l).capacity).collect(),
            prop_delays: net.links().map(|l| net.link(l).prop_delay).collect(),
            pool: Mutex::new(Vec::new()),
            engine_id: next_engine_id(),
        }
    }

    /// The network under evaluation.
    pub fn net(&self) -> &'a Network {
        self.net
    }

    /// Number of classes `k` (cost components).
    pub fn num_classes(&self) -> usize {
        self.models.len()
    }

    /// Per-link capacities, indexed by link id.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Per-link propagation delays, indexed by link id.
    pub fn prop_delays(&self) -> &[f64] {
        &self.prop_delays
    }

    /// The cost parameters class `k` is scored with: the shared delay
    /// model, plus the class's own θ/B1/B2 for SLA classes.
    pub fn class_params(&self, k: usize) -> &CostParams {
        &self.class_params[k]
    }

    /// Check a workspace out of the engine's pool (creating one if the
    /// pool is dry). Return it with
    /// [`release_workspace`](Self::release_workspace) so its warmed-up
    /// buffers and cached baselines benefit later evaluations.
    pub fn acquire_workspace(&self) -> EvalWorkspace {
        self.pool
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Return a workspace to the pool.
    pub fn release_workspace(&self, ws: EvalWorkspace) {
        self.pool.lock().expect("workspace pool poisoned").push(ws);
    }

    fn bind(&self, ws: &mut EvalWorkspace) {
        ws.bind(self.engine_id, self.net.num_links(), self.num_classes());
    }

    /// The k cost components of one (weight setting, scenario) pair
    /// through the incremental engine, using the caller's workspace —
    /// bit-for-bit the reference evaluation's, for every scenario kind.
    pub fn cost_with<'w>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
    ) -> &'w [f64] {
        self.ensure_baseline(ws, w);
        self.cost_scenario(ws, w, scenario);
        &ws.costs
    }

    /// Make `ws`'s per-class baselines describe the no-failure routing of
    /// `w`, re-routing only destinations whose distance field the weight
    /// diff can actually touch. Every evaluation starts here; a caller
    /// that evaluates many neighbours of one setting may call it on that
    /// setting first, so each neighbour diffs against it alone.
    ///
    /// Per class, `w` is diffed against the baseline's weights. When it
    /// differs on fewer links from the weights before the baseline's
    /// last change (the next candidate after a rejected one), the
    /// records that change replaced are swapped back first and only
    /// that shorter diff is repaired. Each flagged destination is
    /// repaired from its current record into its spare, bit-equal to a
    /// full route, and the two swap.
    pub fn ensure_baseline(&self, ws: &mut EvalWorkspace, w: &WeightSetting) {
        assert_eq!(
            w.num_classes(),
            self.num_classes(),
            "weight setting class count mismatch"
        );
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        self.bind(ws);
        ws.mask.reset_all_up();
        let EvalWorkspace {
            spf,
            mask,
            diff,
            base,
            ..
        } = ws;
        for (k, b) in base.iter_mut().enumerate() {
            let weights = w.weights(k);
            let tm = self.matrices[k];
            let dests = &self.demand_dests[k];
            if b.valid && b.weights.len() == weights.len() {
                weight_diff(&b.weights, weights, diff);
                if diff.is_empty() {
                    continue;
                }
                let closer_to_prev = b.prev.len() == weights.len()
                    && b.prev
                        .iter()
                        .zip(weights)
                        .filter(|(x, y)| x != y)
                        .take(diff.len())
                        .count()
                        < diff.len();
                if closer_to_prev {
                    // Undo the last change: its records go back, its
                    // replacements wait in the spares, and `prev` names
                    // the setting just left, so undoing is symmetric.
                    for &di in &b.changed {
                        let di = di as usize;
                        std::mem::swap(&mut b.state[di], &mut b.spare[di]);
                    }
                    std::mem::swap(&mut b.weights, &mut b.prev);
                    weight_diff(&b.weights, weights, diff);
                    if diff.is_empty() {
                        continue;
                    }
                }
                b.spare.resize_with(dests.len(), DestRouting::default);
                b.changed.clear();
                for (di, &t) in dests.iter().enumerate() {
                    if weight_change_affects(self.net, &b.state[di].dist, diff) {
                        let spare = &mut b.spare[di];
                        spare.reserve_capacity_of(&b.state[di]);
                        route_destination_reweight(
                            self.net,
                            &b.weights,
                            weights,
                            diff,
                            tm,
                            mask,
                            t as usize,
                            &b.state[di],
                            spf,
                            spare,
                        );
                        std::mem::swap(&mut b.state[di], spare);
                        b.changed.push(di as u32);
                    }
                }
                std::mem::swap(&mut b.weights, &mut b.prev);
                b.weights.clear();
                b.weights.extend_from_slice(weights);
            } else {
                b.state.resize_with(dests.len(), DestRouting::default);
                for (di, &t) in dests.iter().enumerate() {
                    route_destination(
                        self.net,
                        weights,
                        tm,
                        mask,
                        t as usize,
                        spf,
                        &mut b.state[di],
                    );
                }
                b.weights.clear();
                b.weights.extend_from_slice(weights);
                b.prev.clear();
                b.valid = true;
            }
        }
    }

    #[inline]
    fn take_max(&self) -> bool {
        matches!(self.delay_params.aggregation, DelayAggregation::Max)
    }

    /// Evaluate one scenario (any kind) against valid workspace
    /// baselines, leaving the whole result in the workspace: resolution
    /// codes, recomputed routings, class loads, link delays, pair
    /// segments and the components in `ws.costs` (what
    /// [`commit`](Self::commit) captures).
    fn cost_scenario(&self, ws: &mut EvalWorkspace, w: &WeightSetting, scenario: Scenario) {
        // Node failures also remove the dead node's traffic; the mask
        // makes that self-enforcing for loads (see the module docs), and
        // the routing/SLA loops skip the node explicitly where the base
        // matrices still mention it.
        let excluded = scenario.excluded_node().map(|v| v.index());
        let EvalWorkspace {
            spf,
            mask,
            down,
            base,
            scratch,
            scratch_map,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));

        // Resolve every class's destinations: a flow-affected one is
        // repaired into the scratch pool, every other one keeps its
        // baseline.
        let mut scratch_used = 0usize;
        for (k, dests) in self.demand_dests.iter().enumerate() {
            let weights = w.weights(k);
            let map = &mut scratch_map[k];
            map.clear();
            map.resize(dests.len(), NOT_RECOMPUTED);
            for (di, &t) in dests.iter().enumerate() {
                // The dead node sinks nothing under its own failure (the
                // reference path's zeroed column never routes it), and a
                // destination whose flow no down link carries keeps its
                // baseline: the masked route would repeat its adds, drops
                // and sender delays bit for bit (`flow_uses_any`).
                let b = &base[k].state[di];
                if Some(t as usize) == excluded
                    || down.is_empty()
                    || !flow_uses_any(self.net, b, weights, down)
                {
                    continue;
                }
                if scratch.len() == scratch_used {
                    scratch.push(DestRouting::default());
                }
                // A flow-affected destination is *repaired* from the
                // resident no-failure baseline (orphan detection plus a
                // boundary Dijkstra — bit-equal to a from-scratch route,
                // see `route_destination_repair`) instead of paying a
                // full Dijkstra; `ensure_baseline` guarantees `b` is the
                // all-up routing of these exact weights.
                let tm = self.matrices[k];
                let dest = &mut scratch[scratch_used];
                route_destination_repair(self.net, weights, tm, mask, t as usize, b, spf, dest);
                map[di] = scratch_used as u32;
                scratch_used += 1;
            }
        }
        self.fold_resolved(ws, w, excluded, None);
        self.fold_costs(ws);
    }

    /// The one load fold, shared by the plain and the cached evaluation:
    /// every destination `ws.scratch_map` has resolved replays its
    /// routing into its class's loads in destination order, class by
    /// class; the classes sum into the total loads in class order (the
    /// references' accumulation, verbatim); every link's delay follows
    /// from its total load; and the SLA pair pass runs over the result,
    /// reusing the cached `entry`'s segments where it can.
    fn fold_resolved(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        excluded: Option<usize>,
        entry: Option<&ScenarioEntry>,
    ) {
        let num_links = self.net.num_links();
        let EvalWorkspace {
            base,
            scratch,
            scratch_map,
            class_loads,
            total_loads,
            link_delays,
            ..
        } = ws;
        let mut dropped = 0.0f64; // diagnostic only; never in the cost
        for (k, dests) in self.demand_dests.iter().enumerate() {
            let list = entry.map_or(&[][..], |e| &e.routed[k]);
            let loads = &mut class_loads[k];
            loads.clear();
            loads.resize(num_links, 0.0);
            for (di, &t) in dests.iter().enumerate() {
                if Some(t as usize) != excluded {
                    resolve(scratch_map[k][di], &base[k].state[di], list, scratch)
                        .replay(loads, &mut dropped);
                }
            }
        }
        total_loads.clear();
        total_loads.resize(num_links, 0.0);
        for loads in class_loads.iter() {
            for (t, &x) in total_loads.iter_mut().zip(loads) {
                *t += x;
            }
        }
        delay_model::link_delays_into(
            total_loads,
            &self.capacities,
            &self.prop_delays,
            &self.delay_params,
            link_delays,
        );
        self.pair_segments(ws, w, excluded, entry);
    }

    /// The SLA pair pass of the evaluation in `ws`: per-pair end-to-end
    /// delays of each SLA class, folded over each resolved routing's
    /// recorded push ([`delay::flow_pair_delays_into`]), segmented by
    /// destination into `ws.pairs`/`ws.pair_off`.
    ///
    /// With the cached `entry` the evaluation ran against, a destination
    /// whose routing is the entry's ([`NOT_RECOMPUTED`] or a
    /// [`CACHED_BIT`] slot) and none of whose flow links changed its
    /// delay bits against the entry's copies its resident segment: the
    /// flow DP reads no other link. A record with a zero share (whose DP
    /// falls back to the arc scan) is always recomputed.
    fn pair_segments(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        excluded: Option<usize>,
        entry: Option<&ScenarioEntry>,
    ) {
        let take_max = self.take_max();
        let EvalWorkspace {
            mask,
            base,
            scratch,
            scratch_map,
            link_delays,
            node_delay,
            pairs,
            pair_off,
            ..
        } = ws;
        for (k, model) in self.models.iter().enumerate() {
            if matches!(model, CostModel::Congestion) {
                continue;
            }
            let weights = w.weights(k);
            let list = entry.map_or(&[][..], |e| &e.routed[k]);
            let (out, offs) = (&mut pairs[k], &mut pair_off[k]);
            out.clear();
            offs.clear();
            offs.push(0);
            for (di, &t) in self.demand_dests[k].iter().enumerate() {
                if Some(t as usize) != excluded {
                    let code = scratch_map[k][di];
                    let dest = resolve(code, &base[k].state[di], list, scratch);
                    let reuse = entry.filter(|e| {
                        (code == NOT_RECOMPUTED || code & CACHED_BIT != 0)
                            && dest.load_adds().iter().all(|&(l, share)| {
                                share != 0.0
                                    && link_delays[l as usize].to_bits()
                                        == e.link_delays[l as usize].to_bits()
                            })
                    });
                    if let Some(e) = reuse {
                        let s = e.pair_off[k][di] as usize;
                        out.extend_from_slice(&e.pairs[k][s..e.pair_off[k][di + 1] as usize]);
                    } else {
                        delay::flow_pair_delays_into(
                            self.net,
                            dest,
                            weights,
                            mask,
                            link_delays,
                            take_max,
                            self.matrices[k],
                            t as usize,
                            excluded,
                            node_delay,
                            out,
                        );
                    }
                }
                offs.push(out.len() as u32);
            }
        }
    }

    /// The k cost components of the evaluation in `ws`, into `ws.costs`:
    /// Λ over each SLA class's pair triples, Φ over the total loads for
    /// congestion classes. A refresh commits an evaluation without
    /// reading its components, so it skips this fold.
    fn fold_costs(&self, ws: &mut EvalWorkspace) {
        for (k, model) in self.models.iter().enumerate() {
            ws.costs[k] = match model {
                CostModel::SlaDelay { .. } => {
                    sla::summarize(&ws.pairs[k], &self.class_params[k]).lambda
                }
                CostModel::Congestion => {
                    congestion::phi(&ws.total_loads, &ws.class_loads[k], &self.capacities)
                }
            };
        }
    }

    /// Load- and routing-independent lower bound of SLA class `k`'s cost
    /// `Λ_k` under `scenario`: for every class pair, any routing's
    /// end-to-end delay is at least the propagation-delay-shortest path
    /// under the scenario mask (Eq. 1 gives `D_l ≥ p_l`, queueing only
    /// adds), the SLA penalty (Eq. 2) is monotone in the pair delay, and
    /// pairs the mask disconnects pay the same disconnection penalty
    /// under every routing. Summing those per-pair floors therefore
    /// bounds `Λ_k` from below for **every** weight setting.
    ///
    /// The returned value is shaved by a relative `1e-9` guard so that
    /// floating-point evaluation-order effects (the floor and the real
    /// evaluation accumulate in different expression orders) can never
    /// lift the floor above an achievable `Λ_k`; the guard is orders of
    /// magnitude above the worst-case rounding slop and orders of
    /// magnitude below [`crate::LAMBDA_EPS`]'s resolution of genuine
    /// cost differences. Cold path: allocates.
    fn lambda_floor(&self, scenario: Scenario, k: usize) -> f64 {
        let mask = scenario.mask(self.net);
        let excluded = scenario.excluded_node().map(|v| v.index());
        let mut lambda = 0.0f64;
        for &t in &self.demand_dests[k] {
            let t = t as usize;
            if Some(t) == excluded {
                continue;
            }
            let dmin =
                dtr_routing::spf::min_cost_to(self.net, NodeId::new(t), &self.prop_delays, &mask);
            for (s, &d) in dmin.iter().enumerate() {
                if s == t || Some(s) == excluded || self.matrices[k].demand(s, t) <= 0.0 {
                    continue;
                }
                lambda += sla::pair_penalty(d, &self.class_params[k]);
            }
        }
        lambda * (1.0 - 1e-9)
    }

    /// The routing-independent per-scenario lower bound of every cost
    /// component: the Λ floor of each SLA class, and 0 for each
    /// congestion class. Each component bounds its cost component from
    /// below for **every** weight setting; floors depend only on the
    /// topology, traffic, mask and cost parameters, never on weights.
    ///
    /// No search calls this: the robust phase's bounded sweep folds only
    /// the scenarios it has evaluated (module doc, item 6). It stays for
    /// the benchmark probe that times it (perfbench's `cost.floor_us`)
    /// and its soundness tests in `tests/scenario_engine_equivalence.rs`,
    /// and leaves together with that probe.
    pub fn scenario_floor<'w>(&self, ws: &'w mut EvalWorkspace, scenario: Scenario) -> &'w [f64] {
        self.bind(ws);
        for (k, model) in self.models.iter().enumerate() {
            ws.costs[k] = match model {
                CostModel::SlaDelay { .. } => self.lambda_floor(scenario, k),
                CostModel::Congestion => 0.0,
            };
        }
        &ws.costs
    }

    /// Reset the cache to describe incumbent `w` with `positions`
    /// scenario slots (keeping allocations) and capture the incumbent's
    /// no-failure baseline routing per class. Every resident entry must
    /// then be (re-)captured with [`cost_capture`](Self::cost_capture)
    /// before candidates evaluate through
    /// [`cost_cached`](Self::cost_cached).
    pub fn cache_rebuild_begin(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
        positions: usize,
    ) {
        // Route (or diff-update) the workspace baseline, then copy it
        // into the cache: both are the same `route_destination` bits.
        self.ensure_baseline(ws, w);
        let kn = self.num_classes();
        let inc = &mut cache.inc;
        inc.weights.resize_with(kn, Vec::new);
        inc.base.resize_with(kn, Vec::new);
        inc.diff.resize_with(kn, Vec::new);
        for k in 0..kn {
            inc.weights[k].clear();
            inc.weights[k].extend_from_slice(w.weights(k));
            let dests = &self.demand_dests[k];
            inc.base[k].resize_with(dests.len(), DestRouting::default);
            for (di, slot) in inc.base[k].iter_mut().enumerate() {
                slot.clone_from(&ws.base[k].state[di]);
            }
        }
        cache.entries.resize_with(positions, ScenarioEntry::default);
        for e in &mut cache.entries {
            for list in &mut e.routed {
                list.clear();
            }
        }
        // Unbounded caches are fully resident up front; bounded ones
        // start at zero until `plan_residency` measures the first
        // captured entry.
        cache.resident = if cache.budget == usize::MAX {
            positions
        } else {
            0
        };
        inc.generation = next_engine_id();
    }

    /// Compute the per-class weight diff of candidate `w` against the
    /// cache's incumbent, preparing [`cost_cached`](Self::cost_cached)
    /// calls. Returns the total number of changed directed (class, link)
    /// slots.
    pub fn cache_begin(&self, cache: &mut ScenarioCache, w: &WeightSetting) -> usize {
        let inc = &mut cache.inc;
        let mut changed = 0;
        for (k, diffk) in inc.diff.iter_mut().enumerate() {
            let weights = w.weights(k);
            assert_eq!(
                inc.weights[k].len(),
                weights.len(),
                "cache incumbent and candidate disagree on link count"
            );
            weight_diff(&inc.weights[k], weights, diffk);
            changed += diffk.len();
        }
        inc.generation = next_engine_id();
        changed
    }

    /// [`cost_with`](Self::cost_with) that also captures the scenario's
    /// full delta-state into `cache.entries[pos]` — the cache (re)build
    /// path, run over the incumbent setting. The returned components are
    /// bit-for-bit the plain evaluation's.
    pub fn cost_capture<'w>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        cache: &mut ScenarioCache,
        pos: usize,
    ) -> &'w [f64] {
        debug_assert!(
            (0..self.num_classes()).all(|k| cache.inc.weights[k] == w.weights(k)),
            "capture must run on the cache incumbent"
        );
        self.cost_capture_into(ws, w, scenario, &mut cache.entries[pos])
    }

    /// Entry-level form of [`cost_capture`](Self::cost_capture): a plain
    /// evaluation of the incumbent `w`, committed into `entry`.
    fn cost_capture_into<'w>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        entry: &mut ScenarioEntry,
    ) -> &'w [f64] {
        self.ensure_baseline(ws, w);
        self.cost_scenario(ws, w, scenario);
        self.commit(ws, entry);
        &ws.costs
    }

    /// Write the evaluation `ws` holds — a plain one
    /// ([`cost_scenario`](Self::cost_scenario)) or a cached one against
    /// `entry` ([`eval_cached`](Self::eval_cached)) — into `entry`, which
    /// then describes the workspace baseline's weights under the
    /// evaluated scenario:
    ///
    /// * the affected list, from the resolution codes: [`CACHED_BIT`]
    ///   slots keep the entry's routing (moved), fresh slots copy their
    ///   scratch routing into a recycled buffer, and
    ///   [`NOT_RECOMPUTED`]/[`WS_BASE`] destinations are not listed;
    /// * the link delays (one per link), moved in; the pair segments,
    ///   copied.
    ///
    /// Steady-state allocation-free: the old list drains through the
    /// workspace spare buffer, routings that leave it park in the
    /// routing pool, and the scratch slots and pair buffers keep their
    /// own buffers. Copying with `clone_from` instead of swapping keeps
    /// capacities from migrating between the workspace and the entries:
    /// a swapped-in pair buffer would carry the workspace's grown
    /// capacity into every entry.
    fn commit(&self, ws: &mut EvalWorkspace, entry: &mut ScenarioEntry) {
        let kn = self.num_classes();
        entry.routed.resize_with(kn, Vec::new);
        entry.pairs.resize_with(kn, Vec::new);
        entry.pair_off.resize_with(kn, Vec::new);
        let EvalWorkspace {
            scratch,
            scratch_map,
            link_delays,
            pairs,
            pair_off,
            refresh_list: spare,
            routing_pool: pool,
            ..
        } = ws;
        for (k, model) in self.models.iter().enumerate() {
            let list = &mut entry.routed[k];
            std::mem::swap(list, spare);
            let mut old = spare.drain(..).enumerate();
            for (di, &code) in scratch_map[k].iter().enumerate() {
                if code == NOT_RECOMPUTED || code == WS_BASE {
                    continue;
                }
                if code & CACHED_BIT != 0 {
                    let keep = (code & !CACHED_BIT) as usize;
                    for (i, (d, r)) in old.by_ref() {
                        if i == keep {
                            list.push((d, r));
                            break;
                        }
                        pool.push(r);
                    }
                } else {
                    let mut r = pool.pop().unwrap_or_default();
                    r.clone_from(&scratch[code as usize]);
                    list.push((di as u32, r));
                }
            }
            for (_, (_, r)) in old {
                pool.push(r);
            }
            if matches!(model, CostModel::SlaDelay { .. }) {
                entry.pairs[k].clone_from(&pairs[k]);
                entry.pair_off[k].clone_from(&pair_off[k]);
            }
        }
        std::mem::swap(&mut entry.link_delays, link_delays);
    }

    /// Delta-state candidate evaluation through the scenario cache:
    /// re-routes only destinations the candidate diff can touch, replays
    /// every destination's resolved routing through the load fold the
    /// plain evaluation uses, and re-runs each SLA class's delay DP only
    /// where the routing or an on-DAG link delay changed — every other
    /// routing and pair segment is read back from the resident incumbent
    /// state. Requires a preceding
    /// [`cache_begin`](Self::cache_begin) for this exact `w`; the result
    /// is bit-for-bit [`cost_with`](Self::cost_with)'s (see the module
    /// docs for the exactness argument).
    pub fn cost_cached<'w>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        cache: &ScenarioCache,
        pos: usize,
    ) -> &'w [f64] {
        self.eval_cached(ws, w, scenario, &cache.inc, &cache.entries[pos]);
        self.fold_costs(ws);
        &ws.costs
    }

    /// Make `ws.base_same` the exact per-destination baseline diff of the
    /// workspace baseline (the candidate) against the cache incumbent,
    /// once per (candidate, cache generation): a destination is
    /// baseline-changed only when its distance field or DAG actually
    /// moved — the conservative predicate's false positives (the common
    /// case for a one-duplex-link re-draw) would otherwise re-run
    /// per-scenario delay DPs for bit-identical routings.
    fn base_flags(&self, ws: &mut EvalWorkspace, inc: &CacheIncumbent) {
        if ws.cand_gen == inc.generation {
            return;
        }
        ws.cand_gen = inc.generation;
        for (k, dests) in self.demand_dests.iter().enumerate() {
            let basec = &inc.base[k];
            assert_eq!(
                basec.len(),
                dests.len(),
                "cache baseline missing; run cache_rebuild_begin first"
            );
            let diffk = &inc.diff[k];
            let flags = &mut ws.base_same[k];
            flags.clear();
            flags.resize(dests.len(), false);
            for (di, flag) in flags.iter_mut().enumerate() {
                *flag = diffk.is_empty()
                    || baseline_unchanged(
                        self.net,
                        &ws.base[k].state[di].dist,
                        &basec[di].dist,
                        diffk,
                    );
            }
        }
    }

    /// The cached evaluation behind [`cost_cached`](Self::cost_cached)
    /// and the refresh: `w` under `scenario` against one entry of the
    /// incumbent `inc`, leaving its whole result in the workspace for
    /// [`commit`](Self::commit) — everything but the components, which
    /// [`fold_costs`](Self::fold_costs) adds.
    fn eval_cached(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        inc: &CacheIncumbent,
        entry: &ScenarioEntry,
    ) {
        // The workspace baseline tracks the *candidate*: within one
        // candidate's sweep every scenario shares it, so move-touched
        // destinations pay their baseline re-route once per candidate,
        // not once per scenario.
        self.ensure_baseline(ws, w);
        self.base_flags(ws, inc);
        debug_assert!(
            entry.routed.len() == self.num_classes()
                && entry.link_delays.len() == self.net.num_links(),
            "cost_cached requires a captured entry"
        );
        let excluded = scenario.excluded_node().map(|v| v.index());
        let EvalWorkspace {
            spf,
            mask,
            down,
            base: ws_base,
            scratch,
            scratch_map,
            base_same,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));
        let mut scratch_used = 0usize;

        // Classify every destination against the candidate diff into a
        // resolution code, re-routing only the ones whose effective
        // routing really moved. Fresh routings of every class persist in
        // the scratch pool for the load fold and the delay DP.
        for (k, dests) in self.demand_dests.iter().enumerate() {
            let weights = w.weights(k);
            let diffk = &inc.diff[k];
            let list: &[(u32, DestRouting)] = &entry.routed[k];
            let map = &mut scratch_map[k];
            map.clear();
            map.resize(dests.len(), NOT_RECOMPUTED);
            let mut cursor = 0usize;
            for (di, &t) in dests.iter().enumerate() {
                while cursor < list.len() && list[cursor].0 < di as u32 {
                    cursor += 1;
                }
                let cached = list.get(cursor).filter(|e| e.0 == di as u32).map(|e| &e.1);
                if Some(t as usize) == excluded {
                    continue;
                }
                let b = &ws_base[k].state[di];
                // A baseline the diff provably left bit-identical is
                // flow-affected exactly where the entry lists it; a
                // baseline the diff really moved is tested afresh.
                let affected = if base_same[k][di] {
                    cached.is_some()
                } else {
                    !down.is_empty() && flow_uses_any(self.net, b, weights, down)
                };
                if !affected {
                    // The effective routing is a baseline: the
                    // incumbent's (resident state covers it) or the
                    // candidate's (already maintained, no route needed).
                    if !base_same[k][di] {
                        map[di] = WS_BASE;
                    }
                    continue;
                }
                // A scenario routing flow-affected under both settings
                // is reusable whenever the diff provably cannot change
                // it — the predicate's false-contract holds for any
                // distance field.
                let survives = |r: &DestRouting| {
                    diffk.is_empty() || !weight_change_affects(self.net, &r.dist, diffk)
                };
                if cached.is_some_and(survives) {
                    map[di] = CACHED_BIT | cursor as u32;
                    continue;
                }
                // mask ∩ move: repair under the scenario mask, keeping
                // the result only if it really moved (the exact diff
                // filters the predicate's false positives, saving the
                // delay-DP recompute).
                if scratch.len() == scratch_used {
                    scratch.push(DestRouting::default());
                }
                let fresh = &mut scratch[scratch_used];
                let tm = self.matrices[k];
                route_destination_repair(self.net, weights, tm, mask, t as usize, b, spf, fresh);
                if cached.is_some_and(|r| baseline_unchanged(self.net, &fresh.dist, &r.dist, diffk))
                {
                    map[di] = CACHED_BIT | cursor as u32;
                    continue;
                }
                map[di] = scratch_used as u32;
                scratch_used += 1;
            }
        }
        self.fold_resolved(ws, w, excluded, Some(entry));
    }

    /// Re-point the cache at a new incumbent `w`: the accept-path
    /// maintenance of the hill climbers. After
    /// [`cache_begin`](Self::cache_begin) diffs `w` against the
    /// incumbent, every resident entry takes `w`'s cached evaluation
    /// against it and commits that result through the commit capture
    /// uses, in position order on `ws`; then the baseline records the
    /// move really changed are copied from `ws`'s baseline at `w`, and
    /// `w` becomes the incumbent. A refreshed entry is exactly what a
    /// fresh capture at `w` would hold — destinations entering or
    /// leaving a scenario's flow-affected set are spliced into or out of
    /// its entry — so no periodic full rebuild is needed.
    pub fn cache_refresh(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
        scenario_at: impl Fn(usize) -> Scenario,
    ) {
        self.cache_begin(cache, w);
        let resident = cache.resident_scenarios();
        let (inc, entries) = cache.capture_split();
        for (pos, entry) in entries.iter_mut().enumerate().take(resident) {
            self.cache_refresh_entry(ws, w, inc, scenario_at(pos), entry);
        }
        self.cache_refresh_finish(ws, cache, w);
    }

    /// The per-entry stage of [`cache_refresh`](Self::cache_refresh):
    /// `w`'s cached evaluation against `entry`, committed into it. Call
    /// after [`cache_begin`](Self::cache_begin) for this `w`.
    fn cache_refresh_entry(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        inc: &CacheIncumbent,
        scenario: Scenario,
        entry: &mut ScenarioEntry,
    ) {
        self.eval_cached(ws, w, scenario, inc, entry);
        self.commit(ws, entry);
    }

    /// The closing stage of [`cache_refresh`](Self::cache_refresh): copy
    /// the baseline records `w` really moved (`!base_same`) from a
    /// workspace baseline at `w` into the cache, adopt `w` as the
    /// incumbent and advance the generation stamp. Call once, after
    /// every entry's [`cache_refresh_entry`](Self::cache_refresh_entry).
    fn cache_refresh_finish(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
    ) {
        self.ensure_baseline(ws, w);
        let inc = &mut cache.inc;
        self.base_flags(ws, inc);
        for (k, base) in inc.base.iter_mut().enumerate() {
            for (di, slot) in base.iter_mut().enumerate() {
                if !ws.base_same[k][di] {
                    slot.clone_from(&ws.base[k].state[di]);
                }
            }
            inc.weights[k].clear();
            inc.weights[k].extend_from_slice(w.weights(k));
        }
        inc.generation = next_engine_id();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use dtr_net::{NetworkBuilder, Point};
    use dtr_routing::{Class, WeightSetting};
    use dtr_traffic::ClassMatrices;

    /// A six-node ring with the chord 0–3, every pair demanding.
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
        let mut tm = ClassMatrices::zeros(6);
        for s in 0..6 {
            for t in (0..6).filter(|&t| t != s) {
                tm.delay.set(s, t, 1e3 * (1 + s + t) as f64);
                tm.throughput.set(s, t, 2e3 * (1 + s * t) as f64);
            }
        }
        (net, tm)
    }

    /// Where each record's buffers live, per class and destination.
    fn buffers(ws: &EvalWorkspace) -> Vec<Vec<[usize; 3]>> {
        ws.base
            .iter()
            .map(|b| {
                b.state
                    .iter()
                    .map(|r| {
                        [
                            r.dist.as_ptr() as usize,
                            r.order.as_ptr() as usize,
                            r.load_adds().as_ptr() as usize,
                        ]
                    })
                    .collect()
            })
            .collect()
    }

    /// A → B → A: the second step undoes the first by swapping, so every
    /// record B replaced is back in its original buffers, bit for bit
    /// A's routing, and nothing was repaired.
    #[test]
    fn undo_swaps_back_the_records_a_move_replaced() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let eng = ev.engine();
        let mut ws = eng.acquire_workspace();
        let a = WeightSetting::uniform(net.num_links(), 20);
        let mut b = a.clone();
        let chord = net
            .links()
            .find(|&l| net.link(l).src.index() == 0 && net.link(l).dst.index() == 3)
            .unwrap();
        for class in Class::ALL {
            b.set(class, chord, 20);
            b.set(class, net.reverse_link(chord).unwrap(), 20);
        }

        eng.ensure_baseline(&mut ws, &a);
        let at_a = buffers(&ws);
        let records_a: Vec<Vec<DestRouting>> = ws.base.iter().map(|c| c.state.clone()).collect();

        eng.ensure_baseline(&mut ws, &b);
        let changed: Vec<Vec<u32>> = ws.base.iter().map(|c| c.changed.clone()).collect();
        let at_b = buffers(&ws);
        for (k, list) in changed.iter().enumerate() {
            assert!(!list.is_empty(), "class {k}: the chord carries flow");
            for &di in list {
                let di = di as usize;
                assert_ne!(
                    at_b[k][di], at_a[k][di],
                    "class {k}: repaired into the spare"
                );
                assert_eq!(
                    ws.base[k].spare[di].dist.as_ptr() as usize,
                    at_a[k][di][0],
                    "class {k}: A's record waits in the spare"
                );
            }
        }

        eng.ensure_baseline(&mut ws, &a);
        assert_eq!(buffers(&ws), at_a, "every record is back in its buffers");
        for (k, c) in ws.base.iter().enumerate() {
            assert_eq!(c.state, records_a[k], "class {k}: A's routing");
            assert_eq!(c.changed, changed[k], "class {k}: the undo is symmetric");
            assert_eq!(c.weights, a.weights(k));
            assert_eq!(c.prev, b.weights(k));
        }
        // And the undone baseline evaluates as a fresh one does.
        let mut fresh = EvalWorkspace::default();
        for sc in [Scenario::Normal, Scenario::Link(chord)] {
            let undone = eng.cost_with(&mut ws, &a, sc).to_vec();
            assert_eq!(undone, eng.cost_with(&mut fresh, &a, sc), "{sc}");
        }
        eng.release_workspace(ws);
    }
}
