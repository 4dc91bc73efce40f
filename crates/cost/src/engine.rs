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
//!    SRLG and node sweeps, the delta-state cached path and the sharded
//!    refresh, at k = 2 and k = 3).
//! 2. **Baseline caching**: the workspace keeps, per traffic class, the
//!    full no-failure routing of the *current* weight setting as
//!    replayable [`DestRouting`] records (one per demand destination).
//! 3. **Mask-diff incremental SPF across scenarios**: each scenario is
//!    reduced to its *down-set* — the directed links its mask fails: one
//!    duplex pair (`Link`), several pairs (`Srlg`, `DoubleLink`), or a
//!    router's full incidence set (`Node`). Only destinations whose
//!    no-failure shortest-path DAG uses a down link ([`dag_uses_any`])
//!    are re-routed; all other destinations replay their recorded load
//!    accumulations bit-for-bit. Probabilistic ensembles are sets of
//!    these same scenarios — their per-scenario weights are applied by
//!    the caller in scenario-index order, so the weighted sum is also
//!    bit-stable.
//! 4. **Incremental SPF across search moves**: when the weight setting
//!    changes (a neighbor move re-draws one duplex link's class
//!    weights), the baseline is diffed against the new weights, and only
//!    destinations whose distance field may be affected
//!    ([`weight_change_affects`]) are touched. Those are *repaired* from
//!    their previous routing ([`route_destination_reweight`]: orphans
//!    of the rising links re-settled, then a Dijkstra from the tails of
//!    the falling ones), not re-routed — bit-equal to a full route.
//! 5. **Delta-state scenario cache across moves × scenarios**
//!    ([`ScenarioCache`]): the robust phase's sweep evaluates the *same
//!    scenarios* for a stream of candidates that differ from the
//!    incumbent by one duplex link. The cache keeps **persistent
//!    per-scenario state** of the incumbent — see the next section — so
//!    a candidate's per-scenario cost ([`Engine::cost_cached`])
//!    re-routes only the mask ∩ move-affected destinations, refolds only
//!    the links whose contributor set changed, and re-runs each SLA
//!    class's delay DP only for destinations whose routing or on-DAG
//!    link delays changed. The accept path re-points the cache at the
//!    new incumbent incrementally ([`Engine::cache_refresh`]).
//! 6. **Per-class floors** ([`Engine::scenario_floor`]): the
//!    propagation-delay Λ floor of each SLA class, a routing-independent
//!    lower bound of its cost under a scenario; congestion classes get
//!    0. Compound failure costs are non-negative sums, so the
//!    incumbent-bounded sweep `dtr_core::parallel::sum_set_costs_bounded`
//!    can stand a floor in for every scenario it has not reached yet: a
//!    partial fold that stops beating the incumbent *proves* the
//!    candidate will be rejected. Floors are weight-independent, so they
//!    are computed once per search.
//! 7. **Repair-seeded routing everywhere**: the plain
//!    [`Engine::cost_with`]/`cost_scenario` path — capture sweeps,
//!    reference anchors, every uncached failure sweep — seeds
//!    [`route_destination_repair`] from the workspace's resident
//!    no-failure baseline (orphan detection + boundary Dijkstra); it
//!    never runs a from-scratch Dijkstra per mask-affected destination.
//!    Weight moves are repaired the same way: the workspace baseline
//!    (`ensure_baseline`) and the cache's incumbent baseline
//!    ([`Engine::cache_refresh_begin`]) run the weight-move kernel
//!    ([`route_destination_reweight`]), and [`route_destination`] runs
//!    only where no previous routing exists. Integer distances make
//!    every repair bit-equal to the full route, so repair changes only
//!    the time an evaluation takes.
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
//! A plain cached scenario evaluation would still pay a *replay floor*:
//! every destination's recorded load-adds re-issued into a zeroed load
//! vector, the per-link delays recomputed from scratch, and the
//! end-to-end delay DP re-run for every SLA destination — even when the
//! candidate's one-duplex-link diff provably touched none of them. The
//! [`ScenarioCache`] keeps, per scenario, the *folded* state of the
//! incumbent, and candidates pay only for their diff:
//!
//! * **What persists per scenario**: per class, the recomputed routings
//!   of every mask-affected destination (exactly the affected set —
//!   maintained exactly by capture and refresh), the resident per-link
//!   **load vectors** and **per-link contributor lists**
//!   (`LinkContrib`: `(destination, share)` pairs in destination-index
//!   order); the resident **per-link delays** of the total loads; and,
//!   per SLA class, the resident **pair-delay triples** segmented by
//!   destination. The cache also holds the incumbent's no-failure
//!   **baseline** routings per class (the effective routing of every
//!   destination the mask does not touch).
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
//! * **When a link is refolded**: the links appearing in a changed
//!   destination's old or new adds are *dirty*; when few links are
//!   dirty, only those are refolded from the stored contributor lists —
//!   and when a large move dirtied most of the network, the engine
//!   instead replays every destination's effective adds in destination
//!   order (the identical float sequence, cheaper than per-link
//!   merges). Every clean link's load and delay, and every untouched
//!   destination's pair-delay segment, is read back from the resident
//!   state.
//! * **Why the per-link destination-ordered fold is bit-exact**: a
//!   from-scratch evaluation accumulates a class's `loads[l]` by
//!   iterating destinations in index order and replaying each
//!   destination's adds; the sub-sequence of adds landing on link `l` is
//!   therefore "one share per contributing destination, in
//!   destination-index order" (the ECMP push emits at most one add per
//!   (destination, link) pair — see [`DestRouting::load_adds`]).
//!   Refolding link `l` as a merge of the stored contributor list (minus
//!   changed destinations) with the changed destinations' fresh shares,
//!   in destination-index order, performs the **exact same float
//!   additions in the exact same order** — so a clean link's resident
//!   load and a dirty link's refolded load are both bit-for-bit the
//!   from-scratch value. Classes fold independently into the shared
//!   total-load vector in class order, exactly as the references do.
//!   Downstream, per-link delays are a per-link pure function of the
//!   total load (patched only where a refold ran; a patched delay that
//!   comes out bit-identical is pruned), and a destination's pair-delay
//!   segment is reused unless its routing changed or a bit-changed delay
//!   lies on its DAG ([`dag_uses_any`] over the changed-delay links —
//!   a conservative superset of the DP's on-DAG reads). The final Λ and
//!   Φ folds run over the assembled per-pair and per-link values in the
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
//! * if `v` was reachable towards a destination `t`, the first hop of
//!   `v`'s shortest path is on `t`'s DAG — a down link — so
//!   [`dag_uses_any`] flags `t` and it is re-routed. Under the node mask
//!   `v` has no surviving out-link, so `v`'s demand lands in the dropped
//!   accumulator and contributes no load addition — the per-link float
//!   adds are exactly those of routing with `v`'s row zeroed;
//! * a destination is only *replayed* when `v` was already unreachable
//!   in its baseline (degenerate topologies), where `v`'s demand never
//!   produced a load addition in the first place;
//! * the dead node is skipped as a destination, and the shared SLA
//!   kernel ([`delay::pair_delays_into`]) is told to skip it as a
//!   sender, so the emitted `(s, t, ξ)` triples match the reference's
//!   zeroed-matrix emission pair for pair.
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
//! reference paths are built on; and the delta-state folds preserve the
//! reference accumulation order per link and per pair (see above).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dtr_net::{LinkId, LinkMask, Network, NodeId};
use dtr_routing::workspace::{
    dag_uses_any, route_destination, route_destination_repair, route_destination_reweight,
    weight_change_affects, DestRouting, WeightChange,
};
use dtr_routing::{delay, ClassWeights, Scenario, SpfWorkspace};
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

/// Marker for "this destination was replayed from the baseline".
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

/// Per-link contributor lists of one class's effective routing state
/// under one scenario (CSR over directed links): for every link, the
/// `(destination index, share)` pairs that fold into its load, sorted by
/// destination index.
///
/// Because the ECMP push emits at most one add per (destination, link)
/// pair, a link's row holds one entry per contributing destination, and
/// folding the row in order reproduces the from-scratch accumulation of
/// that link's load bit for bit (see the module docs).
#[derive(Clone, Debug, Default)]
struct LinkContrib {
    /// `off[l]..off[l+1]` indexes `entries` for link `l`.
    off: Vec<u32>,
    /// `(destination index, share)` pairs, destination-ascending per link.
    entries: Vec<(u32, f64)>,
    /// Fill-cursor scratch of [`rebuild`](Self::rebuild).
    cursor: Vec<u32>,
}

impl LinkContrib {
    /// The contributor row of link `l`, destination-ascending.
    #[inline]
    fn row(&self, l: usize) -> &[(u32, f64)] {
        &self.entries[self.off[l] as usize..self.off[l + 1] as usize]
    }

    /// Rebuild the CSR from per-destination contribution sequences:
    /// `adds_of(di)` yields destination `di`'s effective `(link, share)`
    /// adds. Destinations are scanned in ascending index order, so every
    /// link's row comes out sorted by destination.
    fn rebuild<'a, F>(&mut self, num_links: usize, num_dests: usize, mut adds_of: F)
    where
        F: FnMut(usize) -> &'a [(u32, f64)],
    {
        self.off.clear();
        self.off.resize(num_links + 1, 0);
        let mut total = 0usize;
        for di in 0..num_dests {
            for &(l, _) in adds_of(di) {
                self.off[l as usize + 1] += 1;
                total += 1;
            }
        }
        // The CSR stores u32 offsets; a count past u32::MAX must fail
        // loudly here, not wrap the prefix sums into silent mis-sizing.
        assert!(
            total <= u32::MAX as usize,
            "contributor count {total} exceeds the u32 CSR offset space"
        );
        for l in 0..num_links {
            self.off[l + 1] += self.off[l];
        }
        self.entries.clear();
        self.entries.resize(total, (0, 0.0));
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.off[..num_links]);
        for di in 0..num_dests {
            for &(l, share) in adds_of(di) {
                let c = &mut self.cursor[l as usize];
                self.entries[*c as usize] = (di as u32, share);
                *c += 1;
            }
        }
    }

    /// Bytes of resident CSR state, from element counts (see
    /// [`ScenarioEntry::resident_bytes`]).
    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.off.len() + self.cursor.len()) * size_of::<u32>()
            + self.entries.len() * size_of::<(u32, f64)>()
    }
}

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

/// Candidate load of one link under the delta-state model: merge the
/// stored contributor row (skipping changed destinations' stale shares)
/// with the changed destinations' fresh `(_, dest, share)` adds for this
/// link, folding in destination-index order — the exact float-add
/// sequence a from-scratch accumulation over destinations performs for
/// this link. `fresh` must be destination-ascending and disjoint from
/// the unchanged row entries (fresh destinations are changed by
/// definition).
fn refold_link(
    row: &[(u32, f64)],
    fresh: &[(u32, u32, f64)],
    is_changed: impl Fn(u32) -> bool,
) -> f64 {
    let mut acc = 0.0f64;
    let mut i = 0usize;
    let mut j = 0usize;
    loop {
        while i < row.len() && is_changed(row[i].0) {
            i += 1;
        }
        match (i < row.len(), j < fresh.len()) {
            (false, false) => break,
            (true, false) => {
                acc += row[i].1;
                i += 1;
            }
            (false, true) => {
                acc += fresh[j].2;
                j += 1;
            }
            (true, true) => {
                if row[i].0 < fresh[j].1 {
                    acc += row[i].1;
                    i += 1;
                } else {
                    acc += fresh[j].2;
                    j += 1;
                }
            }
        }
    }
    acc
}

/// The effective `(link, share)` contribution sequence of destination
/// `di` under the cached incumbent: the entry's recomputed routing where
/// the mask affected it, the incumbent baseline elsewhere, nothing for
/// the excluded node. `list` is the entry's (ascending) affected list.
fn effective_adds<'a>(
    list: &'a [(u32, DestRouting)],
    base: &'a [DestRouting],
    dests: &[u32],
    excluded: Option<usize>,
    di: usize,
) -> &'a [(u32, f64)] {
    if Some(dests[di] as usize) == excluded {
        return &[];
    }
    match list.binary_search_by_key(&(di as u32), |e| e.0) {
        Ok(k) => list[k].1.load_adds(),
        Err(_) => base[di].load_adds(),
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
/// recomputed routings of exactly the mask-affected destinations, plus
/// the folded residents a candidate evaluation diffs against (see the
/// module docs).
#[derive(Clone, Debug, Default)]
pub struct ScenarioEntry {
    /// Per class: `(slot into the class's demand-destination list,
    /// routing)` — exactly the mask-affected destinations, ascending.
    routed: Vec<Vec<(u32, DestRouting)>>,
    /// Per class: resident per-link loads of the incumbent.
    loads: Vec<Vec<f64>>,
    /// Per class: per-link contributor lists, destination-ordered.
    contrib: Vec<LinkContrib>,
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
        let loads: usize = self.loads.iter().map(Vec::len).sum();
        let contrib: usize = self.contrib.iter().map(LinkContrib::resident_bytes).sum();
        // The SLA segments: link delays, pair triples, segment offsets.
        let pairs: usize = self.pairs.iter().map(Vec::len).sum();
        let offs: usize = self.pair_off.iter().map(Vec::len).sum();
        routed
            + loads * size_of::<f64>()
            + contrib
            + self.link_delays.len() * size_of::<f64>()
            + pairs * size_of::<(usize, usize, f64)>()
            + offs * size_of::<u32>()
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
/// it at an accepted candidate with [`Engine::cache_refresh`] — which
/// maintains the affected-set coverage *exactly*, so no periodic full
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
    /// Per-class weights of the cached incumbent.
    weights: Vec<Vec<u32>>,
    /// The incumbent's no-failure baseline routing per class, aligned
    /// with the engine's demand-destination lists.
    base: Vec<Vec<DestRouting>>,
    /// Per-position scenario entries (positions are caller-defined and
    /// must match the `pos` arguments of capture/evaluate calls).
    entries: Vec<ScenarioEntry>,
    /// Per-class weight diff of the current candidate vs `weights`,
    /// refreshed by [`Engine::cache_begin`].
    diff: Vec<Vec<WeightChange>>,
    /// Globally unique stamp of the current (incumbent, candidate diff)
    /// pair, advanced by every rebuild / begin / refresh. Workspaces use
    /// it to compute their per-candidate exact baseline diff flags once
    /// and reuse them across the candidate's whole scenario sweep.
    generation: u64,
    /// Residency budget in bytes (`usize::MAX` = unbounded).
    budget: usize,
    /// Positions `0..resident` are captured and delta-evaluated; the
    /// rest fall back to the plain path (see the type docs).
    resident: usize,
    /// Per-class "the incumbent baseline really moved under the pending
    /// refresh diff" flags, filled by [`Engine::cache_refresh_begin`]
    /// and read (shared, read-only) by the per-entry refresh kernels.
    refresh_changed: Vec<Vec<bool>>,
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
            weights: Vec::new(),
            base: Vec::new(),
            entries: Vec::new(),
            diff: Vec::new(),
            generation: 0,
            budget: usize::MAX,
            resident: 0,
            refresh_changed: Vec::new(),
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

    /// Split the cache into its shared incumbent baseline and the
    /// per-position entries, for sharded capture sweeps (entries are
    /// position-disjoint, so each worker takes a contiguous chunk; see
    /// [`Engine::cost_capture_into`]).
    pub fn capture_split(&mut self) -> (&[Vec<DestRouting>], &mut [ScenarioEntry]) {
        (&self.base, &mut self.entries)
    }

    /// Split the cache into the shared read-only refresh context and
    /// the per-position entries, for sharded refresh sweeps between
    /// [`Engine::cache_refresh_begin`] and
    /// [`Engine::cache_refresh_finish`]. Entries are position-disjoint,
    /// so each worker takes a contiguous chunk; see
    /// [`Engine::cache_refresh_entry`] and the parallel-search contract
    /// in `DETERMINISM.md`.
    pub fn refresh_split(&mut self) -> (RefreshCtx<'_>, &mut [ScenarioEntry]) {
        (
            RefreshCtx {
                base: &self.base,
                diff: &self.diff,
                changed: &self.refresh_changed,
            },
            &mut self.entries,
        )
    }
}

/// Shared read-only inputs of a sharded refresh sweep: the (already
/// updated) incumbent baseline, the pending weight diff, and the exact
/// per-destination "baseline really moved" flags — everything a
/// [`Engine::cache_refresh_entry`] call reads besides its own entry.
/// Obtained from [`ScenarioCache::refresh_split`].
#[derive(Clone, Copy, Debug)]
pub struct RefreshCtx<'a> {
    base: &'a [Vec<DestRouting>],
    diff: &'a [Vec<WeightChange>],
    changed: &'a [Vec<bool>],
}

/// The cached no-failure routing of one traffic class under the
/// workspace's current weight setting.
#[derive(Debug, Default)]
struct ClassBaseline {
    /// Weights this baseline was computed with (diffed on every reuse).
    weights: Vec<u32>,
    /// One replayable record per demand destination, aligned with the
    /// engine's per-class demand-destination list.
    state: Vec<DestRouting>,
    valid: bool,
}

/// Per-thread scratch for the engine. Acquire one from
/// [`Engine::acquire_workspace`] and reuse it: all buffers reach
/// steady-state capacity after the first evaluation.
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
    pair_delays: Vec<(usize, usize, f64)>,
    /// The k cost components (or floors) of the last evaluation — what
    /// the kernels return a slice of.
    costs: Vec<f64>,
    /// Delta-state epoch: stamps below are valid iff equal to this.
    epoch: u32,
    /// Per-class per-destination "changed under the candidate diff"
    /// stamps.
    changed: Vec<Vec<u32>>,
    /// Per-link dirty stamps.
    link_mark: Vec<u32>,
    /// Links whose contributor set changed (union over classes).
    dirty: Vec<u32>,
    /// Dirty links whose per-link delay actually changed (bitwise).
    pair_dirty: Vec<u32>,
    /// Fresh `(link, dest, share)` adds of changed destinations, per
    /// class, sorted by `(link, dest)` before refolding.
    new_adds: Vec<Vec<(u32, u32, f64)>>,
    /// Refresh scratch: rebuilt pair-segment offsets of one scenario.
    off_scratch: Vec<u32>,
    /// Repair target of the baseline refreshes (`ensure_baseline`,
    /// `cache_refresh_begin`: written back with `clone_from`) and of the
    /// entry kernel (swapped with surviving routings, so its buffers
    /// recycle).
    refresh_tmp: DestRouting,
    /// Refresh scratch: the previous affected list of the entry being
    /// refreshed (drained back into the entry; capacity converges).
    refresh_list: Vec<(u32, DestRouting)>,
    /// Refresh scratch: recycled routing buffers of destinations that
    /// left an affected list. Contents are never read — re-routes fully
    /// overwrite them — so pooling cannot change any bit.
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
        self.changed.resize_with(k, Vec::new);
        self.new_adds.resize_with(k, Vec::new);
        self.base_same.resize_with(k, Vec::new);
        self.costs.resize(k, 0.0);
    }

    /// Advance the delta-state epoch, clearing stamps on wrap-around.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for ch in &mut self.changed {
                ch.clear();
            }
            self.link_mark.clear();
            self.epoch = 1;
        }
        self.epoch
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
    pub fn cost_with<'w, W: ClassWeights>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &W,
        scenario: Scenario,
    ) -> &'w [f64] {
        self.ensure_baseline(ws, w);
        self.cost_scenario(ws, w, scenario, None);
        &ws.costs
    }

    /// Make `ws`'s per-class baselines describe the no-failure routing of
    /// `w`, re-routing only destinations whose distance field the weight
    /// diff can actually touch.
    fn ensure_baseline<W: ClassWeights>(&self, ws: &mut EvalWorkspace, w: &W) {
        assert_eq!(
            w.num_classes(),
            self.num_classes(),
            "weight setting class count mismatch"
        );
        assert_eq!(
            w.class_weights(0).len(),
            self.net.num_links(),
            "weight size mismatch"
        );
        self.bind(ws);
        ws.mask.reset_all_up();
        let EvalWorkspace {
            spf,
            mask,
            diff,
            base,
            refresh_tmp: tmp,
            ..
        } = ws;
        for (k, b) in base.iter_mut().enumerate() {
            let weights = w.class_weights(k);
            let tm = self.matrices[k];
            let dests = &self.demand_dests[k];
            if b.valid && b.weights.len() == weights.len() {
                weight_diff(&b.weights, weights, diff);
                if diff.is_empty() {
                    continue;
                }
                // Repair each flagged destination from its previous
                // routing (bit-equal to a full route), writing back with
                // `clone_from` so every record keeps its own buffers.
                for (di, &t) in dests.iter().enumerate() {
                    if weight_change_affects(self.net, &b.state[di].dist, diff) {
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
                            tmp,
                        );
                        b.state[di].clone_from(tmp);
                    }
                }
                b.weights.copy_from_slice(weights);
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
                b.valid = true;
            }
        }
    }

    #[inline]
    fn take_max(&self) -> bool {
        matches!(self.delay_params.aggregation, DelayAggregation::Max)
    }

    /// Evaluate one scenario (any kind) against valid workspace
    /// baselines into `ws.costs`, optionally capturing the recomputed
    /// routings and SLA segments into a scenario-cache entry.
    fn cost_scenario<W: ClassWeights>(
        &self,
        ws: &mut EvalWorkspace,
        w: &W,
        scenario: Scenario,
        mut capture: Option<&mut ScenarioEntry>,
    ) {
        // Node failures also remove the dead node's traffic; the mask
        // makes that self-enforcing for loads (see the module docs), and
        // the routing/SLA loops below skip the node explicitly where the
        // base matrices still mention it.
        let excluded = scenario.excluded_node().map(|v| v.index());
        let num_links = self.net.num_links();
        let kn = self.num_classes();
        let EvalWorkspace {
            spf,
            mask,
            down,
            base,
            scratch,
            scratch_map,
            class_loads,
            total_loads,
            link_delays,
            node_delay,
            pair_delays,
            costs,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));

        // Route (or replay) every class. Recomputed destinations stay in
        // the scratch pool: SLA classes read their distance fields in
        // the end-to-end delay DP below.
        let mut scratch_used = 0usize;
        let mut dropped = 0.0f64; // diagnostic only; never in the cost
        for k in 0..kn {
            let weights = w.class_weights(k);
            let tm = self.matrices[k];
            let dests = &self.demand_dests[k];
            let loads = &mut class_loads[k];
            loads.clear();
            loads.resize(num_links, 0.0);
            let map = &mut scratch_map[k];
            map.clear();
            map.resize(dests.len(), NOT_RECOMPUTED);
            for (di, &t) in dests.iter().enumerate() {
                if Some(t as usize) == excluded {
                    // The dead node sinks nothing under its own failure;
                    // the reference path (zeroed column) never routes it.
                    continue;
                }
                let b = &base[k].state[di];
                let affected = !down.is_empty() && dag_uses_any(self.net, &b.dist, weights, down);
                if !affected {
                    b.replay(loads, &mut dropped);
                    continue;
                }
                if scratch.len() == scratch_used {
                    scratch.push(DestRouting::default());
                }
                let dest = &mut scratch[scratch_used];
                // A mask-affected destination is *repaired* from the
                // resident no-failure baseline (orphan detection plus a
                // boundary Dijkstra — bit-equal to a from-scratch route,
                // see `route_destination_repair`) instead of paying a
                // full Dijkstra; `ensure_baseline` guarantees `b` is the
                // all-up routing of these exact weights.
                route_destination_repair(self.net, weights, tm, mask, t as usize, b, spf, dest);
                dest.replay(loads, &mut dropped);
                map[di] = scratch_used as u32;
                scratch_used += 1;
                if let Some(entry) = capture.as_mut() {
                    entry.routed[k].push((di as u32, scratch[scratch_used - 1].clone()));
                }
            }
        }

        // Shared FIFO total loads: the references' class-order
        // accumulation, verbatim.
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

        // Per-class components: per-pair end-to-end delays over the
        // class's own routing for SLA classes (shared kernel; the order
        // field is cached, not recomputed), Φ over the total loads for
        // congestion classes.
        let take_max = self.take_max();
        for (k, model) in self.models.iter().enumerate() {
            costs[k] = match model {
                CostModel::SlaDelay { .. } => {
                    let weights = w.class_weights(k);
                    pair_delays.clear();
                    for (di, &t) in self.demand_dests[k].iter().enumerate() {
                        if Some(t as usize) == excluded {
                            continue;
                        }
                        let dest = match scratch_map[k][di] {
                            NOT_RECOMPUTED => &base[k].state[di],
                            slot => &scratch[slot as usize],
                        };
                        delay::pair_delays_into(
                            self.net,
                            &dest.dist,
                            &dest.order,
                            weights,
                            mask,
                            link_delays,
                            take_max,
                            self.matrices[k],
                            t as usize,
                            excluded,
                            node_delay,
                            pair_delays,
                        );
                    }
                    if let Some(entry) = capture.as_mut() {
                        // Segment offsets: triples carry their
                        // destination, and the emission loop walked
                        // destinations ascending.
                        entry.pairs[k].clone_from(pair_delays);
                        let offs = &mut entry.pair_off[k];
                        offs.clear();
                        offs.push(0);
                        let mut p = 0usize;
                        for &t in &self.demand_dests[k] {
                            while p < pair_delays.len() && pair_delays[p].1 == t as usize {
                                p += 1;
                            }
                            offs.push(p as u32);
                        }
                        debug_assert_eq!(p, pair_delays.len(), "segments cover all triples");
                    }
                    sla::summarize(&*pair_delays, &self.class_params[k]).lambda
                }
                CostModel::Congestion => {
                    congestion::phi(total_loads, &class_loads[k], &self.capacities)
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
    /// Incumbent-bounded sweeps use these floors as stand-ins for
    /// scenarios not yet evaluated, which tightens the rejection proof
    /// from "the remaining scenarios cost at least nothing" to "at least
    /// their physical minimum" — on SLA-stressed workloads that is most
    /// of the incumbent's cost, so losing candidates are cut after a
    /// handful of scenarios instead of nearly all of them.
    ///
    /// The returned value is shaved by a relative `1e-9` guard so that
    /// floating-point evaluation-order effects (the floor and the real
    /// evaluation accumulate in different expression orders) can never
    /// lift the floor above an achievable `Λ_k`; the guard is orders of
    /// magnitude above the worst-case rounding slop and orders of
    /// magnitude below [`crate::LAMBDA_EPS`]'s resolution of genuine
    /// cost differences. Cold path (once per search): allocates.
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
    /// below for **every** weight setting, so incumbent-bounded sweeps
    /// can stand the floors in for scenarios not yet evaluated. Floors
    /// depend only on the topology, traffic, mask and cost parameters —
    /// never on weights — so one computation per search is valid for its
    /// whole lifetime.
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
    /// no-failure baseline routing per class. Every entry must then be
    /// (re-)captured with [`cost_capture`](Self::cost_capture) /
    /// [`cost_capture_into`](Self::cost_capture_into) before candidates
    /// evaluate through [`cost_cached`](Self::cost_cached).
    pub fn cache_rebuild_begin<W: ClassWeights>(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &W,
        positions: usize,
    ) {
        // Route (or diff-update) the workspace baseline, then copy it
        // into the cache: both are the same `route_destination` bits.
        self.ensure_baseline(ws, w);
        let kn = self.num_classes();
        cache.weights.resize_with(kn, Vec::new);
        cache.base.resize_with(kn, Vec::new);
        cache.diff.resize_with(kn, Vec::new);
        for k in 0..kn {
            cache.weights[k].clear();
            cache.weights[k].extend_from_slice(w.class_weights(k));
            let dests = &self.demand_dests[k];
            cache.base[k].resize_with(dests.len(), DestRouting::default);
            for (di, slot) in cache.base[k].iter_mut().enumerate() {
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
        cache.generation = next_engine_id();
    }

    /// Compute the per-class weight diff of candidate `w` against the
    /// cache's incumbent, preparing [`cost_cached`](Self::cost_cached)
    /// calls. Returns the total number of changed directed (class, link)
    /// slots.
    pub fn cache_begin<W: ClassWeights>(&self, cache: &mut ScenarioCache, w: &W) -> usize {
        let mut changed = 0;
        for (k, diffk) in cache.diff.iter_mut().enumerate() {
            let weights = w.class_weights(k);
            assert_eq!(
                cache.weights[k].len(),
                weights.len(),
                "cache incumbent and candidate disagree on link count"
            );
            weight_diff(&cache.weights[k], weights, diffk);
            changed += diffk.len();
        }
        cache.generation = next_engine_id();
        changed
    }

    /// [`cost_with`](Self::cost_with) that also captures the scenario's
    /// full delta-state into `cache.entries[pos]` — the cache (re)build
    /// path, run over the incumbent setting. The returned components are
    /// bit-for-bit the plain evaluation's.
    pub fn cost_capture<'w, W: ClassWeights>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &W,
        scenario: Scenario,
        cache: &mut ScenarioCache,
        pos: usize,
    ) -> &'w [f64] {
        debug_assert!(
            (0..self.num_classes()).all(|k| cache.weights[k] == w.class_weights(k)),
            "capture must run on the cache incumbent"
        );
        let (base, entries) = cache.capture_split();
        self.cost_capture_into(ws, w, scenario, base, &mut entries[pos])
    }

    /// Entry-level form of [`cost_capture`](Self::cost_capture):
    /// captures into one caller-held [`ScenarioEntry`] (cleared first),
    /// reading the shared incumbent baseline from
    /// [`ScenarioCache::capture_split`]. Entries are position-disjoint,
    /// so a cache rebuild can shard its capture sweep across workers,
    /// each holding a disjoint slice of the entries.
    pub fn cost_capture_into<'w, W: ClassWeights>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &W,
        scenario: Scenario,
        base: &[Vec<DestRouting>],
        entry: &mut ScenarioEntry,
    ) -> &'w [f64] {
        let kn = self.num_classes();
        entry.routed.resize_with(kn, Vec::new);
        entry.loads.resize_with(kn, Vec::new);
        entry.contrib.resize_with(kn, LinkContrib::default);
        entry.pairs.resize_with(kn, Vec::new);
        entry.pair_off.resize_with(kn, Vec::new);
        for k in 0..kn {
            entry.routed[k].clear();
            entry.pairs[k].clear();
            entry.pair_off[k].clear();
        }
        self.ensure_baseline(ws, w);
        self.cost_scenario(ws, w, scenario, Some(entry));
        let excluded = scenario.excluded_node().map(|v| v.index());

        // Resident state: the folded incumbent evaluation, verbatim.
        for k in 0..kn {
            entry.loads[k].clone_from(&ws.class_loads[k]);
        }
        entry.link_delays.clone_from(&ws.link_delays);
        // Contributor lists from the effective routing of every
        // destination: the entry's recomputed routing where the mask
        // affected it, the incumbent baseline elsewhere, nothing for the
        // excluded node.
        let ScenarioEntry {
            routed, contrib, ..
        } = entry;
        for (k, cb) in contrib.iter_mut().enumerate() {
            let list: &[(u32, DestRouting)] = &routed[k];
            let dests = &self.demand_dests[k];
            cb.rebuild(self.net.num_links(), dests.len(), |di| {
                effective_adds(list, &base[k], dests, excluded, di)
            });
        }
        &ws.costs
    }

    /// Delta-state candidate evaluation through the scenario cache:
    /// re-routes only destinations the candidate diff can touch, refolds
    /// only the links whose contributor set changed, and re-runs each SLA
    /// class's delay DP only where the routing or an on-DAG link delay
    /// changed — everything else is read back from the resident
    /// incumbent state. Requires a preceding
    /// [`cache_begin`](Self::cache_begin) for this exact `w`; the result
    /// is bit-for-bit [`cost_with`](Self::cost_with)'s (see the module
    /// docs for the exactness argument).
    pub fn cost_cached<'w, W: ClassWeights>(
        &self,
        ws: &'w mut EvalWorkspace,
        w: &W,
        scenario: Scenario,
        cache: &ScenarioCache,
        pos: usize,
    ) -> &'w [f64] {
        let num_links = self.net.num_links();
        let kn = self.num_classes();
        // The workspace baseline tracks the *candidate*: within one
        // candidate's sweep every scenario shares it, so move-touched
        // destinations pay their baseline re-route once per candidate,
        // not once per scenario.
        self.ensure_baseline(ws, w);
        // Exact per-destination baseline diff vs the cache incumbent,
        // computed once per (candidate, cache generation) and shared by
        // the whole scenario sweep: a destination is baseline-changed
        // only when its distance field or DAG actually moved — the
        // conservative predicate's false positives (the common case for
        // a one-duplex-link re-draw) would otherwise re-run per-scenario
        // delay DPs for bit-identical routings.
        if ws.cand_gen != cache.generation {
            ws.cand_gen = cache.generation;
            for k in 0..kn {
                let dests = &self.demand_dests[k];
                let basec = &cache.base[k];
                assert_eq!(
                    basec.len(),
                    dests.len(),
                    "cache baseline missing; run cache_rebuild_begin first"
                );
                let diffk = &cache.diff[k];
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
        let epoch = ws.next_epoch();
        let entry = &cache.entries[pos];
        debug_assert!(
            entry.loads.len() == kn
                && entry.loads[0].len() == num_links
                && entry.link_delays.len() == num_links,
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
            class_loads,
            total_loads,
            link_delays,
            node_delay,
            pair_delays,
            costs,
            changed,
            link_mark,
            dirty,
            pair_dirty,
            new_adds,
            base_same,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));
        if link_mark.len() != num_links {
            link_mark.clear();
            link_mark.resize(num_links, 0);
        }
        dirty.clear();
        pair_dirty.clear();
        let mut scratch_used = 0usize;

        // Pass 1 per class: classify every destination against the
        // candidate diff, re-route the ones whose effective routing
        // really moved, and collect their old/new contribution links
        // (dirty set) and fresh shares. Fresh routings of every class
        // persist in the scratch pool so pass 2 can replay them.
        for k in 0..kn {
            let weights = w.class_weights(k);
            let tm = self.matrices[k];
            let dests = &self.demand_dests[k];
            let basec = &cache.base[k];
            let diffk = &cache.diff[k];
            let list: &[(u32, DestRouting)] = &entry.routed[k];
            let ch = &mut changed[k];
            ch.resize(dests.len(), 0);
            new_adds[k].clear();
            let map = &mut scratch_map[k];
            map.clear();
            map.resize(dests.len(), NOT_RECOMPUTED);
            let mut cursor = 0usize;
            for (di, &t) in dests.iter().enumerate() {
                while cursor < list.len() && list[cursor].0 < di as u32 {
                    cursor += 1;
                }
                let hit = cursor < list.len() && list[cursor].0 == di as u32;
                if Some(t as usize) == excluded {
                    continue;
                }
                // Resolve this destination's candidate-effective routing,
                // without a fresh route where a cached one provably
                // survives the diff.
                let (old_r, fresh_code): (&DestRouting, u32) = if base_same[k][di] {
                    if !hit {
                        // Baseline destination, baseline provably
                        // bit-identical to the incumbent's.
                        continue;
                    }
                    let hr = &list[cursor].1;
                    if diffk.is_empty() || !weight_change_affects(self.net, &hr.dist, diffk) {
                        // Mask-affected but the cached scenario routing
                        // survives the diff: resident state covers it.
                        map[di] = CACHED_BIT | cursor as u32;
                        continue;
                    }
                    // mask ∩ move: re-route under the scenario mask,
                    // keeping the result only if it really moved (the
                    // exact diff filters the predicate's false
                    // positives, saving the dirty-link pollution and
                    // the delay-DP recompute).
                    if scratch.len() == scratch_used {
                        scratch.push(DestRouting::default());
                    }
                    route_destination_repair(
                        self.net,
                        weights,
                        tm,
                        mask,
                        t as usize,
                        &ws_base[k].state[di],
                        spf,
                        &mut scratch[scratch_used],
                    );
                    if baseline_unchanged(self.net, &scratch[scratch_used].dist, &hr.dist, diffk) {
                        map[di] = CACHED_BIT | cursor as u32;
                        continue;
                    }
                    (hr, scratch_used as u32)
                } else {
                    // The diff really moved this destination's baseline.
                    // Its *scenario* routing may still survive: when it
                    // is mask-affected under both settings, the cached
                    // scenario routing is reusable whenever the diff
                    // provably cannot change it — the predicate's
                    // false-contract holds for any distance field.
                    let affected = !down.is_empty()
                        && dag_uses_any(self.net, &ws_base[k].state[di].dist, weights, down);
                    let old: &DestRouting = if hit { &list[cursor].1 } else { &basec[di] };
                    if !affected {
                        // Effective routing is the candidate baseline —
                        // already maintained, no route needed.
                        (old, WS_BASE)
                    } else {
                        if hit
                            && (diffk.is_empty()
                                || !weight_change_affects(self.net, &old.dist, diffk))
                        {
                            map[di] = CACHED_BIT | cursor as u32;
                            continue;
                        }
                        if scratch.len() == scratch_used {
                            scratch.push(DestRouting::default());
                        }
                        route_destination_repair(
                            self.net,
                            weights,
                            tm,
                            mask,
                            t as usize,
                            &ws_base[k].state[di],
                            spf,
                            &mut scratch[scratch_used],
                        );
                        if hit
                            && baseline_unchanged(
                                self.net,
                                &scratch[scratch_used].dist,
                                &old.dist,
                                diffk,
                            )
                        {
                            map[di] = CACHED_BIT | cursor as u32;
                            continue;
                        }
                        (old, scratch_used as u32)
                    }
                };
                // Genuine change: mark it, collect old and fresh adds.
                ch[di] = epoch;
                map[di] = fresh_code;
                if fresh_code != WS_BASE {
                    scratch_used += 1;
                }
                for &(l, _) in old_r.load_adds() {
                    if link_mark[l as usize] != epoch {
                        link_mark[l as usize] = epoch;
                        dirty.push(l);
                    }
                }
                let fresh: &DestRouting = if fresh_code == WS_BASE {
                    &ws_base[k].state[di]
                } else {
                    &scratch[fresh_code as usize]
                };
                for &(l, share) in fresh.load_adds() {
                    if link_mark[l as usize] != epoch {
                        link_mark[l as usize] = epoch;
                        dirty.push(l);
                    }
                    new_adds[k].push((l, di as u32, share));
                }
            }
        }

        // Pass 2: per-class candidate loads. When few links are dirty,
        // read the residents and refold only the dirty links in
        // destination-index order over the stored contributions; when a
        // large move dirtied most of the network, a straight replay of
        // every destination's effective adds (the same destination-order
        // float sequence) is cheaper than per-link merges — both produce
        // the reference accumulation bit for bit.
        let use_refold = dirty.len() * 4 < num_links;
        for k in 0..kn {
            let loads = &mut class_loads[k];
            if use_refold {
                loads.clear();
                loads.extend_from_slice(&entry.loads[k]);
                new_adds[k].sort_unstable_by_key(|&(l, d, _)| (l, d));
                let adds = &new_adds[k];
                let ch = &changed[k];
                for &l in dirty.iter() {
                    let lo = adds.partition_point(|&(al, _, _)| al < l);
                    let hi = lo + adds[lo..].partition_point(|&(al, _, _)| al == l);
                    loads[l as usize] =
                        refold_link(entry.contrib[k].row(l as usize), &adds[lo..hi], |d| {
                            ch[d as usize] == epoch
                        });
                }
            } else {
                loads.clear();
                loads.resize(num_links, 0.0);
                let mut dropped = 0.0f64;
                let list: &[(u32, DestRouting)] = &entry.routed[k];
                for (di, &t) in self.demand_dests[k].iter().enumerate() {
                    if Some(t as usize) == excluded {
                        continue;
                    }
                    let r: &DestRouting = match scratch_map[k][di] {
                        NOT_RECOMPUTED => &cache.base[k][di],
                        WS_BASE => &ws_base[k].state[di],
                        code if code & CACHED_BIT != 0 => &list[(code & !CACHED_BIT) as usize].1,
                        slot => &scratch[slot as usize],
                    };
                    r.replay(loads, &mut dropped);
                }
            }
        }

        // Totals (reference class-order fold) and per-link delays: read
        // back from the resident state and recomputed only at dirty
        // links — keeping only the ones that actually changed bitwise
        // for the pair-delay reuse decision below.
        total_loads.clear();
        total_loads.resize(num_links, 0.0);
        for loads in class_loads.iter() {
            for (t, &x) in total_loads.iter_mut().zip(loads) {
                *t += x;
            }
        }
        link_delays.clear();
        link_delays.extend_from_slice(&entry.link_delays);
        for &l in dirty.iter() {
            let li = l as usize;
            let d = delay_model::link_delay(
                total_loads[li],
                self.capacities[li],
                self.prop_delays[li],
                &self.delay_params,
            );
            if d.to_bits() != link_delays[li].to_bits() {
                link_delays[li] = d;
                pair_dirty.push(l);
            }
        }

        // Pass 3: per-class components. SLA pairs come from resident
        // segments for destinations whose routing is unchanged and whose
        // DAG sees no changed delay, from the shared DP kernel for the
        // rest.
        let take_max = self.take_max();
        for (k, model) in self.models.iter().enumerate() {
            costs[k] = match model {
                CostModel::SlaDelay { .. } => {
                    let weights = w.class_weights(k);
                    pair_delays.clear();
                    for (di, &t) in self.demand_dests[k].iter().enumerate() {
                        if Some(t as usize) == excluded {
                            continue;
                        }
                        let code = scratch_map[k][di];
                        let dest: &DestRouting = if code == NOT_RECOMPUTED {
                            &cache.base[k][di]
                        } else if code == WS_BASE {
                            &ws_base[k].state[di]
                        } else if code & CACHED_BIT != 0 {
                            &entry.routed[k][(code & !CACHED_BIT) as usize].1
                        } else {
                            &scratch[code as usize]
                        };
                        if (code == NOT_RECOMPUTED || code & CACHED_BIT != 0)
                            && (pair_dirty.is_empty()
                                || !dag_uses_any(self.net, &dest.dist, weights, pair_dirty))
                        {
                            let s = entry.pair_off[k][di] as usize;
                            let e = entry.pair_off[k][di + 1] as usize;
                            pair_delays.extend_from_slice(&entry.pairs[k][s..e]);
                            continue;
                        }
                        delay::pair_delays_into(
                            self.net,
                            &dest.dist,
                            &dest.order,
                            weights,
                            mask,
                            link_delays,
                            take_max,
                            self.matrices[k],
                            t as usize,
                            excluded,
                            node_delay,
                            pair_delays,
                        );
                    }
                    sla::summarize(&*pair_delays, &self.class_params[k]).lambda
                }
                CostModel::Congestion => {
                    congestion::phi(total_loads, &class_loads[k], &self.capacities)
                }
            };
        }
        costs
    }

    /// Re-point the cache at a new incumbent `w` incrementally: the
    /// accept-path maintenance of the hill climbers. Baseline and
    /// per-scenario routings whose `cache.weights → w` diff provably
    /// cannot change (see [`weight_change_affects`]) are kept as-is; the
    /// rest are re-routed under `w`, and the resident folded state
    /// (loads, contributor lists, link delays, pair segments) is updated
    /// to describe `w` exactly. Coverage is maintained **exactly**:
    /// destinations entering or leaving a scenario's mask-affected set
    /// are spliced into or out of its entry, so no periodic full rebuild
    /// is needed.
    ///
    /// This serial form wraps the three-stage refresh —
    /// [`cache_refresh_begin`](Self::cache_refresh_begin), one
    /// [`cache_refresh_entry`](Self::cache_refresh_entry) per resident
    /// position, [`cache_refresh_finish`](Self::cache_refresh_finish) —
    /// which multicore accept paths shard across workers with
    /// bit-identical results (see the parallel-search contract in
    /// `DETERMINISM.md`).
    pub fn cache_refresh<W: ClassWeights>(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &W,
        scenario_at: impl Fn(usize) -> Scenario,
    ) {
        self.cache_refresh_begin(ws, cache, w);
        let resident = cache.resident_scenarios();
        let (ctx, entries) = cache.refresh_split();
        for (pos, entry) in entries.iter_mut().enumerate().take(resident) {
            self.cache_refresh_entry(ws, w, &ctx, scenario_at(pos), entry);
        }
        self.cache_refresh_finish(cache, w);
    }

    /// Stage 1 of the incremental refresh: compute the incumbent → `w`
    /// per-class weight diff into the cache, and update the cached
    /// no-failure baseline, recording in the cache's shared refresh
    /// flags exactly which destinations *really* moved. Serial — runs
    /// once per accepted candidate; the per-entry stage it feeds
    /// ([`cache_refresh_entry`](Self::cache_refresh_entry)) is the
    /// shardable part.
    pub fn cache_refresh_begin<W: ClassWeights>(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &W,
    ) {
        self.bind(ws);
        let kn = self.num_classes();
        let ScenarioCache {
            weights,
            base,
            diff,
            refresh_changed,
            ..
        } = cache;
        assert_eq!(base.len(), kn, "cache baseline missing");
        for (k, diffk) in diff.iter_mut().enumerate() {
            let new = w.class_weights(k);
            assert_eq!(weights[k].len(), new.len(), "link count mismatch");
            weight_diff(&weights[k], new, diffk);
        }

        // Baseline update: repair the destinations the diff can touch
        // from their incumbent routing (bit-equal to a full route),
        // remembering which *really* moved (their routings may enter or
        // leave any scenario's affected set). The conservative
        // predicate's false positives are filtered with the exact
        // [`baseline_unchanged`] diff so bit-identical repairs don't
        // churn entries or re-run delay DPs downstream.
        refresh_changed.resize_with(kn, Vec::new);
        let mut tmp = std::mem::take(&mut ws.refresh_tmp);
        for k in 0..kn {
            let class_weights = w.class_weights(k);
            let tm = self.matrices[k];
            let dests = &self.demand_dests[k];
            assert_eq!(
                base[k].len(),
                dests.len(),
                "cache baseline missing; run cache_rebuild_begin first"
            );
            refresh_changed[k].clear();
            refresh_changed[k].resize(dests.len(), false);
            for (di, &t) in dests.iter().enumerate() {
                if diff[k].is_empty()
                    || !weight_change_affects(self.net, &base[k][di].dist, &diff[k])
                {
                    continue;
                }
                route_destination_reweight(
                    self.net,
                    &weights[k],
                    class_weights,
                    &diff[k],
                    tm,
                    &ws.up_mask,
                    t as usize,
                    &base[k][di],
                    &mut ws.spf,
                    &mut tmp,
                );
                if !baseline_unchanged(self.net, &tmp.dist, &base[k][di].dist, &diff[k]) {
                    base[k][di].clone_from(&tmp);
                    refresh_changed[k][di] = true;
                }
            }
        }
        ws.refresh_tmp = tmp;
    }

    /// Stage 2 of the incremental refresh: update one resident entry —
    /// routings, contributor lists, loads and (for fully resident
    /// entries) link delays and pair segments, all in place. The result
    /// is a pure function of (entry, `ctx`, `w`, scenario), entries are
    /// position-disjoint, and `ctx` is read-only, so an accept path may
    /// shard the resident entries across workers in contiguous
    /// index-order chunks (each worker with its own pooled workspace)
    /// and splice bit-identically to the serial loop at any worker
    /// count — the sharded-refresh splice invariant in `DETERMINISM.md`.
    /// Steady-state allocation-free per worker: the old affected list
    /// drains through the workspace spare buffer, surviving routings
    /// move, leavers park in the routing pool, and newcomers reuse
    /// pooled buffers (pool contents are never read — re-routes fully
    /// overwrite them).
    pub fn cache_refresh_entry<W: ClassWeights>(
        &self,
        ws: &mut EvalWorkspace,
        w: &W,
        ctx: &RefreshCtx<'_>,
        scenario: Scenario,
        entry: &mut ScenarioEntry,
    ) {
        let num_links = self.net.num_links();
        self.bind(ws);
        let RefreshCtx {
            base,
            diff,
            changed: base_changed,
        } = *ctx;
        scenario.mask_into(self.net, &mut ws.mask);
        ws.down.clear();
        ws.down.extend(ws.mask.down_links().map(|i| i as u32));
        let excluded = scenario.excluded_node().map(|v| v.index());
        let epoch = ws.next_epoch();
        let mut tmp = std::mem::take(&mut ws.refresh_tmp);
        let mut spare = std::mem::take(&mut ws.refresh_list);
        let mut pool = std::mem::take(&mut ws.routing_pool);

        for (k, dests) in self.demand_dests.iter().enumerate() {
            let class_weights = w.class_weights(k);
            let tm = self.matrices[k];
            let ch = &mut ws.changed[k];
            ch.resize(dests.len(), 0);
            // Rebuild the affected list, moving surviving routings:
            // membership only moves where the baseline moved.
            let list = &mut entry.routed[k];
            std::mem::swap(list, &mut spare);
            list.clear();
            let mut it = spare.drain(..).peekable();
            for (di, &t) in dests.iter().enumerate() {
                let hit = it
                    .peek()
                    .is_some_and(|(d, _)| *d == di as u32)
                    .then(|| it.next().unwrap().1);
                if Some(t as usize) == excluded {
                    if let Some(r) = hit {
                        pool.push(r);
                    }
                    continue;
                }
                if base_changed[k][di] {
                    let affected = !ws.down.is_empty()
                        && dag_uses_any(self.net, &base[k][di].dist, class_weights, &ws.down);
                    if affected {
                        // The cached scenario routing survives when
                        // the diff provably cannot change it.
                        if let Some(routing) = hit {
                            if diff[k].is_empty()
                                || !weight_change_affects(self.net, &routing.dist, &diff[k])
                            {
                                list.push((di as u32, routing));
                                continue;
                            }
                            let mut routing = routing;
                            route_destination_repair(
                                self.net,
                                class_weights,
                                tm,
                                &ws.mask,
                                t as usize,
                                &base[k][di],
                                &mut ws.spf,
                                &mut tmp,
                            );
                            if !baseline_unchanged(self.net, &tmp.dist, &routing.dist, &diff[k]) {
                                ch[di] = epoch;
                                std::mem::swap(&mut routing, &mut tmp);
                            }
                            list.push((di as u32, routing));
                            continue;
                        }
                        ch[di] = epoch;
                        let mut routing = pool.pop().unwrap_or_default();
                        route_destination_repair(
                            self.net,
                            class_weights,
                            tm,
                            &ws.mask,
                            t as usize,
                            &base[k][di],
                            &mut ws.spf,
                            &mut routing,
                        );
                        list.push((di as u32, routing));
                    } else {
                        // Not affected: the destination leaves (or
                        // stays out of) the entry; its effective
                        // routing is the freshly updated baseline.
                        ch[di] = epoch;
                        if let Some(r) = hit {
                            pool.push(r);
                        }
                    }
                } else if let Some(mut routing) = hit {
                    if !diff[k].is_empty()
                        && weight_change_affects(self.net, &routing.dist, &diff[k])
                    {
                        route_destination_repair(
                            self.net,
                            class_weights,
                            tm,
                            &ws.mask,
                            t as usize,
                            &base[k][di],
                            &mut ws.spf,
                            &mut tmp,
                        );
                        if !baseline_unchanged(self.net, &tmp.dist, &routing.dist, &diff[k]) {
                            ch[di] = epoch;
                            std::mem::swap(&mut routing, &mut tmp);
                        }
                    }
                    list.push((di as u32, routing));
                }
            }
            for (_, r) in it {
                pool.push(r);
            }

            // Contributor lists + full refold (cheap: one pass over the
            // effective adds — the per-link fold in destination order
            // gives bit-for-bit the reference accumulation for *every*
            // link, dirty or not).
            let list: &[(u32, DestRouting)] = list;
            let basec = &base[k];
            entry.contrib[k].rebuild(num_links, dests.len(), |di| {
                effective_adds(list, basec, dests, excluded, di)
            });
            let loads = &mut entry.loads[k];
            loads.clear();
            loads.resize(num_links, 0.0);
            for (l, load) in loads.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for &(_, share) in entry.contrib[k].row(l) {
                    acc += share;
                }
                *load = acc;
            }
        }
        ws.refresh_tmp = tmp;
        ws.refresh_list = spare;
        ws.routing_pool = pool;

        // Delays: recompute, remembering which changed bitwise.
        ws.total_loads.clear();
        ws.total_loads.resize(num_links, 0.0);
        for loads in &entry.loads {
            for (t, &x) in ws.total_loads.iter_mut().zip(loads) {
                *t += x;
            }
        }
        ws.pair_dirty.clear();
        for (l, old) in entry.link_delays.iter_mut().enumerate() {
            let d = delay_model::link_delay(
                ws.total_loads[l],
                self.capacities[l],
                self.prop_delays[l],
                &self.delay_params,
            );
            if d.to_bits() != old.to_bits() {
                *old = d;
                ws.pair_dirty.push(l as u32);
            }
        }

        // Pair segments per SLA class: recompute only destinations whose
        // routing changed or whose DAG sees a changed delay; splice the
        // rest from the old resident list.
        let take_max = self.take_max();
        for (k, model) in self.models.iter().enumerate() {
            if matches!(model, CostModel::Congestion) {
                continue;
            }
            let class_weights = w.class_weights(k);
            ws.pair_delays.clear();
            let mut cursor = 0usize;
            let list = &entry.routed[k];
            let new_offs = &mut ws.off_scratch;
            new_offs.clear();
            new_offs.push(0);
            for (di, &t) in self.demand_dests[k].iter().enumerate() {
                if Some(t as usize) != excluded {
                    while cursor < list.len() && list[cursor].0 < di as u32 {
                        cursor += 1;
                    }
                    let hit = cursor < list.len() && list[cursor].0 == di as u32;
                    let dest: &DestRouting = if hit { &list[cursor].1 } else { &base[k][di] };
                    let routing_changed = ws.changed[k][di] == epoch;
                    if !routing_changed
                        && (ws.pair_dirty.is_empty()
                            || !dag_uses_any(self.net, &dest.dist, class_weights, &ws.pair_dirty))
                    {
                        let s = entry.pair_off[k][di] as usize;
                        let e = entry.pair_off[k][di + 1] as usize;
                        ws.pair_delays.extend_from_slice(&entry.pairs[k][s..e]);
                    } else {
                        delay::pair_delays_into(
                            self.net,
                            &dest.dist,
                            &dest.order,
                            class_weights,
                            &ws.mask,
                            &entry.link_delays,
                            take_max,
                            self.matrices[k],
                            t as usize,
                            excluded,
                            &mut ws.node_delay,
                            &mut ws.pair_delays,
                        );
                    }
                }
                new_offs.push(ws.pair_delays.len() as u32);
            }
            entry.pairs[k].clone_from(&ws.pair_delays);
            entry.pair_off[k].clone_from(new_offs);
        }
    }

    /// Stage 3 of the incremental refresh: adopt `w` as the cache's
    /// incumbent and advance the generation stamp. Call exactly once,
    /// after every [`cache_refresh_entry`](Self::cache_refresh_entry)
    /// of the refresh has completed.
    pub fn cache_refresh_finish<W: ClassWeights>(&self, cache: &mut ScenarioCache, w: &W) {
        for (k, buf) in cache.weights.iter_mut().enumerate() {
            buf.clear();
            buf.extend_from_slice(w.class_weights(k));
        }
        cache.generation = next_engine_id();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-link destination-ordered merge must reproduce the
    /// from-scratch accumulation: stored shares of unchanged
    /// destinations interleaved with fresh shares of changed ones, in
    /// ascending destination order.
    #[test]
    fn refold_link_merges_in_destination_order() {
        // Stored row: dests 0, 2, 5, 7; dest 2 and 7 changed.
        let row = [(0u32, 1.0f64), (2, 2.0), (5, 4.0), (7, 8.0)];
        // Fresh adds for this link: dest 2 (new share) and dest 6 (newly
        // contributing).
        let fresh = [(9u32, 2u32, 16.0f64), (9, 6, 32.0)];
        let changed = |d: u32| d == 2 || d == 6 || d == 7;
        // Expected fold order: 0 (kept), 2 (fresh), 5 (kept), 6 (fresh);
        // dest 7's stale share is dropped without a replacement.
        let want: f64 = ((0.0 + 1.0) + 16.0) + 4.0 + 32.0;
        assert_eq!(refold_link(&row, &fresh, changed).to_bits(), want.to_bits());
    }

    #[test]
    fn refold_link_handles_empty_sides() {
        assert_eq!(refold_link(&[], &[], |_| false), 0.0);
        let row = [(3u32, 5.0f64)];
        assert_eq!(refold_link(&row, &[], |_| false), 5.0);
        assert_eq!(refold_link(&row, &[], |d| d == 3), 0.0);
        let fresh = [(0u32, 1u32, 7.0f64)];
        assert_eq!(refold_link(&[], &fresh, |_| true), 7.0);
    }

    /// CSR rebuild scans destinations in ascending order, so every
    /// link's contributor row comes out destination-sorted and
    /// re-entrant calls reuse the buffers.
    #[test]
    fn link_contrib_rebuild_orders_rows_by_destination() {
        let adds: [&[(u32, f64)]; 3] = [
            &[(0, 1.0), (2, 2.0)], // dest 0 touches links 0, 2
            &[(2, 3.0)],           // dest 1 touches link 2
            &[(0, 4.0), (1, 5.0)], // dest 2 touches links 0, 1
        ];
        let mut cb = LinkContrib::default();
        for _ in 0..2 {
            // Second pass re-rebuilds into warm buffers.
            cb.rebuild(3, 3, |di| adds[di]);
        }
        assert_eq!(cb.row(0), &[(0u32, 1.0f64), (2, 4.0)]);
        assert_eq!(cb.row(1), &[(2u32, 5.0f64)]);
        assert_eq!(cb.row(2), &[(0u32, 2.0f64), (1, 3.0)]);
        // A full refold of every row equals the replayed sums.
        for (l, want) in [(0usize, 5.0f64), (1, 5.0), (2, 5.0)] {
            assert_eq!(refold_link(cb.row(l), &[], |_| false), want);
        }
    }
}
