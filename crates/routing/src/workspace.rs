//! Reusable scratch state for allocation-free routing evaluation.
//!
//! Every optimization step evaluates thousands of (weight setting ×
//! failure scenario) pairs, and each pair routes every demand destination.
//! The seed implementation allocated a fresh distance vector, heap and
//! order per destination; this module hoists all of that into a
//! [`SpfWorkspace`] that a caller (one per thread) reuses across all
//! destinations, classes, scenarios and candidate weight settings.
//!
//! The second piece is [`DestRouting`]: the complete routing outcome of a
//! *single* destination, stored as the exact sequence of floating-point
//! accumulations the router performs (`load_adds`, `dropped_adds`). This
//! makes per-destination results **replayable**: an evaluation that knows
//! a destination's routing is unchanged (see the affectedness predicates
//! below) replays the recorded adds instead of re-running Dijkstra, and
//! the replay is bit-for-bit identical to a fresh computation because the
//! adds happen in the same order with the same values.
//!
//! Three sound skip conditions power the incremental fast paths:
//!
//! * [`dag_uses_any`] — a failure scenario leaves destination `t`'s
//!   routing untouched when none of the failed links lies on `t`'s
//!   shortest-path DAG (removing non-DAG links changes neither distances
//!   nor DAG membership). The predicate is a *mask diff*: it takes an
//!   arbitrary down-set of directed links, so it covers every scenario
//!   kind uniformly — one duplex pair (single-link failure), several
//!   pairs (SRLG, double-link), or the full incidence set of a router
//!   (node failure). For node failures the predicate also subsumes the
//!   traffic change: if the dead node `v` was reachable and sourced
//!   demand towards `t`, at least one of `v`'s out-links is on `t`'s DAG
//!   (the first hop of `v`'s shortest path), so `t` is flagged affected
//!   and re-routed; under the node mask `v` has no up out-link, its
//!   demand lands in `dropped_adds`, and the per-link load additions are
//!   bit-for-bit those of routing with `v`'s traffic removed.
//! * [`flow_uses_any`] — the sharper failure screen: past
//!   [`dag_uses_any`], a failure leaves `t`'s adds, drops and SLA pair
//!   delays untouched unless a down link carries `t`'s flow (appears in
//!   the record's `load_adds`). Its distance field may still move at
//!   nodes without inflow, so a record kept this way serves only the
//!   load replay and the flow delay DP.
//! * [`weight_change_affects`] — a weight move leaves `t` untouched when
//!   every changed link was off the DAG and stays strictly longer than
//!   the path it would shortcut (`dist[v] + w_new > dist[u]`): the old
//!   distance field remains a feasible potential, and every old shortest
//!   path is made of unchanged links.

use dtr_net::{LinkArc, LinkId, LinkMask, Network, NodeId};
use dtr_traffic::TrafficMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::spf;
use crate::UNREACHABLE;

/// Per-thread scratch buffers for SPF, ECMP accumulation and the delay
/// DP. Construct once (per thread) and reuse for every evaluation; all
/// buffers grow to the topology size on first use and are then stable —
/// no per-evaluation heap allocation in the steady state.
///
/// The repair kernel's per-node scratch is epoch-stamped: a node is in a
/// set iff its stamp equals the current epoch, so a repair clears
/// nothing per node. Each repair's epoch step sizes every per-node
/// buffer, and the short `moved` list, to the node count, so no repair
/// grows one after the first on a network.
#[derive(Debug, Default)]
pub struct SpfWorkspace {
    /// Dijkstra priority queue scratch.
    pub(crate) heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per-node inflow accumulator for the current destination.
    pub(crate) inflow: Vec<f64>,
    /// DAG out-arcs of the node the ECMP push is splitting.
    hops: Vec<LinkArc>,
    /// Per-node scratch for the delay/bottleneck DP.
    pub node_metric: Vec<f64>,
    /// Spare [`DestRouting`] used by [`crate::router::route_class_with`].
    pub(crate) dest: DestRouting,
    /// Epoch stamps of the repair kernel: nodes orphaned by its increase
    /// phase.
    orphan: Vec<u32>,
    /// Epoch stamps of the repair kernel: nodes its decrease phase
    /// lowered.
    lowered: Vec<u32>,
    /// Epoch stamps of the repair kernel: nodes whose DAG out-arcs may
    /// differ from the baseline's, so its push tests their out-arcs.
    hop_dirty: Vec<u32>,
    /// Epoch stamps of the repair kernel: nodes with a run in the
    /// baseline record's `load_adds`, located by `runs`.
    run_at: Vec<u32>,
    /// `[start, end)` of each stamped node's run in the baseline's
    /// `load_adds`.
    runs: Vec<(u32, u32)>,
    /// Current stamp epoch (0 = stamps unset).
    epoch: u32,
    /// Orphan candidates of the repair's increase phase (worklist).
    candidates: Vec<u32>,
    /// The orphans found so far, in discovery order.
    orphans: Vec<u32>,
    /// Settle sequence of the repair's increase phase (orphans, ascending
    /// `(dist, id)`).
    resettled: Vec<u32>,
    /// Settle sequence of the repair's decrease phase (ascending
    /// `(dist, id)`).
    relowered: Vec<u32>,
    /// The repair's re-settled and lowered nodes, in descending
    /// `(dist, id)` order: what its order merge splices into the
    /// baseline order.
    moved: Vec<u32>,
}

impl SpfWorkspace {
    /// Fresh workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the repair-stamp epoch for an `n`-node network, sizing the
    /// per-node scratch and clearing the stamps on wrap-around.
    fn next_epoch(&mut self, n: usize) -> u32 {
        for stamps in [
            &mut self.orphan,
            &mut self.lowered,
            &mut self.hop_dirty,
            &mut self.run_at,
        ] {
            stamps.resize(n, 0);
        }
        self.runs.resize(n, (0, 0));
        self.moved.clear();
        self.moved.reserve(n);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for stamps in [
                &mut self.orphan,
                &mut self.lowered,
                &mut self.hop_dirty,
                &mut self.run_at,
            ] {
                stamps.fill(0);
            }
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The complete routing outcome of one destination under one (weights,
/// mask) pair: the distance field, the topological order, and the exact
/// floating-point accumulation sequence of the ECMP load push.
#[derive(Debug, Default)]
pub struct DestRouting {
    /// `dist[v]` = weighted distance from `v` to the destination.
    pub dist: Vec<u64>,
    /// Reachable nodes in descending distance order, ties by ascending
    /// node id (DAG topological order, destination last) — exactly
    /// [`spf::descending_order`]'s permutation, derived without a sort.
    pub order: Vec<u32>,
    /// `(link, share)` adds in the order the router performs them (see
    /// [`DestRouting::load_adds`]).
    pub(crate) load_adds: Vec<(u32, f64)>,
    /// Unroutable demands in sender order (empty under survivable masks).
    pub(crate) dropped_adds: Vec<f64>,
}

impl Clone for DestRouting {
    fn clone(&self) -> Self {
        DestRouting {
            dist: self.dist.clone(),
            order: self.order.clone(),
            load_adds: self.load_adds.clone(),
            dropped_adds: self.dropped_adds.clone(),
        }
    }

    /// Field-wise `clone_from` so cache maintenance can re-copy a
    /// routing into an existing record without reallocating its buffers.
    fn clone_from(&mut self, source: &Self) {
        self.dist.clone_from(&source.dist);
        self.order.clone_from(&source.order);
        self.load_adds.clone_from(&source.load_adds);
        self.dropped_adds.clone_from(&source.dropped_adds);
    }
}

/// Bitwise equality: the same distance field and order, and the same
/// adds and drops bit for bit (floats compare by `to_bits`), so equal
/// records replay the same float operations.
impl PartialEq for DestRouting {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
            && self.order == other.order
            && self.load_adds.len() == other.load_adds.len()
            && self
                .load_adds
                .iter()
                .zip(&other.load_adds)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            && self.dropped_adds.len() == other.dropped_adds.len()
            && self
                .dropped_adds
                .iter()
                .zip(&other.dropped_adds)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl DestRouting {
    /// The recorded `(directed link, load share)` contribution sequence
    /// of this destination, in the order the router performed the adds.
    ///
    /// The sequence is **one run per node with inflow**, in push order
    /// (descending distance, ties by ascending id — the record's
    /// `order`), each run holding that node's DAG out-links in out-arc
    /// order, all with the same share. So each directed link appears at
    /// most once, a `(destination, link)` pair contributes a single
    /// share, and the links of the sequence are exactly the DAG out-links
    /// of the nodes with inflow: the links that carry this destination's
    /// flow. [`replay`](Self::replay) re-issues exactly these adds, so an
    /// engine that replays every destination's record in destination
    /// order reproduces a from-scratch load accumulation bit for bit;
    /// [`crate::delay::flow_pair_delays_into`] folds the runs backwards
    /// into the senders' delays, and [`flow_uses_any`] tests the failure
    /// screens against them.
    #[inline]
    pub fn load_adds(&self) -> &[(u32, f64)] {
        &self.load_adds
    }

    /// Bytes of resident routing state, computed from element counts
    /// (not vector capacities) so the figure is identical on every
    /// process and thread. Used by the delta-state caches' residency
    /// planners to size their per-scenario memory budget.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dist.len() * size_of::<u64>()
            + self.order.len() * size_of::<u32>()
            + self.load_adds.len() * size_of::<(u32, f64)>()
            + self.dropped_adds.len() * size_of::<f64>()
    }

    /// Grow every buffer to at least `other`'s capacity, exactly (no
    /// amortized doubling). Two records that take turns as a kernel's
    /// target and its result both reach the larger capacity once, so a
    /// pair that alternates stops allocating after its first round;
    /// without it the smaller record would regrow every time it fell
    /// short of the contents its partner had held.
    pub fn reserve_capacity_of(&mut self, other: &DestRouting) {
        fn grow<T>(v: &mut Vec<T>, cap: usize) {
            if v.capacity() < cap {
                v.reserve_exact(cap - v.len());
            }
        }
        grow(&mut self.dist, other.dist.capacity());
        grow(&mut self.order, other.order.capacity());
        grow(&mut self.load_adds, other.load_adds.capacity());
        grow(&mut self.dropped_adds, other.dropped_adds.capacity());
    }

    /// Replay the recorded accumulations into global per-link loads and
    /// the dropped-demand accumulator. Bit-for-bit identical to the adds
    /// a fresh [`route_destination`] performs.
    #[inline]
    pub fn replay(&self, loads: &mut [f64], dropped: &mut f64) {
        for &d in &self.dropped_adds {
            *dropped += d;
        }
        for &(l, share) in &self.load_adds {
            loads[l as usize] += share;
        }
    }
}

/// Route all demand sinking at destination `t`: reverse Dijkstra plus the
/// evenly-split ECMP push, recorded into `out` (previous contents are
/// discarded; buffer capacity is reused).
///
/// This is the single source of truth for per-destination routing — both
/// [`crate::route_class`] and the incremental cost engine are built on it,
/// which is what makes their results bit-for-bit interchangeable. The
/// topological order is read off Dijkstra's settle sequence (no sort):
/// see [`spf::dist_to_into`]'s settle kernel.
pub fn route_destination(
    net: &Network,
    weights: &[u32],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    ws: &mut SpfWorkspace,
    out: &mut DestRouting,
) {
    let DestRouting { dist, order, .. } = out;
    order.clear();
    spf::settle_into(
        net,
        NodeId::new(t),
        weights,
        mask,
        dist,
        &mut ws.heap,
        |v| order.push(v),
    );
    spf::settle_order_to_descending(dist, order);
    ecmp_push(
        net,
        weights,
        tm,
        mask,
        t,
        &mut ws.inflow,
        &mut ws.hops,
        out,
        |_| None,
    );
}

/// The ECMP push every route kernel ends with: seed each sender's demand
/// towards `t` as inflow (or record it as dropped when the sender cannot
/// reach `t`), then walk `out.order` — farthest node first — splitting
/// each node's inflow evenly over its DAG out-arcs, recording every
/// `(link, share)` add. `out.dist` and `out.order` must already describe
/// the routing; the adds and drops are overwritten.
///
/// One function for the full route and both repairs. Each node's DAG
/// out-arcs are gathered once, in out-arc order, and the same arcs then
/// receive the share in the same order, so every float operation is the
/// one the router has always performed. `recorded(u)` may hand over
/// `u`'s hop list as a run of a baseline record's adds — the repair's
/// hop reuse, for a node whose DAG out-arcs provably did not change —
/// and the push then reads that run's links instead of testing every
/// out-arc; [`route_destination`] passes `|_| None`, the plain DAG scan.
#[allow(clippy::too_many_arguments)] // the full per-destination context
fn ecmp_push<'r>(
    net: &Network,
    weights: &[u32],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    inflow: &mut Vec<f64>,
    hops: &mut Vec<LinkArc>,
    out: &mut DestRouting,
    recorded: impl Fn(usize) -> Option<&'r [(u32, f64)]>,
) {
    let n = net.num_nodes();
    let DestRouting {
        dist,
        order,
        load_adds,
        dropped_adds,
    } = out;
    load_adds.clear();
    dropped_adds.clear();
    inflow.clear();
    inflow.resize(n, 0.0);
    for s in 0..n {
        if s == t {
            continue;
        }
        let demand = tm.demand(s, t);
        if demand <= 0.0 {
            continue;
        }
        if dist[s] == UNREACHABLE {
            dropped_adds.push(demand);
        } else {
            inflow[s] += demand;
        }
    }

    // Push flow down the DAG in topological order (descending dist).
    for &u in order.iter() {
        let u = u as usize;
        if u == t || inflow[u] == 0.0 {
            continue;
        }
        hops.clear();
        if let Some(run) = recorded(u) {
            hops.extend(run.iter().map(|&(l, _)| {
                let link = LinkId::new(l as usize);
                LinkArc {
                    link,
                    far: net.link(link).dst,
                }
            }));
        } else {
            let du = dist[u];
            for arc in net.out_arcs(NodeId::new(u)) {
                if spf::on_dag_arc(dist, weights, mask, du, arc.link.index(), arc.far.index()) {
                    hops.push(*arc);
                }
            }
        }
        debug_assert!(
            !hops.is_empty(),
            "reachable non-destination node must have a DAG out-link"
        );
        let share = inflow[u] / hops.len() as f64;
        for arc in hops.iter() {
            load_adds.push((arc.link.index() as u32, share));
            let v = arc.far.index();
            if v != t {
                inflow[v] += share;
            }
        }
        inflow[u] = 0.0;
    }
}

/// [`route_destination`] that *repairs* the destination's routing from
/// its all-links-up baseline instead of running a fresh full Dijkstra —
/// the delta-state engines' fast path for mask-affected destinations.
///
/// `base` must be the destination's routing under the **same weights**
/// with **all links up**; `mask` fails an arbitrary link set. Because a
/// failure can only *remove* paths, distances can only grow: this is
/// the increase phase of [`route_destination_reweight`]'s kernel with no
/// weight change (see there for the two phases, the order merge and why
/// the record equals a from-scratch route bit for bit).
#[allow(clippy::too_many_arguments)] // the full per-destination context
pub fn route_destination_repair(
    net: &Network,
    weights: &[u32],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    base: &DestRouting,
    ws: &mut SpfWorkspace,
    out: &mut DestRouting,
) {
    repair_destination(
        net,
        weights,
        weights,
        &[],
        mask.down_links(),
        tm,
        mask,
        t,
        base,
        ws,
        out,
    );
}

/// [`route_destination`] under `weights` that *repairs* the destination's
/// routing under `old_weights` instead of running a fresh full Dijkstra —
/// the engines' refresh path for a weight move.
///
/// `base` must be the destination's routing under `old_weights` and the
/// same `mask`, and `changes` must list exactly the links whose weight
/// differs between the two settings. The shared incremental kernel runs
/// in two phases:
///
/// 1. **Increases** — under the intermediate weights `max(old, new)`
///    (distances can only grow), a node is *orphaned* iff every
///    baseline-DAG out-arc rose in weight, is masked down, or leads to an
///    orphan; a worklist finds the orphans from the tails of the rising
///    baseline-DAG links, visiting only the affected region. A
///    non-orphan inductively keeps a shortest path of
///    unchanged-or-lowered links, so its distance is exactly its
///    baseline distance; the orphans are re-settled by a boundary
///    Dijkstra seeded through their non-orphan neighbours.
/// 2. **Decreases** — a Dijkstra seeded at the tails of the links whose
///    weight fell (distances can only shrink), relaxing over `weights`.
///
/// Both Dijkstras key their heap by `(dist, id)` and push a node only on
/// a strict improvement, so each settles its nodes once, in ascending
/// `(dist, id)` order, which a linear pass turns into descending order
/// (see [`spf::dist_to_into`]'s settle kernel). The final order
/// therefore needs no sort: phase 1's re-settled nodes minus those
/// phase 2 lowered merge with phase 2's into one short `moved` list,
/// and one pass over the baseline order, skipping orphans and lowered
/// nodes, emits before each kept node the moved nodes whose
/// `(dist descending, id ascending)` key comes first — exactly
/// [`spf::descending_order`]'s permutation.
///
/// The push is [`route_destination`]'s with **hop reuse**: a node's DAG
/// out-arcs depend only on its out-links' weights and states, its own
/// distance and its out-arcs' heads' distances. The kernel stamps as
/// hop-dirty every node where one of these may have moved — the tails
/// of the rising or failed links on the baseline DAG, the tails of the
/// falling links that are up, every orphan and lowered node, and every
/// in-neighbour `u` of those whose arc `u → v` lay on the baseline DAG
/// or lies on the new one — and every other node that has a run in
/// `base`'s adds takes that run, its baseline DAG out-arcs in out-arc
/// order, as its hops. Seeding, shares and every inflow add are the
/// full push's. Distances are exact integers, so the record is
/// bit-for-bit a from-scratch route under `weights` (pinned by
/// `reweight_route_equals_full_route` in `tests/spf_incremental.rs`).
#[allow(clippy::too_many_arguments)] // the full per-destination context
pub fn route_destination_reweight(
    net: &Network,
    old_weights: &[u32],
    weights: &[u32],
    changes: &[WeightChange],
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    base: &DestRouting,
    ws: &mut SpfWorkspace,
    out: &mut DestRouting,
) {
    let rising = changes
        .iter()
        .filter(|c| c.new > c.old)
        .map(|c| c.link.index());
    repair_destination(
        net,
        old_weights,
        weights,
        changes,
        rising,
        tm,
        mask,
        t,
        base,
        ws,
        out,
    );
}

/// The one incremental route kernel behind [`route_destination_repair`]
/// (failures: `old_weights == weights`, no changes, the down links
/// rising) and [`route_destination_reweight`] (weight moves); see the
/// latter for the algorithm, the order merge and the hop reuse.
/// `rising` yields every link that rose in weight or failed — the tails
/// of those on the baseline DAG seed the orphan worklist and are
/// hop-dirty.
#[allow(clippy::too_many_arguments)] // the full per-destination context
fn repair_destination(
    net: &Network,
    old_weights: &[u32],
    weights: &[u32],
    changes: &[WeightChange],
    rising: impl Iterator<Item = usize>,
    tm: &TrafficMatrix,
    mask: &LinkMask,
    t: usize,
    base: &DestRouting,
    ws: &mut SpfWorkspace,
    out: &mut DestRouting,
) {
    let epoch = ws.next_epoch(net.num_nodes());
    let SpfWorkspace {
        heap,
        inflow,
        hops,
        orphan,
        lowered,
        hop_dirty,
        run_at,
        runs,
        candidates,
        orphans,
        resettled,
        relowered,
        moved,
        ..
    } = ws;
    out.dist.clone_from(&base.dist);
    let dist = &mut out.dist;
    resettled.clear();
    relowered.clear();
    heap.clear();

    // 1a. Orphans. A node is orphaned iff every baseline-DAG out-arc
    //     rose, failed, or leads to an orphan — a well-founded rule
    //     (DAG arcs descend in distance) whose unique solution the
    //     worklist reaches from the tails of the rising DAG links,
    //     re-checking a node's DAG predecessors whenever it is orphaned.
    //     Only the affected region is visited.
    let on_base_dag = |du: u64, dv: u64, l: usize| dv < du && du - dv == u64::from(old_weights[l]);
    candidates.clear();
    orphans.clear();
    for l in rising {
        let link = net.link(LinkId::new(l));
        let u = link.src.index();
        if on_base_dag(base.dist[u], base.dist[link.dst.index()], l) {
            candidates.push(u as u32);
            hop_dirty[u] = epoch;
        }
    }
    while let Some(u) = candidates.pop() {
        let u = u as usize;
        if orphan[u] == epoch {
            continue;
        }
        let du = base.dist[u];
        let survives = net.out_arcs(NodeId::new(u)).iter().any(|arc| {
            let (l, v) = (arc.link.index(), arc.far.index());
            on_base_dag(du, base.dist[v], l)
                && weights[l] <= old_weights[l]
                && mask.is_up(l)
                && orphan[v] != epoch
        });
        if survives {
            continue;
        }
        orphan[u] = epoch;
        orphans.push(u as u32);
        for arc in net.in_arcs(NodeId::new(u)) {
            let y = arc.far.index();
            if orphan[y] != epoch && on_base_dag(base.dist[y], du, arc.link.index()) {
                candidates.push(y as u32);
            }
        }
    }
    let any_orphan = !orphans.is_empty();

    // 1b. Boundary Dijkstra over the orphans under max(old, new). The
    //     heap's keys alone fix the settle sequence, so the seeding order
    //     is immaterial.
    if any_orphan {
        for &u in orphans.iter() {
            let u = u as usize;
            dist[u] = UNREACHABLE;
            let mut best = UNREACHABLE;
            for arc in net.out_arcs(NodeId::new(u)) {
                let (l, v) = (arc.link.index(), arc.far.index());
                if mask.is_down(l) || orphan[v] == epoch || base.dist[v] == UNREACHABLE {
                    continue;
                }
                let d = base.dist[v] + u64::from(weights[l].max(old_weights[l]));
                if d < best {
                    best = d;
                }
            }
            if best != UNREACHABLE {
                dist[u] = best;
                heap.push(Reverse((best, u as u32)));
            }
        }
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            resettled.push(u);
            for arc in net.in_arcs(NodeId::new(u as usize)) {
                let (l, v) = (arc.link.index(), arc.far.index());
                if mask.is_down(l) || orphan[v] != epoch {
                    continue; // settled at its exact baseline distance
                }
                let nd = d + u64::from(weights[l].max(old_weights[l]));
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v as u32)));
                }
            }
        }
        // Into merge order while `dist` still holds the phase-1 values.
        spf::settle_order_to_descending(dist, resettled);
    }

    // 2. Decreases: Dijkstra from the tails of the links whose weight
    //    fell, over the final weights.
    for c in changes.iter().filter(|c| c.new < c.old) {
        let l = c.link.index();
        debug_assert_eq!(weights[l], c.new, "change list out of date");
        if mask.is_down(l) {
            continue;
        }
        let link = net.link(c.link);
        let (u, dv) = (link.src.index(), dist[link.dst.index()]);
        hop_dirty[u] = epoch;
        if dv == UNREACHABLE {
            continue;
        }
        let nd = dv + u64::from(c.new);
        if nd < dist[u] {
            dist[u] = nd;
            heap.push(Reverse((nd, u as u32)));
        }
    }
    while let Some(Reverse((d, x))) = heap.pop() {
        if d > dist[x as usize] {
            continue;
        }
        lowered[x as usize] = epoch;
        relowered.push(x);
        for arc in net.in_arcs(NodeId::new(x as usize)) {
            let (l, y) = (arc.link.index(), arc.far.index());
            if mask.is_down(l) {
                continue;
            }
            let nd = d + u64::from(weights[l]);
            if nd < dist[y] {
                dist[y] = nd;
                heap.push(Reverse((nd, y as u32)));
            }
        }
    }
    spf::settle_order_to_descending(dist, relowered);

    // 3. Hop-dirty region, beside the changed links' tails stamped
    //    above: only the orphans and the lowered nodes can move, so only
    //    they and the in-neighbours whose arc into them lay on the
    //    baseline DAG or lies on the new one may change hop lists.
    for &v in orphans.iter().chain(relowered.iter()) {
        let v = v as usize;
        hop_dirty[v] = epoch;
        for arc in net.in_arcs(NodeId::new(v)) {
            let (l, u) = (arc.link.index(), arc.far.index());
            if on_base_dag(base.dist[u], base.dist[v], l)
                || spf::on_dag_arc(dist, weights, mask, dist[u], l, v)
            {
                hop_dirty[u] = epoch;
            }
        }
    }

    // 4. Order: merge phase 1's survivors and phase 2's sequence, both
    //    descending, into `moved`, then splice it into the baseline
    //    order's kept nodes by (dist descending, id ascending) — the
    //    total key of `spf::descending_order`.
    let DestRouting { dist, order, .. } = &mut *out;
    order.clear();
    if !any_orphan && relowered.is_empty() {
        // No distance moved.
        order.extend_from_slice(&base.order);
    } else {
        let first = |x: u32, y: u32| {
            let (dx, dy) = (dist[x as usize], dist[y as usize]);
            dx > dy || (dx == dy && x < y)
        };
        let mut fell = relowered.iter().copied().peekable();
        for v in resettled
            .iter()
            .copied()
            .filter(|&v| lowered[v as usize] != epoch)
        {
            while let Some(y) = fell.next_if(|&y| first(y, v)) {
                moved.push(y);
            }
            moved.push(v);
        }
        moved.extend(fell);
        let mut next = moved.iter().copied().peekable();
        for &v in base.order.iter() {
            if orphan[v as usize] == epoch || lowered[v as usize] == epoch {
                continue;
            }
            while let Some(y) = next.next_if(|&y| first(y, v)) {
                order.push(y);
            }
            order.push(v);
        }
        order.extend(next);
    }

    // 5. Index the baseline's runs (one per node with inflow, in push
    //    order) and push, reusing the run of every clean node.
    let mut prev = usize::MAX;
    for (i, &(l, _)) in base.load_adds.iter().enumerate() {
        let u = net.link(LinkId::new(l as usize)).src.index();
        if u != prev {
            run_at[u] = epoch;
            runs[u].0 = i as u32;
            prev = u;
        }
        runs[u].1 = i as u32 + 1;
    }
    let (hop_dirty, run_at, runs) = (&*hop_dirty, &*run_at, &*runs);
    ecmp_push(net, weights, tm, mask, t, inflow, hops, out, |u| {
        (run_at[u] == epoch && hop_dirty[u] != epoch).then(|| {
            let (s, e) = runs[u];
            &base.load_adds[s as usize..e as usize]
        })
    });
}

/// `true` if any of the directed links in `down` lies on the shortest-path
/// DAG implied by `dist` (distances computed with **all links up** and the
/// same `weights`). When this returns `false`, failing exactly those links
/// changes neither the distance field nor the DAG of this destination.
///
/// `down` is an arbitrary down-set: the duplex pair of a single-link
/// failure, the union of several pairs (SRLG, double-link), or the full
/// incidence set of a failed router — any mask diff a
/// [`crate::Scenario`] can induce (`Scenario::mask_into` followed by
/// `LinkMask::down_links`).
pub fn dag_uses_any(net: &Network, dist: &[u64], weights: &[u32], down: &[u32]) -> bool {
    down.iter().any(|&l| {
        let link = net.link(LinkId::new(l as usize));
        let (u, v) = (link.src.index(), link.dst.index());
        dist[u] != UNREACHABLE
            && dist[v] != UNREACHABLE
            && dist[u] == dist[v] + u64::from(weights[l as usize])
    })
}

/// `true` unless failing the directed links in `down` provably leaves the
/// routing `r` — the destination's routing with **all links up** under
/// the same `weights` — bit-identical: the same adds and drops, and the
/// same delays of every demanding sender through
/// [`crate::delay::flow_pair_delays_into`].
///
/// [`dag_uses_any`] runs first as a cheap filter; past it, the answer is
/// whether a down link carries flow, i.e. appears in
/// [`DestRouting::load_adds`]. Exact because the adds are the DAG
/// out-links of the nodes with inflow: when none of them is down, every
/// node with inflow — every sender that reaches `t` among them — keeps
/// its distance and its DAG out-arcs, nodes without inflow send nothing,
/// a sender that cannot reach `t` still cannot (a failure only removes
/// paths), and the push repeats the same float operations. A record with a zero share — its heads may carry no
/// inflow and no add, yet lie on a sender's paths — answers as
/// [`dag_uses_any`] does.
///
/// A kept record keeps its all-up `dist` and `order`, which differ from
/// the masked route's at nodes without inflow; only the load replay and
/// the flow delay DP may read it.
pub fn flow_uses_any(net: &Network, r: &DestRouting, weights: &[u32], down: &[u32]) -> bool {
    dag_uses_any(net, &r.dist, weights, down)
        && r.load_adds
            .iter()
            .any(|&(l, share)| share == 0.0 || down.contains(&l))
}

/// One directed-link weight change, for [`weight_change_affects`].
#[derive(Clone, Copy, Debug)]
pub struct WeightChange {
    pub link: LinkId,
    pub old: u32,
    pub new: u32,
}

/// `true` when applying `changes` may alter the distance field or DAG of
/// the destination whose **no-failure** distances under the old weights
/// are `dist`. A `false` answer is a proof of equality:
///
/// * every changed link was off the DAG (`dist[u] != dist[v] + old`), so
///   all old shortest paths consist of unchanged links — distances cannot
///   increase;
/// * every changed link stays strictly non-improving
///   (`dist[v] + new > dist[u]`), so the old distance field remains a
///   feasible potential — distances cannot decrease, and the link stays
///   off the DAG.
pub fn weight_change_affects(net: &Network, dist: &[u64], changes: &[WeightChange]) -> bool {
    changes.iter().any(|c| {
        let link = net.link(c.link);
        let (u, v) = (link.src.index(), link.dst.index());
        if dist[v] == UNREACHABLE {
            // A link into a node that cannot reach the destination can
            // never carry a shortest path, at any weight.
            return false;
        }
        if dist[u] == UNREACHABLE {
            // Unreachable tail with reachable head cannot happen with all
            // links up, but stay conservative for exotic masks.
            return true;
        }
        let on_dag_old = dist[u] == dist[v] + u64::from(c.old);
        on_dag_old || dist[v] + u64::from(c.new) <= dist[u]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_class;
    use dtr_net::{NetworkBuilder, Point};

    /// Diamond: 0 -> {1, 2} -> 3, plus direct 0 -> 3. All duplex.
    fn diamond() -> Network {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
        for &(x, y) in &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)] {
            b.add_duplex_link(n[x], n[y], 1e9, 1e-3).unwrap();
        }
        b.build().unwrap()
    }

    fn link_between(net: &Network, s: usize, t: usize) -> usize {
        net.links()
            .find(|&l| net.link(l).src.index() == s && net.link(l).dst.index() == t)
            .unwrap()
            .index()
    }

    #[test]
    fn replay_matches_direct_routing() {
        let net = diamond();
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(0, 3, 90.0);
        tm.set(1, 3, 10.0);
        let mut w = vec![1u32; net.num_links()];
        w[link_between(&net, 0, 3)] = 2; // three-way ECMP tie at node 0
        let mask = net.fresh_mask();

        let reference = route_class(&net, &w, &tm, &mask);

        let mut ws = SpfWorkspace::new();
        let mut dest = DestRouting::default();
        route_destination(&net, &w, &tm, &mask, 3, &mut ws, &mut dest);
        let mut loads = vec![0.0; net.num_links()];
        let mut dropped = 0.0;
        dest.replay(&mut loads, &mut dropped);

        assert_eq!(loads, reference.loads);
        assert_eq!(dropped, reference.dropped);
        assert_eq!(Some(dest.dist.as_slice()), reference.dist_to(3));
    }

    #[test]
    fn dropped_adds_record_unroutable_demand() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        b.add_duplex_link(a, c, 1e9, 1e-3).unwrap();
        let net = b.build().unwrap();
        let mut tm = TrafficMatrix::zeros(2);
        tm.set(0, 1, 42.0);
        let mask = net.fail_duplex(dtr_net::LinkId::new(0));
        let mut ws = SpfWorkspace::new();
        let mut dest = DestRouting::default();
        route_destination(&net, &[1, 1], &tm, &mask, 1, &mut ws, &mut dest);
        let mut loads = vec![0.0; 2];
        let mut dropped = 0.0;
        dest.replay(&mut loads, &mut dropped);
        assert_eq!(dropped, 42.0);
        assert!(loads.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn unaffected_failure_is_detected() {
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        // With unit weights, node 0 routes directly; links 0->1 and 0->2
        // are off the DAG towards 3... but 1->3 and 2->3 are on it (for
        // sources 1 and 2). The direct link is on the DAG.
        let direct = link_between(&net, 0, 3) as u32;
        assert!(dag_uses_any(&net, &dist, &w, &[direct]));
        // The reverse direction 3->0 is never on the DAG towards 3.
        let rev = link_between(&net, 3, 0) as u32;
        assert!(!dag_uses_any(&net, &dist, &w, &[rev]));
    }

    #[test]
    fn node_failure_down_set_flags_senders_and_transit() {
        // The down-set of a node failure (all incident directed links)
        // must flag every destination whose DAG touches the dead node —
        // which includes every destination the node sends to.
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let mask = crate::Scenario::Node(NodeId::new(1)).mask(&net);
        let down: Vec<u32> = mask.down_links().map(|i| i as u32).collect();
        assert_eq!(down.len(), 4); // 0<->1 and 1<->3

        // Destination 3: node 1 routes via 1->3, so the DAG uses a down
        // link.
        let dist3 = spf::dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        assert!(dag_uses_any(&net, &dist3, &w, &down));
        // And under the node mask, node 1 is unreachable towards 3: its
        // demand drops rather than loading any link.
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(1, 3, 7.0);
        tm.set(0, 3, 5.0);
        let mut ws = SpfWorkspace::new();
        let mut dest = DestRouting::default();
        route_destination(&net, &w, &tm, &mask, 3, &mut ws, &mut dest);
        assert_eq!(dest.dist[1], crate::UNREACHABLE);
        let mut loads = vec![0.0; net.num_links()];
        let mut dropped = 0.0;
        dest.replay(&mut loads, &mut dropped);
        assert_eq!(dropped, 7.0);
        // Node 0's 5 units still ride the direct link, untouched by node
        // 1's removal — exactly what routing a zeroed row would yield.
        let direct = link_between(&net, 0, 3);
        assert_eq!(loads[direct], 5.0);

        // A node's down-set contains its shortest-path first hop towards
        // every destination it can reach, so in a connected topology it
        // conservatively flags *every* destination — which is what makes
        // replaying the remainder sound (a replayed destination provably
        // never saw the dead node at all).
        for t in [0usize, 2, 3] {
            let dist = spf::dist_to(&net, NodeId::new(t), &w, &net.fresh_mask());
            assert!(dag_uses_any(&net, &dist, &w, &down), "dest {t}");
        }
    }

    #[test]
    fn weight_change_predicate_is_sound() {
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let mask = net.fresh_mask();
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &mask);
        let l01 = link_between(&net, 0, 1);

        // 0->1 is on the DAG towards 3 only via... dist[0]=1, dist[1]=1:
        // 1 != 1 + 1, so it is off the DAG; raising its weight cannot
        // matter, lowering it to 0 is illegal, keeping >= 1 keeps
        // dist[1] + w = 2 > 1 = dist[0].
        let raise = WeightChange {
            link: LinkId::new(l01),
            old: 1,
            new: 10,
        };
        assert!(!weight_change_affects(&net, &dist, &[raise]));
        let mut w2 = w.clone();
        w2[l01] = 10;
        assert_eq!(dist, spf::dist_to(&net, NodeId::new(3), &w2, &mask));

        // Lowering the direct link 0->3 from 5 to 1 must flag as affected.
        let l03 = link_between(&net, 0, 3);
        let mut w3 = w.clone();
        w3[l03] = 5;
        let dist3 = spf::dist_to(&net, NodeId::new(3), &w3, &mask);
        let lower = WeightChange {
            link: LinkId::new(l03),
            old: 5,
            new: 1,
        };
        assert!(weight_change_affects(&net, &dist3, &[lower]));
    }

    /// One repair job: the new weights, their change list (empty for a
    /// failure) and the mask.
    type Job = (Vec<u32>, Vec<WeightChange>, LinkMask);

    /// Repair destination `t` from `base` (the all-up route under `w`)
    /// by `job`, through the front door its kind uses.
    fn repair_job(
        net: &Network,
        w: &[u32],
        tm: &TrafficMatrix,
        (new_w, changes, mask): &Job,
        t: usize,
        base: &DestRouting,
        ws: &mut SpfWorkspace,
    ) -> DestRouting {
        let mut out = DestRouting::default();
        if changes.is_empty() {
            route_destination_repair(net, w, tm, mask, t, base, ws, &mut out);
        } else {
            route_destination_reweight(net, w, new_w, changes, tm, mask, t, base, ws, &mut out);
        }
        out
    }

    /// The wrap branch of `next_epoch` must clear every stamp a repair
    /// reads as "set": a first repair leaves stamps that hold 1, the
    /// epoch jumps to `u32::MAX`, and the next repair runs at epoch 1
    /// again. Over every ordered pair of (job, destination) repairs on a
    /// small meshed network under sparse demand — single-link failures
    /// and weight moves — a fresh workspace runs the first, wraps, and
    /// runs the second; both records must equal the full route's. A
    /// stale orphan stamp skips a real orphan, a stale lowered stamp
    /// drops a kept node from the order, and a stale run stamp hands the
    /// push a run of another baseline. (A stale hop-dirty stamp only
    /// costs the push a DAG scan, so it cannot fail this test.)
    #[test]
    fn repair_across_epoch_wrap_equals_full_route() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut b = NetworkBuilder::new();
        let nodes: Vec<_> = (0..7).map(|_| b.add_node(Point::ORIGIN)).collect();
        for &(x, y) in &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 0),
            (0, 3),
            (1, 5),
            (2, 6),
        ] {
            b.add_duplex_link(nodes[x], nodes[y], 1e9, 1e-3).unwrap();
        }
        let net = b.build().unwrap();
        let n = net.num_nodes();
        let mut rng = StdRng::seed_from_u64(7);
        let w: Vec<u32> = (0..net.num_links()).map(|_| rng.gen_range(1..=3)).collect();
        let mut tm = TrafficMatrix::zeros(n);
        for s in 0..n {
            for t in 0..n {
                if s != t && rng.gen_bool(0.3) {
                    tm.set(s, t, rng.gen_range(1.0..100.0));
                }
            }
        }
        let mut jobs: Vec<Job> = net
            .duplex_representatives()
            .into_iter()
            .map(|rep| (w.clone(), Vec::new(), net.fail_duplex(rep)))
            .collect();
        let failures = jobs.len();
        while jobs.len() < failures + 8 {
            let mut new_w = w.clone();
            for _ in 0..2 {
                new_w[rng.gen_range(0..net.num_links())] = rng.gen_range(1..=3);
            }
            let changes: Vec<WeightChange> = (0..net.num_links())
                .filter(|&l| new_w[l] != w[l])
                .map(|l| WeightChange {
                    link: LinkId::new(l),
                    old: w[l],
                    new: new_w[l],
                })
                .collect();
            if !changes.is_empty() {
                jobs.push((new_w, changes, net.fresh_mask()));
            }
        }

        let mut ws = SpfWorkspace::new();
        let base: Vec<DestRouting> = (0..n)
            .map(|t| {
                let mut r = DestRouting::default();
                route_destination(&net, &w, &tm, &net.fresh_mask(), t, &mut ws, &mut r);
                r
            })
            .collect();
        let mut cases = Vec::new();
        for job in &jobs {
            for t in 0..n {
                let mut full = DestRouting::default();
                route_destination(&net, &job.0, &tm, &job.2, t, &mut ws, &mut full);
                cases.push((job, t, full));
            }
        }
        for (ja, ta, full_a) in &cases {
            for (jb, tb, full_b) in &cases {
                let mut ws = SpfWorkspace::new();
                let a = repair_job(&net, &w, &tm, ja, *ta, &base[*ta], &mut ws);
                assert_eq!(ws.epoch, 1);
                ws.epoch = u32::MAX;
                let b = repair_job(&net, &w, &tm, jb, *tb, &base[*tb], &mut ws);
                assert_eq!(ws.epoch, 1, "the epoch wrapped");
                assert!(a == *full_a, "first repair, dest {ta}");
                assert!(b == *full_b, "repair across the wrap, dest {tb}");
            }
        }
    }
}
