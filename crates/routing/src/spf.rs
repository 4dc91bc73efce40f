//! Shortest-path first: reverse Dijkstra per destination.
//!
//! IGP routing is destination-based, so all machinery is organized per
//! destination `t`: one reverse Dijkstra yields `dist_to[v]` = weighted
//! distance from every `v` to `t`, and the ECMP shortest-path DAG falls out
//! as the set of up links `(u, v)` with `w(u,v) + dist_to[v] == dist_to[u]`.
//! Weights are integers ≥ 1, so distances along DAG edges strictly
//! decrease — the DAG is acyclic by construction, which the load
//! accumulation and delay DP rely on.

use dtr_net::{LinkMask, Network, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::UNREACHABLE;

/// Reverse Dijkstra: weighted distance from every node **to** `dest` over
/// up links, using `weights[link_id]`. Unreachable nodes get
/// [`UNREACHABLE`].
///
/// Allocating convenience wrapper around [`dist_to_into`]; the hot loops
/// use the latter with buffers from a [`crate::SpfWorkspace`].
///
/// # Panics
/// Panics (debug) if `weights` has the wrong length or contains a zero.
pub fn dist_to(net: &Network, dest: NodeId, weights: &[u32], mask: &LinkMask) -> Vec<u64> {
    let mut dist = Vec::new();
    let mut heap = BinaryHeap::new();
    dist_to_into(net, dest, weights, mask, &mut dist, &mut heap);
    dist
}

/// Allocation-free reverse Dijkstra: fills `dist` (resized/overwritten to
/// `net.num_nodes()`) with the weighted distance from every node to `dest`
/// over up links. `heap` is caller scratch; it is cleared on entry and
/// left empty on exit, so its capacity amortizes across calls.
///
/// Produces bit-for-bit the same distances as [`dist_to`].
///
/// # Panics
/// Panics (debug) if `weights` has the wrong length or contains a zero.
pub fn dist_to_into(
    net: &Network,
    dest: NodeId,
    weights: &[u32],
    mask: &LinkMask,
    dist: &mut Vec<u64>,
    heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
) {
    settle_into(net, dest, weights, mask, dist, heap, |_| {});
}

/// The reverse Dijkstra behind [`dist_to_into`], reporting every node to
/// `settled` as it settles.
///
/// The heap key is `(distance, node id)` and weights are ≥ 1, so every
/// reachable node settles exactly once, in ascending `(distance, id)`
/// order: when the smallest key in the heap has distance `d`, every node
/// at distance `< d` has settled and has pushed each node at distance `d`
/// with its final key, and a key is only pushed on a strict improvement,
/// so no node is pushed twice with the same key. The settle sequence is
/// therefore the reverse of [`descending_order`]'s permutation up to the
/// order inside each run of equal distance, which
/// [`settle_order_to_descending`] restores — a topological order with no
/// sort.
pub(crate) fn settle_into(
    net: &Network,
    dest: NodeId,
    weights: &[u32],
    mask: &LinkMask,
    dist: &mut Vec<u64>,
    heap: &mut BinaryHeap<Reverse<(u64, u32)>>,
    mut settled: impl FnMut(u32),
) {
    debug_assert_eq!(weights.len(), net.num_links(), "one weight per link");
    debug_assert!(
        weights.iter().all(|&w| w >= 1),
        "weights must be strictly positive"
    );
    let n = net.num_nodes();
    dist.clear();
    dist.resize(n, UNREACHABLE);
    heap.clear();
    dist[dest.index()] = 0;
    heap.push(Reverse((0, dest.index() as u32)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        settled(v);
        // Traverse incoming arcs of v: they extend paths *to* dest.
        for arc in net.in_arcs(NodeId::new(v as usize)) {
            let l = arc.link.index();
            if mask.is_down(l) {
                continue;
            }
            let u = arc.far.index();
            let nd = d + u64::from(weights[l]);
            if nd < dist[u] {
                dist[u] = nd;
                heap.push(Reverse((nd, u as u32)));
            }
        }
    }
}

/// Turn a settle sequence — reachable nodes in ascending
/// `(dist, id)` order, as [`settle_into`] reports them — into
/// [`descending_order_into`]'s permutation in place: reverse the whole
/// sequence, then re-reverse each run of equal distance so ties come
/// back in ascending id order. Linear time; pinned against the sort by
/// the oracle assertions in `tests/spf_incremental.rs`.
pub(crate) fn settle_order_to_descending(dist: &[u64], order: &mut [u32]) {
    order.reverse();
    let mut start = 0;
    while start < order.len() {
        let d = dist[order[start] as usize];
        let mut end = start + 1;
        while end < order.len() && dist[order[end] as usize] == d {
            end += 1;
        }
        order[start..end].reverse();
        start = end;
    }
}

/// Reverse Dijkstra over **real-valued** per-link costs: the minimum
/// cost from every node to `dest` over up links, `f64::INFINITY` where
/// unreachable. Used with propagation delays as costs, this yields the
/// physically best possible end-to-end delay of each pair under a
/// failure mask — the load- and routing-independent floor behind the
/// engine's Λ lower bound (`Engine::scenario_floor` in `dtr-cost`). No
/// search reads that bound any more; it leaves together with the
/// benchmark probe that times it (perfbench's `cost.floor_us`).
///
/// # Panics
/// Panics (debug) if `costs` has the wrong length or holds a negative
/// or non-finite cost.
pub fn min_cost_to(net: &Network, dest: NodeId, costs: &[f64], mask: &LinkMask) -> Vec<f64> {
    debug_assert_eq!(costs.len(), net.num_links(), "one cost per link");
    debug_assert!(
        costs.iter().all(|&c| c.is_finite() && c >= 0.0),
        "costs must be finite and non-negative"
    );
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    // f64 keys ordered via the IEEE total order (all keys are
    // non-negative and finite, where total order = numeric order).
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let key = |d: f64| d.to_bits();
    dist[dest.index()] = 0.0;
    heap.push(Reverse((key(0.0), dest.index() as u32)));
    while let Some(Reverse((d, v))) = heap.pop() {
        let v = v as usize;
        let d = f64::from_bits(d);
        if d > dist[v] {
            continue;
        }
        for &l in net.in_links(NodeId::new(v)) {
            if mask.is_down(l.index()) {
                continue;
            }
            let u = net.link(l).src.index();
            let nd = d + costs[l.index()];
            if nd < dist[u] {
                dist[u] = nd;
                heap.push(Reverse((key(nd), u as u32)));
            }
        }
    }
    dist
}

/// `true` if link `l` lies on the shortest-path DAG towards the destination
/// whose distance field is `dist` (i.e. `l` is used by ECMP routing to that
/// destination). The cold per-link form; the routing kernels inline
/// the same test over packed arcs instead.
#[inline]
pub fn on_dag(net: &Network, dist: &[u64], weights: &[u32], mask: &LinkMask, l: usize) -> bool {
    if mask.is_down(l) {
        return false;
    }
    let link = net.link(dtr_net::LinkId::new(l));
    let (u, v) = (link.src.index(), link.dst.index());
    dist[u] != UNREACHABLE && dist[v] != UNREACHABLE && dist[u] == dist[v] + u64::from(weights[l])
}

/// `true` if the out-arc `(link, far)` of a node at distance `du` lies on
/// the shortest-path DAG: the link is up and `du == dist[far] + w`.
/// Equivalent to [`on_dag`] for a reachable tail (`du` finite); written
/// as `dist[far] < du && du - dist[far] == w` so an unreachable head
/// ([`UNREACHABLE`] = `u64::MAX`) fails the first comparison without
/// a separate test or an overflowing add.
#[inline(always)]
pub(crate) fn on_dag_arc(
    dist: &[u64],
    weights: &[u32],
    mask: &LinkMask,
    du: u64,
    link: usize,
    far: usize,
) -> bool {
    let dv = dist[far];
    dv < du && du - dv == u64::from(weights[link]) && mask.is_up(link)
}

/// Nodes sorted by descending distance-to-destination (reachable only) —
/// a topological order of the shortest-path DAG, used by the ECMP load
/// accumulation (farthest nodes first) and, reversed, by the delay DP.
/// The routing kernels derive the same permutation from Dijkstra's
/// settle sequence without sorting (see [`dist_to_into`]'s settle
/// kernel); this sort stays as their test oracle and for the cold
/// reference and analysis callers.
///
/// Allocating wrapper around [`descending_order_into`].
pub fn descending_order(dist: &[u64]) -> Vec<u32> {
    let mut order = Vec::new();
    descending_order_into(dist, &mut order);
    order
}

/// Fill `order` (cleared first) with the reachable nodes in descending
/// distance order. Ties break by ascending node id, which makes the key
/// total — so the unstable sort is deterministic and yields exactly the
/// permutation the old stable-sort implementation produced (stable sort on
/// `Reverse(dist)` preserved the ascending-id input order within a tie).
pub fn descending_order_into(dist: &[u64], order: &mut Vec<u32>) {
    order.clear();
    order.extend((0..dist.len() as u32).filter(|&v| dist[v as usize] != UNREACHABLE));
    order.sort_unstable_by_key(|&v| (Reverse(dist[v as usize]), v));
}

/// Bellman–Ford reference implementation (O(V·E)); exists purely as a
/// differential-testing oracle for [`dist_to`].
pub fn dist_to_bellman_ford(
    net: &Network,
    dest: NodeId,
    weights: &[u32],
    mask: &LinkMask,
) -> Vec<u64> {
    let n = net.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    dist[dest.index()] = 0;
    for _ in 0..n {
        let mut changed = false;
        for l in net.links() {
            if mask.is_down(l.index()) {
                continue;
            }
            let link = net.link(l);
            let (u, v) = (link.src.index(), link.dst.index());
            if dist[v] == UNREACHABLE {
                continue;
            }
            let nd = dist[v] + u64::from(weights[l.index()]);
            if nd < dist[u] {
                dist[u] = nd;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn unit_weights_give_hop_counts() {
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let d = dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        assert_eq!(d[3], 0);
        assert_eq!(d[0], 1); // direct link
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 1);
    }

    #[test]
    fn weights_steer_paths() {
        let net = diamond();
        let mut w = vec![1u32; net.num_links()];
        w[link_between(&net, 0, 3)] = 10; // make the direct path expensive
        let d = dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        assert_eq!(d[0], 2); // now via 1 or 2
    }

    #[test]
    fn ecmp_dag_membership() {
        let net = diamond();
        let mut w = vec![1u32; net.num_links()];
        w[link_between(&net, 0, 3)] = 2; // direct path ties with 2-hop paths
        let mask = net.fresh_mask();
        let d = dist_to(&net, NodeId::new(3), &w, &mask);
        // All three options from node 0 are now shortest (cost 2).
        assert!(on_dag(&net, &d, &w, &mask, link_between(&net, 0, 1)));
        assert!(on_dag(&net, &d, &w, &mask, link_between(&net, 0, 2)));
        assert!(on_dag(&net, &d, &w, &mask, link_between(&net, 0, 3)));
        // Reverse-direction links are not on the DAG.
        assert!(!on_dag(&net, &d, &w, &mask, link_between(&net, 3, 0)));
    }

    #[test]
    fn failed_links_excluded() {
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let direct = link_between(&net, 0, 3);
        let mask = net.fail_duplex(dtr_net::LinkId::new(direct));
        let d = dist_to(&net, NodeId::new(3), &w, &mask);
        assert_eq!(d[0], 2); // forced through 1 or 2
        assert!(!on_dag(&net, &d, &w, &mask, direct));
    }

    #[test]
    fn unreachable_marked() {
        // Two nodes, single duplex link; fail it.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        b.add_duplex_link(a, c, 1e9, 1e-3).unwrap();
        let net = b.build().unwrap();
        let mask = net.fail_duplex(dtr_net::LinkId::new(0));
        let d = dist_to(&net, c, &[1, 1], &mask);
        assert_eq!(d[a.index()], UNREACHABLE);
        assert_eq!(d[c.index()], 0);
    }

    #[test]
    fn descending_order_is_topological() {
        let net = diamond();
        let w = vec![1u32; net.num_links()];
        let d = dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        let order = descending_order(&d);
        assert_eq!(order.len(), 4);
        for pair in order.windows(2) {
            assert!(d[pair[0] as usize] >= d[pair[1] as usize]);
        }
        assert_eq!(*order.last().unwrap(), 3); // dest last
    }

    #[test]
    fn dijkstra_agrees_with_bellman_ford() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let net = diamond();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let w: Vec<u32> = (0..net.num_links())
                .map(|_| rng.gen_range(1..=20))
                .collect();
            for dest in net.nodes() {
                let a = dist_to(&net, dest, &w, &net.fresh_mask());
                let b = dist_to_bellman_ford(&net, dest, &w, &net.fresh_mask());
                assert_eq!(a, b);
            }
        }
    }
}
