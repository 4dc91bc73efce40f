//! End-to-end delay over the ECMP DAG.
//!
//! The paper computes the end-to-end delay `ξ(s,t) = Σ_{l∈P} D_l` of each
//! delay-sensitive SD pair by summing per-link delays along its path
//! (§III). Under ECMP a pair may use several paths; this module offers the
//! two natural aggregations:
//!
//! * **max** over used paths — conservative; an SLA is considered violated
//!   if any forwarded substream can violate it. This is the default used by
//!   the reproduction (documented in DESIGN.md §4).
//! * **traffic-weighted mean** over used paths, matching the expectation
//!   of per-packet delay under even ECMP splitting.
//!
//! Both are O(|E|) dynamic programs over the acyclic shortest-path DAG.

use dtr_net::{LinkMask, Network, NodeId};

use crate::spf;
use crate::UNREACHABLE;

/// Per-node **maximum** end-to-end delay to the destination whose SPF
/// distance field is `dist`, over DAG paths, given per-link delays
/// `link_delay` (seconds). Unreachable nodes get `f64::INFINITY`.
pub fn max_delay_to(
    net: &Network,
    dist: &[u64],
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
) -> Vec<f64> {
    fold_delay_to(net, dist, weights, mask, link_delay, true)
}

/// Per-node **expected** end-to-end delay under even ECMP splitting (each
/// node forwards a packet uniformly over its DAG next-hops, which matches
/// the flow-splitting proportions of the router).
pub fn mean_delay_to(
    net: &Network,
    dist: &[u64],
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
) -> Vec<f64> {
    fold_delay_to(net, dist, weights, mask, link_delay, false)
}

/// Append the `(s, t, ξ)` end-to-end delay triples of every sender with
/// positive demand towards destination `t` to `out`: run the delay DP
/// (max over ECMP paths when `take_max`, even-split mean otherwise) into
/// `node_delay` scratch, then emit one triple per demanding sender in
/// ascending sender order — disconnected pairs report `f64::INFINITY`.
///
/// `excluded_src` names a sender whose demand is treated as absent even
/// though `tm` still records it. This is how traffic-removing scenarios
/// (node failures: the dead router neither sends nor receives) evaluate
/// against the *base* matrix without cloning it: skipping the excluded
/// sender emits exactly the triples a matrix with a zeroed row would,
/// in the same order. Pass `None` when `tm` is already the offered
/// traffic.
///
/// This is *the* per-destination SLA kernel, shared by the `dtr-cost`
/// reference evaluator, its incremental engine, and the `dtr-mtr`
/// evaluator, so the bit-for-bit-sensitive loop exists exactly once.
#[allow(clippy::too_many_arguments)] // the full per-destination context
pub fn pair_delays_into(
    net: &Network,
    dist: &[u64],
    order: &[u32],
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
    take_max: bool,
    tm: &dtr_traffic::TrafficMatrix,
    t: usize,
    excluded_src: Option<usize>,
    node_delay: &mut Vec<f64>,
    out: &mut Vec<(usize, usize, f64)>,
) {
    fold_delay_into(
        net, dist, order, weights, mask, link_delay, take_max, node_delay,
    );
    let n = net.num_nodes();
    #[allow(clippy::needless_range_loop)] // s is the sender node id
    for s in 0..n {
        if s == t || Some(s) == excluded_src || tm.demand(s, t) <= 0.0 {
            continue;
        }
        let xi = if dist[s] == UNREACHABLE {
            f64::INFINITY
        } else {
            node_delay[s]
        };
        out.push((s, t, xi));
    }
}

/// [`pair_delays_into`] over every demand destination of a routed class:
/// walks the routing's stored distance fields in ascending destination
/// order, recomputing the DAG order into `order` scratch. This is the
/// whole-class form shared by the reference evaluators (`dtr-cost` and
/// `dtr-mtr`); the incremental engine calls [`pair_delays_into`] directly
/// with its *cached* per-destination orders instead.
///
/// `excluded` names a node whose traffic is treated as absent (both as
/// destination and as sender) even though `tm` and `routing` still
/// reflect it — see the `excluded_src` contract on
/// [`pair_delays_into`]. Pass `None` when the routing was computed
/// against the offered traffic already.
#[allow(clippy::too_many_arguments)] // the full per-class context
pub fn routing_pair_delays_into(
    net: &Network,
    routing: &crate::ClassRouting,
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
    take_max: bool,
    tm: &dtr_traffic::TrafficMatrix,
    excluded: Option<usize>,
    order: &mut Vec<u32>,
    node_delay: &mut Vec<f64>,
    out: &mut Vec<(usize, usize, f64)>,
) {
    for t in 0..net.num_nodes() {
        if Some(t) == excluded {
            continue;
        }
        let Some(dist) = routing.dist_to(t) else {
            continue;
        };
        spf::descending_order_into(dist, order);
        pair_delays_into(
            net, dist, order, weights, mask, link_delay, take_max, tm, t, excluded, node_delay, out,
        );
    }
}

fn fold_delay_to(
    net: &Network,
    dist: &[u64],
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
    take_max: bool,
) -> Vec<f64> {
    let order = spf::descending_order(dist);
    let mut delay = Vec::new();
    fold_delay_into(
        net, dist, &order, weights, mask, link_delay, take_max, &mut delay,
    );
    delay
}

#[allow(clippy::too_many_arguments)] // internal kernel shared by 2 wrappers
fn fold_delay_into(
    net: &Network,
    dist: &[u64],
    order: &[u32],
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
    take_max: bool,
    out: &mut Vec<f64>,
) {
    debug_assert_eq!(link_delay.len(), net.num_links());
    let n = net.num_nodes();
    out.clear();
    out.resize(n, f64::INFINITY);
    let delay = out;

    // Ascending distance = reverse topological order of the DAG: children
    // (closer to the destination) are finalized before their parents.
    // DAG out-arcs are tested inline over the packed adjacency, in the
    // ECMP push's arc order.
    for &v in order.iter().rev() {
        let v = v as usize;
        let dv = dist[v];
        if dv == 0 {
            delay[v] = 0.0; // the destination itself
            continue;
        }
        let mut acc: f64 = if take_max { f64::NEG_INFINITY } else { 0.0 };
        let mut count = 0usize;
        for arc in net.out_arcs(NodeId::new(v)) {
            let (l, w) = (arc.link.index(), arc.far.index());
            if !spf::on_dag_arc(dist, weights, mask, dv, l, w) {
                continue;
            }
            let through = link_delay[l] + delay[w];
            if take_max {
                acc = acc.max(through);
            } else {
                acc += through;
            }
            count += 1;
        }
        debug_assert!(count > 0, "reachable node must have a DAG out-link");
        delay[v] = if take_max { acc } else { acc / count as f64 };
    }
}

/// Per-node **bottleneck** metric to the destination: the maximum of
/// `link_metric` over all links of all DAG paths from each node. With
/// `link_metric = utilization` this yields, per SD pair, "the most loaded
/// link on that SD pair's path" — the paper's *average maximum link
/// utilization* metric (Table V). Unreachable nodes get `f64::INFINITY`.
pub fn bottleneck_to(
    net: &Network,
    dist: &[u64],
    weights: &[u32],
    mask: &LinkMask,
    link_metric: &[f64],
) -> Vec<f64> {
    debug_assert_eq!(link_metric.len(), net.num_links());
    let n = net.num_nodes();
    let mut worst = vec![f64::INFINITY; n];
    let mut order = spf::descending_order(dist);
    order.reverse();
    for &v in &order {
        let v = v as usize;
        if dist[v] == 0 {
            worst[v] = 0.0;
            continue;
        }
        let mut acc = f64::NEG_INFINITY;
        for &l in net.out_links(NodeId::new(v)) {
            if !spf::on_dag(net, dist, weights, mask, l.index()) {
                continue;
            }
            let w = net.link(l).dst.index();
            acc = acc.max(link_metric[l.index()].max(worst[w]));
        }
        worst[v] = acc;
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_net::{LinkId, NetworkBuilder, Point};

    /// Diamond where the two 2-hop branches have different delays.
    fn diamond() -> (Network, Vec<f64>) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
        // (0,1) & (1,3): 1 ms each. (0,2) & (2,3): 3 ms each. (0,3): 10 ms.
        b.add_duplex_link(n[0], n[1], 1e9, 1e-3).unwrap();
        b.add_duplex_link(n[1], n[3], 1e9, 1e-3).unwrap();
        b.add_duplex_link(n[0], n[2], 1e9, 3e-3).unwrap();
        b.add_duplex_link(n[2], n[3], 1e9, 3e-3).unwrap();
        b.add_duplex_link(n[0], n[3], 1e9, 10e-3).unwrap();
        let net = b.build().unwrap();
        let delays: Vec<f64> = net.links().map(|l| net.link(l).prop_delay).collect();
        (net, delays)
    }

    #[test]
    fn single_path_delay_is_sum() {
        let (net, delays) = diamond();
        let w = vec![1u32; net.num_links()];
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        // Unit weights: node 0 reaches 3 directly (1 hop).
        let d = max_delay_to(&net, &dist, &w, &net.fresh_mask(), &delays);
        assert!((d[0] - 10e-3).abs() < 1e-12);
        assert!((d[1] - 1e-3).abs() < 1e-12);
        assert!((d[2] - 3e-3).abs() < 1e-12);
        assert_eq!(d[3], 0.0);
    }

    #[test]
    fn max_takes_worst_ecmp_branch() {
        let (net, delays) = diamond();
        // Weight 2 on the direct link: all three routes tie at cost 2.
        let mut w = vec![1u32; net.num_links()];
        let direct = net
            .links()
            .find(|&l| net.link(l).src.index() == 0 && net.link(l).dst.index() == 3)
            .unwrap();
        w[direct.index()] = 2;
        let mask = net.fresh_mask();
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &mask);
        let dmax = max_delay_to(&net, &dist, &w, &mask, &delays);
        let dmean = mean_delay_to(&net, &dist, &w, &mask, &delays);
        // Paths from 0: 2 ms (via 1), 6 ms (via 2), 10 ms (direct).
        assert!((dmax[0] - 10e-3).abs() < 1e-12);
        assert!((dmean[0] - 6e-3).abs() < 1e-12); // (2+6+10)/3
        assert!(dmean[0] <= dmax[0]);
    }

    #[test]
    fn failure_inflates_delay() {
        let (net, delays) = diamond();
        let w = vec![1u32; net.num_links()];
        // Fail the direct link; shortest becomes 2-hop via 1 (tie with 2).
        let direct = net
            .links()
            .find(|&l| net.link(l).src.index() == 0 && net.link(l).dst.index() == 3)
            .unwrap();
        let mask = net.fail_duplex(direct);
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &mask);
        let d = max_delay_to(&net, &dist, &w, &mask, &delays);
        assert!((d[0] - 6e-3).abs() < 1e-12); // worst branch via node 2
    }

    /// [`pair_delays_into`] over every destination of `tm`, max delay DP.
    fn all_pair_delays(
        net: &Network,
        weights: &[u32],
        mask: &LinkMask,
        link_delay: &[f64],
        tm: &dtr_traffic::TrafficMatrix,
    ) -> Vec<(usize, usize, f64)> {
        let (mut order, mut node_delay, mut out) = (Vec::new(), Vec::new(), Vec::new());
        for t in 0..net.num_nodes() {
            let dist = spf::dist_to(net, NodeId::new(t), weights, mask);
            spf::descending_order_into(&dist, &mut order);
            pair_delays_into(
                net,
                &dist,
                &order,
                weights,
                mask,
                link_delay,
                true,
                tm,
                t,
                None,
                &mut node_delay,
                &mut out,
            );
        }
        out
    }

    #[test]
    fn pair_delays_cover_demands_only() {
        let (net, delays) = diamond();
        let mut tm = dtr_traffic::TrafficMatrix::zeros(4);
        tm.set(0, 3, 5.0);
        tm.set(2, 1, 5.0);
        let w = vec![1u32; net.num_links()];
        let got = all_pair_delays(&net, &w, &net.fresh_mask(), &delays, &tm);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(0, 3, 10e-3)));
    }

    #[test]
    fn disconnected_pair_reports_infinity() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        b.add_duplex_link(a, c, 1e9, 1e-3).unwrap();
        let net = b.build().unwrap();
        let mut tm = dtr_traffic::TrafficMatrix::zeros(2);
        tm.set(0, 1, 1.0);
        let mask = net.fail_duplex(LinkId::new(0));
        let got = all_pair_delays(&net, &[1, 1], &mask, &[1e-3, 1e-3], &tm);
        assert_eq!(got.len(), 1);
        assert!(got[0].2.is_infinite());
    }

    #[test]
    fn bottleneck_takes_max_over_path_links() {
        let (net, _) = diamond();
        let w = vec![1u32; net.num_links()];
        let mask = net.fresh_mask();
        // Metric = link id as f64 — easy to reason about.
        let metric: Vec<f64> = (0..net.num_links()).map(|i| i as f64).collect();
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &mask);
        let worst = bottleneck_to(&net, &dist, &w, &mask, &metric);
        // Node 0 routes directly to 3 under unit weights; its bottleneck is
        // that single link's metric.
        let direct = net
            .links()
            .find(|&l| net.link(l).src.index() == 0 && net.link(l).dst.index() == 3)
            .unwrap();
        assert_eq!(worst[0], direct.index() as f64);
        assert_eq!(worst[3], 0.0);
    }

    #[test]
    fn queueing_delay_component_respected() {
        // link_delay need not equal prop delay — pass loaded delays.
        let (net, mut delays) = diamond();
        let w = vec![1u32; net.num_links()];
        let direct = net
            .links()
            .find(|&l| net.link(l).src.index() == 0 && net.link(l).dst.index() == 3)
            .unwrap();
        delays[direct.index()] += 5e-3; // congestion adds 5 ms
        let dist = spf::dist_to(&net, NodeId::new(3), &w, &net.fresh_mask());
        let d = max_delay_to(&net, &dist, &w, &net.fresh_mask(), &delays);
        assert!((d[0] - 15e-3).abs() < 1e-12);
    }
}
