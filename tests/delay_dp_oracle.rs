//! Differential test: the O(E) ECMP delay DP against brute-force path
//! enumeration on small random networks, and the flow delay DP (which
//! folds a routed destination's recorded push) against both.

use dtr::net::{LinkMask, Network, NetworkBuilder, NodeId, Point};
use dtr::routing::workspace::{route_destination, DestRouting};
use dtr::routing::{delay, spf, Class, Scenario, SpfWorkspace, WeightSetting, UNREACHABLE};
use dtr::topogen::{rand_topo, SynthConfig};
use dtr::traffic::TrafficMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every ECMP path from `s` to the destination of `dist`, enumerated
/// explicitly as `(probability under even splitting, path delay)`: each
/// path weighs the product of `1/fanout` along it (exponential; only for
/// tiny test graphs).
fn enumerate_weighted_paths(
    net: &Network,
    dist: &[u64],
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
    s: usize,
) -> Vec<(f64, f64)> {
    if dist[s] == UNREACHABLE {
        return Vec::new();
    }
    if dist[s] == 0 {
        return vec![(1.0, 0.0)];
    }
    let hops: Vec<_> = net
        .out_links(NodeId::new(s))
        .iter()
        .copied()
        .filter(|l| spf::on_dag(net, dist, weights, mask, l.index()))
        .collect();
    let mut out = Vec::new();
    for &l in &hops {
        let next = net.link(l).dst.index();
        for (p, d) in enumerate_weighted_paths(net, dist, weights, mask, link_delay, next) {
            out.push((p / hops.len() as f64, link_delay[l.index()] + d));
        }
    }
    out
}

fn small_net(nodes: usize, extra: usize, seed: u64) -> Network {
    let max_links = nodes * (nodes - 1) / 2;
    rand_topo::generate(&SynthConfig {
        nodes,
        duplex_links: ((nodes - 1) + extra).min(max_links),
        seed,
    })
    .expect("valid")
    .scaled_to_diameter(25e-3)
    .build(500e6)
    .expect("connected")
}

/// Demand on each ordered pair with probability `p` (sparse at small
/// `p`: most nodes then carry no flow towards a given destination).
fn bernoulli_traffic(n: usize, p: f64, rng: &mut StdRng) -> TrafficMatrix {
    let mut tm = TrafficMatrix::zeros(n);
    for s in 0..n {
        for t in 0..n {
            if s != t && rng.gen_bool(p) {
                tm.set(s, t, rng.gen_range(1.0..1e6));
            }
        }
    }
    tm
}

/// Run both per-destination DPs on `r` (routed under `weights`/`mask`
/// towards `t`) and demand equal triples, bit for bit.
#[allow(clippy::too_many_arguments)]
fn flow_and_arc_scan(
    net: &Network,
    r: &DestRouting,
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
    take_max: bool,
    tm: &TrafficMatrix,
    t: usize,
    excluded: Option<usize>,
) -> Vec<(usize, usize, f64)> {
    let (mut node_delay, mut flow, mut arc) = (Vec::new(), Vec::new(), Vec::new());
    delay::flow_pair_delays_into(
        net,
        r,
        weights,
        mask,
        link_delay,
        take_max,
        tm,
        t,
        excluded,
        &mut node_delay,
        &mut flow,
    );
    delay::pair_delays_into(
        net,
        &r.dist,
        &r.order,
        weights,
        mask,
        link_delay,
        take_max,
        tm,
        t,
        excluded,
        &mut node_delay,
        &mut arc,
    );
    let bits = |v: &[(usize, usize, f64)]| {
        v.iter()
            .map(|&(s, t, x)| (s, t, x.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&flow),
        bits(&arc),
        "flow DP vs arc scan, dest {t}, max {take_max}"
    );
    flow
}

/// Check each `(s, t, ξ)` triple against path enumeration: the max
/// aggregation exactly (float addition is monotone, so the max of the
/// path sums is the DP's max of `link + tail`), the mean to rounding.
#[allow(clippy::too_many_arguments)]
fn assert_matches_enumeration(
    net: &Network,
    dist: &[u64],
    weights: &[u32],
    mask: &LinkMask,
    link_delay: &[f64],
    take_max: bool,
    triples: &[(usize, usize, f64)],
) {
    for &(s, t, xi) in triples {
        if dist[s] == UNREACHABLE {
            assert!(
                xi.is_infinite(),
                "disconnected pair {s}->{t} must be infinite"
            );
            continue;
        }
        if take_max {
            let brute = enumerate_weighted_paths(net, dist, weights, mask, link_delay, s)
                .iter()
                .fold(f64::NEG_INFINITY, |m, &(_, d)| m.max(d));
            assert_eq!(
                xi.to_bits(),
                brute.to_bits(),
                "max {s}->{t}: dp {xi} brute {brute}"
            );
        } else {
            let brute: f64 = enumerate_weighted_paths(net, dist, weights, mask, link_delay, s)
                .iter()
                .map(|&(p, d)| p * d)
                .sum();
            assert!(
                (xi - brute).abs() <= 1e-12 * brute.abs().max(1e-3),
                "mean {s}->{t}: dp {xi} brute {brute}"
            );
        }
    }
}

/// A node with a subnormal demand and two ECMP hops: `f64::from_bits(1)`
/// split in two rounds to a `0.0` share, so neither head receives inflow
/// and neither records a run. The flow DP must fall back to the arc scan
/// and still match it and the enumeration.
#[test]
fn zero_share_falls_back_to_the_arc_scan() {
    // 0 -> {1, 2} -> 3 with unit weights: node 0 splits over two hops.
    let mut b = NetworkBuilder::new();
    let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
    b.add_duplex_link(n[0], n[1], 1e9, 1e-3).unwrap();
    b.add_duplex_link(n[0], n[2], 1e9, 3e-3).unwrap();
    b.add_duplex_link(n[1], n[3], 1e9, 2e-3).unwrap();
    b.add_duplex_link(n[2], n[3], 1e9, 5e-3).unwrap();
    let net = b.build().unwrap();
    let weights = vec![1u32; net.num_links()];
    let mask = net.fresh_mask();
    let link_delay: Vec<f64> = net.links().map(|l| net.link(l).prop_delay).collect();
    let mut tm = TrafficMatrix::zeros(4);
    tm.set(0, 3, f64::from_bits(1));

    let mut r = DestRouting::default();
    route_destination(
        &net,
        &weights,
        &tm,
        &mask,
        3,
        &mut SpfWorkspace::new(),
        &mut r,
    );
    assert_eq!(
        r.load_adds().len(),
        2,
        "node 0's two hops, and nothing else"
    );
    assert!(
        r.load_adds().iter().all(|&(_, share)| share == 0.0),
        "the subnormal demand must split to zero shares"
    );
    for take_max in [true, false] {
        let got = flow_and_arc_scan(
            &net,
            &r,
            &weights,
            &mask,
            &link_delay,
            take_max,
            &tm,
            3,
            None,
        );
        assert_eq!(got.len(), 1);
        assert!(got[0].2.is_finite(), "the sender reaches the destination");
        assert_matches_enumeration(&net, &r.dist, &weights, &mask, &link_delay, take_max, &got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The flow delay DP equals the arc-scan DP on the same record, pair
    /// for pair by `to_bits`, and both equal path enumeration — under
    /// max and mean aggregation, random masks (duplex links or a whole
    /// node, the dead node then skipped as a sender as the engine skips
    /// it), dense and sparse demand, and loaded link delays.
    #[test]
    fn flow_dp_matches_arc_scan_and_enumeration(
        nodes in 4usize..9,
        extra in 1usize..7,
        seed in 0u64..1_000_000,
        wide in any::<bool>(),
        sparse in any::<bool>(),
    ) {
        let net = small_net(nodes, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf10);
        let wmax = if wide { 20 } else { 3 };
        let weights: Vec<u32> = (0..net.num_links()).map(|_| rng.gen_range(1..=wmax)).collect();
        let tm = bernoulli_traffic(nodes, if sparse { 0.15 } else { 0.9 }, &mut rng);
        let link_delay: Vec<f64> = net
            .links()
            .map(|l| net.link(l).prop_delay + rng.gen_range(0.0..2e-3))
            .collect();
        let reps = net.duplex_representatives();
        let mut scenarios = vec![Scenario::Normal];
        for _ in 0..2 {
            scenarios.push(Scenario::Link(reps[rng.gen_range(0..reps.len())]));
            let (a, b) = (reps[rng.gen_range(0..reps.len())], reps[rng.gen_range(0..reps.len())]);
            if a != b {
                scenarios.push(Scenario::DoubleLink(a, b));
            }
            scenarios.push(Scenario::Node(NodeId::new(rng.gen_range(0..nodes))));
        }
        let mut ws = SpfWorkspace::new();
        let mut r = DestRouting::default();
        for sc in scenarios {
            let mask = sc.mask(&net);
            let excluded = sc.excluded_node().map(|v| v.index());
            for t in (0..nodes).filter(|&t| Some(t) != excluded) {
                route_destination(&net, &weights, &tm, &mask, t, &mut ws, &mut r);
                for take_max in [true, false] {
                    let got = flow_and_arc_scan(
                        &net, &r, &weights, &mask, &link_delay, take_max, &tm, t, excluded,
                    );
                    assert_matches_enumeration(
                        &net, &r.dist, &weights, &mask, &link_delay, take_max, &got,
                    );
                }
            }
        }
    }

    #[test]
    fn dp_matches_enumeration(
        nodes in 4usize..8,
        extra in 1usize..6,
        seed in 0u64..500,
    ) {
        let net = small_net(nodes, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 77);
        let w = WeightSetting::random(net.num_links(), 20, &mut rng);
        let weights = w.weights(Class::Delay);
        let mask = net.fresh_mask();
        let link_delay: Vec<f64> = net.links().map(|l| net.link(l).prop_delay).collect();

        for t in net.nodes() {
            let dist = spf::dist_to(&net, t, weights, &mask);
            let dp_max = delay::max_delay_to(&net, &dist, weights, &mask, &link_delay);
            let dp_mean = delay::mean_delay_to(&net, &dist, weights, &mask, &link_delay);
            for s in 0..nodes {
                if s == t.index() {
                    continue;
                }
                let paths: Vec<f64> =
                    enumerate_weighted_paths(&net, &dist, weights, &mask, &link_delay, s)
                        .iter()
                        .map(|&(_, d)| d)
                        .collect();
                prop_assert!(!paths.is_empty(), "reachable node must have a path");
                let brute_max = paths.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(
                    (dp_max[s] - brute_max).abs() < 1e-12,
                    "max mismatch s={} t={}: dp {} brute {}", s, t, dp_max[s], brute_max
                );
                // The mean DP computes the expectation under uniform
                // next-hop choice, which weights paths by the product of
                // 1/fanout along the path — not the plain path average.
                // It must lie within [min, max] of the enumerated paths.
                let brute_min = paths.iter().cloned().fold(f64::INFINITY, f64::min);
                prop_assert!(
                    dp_mean[s] >= brute_min - 1e-12 && dp_mean[s] <= brute_max + 1e-12,
                    "mean out of hull s={} t={}", s, t
                );
            }
        }
    }

    /// ECMP path counts from the DP match brute-force enumeration.
    #[test]
    fn path_count_matches_enumeration(
        nodes in 4usize..8,
        extra in 1usize..6,
        seed in 0u64..500,
    ) {
        let net = small_net(nodes, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 99);
        let w = WeightSetting::random(net.num_links(), 7, &mut rng); // small wmax -> more ties
        let weights = w.weights(Class::Throughput);
        let mask = net.fresh_mask();
        let unit: Vec<f64> = vec![1.0; net.num_links()];

        for t in net.nodes() {
            let dist = spf::dist_to(&net, t, weights, &mask);
            let counts = dtr::routing::paths::count_ecmp_paths(&net, &dist, weights, &mask);
            for s in 0..nodes {
                if s == t.index() || dist[s] == UNREACHABLE {
                    continue;
                }
                let paths = enumerate_weighted_paths(&net, &dist, weights, &mask, &unit, s);
                prop_assert_eq!(counts[s] as usize, paths.len(), "s={} t={}", s, t);
            }
        }
    }
}
