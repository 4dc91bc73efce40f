//! Differential tests of the workspace / incremental SPF machinery
//! against the Bellman–Ford oracle, under random masks and weight
//! perturbations.
//!
//! The incremental engine rests on three "provably unaffected" predicates
//! ([`dtr::routing::workspace::dag_uses_any`], its flow-aware sharpening
//! [`dtr::routing::workspace::flow_uses_any`], and
//! [`dtr::routing::workspace::weight_change_affects`]); these tests check
//! both directions of the contract: a `false` answer must imply an
//! *identical* replayable routing (and, for the first and last, distance
//! field), and the workspace kernels themselves must agree with the
//! oracle everywhere.

use dtr::net::{LinkId, LinkMask, Network};
use dtr::routing::workspace::{
    dag_uses_any, flow_uses_any, route_destination, route_destination_repair,
    route_destination_reweight, weight_change_affects, DestRouting, WeightChange,
};
use dtr::routing::{delay, route_class, spf, Scenario, SpfWorkspace};
use dtr::topogen::{rand_topo, SynthConfig};
use dtr::traffic::TrafficMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_net(nodes: usize, extra_links: usize, seed: u64) -> Network {
    let max_links = nodes * (nodes - 1) / 2;
    let cfg = SynthConfig {
        nodes,
        duplex_links: ((nodes - 1) + extra_links).min(max_links),
        seed,
    };
    rand_topo::generate(&cfg)
        .expect("valid config")
        .scaled_to_diameter(25e-3)
        .build(500e6)
        .expect("connected")
}

fn random_link_weights(net: &Network, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..net.num_links())
        .map(|_| rng.gen_range(1..=20))
        .collect()
}

fn random_traffic(net: &Network, seed: u64) -> TrafficMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = net.num_nodes();
    let mut tm = TrafficMatrix::zeros(n);
    for s in 0..n {
        for t in 0..n {
            if s != t && rng.gen_bool(0.4) {
                tm.set(s, t, rng.gen_range(1.0..1e6));
            }
        }
    }
    tm
}

/// Hub demand: only `hubs` senders, each towards a few random
/// destinations — sparse, so most nodes carry no flow towards a given
/// destination and the flow screen has room to differ from the DAG one.
fn hub_traffic(net: &Network, hubs: usize, seed: u64) -> TrafficMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = net.num_nodes();
    let mut tm = TrafficMatrix::zeros(n);
    for _ in 0..hubs {
        let s = rng.gen_range(0..n);
        for _ in 0..3 {
            let t = rng.gen_range(0..n);
            if s != t {
                tm.set(s, t, rng.gen_range(1.0..1e6));
            }
        }
    }
    tm
}

/// The flow-screen contract on one (network, weights, traffic): for
/// every destination and every mask where [`dag_uses_any`] flags the
/// all-up routing but [`flow_uses_any`] keeps it, the masked full route
/// has the baseline's adds, replayed loads and drops bit for bit, and
/// the flow delay DP of the baseline record (the engine's pair pass on
/// a kept destination) equals the arc-scan DP of the masked route for
/// every demanding sender, under max and mean aggregation. Returns how
/// many (destination, mask) pairs the flow screen kept past the DAG
/// screen.
fn check_flow_screen(net: &Network, w: &[u32], tm: &TrafficMatrix, masks: &[LinkMask]) -> usize {
    let mut rng = StdRng::seed_from_u64(net.num_links() as u64);
    let link_delay: Vec<f64> = net
        .links()
        .map(|l| net.link(l).prop_delay + rng.gen_range(0.0..2e-3))
        .collect();
    let mut ws = SpfWorkspace::new();
    let (mut base, mut full) = (DestRouting::default(), DestRouting::default());
    let (mut node_delay, mut kept_pairs, mut full_pairs) = (Vec::new(), Vec::new(), Vec::new());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut kept = 0;
    for t in 0..net.num_nodes() {
        route_destination(net, w, tm, &net.fresh_mask(), t, &mut ws, &mut base);
        for mask in masks {
            let down: Vec<u32> = mask.down_links().map(|i| i as u32).collect();
            if !dag_uses_any(net, &base.dist, w, &down) || flow_uses_any(net, &base, w, &down) {
                continue;
            }
            kept += 1;
            route_destination(net, w, tm, mask, t, &mut ws, &mut full);
            let add_bits = |r: &DestRouting| {
                r.load_adds()
                    .iter()
                    .map(|&(l, x)| (l, x.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(add_bits(&full), add_bits(&base), "adds, dest {t}");
            let (mut la, mut lb) = (vec![0.0; net.num_links()], vec![0.0; net.num_links()]);
            let (mut da, mut db) = (0.0f64, 0.0f64);
            base.replay(&mut la, &mut da);
            full.replay(&mut lb, &mut db);
            assert_eq!(bits(&la), bits(&lb), "replayed loads, dest {t}");
            assert_eq!(da.to_bits(), db.to_bits(), "replayed drops, dest {t}");
            for take_max in [true, false] {
                kept_pairs.clear();
                full_pairs.clear();
                delay::flow_pair_delays_into(
                    net,
                    &base,
                    w,
                    mask,
                    &link_delay,
                    take_max,
                    tm,
                    t,
                    None,
                    &mut node_delay,
                    &mut kept_pairs,
                );
                delay::pair_delays_into(
                    net,
                    &full.dist,
                    &full.order,
                    w,
                    mask,
                    &link_delay,
                    take_max,
                    tm,
                    t,
                    None,
                    &mut node_delay,
                    &mut full_pairs,
                );
                let pair_bits = |v: &[(usize, usize, f64)]| {
                    v.iter()
                        .map(|&(s, t, x)| (s, t, x.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    pair_bits(&kept_pairs),
                    pair_bits(&full_pairs),
                    "pair delays, dest {t}, max {take_max}"
                );
            }
        }
    }
    kept
}

/// Single-link, multi-link and node masks of `net`: every duplex link,
/// `multi` random groups of 2–4 duplex links, and every node.
fn failure_masks(net: &Network, multi: usize, rng: &mut StdRng) -> Vec<LinkMask> {
    let reps = net.duplex_representatives();
    let mut masks: Vec<LinkMask> = reps.iter().map(|&l| net.fail_duplex(l)).collect();
    for _ in 0..multi {
        let mut mask = net.fresh_mask();
        for _ in 0..rng.gen_range(2..=4usize) {
            for i in net
                .fail_duplex(reps[rng.gen_range(0..reps.len())])
                .down_links()
            {
                mask.fail(i);
            }
        }
        masks.push(mask);
    }
    masks.extend(net.nodes().map(|v| Scenario::Node(v).mask(net)));
    masks
}

/// The deterministic companion of `flow_screen_keeps_exact_routing`: on
/// a fixed hub testbed the flow screen really keeps destinations the
/// DAG screen would repair — so the proptest is not vacuous — and the
/// contract holds for each of them.
#[test]
fn flow_screen_fires_on_a_fixed_hub_testbed() {
    let net = build_net(14, 8, 2024);
    let w = random_link_weights(&net, 7);
    let tm = hub_traffic(&net, 3, 11);
    let masks = failure_masks(&net, 8, &mut StdRng::seed_from_u64(5));
    let kept = check_flow_screen(&net, &w, &tm, &masks);
    assert!(kept > 0, "the hub testbed must exercise the flow screen");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Flow-screen exactness (see [`check_flow_screen`]) under sparse hub
    /// demand and random single-link, multi-link and node masks, at wmax
    /// 3 (many ECMP ties) and 20.
    #[test]
    fn flow_screen_keeps_exact_routing(
        (nodes, extra, seed) in (6usize..16, 1usize..10, 0u64..1_000_000),
        wide in any::<bool>(),
    ) {
        let net = build_net(nodes, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1);
        let wmax = if wide { 20 } else { 3 };
        let w: Vec<u32> = (0..net.num_links()).map(|_| rng.gen_range(1..=wmax)).collect();
        let tm = hub_traffic(&net, rng.gen_range(1..=3usize), seed ^ 0xf2);
        let masks = failure_masks(&net, 4, &mut rng);
        check_flow_screen(&net, &w, &tm, &masks);
    }

    /// The baseline-seeded repair route (orphan detection + boundary
    /// Dijkstra) must equal a from-scratch [`route_destination`] **bit
    /// for bit** — distances, order, load adds and drops — under random
    /// masks of every size, including partitioning ones.
    #[test]
    fn repair_route_equals_full_route(
        (nodes, extra, seed) in (6usize..16, 1usize..10, 0u64..1_000_000)
    ) {
        let net = build_net(nodes, extra, seed);
        let weights = random_link_weights(&net, seed ^ 1);
        let tm = random_traffic(&net, seed ^ 2);
        let mut rng = StdRng::seed_from_u64(seed ^ 3);
        let mut ws = SpfWorkspace::new();
        let up = net.fresh_mask();

        for t in 0..net.num_nodes() {
            // All-up baseline for this destination.
            let mut base = DestRouting::default();
            route_destination(&net, &weights, &tm, &up, t, &mut ws, &mut base);

            for _ in 0..4 {
                // Random mask: fail 1..=4 random duplex links.
                let mut mask = net.fresh_mask();
                let reps = net.duplex_representatives();
                for _ in 0..rng.gen_range(1..=4usize) {
                    let rep = reps[rng.gen_range(0..reps.len())];
                    mask.fail(rep.index());
                    if let Some(r) = net.reverse_link(rep) {
                        mask.fail(r.index());
                    }
                }

                let mut full = DestRouting::default();
                route_destination(&net, &weights, &tm, &mask, t, &mut ws, &mut full);
                let mut repaired = DestRouting::default();
                route_destination_repair(
                    &net, &weights, &tm, &mask, t, &base, &mut ws, &mut repaired,
                );

                prop_assert_eq!(&repaired.dist, &full.dist, "dist, dest {}", t);
                prop_assert_eq!(&repaired.order, &full.order, "order, dest {}", t);
                // The settle-order derivation against the sort oracle.
                prop_assert_eq!(&full.order, &spf::descending_order(&full.dist), "dest {}", t);
                prop_assert_eq!(
                    repaired.load_adds(),
                    full.load_adds(),
                    "load adds, dest {}", t
                );
                let (mut la, mut lb) = (vec![0.0; net.num_links()], vec![0.0; net.num_links()]);
                let (mut da, mut db) = (0.0, 0.0);
                repaired.replay(&mut la, &mut da);
                full.replay(&mut lb, &mut db);
                prop_assert_eq!(la, lb);
                prop_assert_eq!(da, db);
            }
        }
    }

    /// The weight-move repair must equal a from-scratch
    /// [`route_destination`] under the new weights **bit for bit** —
    /// distances (and the Bellman–Ford oracle), order (and the sort
    /// oracle), load adds, replayed loads and drops — for random weight
    /// changes on 1–6 links, including a mixed increase/decrease on one
    /// duplex pair, at wmax 3 (many ties) and 20, with and without a
    /// failure mask shared by both settings. `chained` repairs each of
    /// the 4 rounds from the previous round's repaired record under the
    /// previous round's weights, as the engine's baseline refresh does on
    /// every candidate, so the push also reuses hop lists copied from a
    /// repaired record; otherwise every round repairs from a fresh route.
    #[test]
    fn reweight_route_equals_full_route(
        (nodes, extra, seed) in (5usize..14, 1usize..10, 0u64..1_000_000),
        wide in any::<bool>(),
        masked in any::<bool>(),
        chained in any::<bool>(),
    ) {
        let wmax = if wide { 20 } else { 3 };
        let net = build_net(nodes, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut old_w: Vec<u32> = (0..net.num_links()).map(|_| rng.gen_range(1..=wmax)).collect();
        let tm = random_traffic(&net, seed ^ 0xfeed);
        let reps = net.duplex_representatives();
        let mut mask = net.fresh_mask();
        if masked {
            for _ in 0..rng.gen_range(1..=2usize) {
                let rep = reps[rng.gen_range(0..reps.len())];
                for i in net.fail_duplex(rep).down_links() {
                    mask.fail(i);
                }
            }
        }
        let mut ws = SpfWorkspace::new();
        let (mut full, mut repaired) = (DestRouting::default(), DestRouting::default());
        let mut base: Vec<DestRouting> = (0..net.num_nodes())
            .map(|t| {
                let mut b = DestRouting::default();
                route_destination(&net, &old_w, &tm, &mask, t, &mut ws, &mut b);
                b
            })
            .collect();

        for _ in 0..4 {
            let mut new_w = old_w.clone();
            for _ in 0..rng.gen_range(1..=6usize) {
                let l = rng.gen_range(0..net.num_links());
                new_w[l] = rng.gen_range(1..=wmax);
            }
            if rng.gen_bool(0.5) {
                // One duplex pair: one direction up, the other down.
                let rep = reps[rng.gen_range(0..reps.len())];
                if let Some(r) = net.reverse_link(rep) {
                    let (a, b) = (rep.index(), r.index());
                    let (up, down) = if old_w[b] > 1 { (a, b) } else { (b, a) };
                    if old_w[down] > 1 {
                        new_w[up] = old_w[up] + rng.gen_range(1..=wmax);
                        new_w[down] = rng.gen_range(1..old_w[down]);
                    }
                }
            }
            let changes: Vec<WeightChange> = (0..net.num_links())
                .filter(|&l| old_w[l] != new_w[l])
                .map(|l| WeightChange { link: LinkId::new(l), old: old_w[l], new: new_w[l] })
                .collect();

            for (t, base) in base.iter_mut().enumerate() {
                route_destination(&net, &new_w, &tm, &mask, t, &mut ws, &mut full);
                route_destination_reweight(
                    &net, &old_w, &new_w, &changes, &tm, &mask, t, base, &mut ws, &mut repaired,
                );
                let oracle = spf::dist_to_bellman_ford(&net, dtr::net::NodeId::new(t), &new_w, &mask);
                prop_assert_eq!(&full.dist, &oracle, "oracle dist, dest {}", t);
                prop_assert_eq!(&repaired.dist, &full.dist, "dist, dest {}", t);
                prop_assert_eq!(&full.order, &spf::descending_order(&full.dist), "dest {}", t);
                prop_assert_eq!(&repaired.order, &full.order, "order, dest {}", t);
                prop_assert_eq!(repaired.load_adds(), full.load_adds(), "load adds, dest {}", t);
                let (mut la, mut lb) = (vec![0.0; net.num_links()], vec![0.0; net.num_links()]);
                let (mut da, mut db) = (0.0f64, 0.0f64);
                repaired.replay(&mut la, &mut da);
                full.replay(&mut lb, &mut db);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&la), bits(&lb), "replayed loads, dest {}", t);
                prop_assert_eq!(da.to_bits(), db.to_bits(), "replayed drops, dest {}", t);
                if chained {
                    std::mem::swap(base, &mut repaired);
                }
            }
            if chained {
                old_w = new_w;
            }
        }
    }

    /// Workspace Dijkstra == Bellman–Ford oracle under random masks,
    /// including masks that disconnect parts of the network.
    #[test]
    fn workspace_spf_matches_bellman_ford_under_masks(
        nodes in 5usize..11,
        extra in 2usize..9,
        seed in 0u64..1000,
        fail_count in 0usize..3,
    ) {
        let net = build_net(nodes, extra, seed);
        let w = random_link_weights(&net, seed ^ 0xabc);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x123);
        let mut mask = net.fresh_mask();
        let reps = net.duplex_representatives();
        for _ in 0..fail_count {
            let rep = reps[rng.gen_range(0..reps.len())];
            for i in net.fail_duplex(rep).down_links() {
                mask.fail(i);
            }
        }
        let mut ws = SpfWorkspace::new();
        let mut dest = DestRouting::default();
        let tm = random_traffic(&net, seed ^ 0x456);
        for t in net.nodes() {
            let oracle = spf::dist_to_bellman_ford(&net, t, &w, &mask);
            route_destination(&net, &w, &tm, &mask, t.index(), &mut ws, &mut dest);
            prop_assert_eq!(&dest.dist, &oracle);
            prop_assert_eq!(&dest.order, &spf::descending_order(&dest.dist));
            // And the plain allocating kernel agrees too.
            prop_assert_eq!(spf::dist_to(&net, t, &w, &mask), oracle);
        }
    }

    /// Failure-scenario skip condition: when no failed link is on a
    /// destination's no-failure DAG, the distance field under the failure
    /// is identical (checked against the oracle) and the recorded routing
    /// replays to the same loads.
    #[test]
    fn unaffected_destinations_have_identical_routing_under_failure(
        nodes in 5usize..11,
        extra in 2usize..9,
        seed in 0u64..1000,
    ) {
        let net = build_net(nodes, extra, seed);
        let w = random_link_weights(&net, seed ^ 0x777);
        let tm = random_traffic(&net, seed ^ 0x888);
        let normal = net.fresh_mask();
        let mut ws = SpfWorkspace::new();
        let mut base = DestRouting::default();
        let mut failed = DestRouting::default();
        for rep in net.duplex_representatives() {
            let mask = net.fail_duplex(rep);
            let down: Vec<u32> = mask.down_links().map(|i| i as u32).collect();
            for t in net.nodes() {
                route_destination(&net, &w, &tm, &normal, t.index(), &mut ws, &mut base);
                if dag_uses_any(&net, &base.dist, &w, &down) {
                    continue; // affected: no claim to check
                }
                // Unaffected: failure must not change distances...
                let oracle = spf::dist_to_bellman_ford(&net, t, &w, &mask);
                prop_assert_eq!(&base.dist, &oracle);
                // ...nor the load accumulation (bit-for-bit).
                route_destination(&net, &w, &tm, &mask, t.index(), &mut ws, &mut failed);
                let mut la = vec![0.0; net.num_links()];
                let mut lb = vec![0.0; net.num_links()];
                let (mut da, mut db) = (0.0, 0.0);
                base.replay(&mut la, &mut da);
                failed.replay(&mut lb, &mut db);
                prop_assert_eq!(la, lb);
                prop_assert_eq!(da, db);
            }
        }
    }

    /// Weight-move skip condition: when `weight_change_affects` clears a
    /// destination, recomputing it under the perturbed weights yields the
    /// identical distance field (oracle-checked) and identical loads.
    #[test]
    fn unaffected_destinations_survive_weight_perturbations(
        nodes in 5usize..11,
        extra in 2usize..9,
        seed in 0u64..1000,
        moves in 1usize..4,
    ) {
        let net = build_net(nodes, extra, seed);
        let old_w = random_link_weights(&net, seed ^ 0x999);
        let tm = random_traffic(&net, seed ^ 0xaaa);
        let mask = net.fresh_mask();

        // Perturb a few duplex links (both directions), as the local
        // search does.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbbb);
        let mut new_w = old_w.clone();
        let reps = net.duplex_representatives();
        for _ in 0..moves {
            let rep = reps[rng.gen_range(0..reps.len())];
            let nw = rng.gen_range(1..=20);
            new_w[rep.index()] = nw;
            if let Some(r) = net.reverse_link(rep) {
                new_w[r.index()] = nw;
            }
        }
        let changes: Vec<WeightChange> = (0..net.num_links())
            .filter(|&l| old_w[l] != new_w[l])
            .map(|l| WeightChange { link: LinkId::new(l), old: old_w[l], new: new_w[l] })
            .collect();

        let mut ws = SpfWorkspace::new();
        let mut base = DestRouting::default();
        let mut fresh = DestRouting::default();
        for t in net.nodes() {
            route_destination(&net, &old_w, &tm, &mask, t.index(), &mut ws, &mut base);
            if weight_change_affects(&net, &base.dist, &changes) {
                continue;
            }
            let oracle = spf::dist_to_bellman_ford(&net, t, &new_w, &mask);
            prop_assert_eq!(&base.dist, &oracle);
            route_destination(&net, &new_w, &tm, &mask, t.index(), &mut ws, &mut fresh);
            let mut la = vec![0.0; net.num_links()];
            let mut lb = vec![0.0; net.num_links()];
            let (mut da, mut db) = (0.0, 0.0);
            base.replay(&mut la, &mut da);
            fresh.replay(&mut lb, &mut db);
            prop_assert_eq!(la, lb);
            prop_assert_eq!(da, db);
        }
    }

    /// Repair-everywhere is invisible to the bits on the *plain*
    /// engine path: `cost_with`, which repairs every affected
    /// destination from the workspace baseline, equals the reference
    /// evaluator, which routes every destination from scratch
    /// (`route_class`), for every scenario kind — in both the DTR and
    /// the k-class MTR engines. This is the contract that lets capture
    /// sweeps and uncached `cost_with` calls take the repair speedup
    /// without any trajectory risk.
    #[test]
    fn plain_path_repair_is_bit_identical(
        (nodes, extra, seed) in (6usize..12, 2usize..8, 0u64..1_000_000)
    ) {
        use dtr::cost::{CostParams, Evaluator};
        use dtr::mtr::{ClassSpec, MtrConfig, MtrEvaluator};
        use dtr::routing::{Scenario, WeightSetting};
        use dtr::traffic::ClassMatrices;

        let net = build_net(nodes, extra, seed);
        let tm = ClassMatrices {
            delay: random_traffic(&net, seed ^ 0xd),
            throughput: random_traffic(&net, seed ^ 0x7),
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xeee);
        let mut scenarios = vec![Scenario::Normal];
        scenarios.extend(net.duplex_representatives().into_iter().map(Scenario::Link));
        scenarios.extend(net.nodes().map(Scenario::Node));

        let repair = Evaluator::new(&net, &tm, CostParams::default());
        let mut ws = repair.acquire_workspace();
        for _ in 0..2 {
            let w = WeightSetting::random(net.num_links(), 20, &mut rng);
            for &sc in &scenarios {
                let a = repair.cost_with(&mut ws, &w, sc);
                prop_assert_eq!(a, repair.evaluate(&w, sc).cost, "{}", sc);
            }
        }
        repair.release_workspace(ws);

        let matrices = [tm.delay.clone(), tm.throughput.clone()];
        let config = MtrConfig::new(vec![
            ClassSpec::sla("voice", 25e-3),
            ClassSpec::congestion("bulk").relaxed(0.2),
        ]);
        let m_repair = MtrEvaluator::new(&net, &matrices, config).unwrap();
        let mut ws = m_repair.acquire_workspace();
        for _ in 0..2 {
            let w = WeightSetting::random_symmetric(2, &net, 20, &mut rng);
            for &sc in &scenarios {
                let a = m_repair.cost_with(&mut ws, &w, sc);
                prop_assert_eq!(a, m_repair.evaluate(&w, sc).cost, "{}", sc);
            }
        }
        m_repair.release_workspace(ws);
    }

    /// `route_class` (compact layout, workspace kernels) agrees with a
    /// destination-by-destination reconstruction and the oracle.
    #[test]
    fn route_class_compact_layout_is_consistent(
        nodes in 5usize..10,
        extra in 2usize..8,
        seed in 0u64..1000,
    ) {
        let net = build_net(nodes, extra, seed);
        let w = random_link_weights(&net, seed ^ 0xccc);
        let tm = random_traffic(&net, seed ^ 0xddd);
        let mask = net.fresh_mask();
        let r = route_class(&net, &w, &tm, &mask);
        let n = net.num_nodes();
        for t in 0..n {
            let any = (0..n).any(|s| s != t && tm.demand(s, t) > 0.0);
            match r.dist_to(t) {
                None => prop_assert!(!any, "demand destination {t} missing"),
                Some(d) => {
                    prop_assert!(any, "distances stored for non-demand destination {t}");
                    let oracle = spf::dist_to_bellman_ford(&net, dtr::net::NodeId::new(t), &w, &mask);
                    prop_assert_eq!(d.to_vec(), oracle);
                }
            }
        }
    }
}
