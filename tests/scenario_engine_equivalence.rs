//! Differential scenario-test harness: randomized cross-validation of
//! the incremental engine against the reference evaluator over the
//! **full scenario taxonomy**.
//!
//! `tests/engine_equivalence.rs` pins fixed-seed equivalence; this
//! harness drives the same bit-for-bit contract through proptest over
//! randomized topologies, traffic and weight settings, for every
//! [`Scenario`] kind — link, node (including non-survivable ones that
//! partition the network), SRLG, double-link — plus probabilistically
//! weighted ensembles, warm-workspace move chains, and the
//! parallel == serial pinning of the sharded set sweep.
//!
//! The vendored proptest shim is fully deterministic (master seed
//! derived from the test name, `PROPTEST_SEED` mixes in an override), so
//! every CI failure reproduces locally as-is.

use dtr::core::ext::probabilistic::FailureModel;
use dtr::core::parallel;
use dtr::cost::DelayAggregation;
use dtr::net::Network;
use dtr::prelude::*;
use dtr::routing::LinkGroup;
use dtr::topogen::{rand_topo, SynthConfig};
use dtr::traffic::gravity;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn testbed(nodes: usize, duplex: usize, seed: u64) -> (Network, ClassMatrices) {
    let net = rand_topo::generate(&SynthConfig {
        nodes,
        duplex_links: duplex,
        seed,
    })
    .unwrap()
    .scaled_to_diameter(25e-3)
    .build(500e6)
    .unwrap();
    let mut tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 1.0,
        ..gravity::GravityConfig::paper_default(nodes, seed ^ 5)
    });
    tm.scale(nodes as f64 * 1e9);
    (net, tm)
}

/// The sparse-demand twin of [`testbed`]: the same network, each class
/// keeping each pair's gravity demand with probability 0.15. Most nodes
/// then carry no flow towards a given destination, so the engine's flow
/// screens keep destinations whose shortest-path DAG a failure touches,
/// and its flow delay DP reads a small part of each DAG. Under gravity
/// traffic every node sends and the flow covers nearly every DAG.
fn sparse_testbed(nodes: usize, duplex: usize, seed: u64) -> (Network, ClassMatrices) {
    let (net, mut tm) = testbed(nodes, duplex, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ba45e);
    for m in [&mut tm.delay, &mut tm.throughput] {
        for s in 0..nodes {
            for t in (0..nodes).filter(|&t| t != s) {
                if !rng.gen_bool(0.15) {
                    m.set(s, t, 0.0);
                }
            }
        }
    }
    (net, tm)
}

/// The cost parameters the engine differentials run under: the paper
/// defaults, and a set with Mean ECMP aggregation and θ, B1, B2 and µ
/// all moved off their defaults — so a fast path that read any of them
/// from the wrong place would disagree with the reference.
fn param_grid() -> [CostParams; 2] {
    [
        CostParams::default(),
        CostParams {
            aggregation: DelayAggregation::Mean,
            theta: 15e-3,
            b1: 40.0,
            b2_per_ms: 2.5,
            mu: 0.8,
            ..CostParams::default()
        },
    ]
}

/// Every scenario kind the taxonomy knows, over one topology: normal
/// conditions, every single-link failure, **every** node failure (even
/// partitioning ones — the engine must agree with the reference about
/// dropped demand and disconnection penalties too), a spread of
/// double-link pairs, and a spread of SRLG groups.
fn scenario_zoo(net: &Network, rng: &mut StdRng) -> Vec<Scenario> {
    let reps = net.duplex_representatives();
    let mut scenarios = vec![Scenario::Normal];
    scenarios.extend(reps.iter().map(|&l| Scenario::Link(l)));
    scenarios.extend(net.nodes().map(Scenario::Node));
    for _ in 0..3 {
        let a = reps[rng.gen_range(0..reps.len())];
        let b = reps[rng.gen_range(0..reps.len())];
        if a != b {
            scenarios.push(Scenario::DoubleLink(a, b));
        }
    }
    for _ in 0..3 {
        let k = rng.gen_range(2..=4usize.min(reps.len()));
        let members: Vec<LinkId> = (0..k).map(|_| reps[rng.gen_range(0..reps.len())]).collect();
        scenarios.push(Scenario::Srlg(LinkGroup::new(&members)));
    }
    scenarios
}

/// The delta-state scenario cache is invisible to the bits: a
/// Phase-2-style chain of single-duplex moves over a captured
/// incumbent — with incremental cache refreshes on simulated accepts
/// and a full rebuild mid-chain — yields cost_cached == cost_with ==
/// reference for every scenario of the full taxonomy at every step.
/// Repeated accepts drift the incumbent far from the originally
/// captured setting, exercising the exact-coverage maintenance
/// (destinations entering and leaving each scenario's affected set):
/// after every refresh, each entry equals a fresh capture at the same
/// incumbent bit for bit (and so holds as many resident bytes).
fn scenario_cache_chain(net: &Network, tm: &ClassMatrices, seed: u64) {
    for params in param_grid() {
        let ev = Evaluator::new(net, tm, params);
        let reps = net.duplex_representatives();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1e);
        let scenarios = scenario_zoo(net, &mut rng);
        let mut inc = WeightSetting::random(net.num_links(), 20, &mut rng);

        let mut ws = ev.acquire_workspace();
        let mut cache = dtr::cost::ScenarioCache::new();
        let capture_all = |ws: &mut dtr::cost::EvalWorkspace,
                           cache: &mut dtr::cost::ScenarioCache,
                           inc: &WeightSetting| {
            ev.cache_rebuild_begin(ws, cache, inc, scenarios.len());
            for (pos, &sc) in scenarios.iter().enumerate() {
                let captured = ev.cost_capture(ws, inc, sc, cache, pos);
                prop_assert_eq!(captured, ev.evaluate(inc, sc).cost, "capture {}", sc);
            }
        };
        capture_all(&mut ws, &mut cache, &inc);

        for step in 0..8 {
            // Candidate: incumbent plus one duplex move.
            let rep = reps[rng.gen_range(0..reps.len())];
            let (wd, wt) = (rng.gen_range(1..=20), rng.gen_range(1..=20));
            let mut cand = inc.clone();
            for class in Class::ALL {
                let v = if class == Class::Delay { wd } else { wt };
                cand.set(class, rep, v);
                if let Some(r) = net.reverse_link(rep) {
                    cand.set(class, r, v);
                }
            }
            ev.cache_begin(&mut cache, &cand);
            for (pos, &sc) in scenarios.iter().enumerate() {
                let reference = ev.evaluate(&cand, sc).cost;
                prop_assert_eq!(
                    ev.cost_cached(&mut ws, &cand, sc, &cache, pos),
                    reference,
                    "delta step {}, scenario {}, seed {}, params {:?}",
                    step,
                    sc,
                    seed,
                    params
                );
                // The delta path must agree with the plain engine too.
                let mut ws2 = ev.acquire_workspace();
                prop_assert_eq!(
                    ev.cost_with(&mut ws2, &cand, sc),
                    reference,
                    "cost_with step {}, scenario {}, seed {}, params {:?}",
                    step,
                    sc,
                    seed,
                    params
                );
                ev.release_workspace(ws2);
            }
            // Simulate an accept on two of every three steps (a chain of
            // accepts stresses the exact-coverage refresh); full-rebuild
            // once mid-chain to cover the re-capture path.
            if step % 3 != 2 {
                inc = cand;
                ev.cache_refresh(&mut ws, &mut cache, &inc, |pos| scenarios[pos]);
                // Exact coverage, which restore relies on (it
                // recaptures instead of restoring the refreshed
                // cache): every refreshed entry holds what a fresh
                // capture at the same incumbent holds.
                let mut ws2 = ev.acquire_workspace();
                let mut fresh = dtr::cost::ScenarioCache::new();
                ev.cache_rebuild_begin(&mut ws2, &mut fresh, &inc, scenarios.len());
                for (pos, &sc) in scenarios.iter().enumerate() {
                    ev.cost_capture(&mut ws2, &inc, sc, &mut fresh, pos);
                }
                ev.release_workspace(ws2);
                let fresh = fresh.capture_split().1;
                for (pos, entry) in cache.capture_split().1.iter().enumerate() {
                    prop_assert_eq!(
                        entry.resident_bytes(),
                        fresh[pos].resident_bytes(),
                        "refreshed vs captured step {}, scenario {}, seed {}, params {:?}",
                        step,
                        scenarios[pos],
                        seed,
                        params
                    );
                    prop_assert!(
                        *entry == fresh[pos],
                        "refreshed entry differs from a fresh capture: step {}, scenario {}, seed {}, params {:?}",
                        step, scenarios[pos], seed, params
                    );
                }
            }
            if step == 4 {
                capture_all(&mut ws, &mut cache, &inc);
            }
        }
        ev.release_workspace(ws);
    }
}

/// The MTR delta-state cache mirrors the DTR contract: randomized
/// k-class move/accept chains through capture, candidate
/// evaluations, incremental refreshes and a mid-chain full rebuild
/// stay bit-identical to the reference `evaluate` for every scenario
/// kind.
fn mtr_cache_chain(net: &Network, tm: &ClassMatrices, seed: u64) {
    use dtr::mtr::{ClassSpec, MtrConfig, MtrEvaluator, MtrWeightSetting};

    let matrices = [tm.delay.clone(), tm.throughput.clone()];
    let config = MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::congestion("bulk").relaxed(0.2),
    ]);
    let ev = MtrEvaluator::new(net, &matrices, config).unwrap();
    let reps = net.duplex_representatives();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x317e);
    let scenarios = scenario_zoo(net, &mut rng);
    let mut inc = MtrWeightSetting::random_symmetric(2, net, 20, &mut rng);

    let eng = ev.engine();
    let mut ws = ev.acquire_workspace();
    let mut cache = dtr::cost::ScenarioCache::new();
    let capture_all = |ws: &mut dtr::cost::EvalWorkspace,
                       cache: &mut dtr::cost::ScenarioCache,
                       inc: &MtrWeightSetting| {
        eng.cache_rebuild_begin(ws, cache, inc, scenarios.len());
        for (pos, &sc) in scenarios.iter().enumerate() {
            let captured = eng.cost_capture(ws, inc, sc, cache, pos);
            prop_assert_eq!(
                captured,
                ev.evaluate(inc, sc).cost.components(),
                "capture {}",
                sc
            );
        }
    };
    capture_all(&mut ws, &mut cache, &inc);

    for step in 0..8 {
        let rep = reps[rng.gen_range(0..reps.len())];
        let mut cand = inc.clone();
        for k in 0..2 {
            cand.set_duplex(net, k, rep, rng.gen_range(1..=20));
        }
        eng.cache_begin(&mut cache, &cand);
        for (pos, &sc) in scenarios.iter().enumerate() {
            let reference = ev.evaluate(&cand, sc).cost;
            prop_assert_eq!(
                eng.cost_cached(&mut ws, &cand, sc, &cache, pos),
                reference.components(),
                "mtr delta step {}, scenario {}, seed {}",
                step,
                sc,
                seed
            );
            prop_assert_eq!(
                ev.cost_with(&mut ws, &cand, sc),
                reference,
                "mtr cost_with step {}, scenario {}, seed {}",
                step,
                sc,
                seed
            );
        }
        if step % 3 != 2 {
            inc = cand;
            eng.cache_refresh(&mut ws, &mut cache, &inc, |pos| scenarios[pos]);
            // Exact coverage: see the DTR chain above.
            let mut ws2 = ev.acquire_workspace();
            let mut fresh = dtr::cost::ScenarioCache::new();
            eng.cache_rebuild_begin(&mut ws2, &mut fresh, &inc, scenarios.len());
            for (pos, &sc) in scenarios.iter().enumerate() {
                eng.cost_capture(&mut ws2, &inc, sc, &mut fresh, pos);
            }
            ev.release_workspace(ws2);
            let fresh = fresh.capture_split().1;
            for (pos, entry) in cache.capture_split().1.iter().enumerate() {
                prop_assert_eq!(
                    entry.resident_bytes(),
                    fresh[pos].resident_bytes(),
                    "mtr refreshed vs captured step {}, scenario {}, seed {}",
                    step,
                    scenarios[pos],
                    seed
                );
                prop_assert!(
                    *entry == fresh[pos],
                    "mtr refreshed entry differs from a fresh capture: step {}, scenario {}, seed {}",
                    step, scenarios[pos], seed
                );
            }
        }
        if step == 4 {
            capture_all(&mut ws, &mut cache, &inc);
        }
    }
    ev.release_workspace(ws);
}

/// The hub-demand twin of [`testbed`]: every class sends only to three
/// hub destinations, so a weight move repairs few records and most
/// destinations never enter a baseline's undo list.
fn hub_testbed(nodes: usize, duplex: usize, seed: u64) -> (Network, ClassMatrices) {
    let (net, mut tm) = testbed(nodes, duplex, seed);
    hubs_only(&mut tm.delay);
    hubs_only(&mut tm.throughput);
    (net, tm)
}

/// Zero every demand whose destination is not one of three hubs.
fn hubs_only(m: &mut dtr::traffic::TrafficMatrix) {
    let n = m.num_nodes();
    let hubs = [0, n / 2, n - 1];
    for s in 0..n {
        for t in (0..n).filter(|t| *t != s && !hubs.contains(t)) {
            m.set(s, t, 0.0);
        }
    }
}

/// Walk one workspace through the reject and accept chains of a local
/// search, from the incumbent `A`: `A+m₁` (rejected), `A+m₂` (the
/// baseline undoes `m₁` back to `A`, then repairs `m₂`), `A` itself (a
/// pure undo), `A+m₂+m₃` (undo to `A+m₂`, repair `m₃`), and then, half
/// the time, accept `A+m₂+m₃` as the next incumbent. `check` evaluates
/// each setting on that one workspace.
fn undo_walk<W: Clone>(
    start: W,
    rng: &mut StdRng,
    mut mv: impl FnMut(&mut W, &mut StdRng),
    mut check: impl FnMut(&W, usize),
) {
    let mut inc = start;
    for step in 0..6 {
        let mut m1 = inc.clone();
        mv(&mut m1, rng);
        check(&m1, step);
        let mut m2 = inc.clone();
        mv(&mut m2, rng);
        check(&m2, step);
        check(&inc, step);
        let mut m23 = m2.clone();
        mv(&mut m23, rng);
        check(&m23, step);
        if rng.gen_bool(0.5) {
            inc = m23;
        }
    }
}

/// [`undo_walk`] at k = 2 (DTR) and k = 3 (two SLA classes and a
/// congestion class): every `cost_with` on the walked workspace equals
/// the reference `evaluate` bit for bit, under every scenario of
/// [`scenario_zoo`] (every link and node failure among them).
fn undo_chains(net: &Network, tm: &ClassMatrices, hubs: bool, seed: u64) {
    use dtr::mtr::{ClassSpec, MtrConfig, MtrEvaluator, MtrWeightSetting};

    let reps = net.duplex_representatives();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0d0);
    let scenarios = scenario_zoo(net, &mut rng);

    let ev = Evaluator::new(net, tm, CostParams::default());
    let mut ws = ev.acquire_workspace();
    let start = WeightSetting::random(net.num_links(), 20, &mut rng);
    let mv = |w: &mut WeightSetting, rng: &mut StdRng| {
        let rep = reps[rng.gen_range(0..reps.len())];
        for class in Class::ALL {
            let v = rng.gen_range(1..=20);
            w.set(class, rep, v);
            if let Some(r) = net.reverse_link(rep) {
                w.set(class, r, v);
            }
        }
    };
    undo_walk(start, &mut rng, mv, |w, step| {
        for &sc in &scenarios {
            let engine = ev.cost_with(&mut ws, w, sc);
            let reference = ev.evaluate(w, sc).cost;
            prop_assert_eq!(
                (engine.lambda.to_bits(), engine.phi.to_bits()),
                (reference.lambda.to_bits(), reference.phi.to_bits()),
                "k = 2, step {}, scenario {}, hubs {}, seed {}",
                step,
                sc,
                hubs,
                seed
            );
        }
    });
    ev.release_workspace(ws);

    let n = net.num_nodes();
    let mut matrices = dtr::eval::experiments::mtr3::three_class_traffic(n, seed, n as f64 * 1e9);
    if hubs {
        matrices.iter_mut().for_each(hubs_only);
    }
    let config = MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::sla("video", 60e-3).relaxed(0.1),
        ClassSpec::congestion("bulk"),
    ]);
    let ev = MtrEvaluator::new(net, &matrices, config).unwrap();
    let eng = ev.engine();
    let mut ws = ev.acquire_workspace();
    let start = MtrWeightSetting::random_symmetric(3, net, 20, &mut rng);
    let mv = |w: &mut MtrWeightSetting, rng: &mut StdRng| {
        let rep = reps[rng.gen_range(0..reps.len())];
        for k in 0..3 {
            w.set_duplex(net, k, rep, rng.gen_range(1..=20));
        }
    };
    undo_walk(start, &mut rng, mv, |w, step| {
        for &sc in &scenarios {
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(eng.cost_with(&mut ws, w, sc)),
                bits(ev.evaluate(w, sc).cost.components()),
                "k = 3, step {}, scenario {}, hubs {}, seed {}",
                step,
                sc,
                hubs,
                seed
            );
        }
    });
    ev.release_workspace(ws);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Engine == reference, bit for bit, for every scenario kind, on
    /// randomized (topology, traffic, weights) triples — gravity and
    /// sparse demand — through one *warm* workspace shared by the whole
    /// sweep, exactly as a Phase-2 failure sweep would run it.
    #[test]
    fn engine_matches_reference_across_taxonomy(
        (nodes, extra, seed) in (10usize..15, 2usize..10, 0u64..1_000_000)
    ) {
        for (net, tm) in [
            testbed(nodes, nodes + extra, seed),
            sparse_testbed(nodes, nodes + extra, seed),
        ] {
            for params in param_grid() {
                let ev = Evaluator::new(&net, &tm, params);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xd1f);
                let scenarios = scenario_zoo(&net, &mut rng);

                let mut ws = ev.acquire_workspace();
                for round in 0..2 {
                    let w = WeightSetting::random(net.num_links(), 20, &mut rng);
                    for &sc in &scenarios {
                        let engine = ev.cost_with(&mut ws, &w, sc);
                        let reference = ev.evaluate(&w, sc).cost;
                        prop_assert_eq!(
                            engine, reference,
                            "round {}, scenario {}, nodes {}, seed {}, params {:?}",
                            round, sc, nodes, seed, params
                        );
                    }
                }
                ev.release_workspace(ws);
            }
        }
    }

    /// A Phase-2-style chain of single-duplex weight moves over ONE warm
    /// workspace (exercising the baseline diff) stays bit-identical to
    /// the reference across the full taxonomy at every step.
    #[test]
    fn warm_move_chain_stays_bit_identical(
        (nodes, extra, seed) in (10usize..14, 2usize..8, 0u64..1_000_000)
    ) {
        let (net, tm) = testbed(nodes, nodes + extra, seed);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let reps = net.duplex_representatives();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let scenarios = scenario_zoo(&net, &mut rng);
        let mut w = WeightSetting::random(net.num_links(), 20, &mut rng);

        let mut ws = ev.acquire_workspace();
        for step in 0..6 {
            let rep = reps[rng.gen_range(0..reps.len())];
            let (wd, wt) = (rng.gen_range(1..=20), rng.gen_range(1..=20));
            for class in Class::ALL {
                let v = if class == Class::Delay { wd } else { wt };
                w.set(class, rep, v);
                if let Some(r) = net.reverse_link(rep) {
                    w.set(class, r, v);
                }
            }
            for &sc in &scenarios {
                prop_assert_eq!(
                    ev.cost_with(&mut ws, &w, sc),
                    ev.evaluate(&w, sc).cost,
                    "step {}, scenario {}, seed {}", step, sc, seed
                );
            }
        }
        ev.release_workspace(ws);
    }

    /// The workspace baseline's undo is invisible to the bits: see
    /// [`undo_chains`], on gravity and on hub demand.
    #[test]
    fn undo_chain_stays_bit_identical(
        (nodes, extra, seed) in (10usize..14, 2usize..8, 0u64..1_000_000)
    ) {
        let (net, tm) = testbed(nodes, nodes + extra, seed);
        undo_chains(&net, &tm, false, seed);
        let (net, tm) = hub_testbed(nodes, nodes + extra, seed);
        undo_chains(&net, &tm, true, seed);
    }

    /// The delta-state scenario cache is invisible to the bits: see
    /// [`scenario_cache_chain`].
    #[test]
    fn scenario_cache_chain_stays_bit_identical(
        (nodes, extra, seed) in (10usize..14, 2usize..8, 0u64..1_000_000)
    ) {
        let (net, tm) = testbed(nodes, nodes + extra, seed);
        scenario_cache_chain(&net, &tm, seed);
    }

    /// [`scenario_cache_chain`] under sparse demand, where an entry lists
    /// only the flow-affected destinations — fewer than the DAG-affected
    /// ones — and refreshes splice destinations in and out of that set.
    #[test]
    fn scenario_cache_chain_sparse_demand_stays_bit_identical(
        (nodes, extra, seed) in (10usize..14, 2usize..8, 0u64..1_000_000)
    ) {
        let (net, tm) = sparse_testbed(nodes, nodes + extra, seed);
        scenario_cache_chain(&net, &tm, seed);
    }

    /// The MTR delta-state cache mirrors the DTR contract: see
    /// [`mtr_cache_chain`].
    #[test]
    fn mtr_cache_chain_stays_bit_identical(
        (nodes, extra, seed) in (10usize..13, 2usize..7, 0u64..1_000_000)
    ) {
        let (net, tm) = testbed(nodes, nodes + extra, seed);
        mtr_cache_chain(&net, &tm, seed);
    }

    /// [`mtr_cache_chain`] under sparse demand (see the DTR twin).
    #[test]
    fn mtr_cache_chain_sparse_demand_stays_bit_identical(
        (nodes, extra, seed) in (10usize..13, 2usize..7, 0u64..1_000_000)
    ) {
        let (net, tm) = sparse_testbed(nodes, nodes + extra, seed);
        mtr_cache_chain(&net, &tm, seed);
    }

    /// Floor-soundness oracle: the routing-independent per-scenario
    /// lower bound ([`Evaluator::scenario_floor`]) really bounds the
    /// exact cost componentwise — `lambda ≤ Λ`, and `phi` is exactly
    /// 0 — for every scenario kind of the taxonomy, under multiple
    /// random weight settings (the floors are weight-independent, the
    /// costs are not). No search reads the floors; this pins what
    /// perfbench's `cost.floor_us` probe times, and both tests leave
    /// together with that probe.
    #[test]
    fn scenario_floors_bound_every_cost_componentwise(
        (nodes, extra, seed) in (10usize..15, 2usize..10, 0u64..1_000_000)
    ) {
        let (net, tm) = testbed(nodes, nodes + extra, seed);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf100);
        let scenarios = scenario_zoo(&net, &mut rng);

        let mut ws = ev.acquire_workspace();
        let floors: Vec<_> = scenarios
            .iter()
            .map(|&sc| ev.scenario_floor(&mut ws, sc))
            .collect();
        for round in 0..3 {
            let w = WeightSetting::random(net.num_links(), 20, &mut rng);
            for (&sc, fl) in scenarios.iter().zip(&floors) {
                let c = ev.cost_with(&mut ws, &w, sc);
                prop_assert!(
                    fl.lambda <= c.lambda,
                    "Λ floor {} exceeds exact {} — round {}, scenario {}, seed {}",
                    fl.lambda, c.lambda, round, sc, seed
                );
                prop_assert!(
                    fl.phi == 0.0,
                    "Φ floor {} is not 0 — round {}, scenario {}, seed {}",
                    fl.phi, round, sc, seed
                );
            }
        }
        ev.release_workspace(ws);
    }

    /// The k-class mirror: every component of the engine's
    /// `scenario_floor` (per-class Λ for SLA classes, exactly 0 for
    /// congestion classes) bounds the exact class cost from below for
    /// every scenario kind and random weight setting.
    #[test]
    fn mtr_scenario_floors_bound_every_class_component(
        (nodes, extra, seed) in (10usize..13, 2usize..7, 0u64..1_000_000)
    ) {
        use dtr::mtr::{ClassSpec, MtrConfig, MtrEvaluator, MtrWeightSetting};

        let (net, tm) = testbed(nodes, nodes + extra, seed);
        let matrices = [tm.delay.clone(), tm.throughput.clone()];
        let config = MtrConfig::new(vec![
            ClassSpec::sla("voice", 25e-3),
            ClassSpec::congestion("bulk").relaxed(0.2),
        ]);
        let ev = MtrEvaluator::new(&net, &matrices, config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1002);
        let scenarios = scenario_zoo(&net, &mut rng);

        let mut ws = ev.acquire_workspace();
        let floors: Vec<Vec<f64>> = scenarios
            .iter()
            .map(|&sc| ev.engine().scenario_floor(&mut ws, sc).to_vec())
            .collect();
        for round in 0..3 {
            let w = MtrWeightSetting::random_symmetric(2, &net, 20, &mut rng);
            for (&sc, fl) in scenarios.iter().zip(&floors) {
                let c = ev.cost_with(&mut ws, &w, sc);
                for (k, (&f, &x)) in fl.iter().zip(c.components()).enumerate() {
                    prop_assert!(
                        f <= x,
                        "class {} floor {} exceeds exact {} — round {}, scenario {}, seed {}",
                        k, f, x, round, sc, seed
                    );
                }
                prop_assert!(
                    fl[1] == 0.0,
                    "congestion floor {} is not 0 — round {}, scenario {}, seed {}",
                    fl[1], round, sc, seed
                );
            }
        }
        ev.release_workspace(ws);
    }

    /// The sharded set sweep is byte-identical serial vs parallel for
    /// every shipped `ScenarioSet` — including the weighted
    /// (probabilistic) compound reduction.
    #[test]
    fn sharded_set_sweep_is_thread_invariant(
        (nodes, extra, seed) in (10usize..15, 3usize..10, 0u64..1_000_000)
    ) {
        let (net, tm) = testbed(nodes, nodes + extra, seed);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57);
        let w = WeightSetting::random(net.num_links(), 20, &mut rng);

        let universe = FailureUniverse::of(&net);
        let prob = Probabilistic::with_model(
            &net,
            FailureModel::length_proportional(&net, &universe),
        );
        let srlg = Srlg::geographic(&net, 0.2);
        let double = DoubleLink::sampled(&net, 12, seed);

        fn check<S: ScenarioSet + Sync>(ev: &Evaluator<'_>, w: &WeightSetting, set: &S) {
            let indices = set.all_indices();
            let serial = parallel::evaluate_set(ev, w, set, &indices, 1);
            let sharded = parallel::evaluate_set(ev, w, set, &indices, 4);
            assert_eq!(serial, sharded);
            // Per-scenario agreement with the reference evaluator.
            for (&i, c) in indices.iter().zip(&serial) {
                assert_eq!(*c, ev.evaluate(w, set.scenario(i)).cost);
            }
            // Compound (weight-aware) reduction is thread-invariant too.
            assert_eq!(
                parallel::sum_set_costs(ev, w, set, &indices, 1),
                parallel::sum_set_costs(ev, w, set, &indices, 3)
            );
        }
        check(&ev, &w, &universe);
        check(&ev, &w, &prob);
        check(&ev, &w, &srlg);
        check(&ev, &w, &double);
    }

    /// A budget-bounded scenario cache is invisible to the bits at the
    /// engine level: with only a resident prefix captured, resident
    /// positions answer via `cost_cached` and non-resident positions via
    /// the plain path — both identical to the reference for every
    /// scenario kind.
    #[test]
    fn budgeted_cache_prefix_stays_bit_identical(
        (nodes, extra, seed) in (10usize..14, 2usize..8, 0u64..1_000_000)
    ) {
        let (net, tm) = testbed(nodes, nodes + extra, seed);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let reps = net.duplex_representatives();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb4d6e7);
        let scenarios = scenario_zoo(&net, &mut rng);
        let inc = WeightSetting::random(net.num_links(), 20, &mut rng);

        let mut ws = ev.acquire_workspace();
        // Small but nonzero budget: capture entry 0, plan, then capture
        // only the planned resident prefix — exactly the bounded
        // rebuild's protocol.
        let mut cache = dtr::cost::ScenarioCache::with_budget(64 * 1024);
        ev.cache_rebuild_begin(&mut ws, &mut cache, &inc, scenarios.len());
        ev.cost_capture(&mut ws, &inc, scenarios[0], &mut cache, 0);
        cache.plan_residency(scenarios.len());
        let resident = cache.resident_scenarios();
        prop_assert!(resident <= scenarios.len());
        for (pos, &sc) in scenarios.iter().enumerate().take(resident).skip(1) {
            ev.cost_capture(&mut ws, &inc, sc, &mut cache, pos);
        }

        let rep = reps[rng.gen_range(0..reps.len())];
        let (wd, wt) = (rng.gen_range(1..=20), rng.gen_range(1..=20));
        let mut cand = inc.clone();
        for class in Class::ALL {
            let v = if class == Class::Delay { wd } else { wt };
            cand.set(class, rep, v);
            if let Some(r) = net.reverse_link(rep) {
                cand.set(class, r, v);
            }
        }
        ev.cache_begin(&mut cache, &cand);
        for (pos, &sc) in scenarios.iter().enumerate() {
            let reference = ev.evaluate(&cand, sc).cost;
            let got = if cache.is_resident(pos) {
                ev.cost_cached(&mut ws, &cand, sc, &cache, pos)
            } else {
                ev.cost_with(&mut ws, &cand, sc)
            };
            prop_assert_eq!(
                got, reference,
                "pos {} (resident {}), scenario {}, seed {}", pos, resident, sc, seed
            );
        }
        ev.release_workspace(ws);
    }

    /// Regression for the old engine gap: a node failure whose router
    /// carries no demand is exactly its induced link-mask. Expressed as
    /// an SRLG over the incident physical links, both scenarios must
    /// produce identical costs — through the engine and the reference.
    #[test]
    fn node_failure_equals_equivalent_link_mask(
        (nodes, extra, seed) in (10usize..15, 2usize..8, 0u64..1_000_000)
    ) {
        let (net, mut tm) = testbed(nodes, nodes + extra, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x90de);
        // Pick a node with few enough incident links for one LinkGroup
        // and silence its traffic so mask and node semantics coincide.
        let v = net
            .nodes()
            .find(|&v| {
                let incident = net
                    .duplex_representatives()
                    .iter()
                    .filter(|&&l| net.link(l).src == v || net.link(l).dst == v)
                    .count();
                (1..=dtr::routing::MAX_GROUP_SIZE).contains(&incident)
            })
            .expect("some node has a group-sized degree");
        for u in (0..nodes).filter(|&u| u != v.index()) {
            tm.delay.set(u, v.index(), 0.0);
            tm.delay.set(v.index(), u, 0.0);
            tm.throughput.set(u, v.index(), 0.0);
            tm.throughput.set(v.index(), u, 0.0);
        }
        let incident: Vec<LinkId> = net
            .duplex_representatives()
            .into_iter()
            .filter(|&l| net.link(l).src == v || net.link(l).dst == v)
            .collect();
        let group = Scenario::Srlg(LinkGroup::new(&incident));
        let node = Scenario::Node(v);

        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::random(net.num_links(), 20, &mut rng);
        // Identical down-sets...
        prop_assert_eq!(
            node.mask(&net).down_links().collect::<Vec<_>>(),
            group.mask(&net).down_links().collect::<Vec<_>>()
        );
        // ...must give identical costs, and the engine must agree with
        // the reference on both.
        let node_cost = ev.cost(&w, node);
        let group_cost = ev.cost(&w, group);
        prop_assert_eq!(node_cost, group_cost, "node {} seed {}", v, seed);
        prop_assert_eq!(node_cost, ev.evaluate(&w, node).cost);
        prop_assert_eq!(group_cost, ev.evaluate(&w, group).cost);
    }
}

/// 50-node acceptance pin: a Phase-2 run under a binding cache residency
/// budget is bit-identical to the unbudgeted run — best setting, costs,
/// accept/reject trace, and every non-residency stat — while the
/// fallback accounting proves the budget actually bound.
#[test]
fn phase2_budgeted_cache_is_bit_identical_at_50_nodes() {
    use dtr::core::phase1::Phase1Output;
    use dtr::core::ranking::RankTracker;
    use dtr::core::samples::SampleStore;
    use dtr::core::search::{Archive, SearchStats};
    use dtr::core::{phase2, Params};
    use dtr::topogen::community;

    let nodes = 50;
    let bp = community::generate(&SynthConfig {
        nodes,
        duplex_links: 100,
        seed: 8,
    })
    .unwrap();
    let net = bp.scaled_to_diameter(25e-3).build(500e6).unwrap();
    let mut tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 1.0,
        ..gravity::GravityConfig::paper_default(nodes, 13)
    });
    tm.scale(nodes as f64 * 1e9);
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    // A critical-set-sized subset keeps the run fast while still
    // rebuilding, bounding, and refreshing the cache.
    let indices: Vec<usize> = (0..universe.len()).step_by(4).collect();

    // Hand-built Phase-1 output: Phase 2 only reads the benchmarks and
    // the archive, so a random feasible start avoids a full Phase-1 run.
    let mut rng = StdRng::seed_from_u64(0x50de);
    let start = WeightSetting::random(net.num_links(), 20, &mut rng);
    let start_cost = ev.cost(&start, Scenario::Normal);
    let mut archive = Archive::new(4);
    archive.offer(&start, start_cost);
    let p1 = Phase1Output {
        best: start.clone(),
        best_cost: start_cost,
        archive,
        store: SampleStore::new(universe.len()),
        tracker: RankTracker::new(),
        converged: true,
        trace: Vec::new(),
        stats: SearchStats::default(),
    };
    let params = Params {
        record_trace: true,
        max_iterations: 2,
        div_interval_2: 1,
        ..Params::quick(8)
    };

    let unbounded = phase2::run(&ev, &universe, &indices, &params, &p1);
    assert_eq!(unbounded.stats.cache_resident_scenarios, indices.len());
    assert_eq!(unbounded.stats.cache_fallback_evals, 0);

    for budget in [0usize, 1 << 20] {
        let bounded = phase2::run(
            &ev,
            &universe,
            &indices,
            &Params {
                cache_budget_bytes: budget,
                ..params
            },
            &p1,
        );
        assert_eq!(bounded.best, unbounded.best, "budget {budget}");
        assert_eq!(bounded.best_kfail, unbounded.best_kfail, "budget {budget}");
        assert_eq!(
            bounded.best_normal, unbounded.best_normal,
            "budget {budget}"
        );
        assert_eq!(bounded.trace, unbounded.trace, "budget {budget}");
        // The budget binds (fewer resident than scenarios, fallback
        // exercised), yet every non-residency stat matches.
        assert!(
            bounded.stats.cache_resident_scenarios < indices.len(),
            "budget {budget} did not bind"
        );
        assert!(
            bounded.stats.cache_fallback_evals > 0,
            "budget {budget} never fell back"
        );
        let mut masked = bounded.stats;
        masked.cache_resident_scenarios = unbounded.stats.cache_resident_scenarios;
        masked.cache_fallback_evals = unbounded.stats.cache_fallback_evals;
        // A budget that keeps nothing resident runs every sweep on the
        // plain path, so its cuts count as `skipped_cutoff`, never as
        // `skipped_cache`; the two still sum to the unbounded run's.
        if bounded.stats.cache_resident_scenarios == 0 {
            assert_eq!(bounded.stats.skipped_cache, 0, "budget {budget}");
            masked.skipped_cache = masked.skipped_cutoff;
            masked.skipped_cutoff = 0;
        }
        assert_eq!(masked, unbounded.stats, "budget {budget}");
    }
}

/// Scale-tier differential: at the 500-node tier (community family) the
/// incremental engine stays bit-identical to the reference evaluator
/// across scenario kinds. Fully deterministic — topology, traffic, and
/// weights derive from fixed seeds, so the CI run under
/// `PROPTEST_SEED=0` reproduces locally as-is.
#[test]
fn engine_matches_reference_at_the_500_node_tier() {
    use dtr::topogen::community;

    let nodes = 500;
    let bp = community::generate(&SynthConfig {
        nodes,
        duplex_links: 1_000,
        seed: 5,
    })
    .unwrap();
    let net = bp.scaled_to_diameter(25e-3).build(500e6).unwrap();
    let mut tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 1.0,
        ..gravity::GravityConfig::paper_default(nodes, 11)
    });
    tm.scale(nodes as f64 * 1e9);
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let reps = net.duplex_representatives();

    let mut rng = StdRng::seed_from_u64(0x500);
    let w = WeightSetting::random(net.num_links(), 20, &mut rng);
    let mut scenarios = vec![Scenario::Normal];
    scenarios.extend(
        [reps[0], reps[reps.len() / 2], reps[reps.len() - 1]]
            .iter()
            .map(|&l| Scenario::Link(l)),
    );
    scenarios.push(Scenario::Node(net.nodes().nth(7).unwrap()));
    scenarios.push(Scenario::DoubleLink(reps[3], reps[11]));

    let mut ws = ev.acquire_workspace();
    for &sc in &scenarios {
        assert_eq!(
            ev.cost_with(&mut ws, &w, sc),
            ev.evaluate(&w, sc).cost,
            "scenario {sc}"
        );
    }
    ev.release_workspace(ws);
}
