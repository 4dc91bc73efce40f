//! Differential tests: the generalized k-class MTR engine instantiated
//! with the paper's DTR configuration (one pinned SLA class + one relaxed
//! congestion class) must reproduce the DTR evaluator *exactly* — same
//! per-link loads, same per-class costs, same lexicographic decisions —
//! for arbitrary weight settings and failure scenarios; and the one
//! Phase 1 must top up samples and select the critical set identically
//! through both front doors.

use dtr::core::phase1::{self, Phase1Output};
use dtr::core::search::Archive;
use dtr::core::{phase1b, selection, FailureUniverse, Params, ScenarioSet, Selector};
use dtr::cost::{CostParams, Evaluator, LexCost};
use dtr::mtr::criticality::{select_k, target_size, KWayCriticality};
use dtr::mtr::search::{self as mtr_search, MtrRegularOutput};
use dtr::mtr::{MtrConfig, MtrEvaluator, MtrParams, VecCost};
use dtr::net::Network;
use dtr::routing::{Scenario, WeightSetting};
use dtr::topogen::{rand_topo, SynthConfig, DEFAULT_CAPACITY, DEFAULT_THETA};
use dtr::traffic::{gravity, ClassMatrices};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn testbed(seed: u64) -> (Network, ClassMatrices) {
    let net = rand_topo::generate(&SynthConfig {
        nodes: 10,
        duplex_links: 20,
        seed,
    })
    .expect("generator config is valid")
    .scaled_to_diameter(DEFAULT_THETA)
    .build(DEFAULT_CAPACITY)
    .expect("blueprint is connected");
    let tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 4e9,
        ..gravity::GravityConfig::paper_default(net.num_nodes(), seed ^ 0xabc)
    });
    (net, tm)
}

/// Random two-class weight setting: both front doors route the same
/// setting, the delay class as MTR's class 0 and the throughput class
/// as its class 1.
fn random_weights(net: &Network, rng: &mut StdRng) -> WeightSetting {
    let m = net.num_links();
    let delay: Vec<u32> = (0..m).map(|_| rng.gen_range(1..=20)).collect();
    let tput: Vec<u32> = (0..m).map(|_| rng.gen_range(1..=20)).collect();
    WeightSetting::from_vecs(delay, tput, 20)
}

#[test]
fn mtr_reproduces_dtr_costs_under_normal_conditions() {
    let (net, tm) = testbed(1);
    let matrices = vec![tm.delay.clone(), tm.throughput.clone()];
    let dtr_ev = Evaluator::new(&net, &tm, CostParams::default());
    let mtr_ev = MtrEvaluator::new(&net, &matrices, MtrConfig::dtr(25e-3, 0.2)).unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..20 {
        let w = random_weights(&net, &mut rng);
        let d = dtr_ev.evaluate(&w, Scenario::Normal);
        let m = mtr_ev.evaluate(&w, Scenario::Normal);
        assert_eq!(d.cost.lambda, m.cost.component(0), "Λ mismatch");
        assert_eq!(d.cost.phi, m.cost.component(1), "Φ mismatch");
        assert_eq!(d.total_loads, m.total_loads, "total load mismatch");
        assert_eq!(d.delay_loads, m.class_loads[0]);
        assert_eq!(d.throughput_loads, m.class_loads[1]);
        assert_eq!(d.sla.violations, m.sla[0].unwrap().violations);
    }
}

#[test]
fn mtr_reproduces_dtr_costs_under_every_link_failure() {
    let (net, tm) = testbed(2);
    let matrices = vec![tm.delay.clone(), tm.throughput.clone()];
    let dtr_ev = Evaluator::new(&net, &tm, CostParams::default());
    let mtr_ev = MtrEvaluator::new(&net, &matrices, MtrConfig::dtr(25e-3, 0.2)).unwrap();

    let mut rng = StdRng::seed_from_u64(11);
    let w = random_weights(&net, &mut rng);
    for sc in Scenario::all_link_failures(&net) {
        let d = dtr_ev.evaluate(&w, sc);
        let m = mtr_ev.evaluate(&w, sc);
        assert_eq!(d.cost.lambda, m.cost.component(0), "{sc}: Λ mismatch");
        assert_eq!(d.cost.phi, m.cost.component(1), "{sc}: Φ mismatch");
        assert_eq!(d.link_delays, m.link_delays, "{sc}: delay mismatch");
    }
}

#[test]
fn mtr_reproduces_dtr_costs_under_node_failures() {
    let (net, tm) = testbed(3);
    let matrices = vec![tm.delay.clone(), tm.throughput.clone()];
    let dtr_ev = Evaluator::new(&net, &tm, CostParams::default());
    let mtr_ev = MtrEvaluator::new(&net, &matrices, MtrConfig::dtr(25e-3, 0.2)).unwrap();

    let mut rng = StdRng::seed_from_u64(13);
    let w = random_weights(&net, &mut rng);
    for sc in Scenario::all_node_failures(&net) {
        let d = dtr_ev.evaluate(&w, sc);
        let m = mtr_ev.evaluate(&w, sc);
        assert_eq!(d.cost.lambda, m.cost.component(0), "{sc}: Λ mismatch");
        assert_eq!(d.cost.phi, m.cost.component(1), "{sc}: Φ mismatch");
        assert_eq!(d.dropped, m.dropped, "{sc}: dropped mismatch");
    }
}

#[test]
fn lexicographic_decisions_agree() {
    // The orderings must agree on real evaluation outputs, not just on
    // synthetic pairs: pick random weight pairs and compare decisions.
    let (net, tm) = testbed(4);
    let matrices = vec![tm.delay.clone(), tm.throughput.clone()];
    let dtr_ev = Evaluator::new(&net, &tm, CostParams::default());
    let mtr_ev = MtrEvaluator::new(&net, &matrices, MtrConfig::dtr(25e-3, 0.2)).unwrap();

    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..15 {
        let wa = random_weights(&net, &mut rng);
        let wb = random_weights(&net, &mut rng);
        let da = dtr_ev.cost(&wa, Scenario::Normal);
        let db = dtr_ev.cost(&wb, Scenario::Normal);
        let ma = mtr_ev.cost(&wa, Scenario::Normal);
        let mb = mtr_ev.cost(&wb, Scenario::Normal);
        assert_eq!(da.better_than(&db), ma.better_than(&mb));
        assert_eq!(db.better_than(&da), mb.better_than(&ma));
    }
}

#[test]
fn mean_aggregation_also_agrees() {
    let (net, tm) = testbed(5);
    let matrices = vec![tm.delay.clone(), tm.throughput.clone()];
    let params = CostParams {
        aggregation: dtr::cost::DelayAggregation::Mean,
        ..CostParams::default()
    };
    let dtr_ev = Evaluator::new(&net, &tm, params);
    let mut config = MtrConfig::dtr(25e-3, 0.2);
    config.delay_params = params;
    let mtr_ev = MtrEvaluator::new(&net, &matrices, config).unwrap();

    let mut rng = StdRng::seed_from_u64(23);
    let w = random_weights(&net, &mut rng);
    let d = dtr_ev.evaluate(&w, Scenario::Normal);
    let m = mtr_ev.evaluate(&w, Scenario::Normal);
    assert_eq!(d.cost.lambda, m.cost.component(0));
    assert_eq!(d.cost.phi, m.cost.component(1));
}

/// `MtrParams` with every field `Params` shares set to `p`'s.
fn mtr_params_of(p: &Params) -> MtrParams {
    MtrParams {
        wmax: p.wmax,
        q: p.q,
        z: p.z,
        left_tail_fraction: p.left_tail_fraction,
        tau: p.tau,
        e: p.e,
        c: p.c,
        p1: p.p1,
        p2: p.p2,
        div_interval_1: p.div_interval_1,
        div_interval_2: p.div_interval_2,
        critical_fraction: p.critical_fraction,
        max_sampling_rounds: p.max_phase1b_rounds,
        archive_size: p.archive_size,
        max_iterations: p.max_iterations,
        threads: p.threads,
        cutoff: p.cutoff,
        record_trace: p.record_trace,
        portfolio: p.portfolio,
        cache_budget_bytes: p.cache_budget_bytes,
        deadline_ms: p.deadline_ms,
        checkpoint_every: p.checkpoint_every,
        seed: p.seed,
    }
}

/// DTR's Phase-1 output in MTR's cost type. The weight setting, the
/// sample store and the rank tracker are one type, so they carry over
/// as they are; the archive is re-offered entry by entry and must keep
/// its order.
fn mirror(p1: &Phase1Output, archive_size: usize) -> MtrRegularOutput {
    let cost = |c: &LexCost| VecCost::new(vec![c.lambda, c.phi]);
    let mut archive = Archive::new(archive_size);
    for (w, c) in p1.archive.entries() {
        archive.offer(w, cost(c));
    }
    let order: Vec<&WeightSetting> = archive.entries().iter().map(|(w, _)| w).collect();
    let dtr_order: Vec<&WeightSetting> = p1.archive.entries().iter().map(|(w, _)| w).collect();
    assert_eq!(order, dtr_order, "mirrored archive keeps its order");
    Phase1Output {
        best: p1.best.clone(),
        best_cost: cost(&p1.best_cost),
        archive,
        store: p1.store.clone(),
        tracker: p1.tracker.clone(),
        converged: p1.converged,
        trace: p1.trace.clone(),
        stats: p1.stats,
    }
}

/// Phase 1b and the critical-set selection, once through `Evaluator` and
/// once through `MtrEvaluator` with `MtrConfig::dtr(25e-3, 0.2)`, from
/// the same Phase-1a output: the samples (bit for bit), rounds,
/// evaluations, convergence and critical set agree.
///
/// Phase 1a itself is not compared. Its sample gate and cost order are
/// still per front door: DTR compares Φ strictly once Λ ties and gates
/// samples on `z·B1` and `(1+χ)`, while `VecCost` compares every
/// component within `COMPONENT_EPS` and MTR's gate adds `COMPONENT_EPS`.
/// Measured on 24 `rand_topo` runs (10–20 nodes, `Params::quick`), 20
/// Phase-1a trajectories diverge; with the order and the gate aligned,
/// all 24 agree. So DTR's Phase-1a output is mirrored into MTR's types
/// and both front doors continue from it.
#[test]
fn phase1b_and_selection_agree_across_front_doors() {
    for seed in 1..=4u64 {
        let (net, tm) = testbed(seed);
        let matrices = vec![tm.delay.clone(), tm.throughput.clone()];
        let dtr_ev = Evaluator::new(&net, &tm, CostParams::default());
        let mtr_ev = MtrEvaluator::new(&net, &matrices, MtrConfig::dtr(25e-3, 0.2)).unwrap();
        let universe = FailureUniverse::of(&net);
        let params = Params::quick(seed);
        let mtr_params = mtr_params_of(&params);

        let mut dtr_p1 = phase1::run(&dtr_ev, &universe, &params);
        // Force the top-up to run (a converged Phase 1a skips it).
        dtr_p1.converged = false;
        let mut mtr_p1 = mirror(&dtr_p1, params.archive_size);

        let dtr_1b = phase1b::run(&dtr_ev, &universe, &params, &mut dtr_p1);
        let (rounds, evaluations) =
            mtr_search::top_up_samples(&mtr_ev, &universe, &mtr_params, &mut mtr_p1);
        assert!(dtr_1b.rounds >= 1, "seed {seed}: the top-up ran");
        assert_eq!((dtr_1b.rounds, dtr_1b.evaluations), (rounds, evaluations));
        assert_eq!(dtr_1b.converged, mtr_p1.converged, "seed {seed}");
        assert_eq!(dtr_p1.converged, mtr_p1.converged, "seed {seed}");
        assert_eq!(dtr_p1.store.total(), mtr_p1.store.total(), "seed {seed}");
        for class in 0..2 {
            for i in 0..universe.len() {
                let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(dtr_p1.store.samples(class, i)),
                    bits(mtr_p1.store.samples(class, i)),
                    "seed {seed}: class {class}, failure index {i}"
                );
            }
        }

        let dtr_critical =
            selection::select_for_set(&universe, &dtr_ev, &dtr_p1, &params, Selector::MeanLeftTail);
        let crit = KWayCriticality::estimate(&mtr_p1.store, mtr_params.left_tail_fraction);
        let n = target_size(&mtr_params, universe.len());
        let mtr_critical = universe.critical_scenarios(&select_k(&crit, n).indices);
        assert!(!dtr_critical.is_empty());
        assert_eq!(dtr_critical, mtr_critical, "seed {seed}");
    }
}
