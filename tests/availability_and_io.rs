//! Integration tests of the operator-facing utilities: SLA-availability
//! analysis over the robust pipeline's outputs, and text round-trips of
//! optimized weight settings (DTR and MTR formats).

use dtr::core::ext::availability::{self};
use dtr::core::ext::probabilistic::FailureModel;
use dtr::core::{FailureUniverse, Params, RobustOptimizer};
use dtr::cost::{CostParams, Evaluator};
use dtr::mtr::weights_io as mtr_io;
use dtr::routing::weights_io as dtr_io;
use dtr::routing::WeightSetting;
use dtr::topogen::{rand_topo, SynthConfig, DEFAULT_CAPACITY, DEFAULT_THETA};
use dtr::traffic::gravity::{self, GravityConfig};

fn testbed(seed: u64) -> (dtr::net::Network, dtr::traffic::ClassMatrices) {
    let net = rand_topo::generate(&SynthConfig {
        nodes: 10,
        duplex_links: 22,
        seed,
    })
    .unwrap()
    .scaled_to_diameter(DEFAULT_THETA)
    .build(DEFAULT_CAPACITY)
    .unwrap();
    let mut tm = gravity::generate(&GravityConfig {
        total_volume: 1.0,
        ..GravityConfig::paper_default(net.num_nodes(), seed ^ 0x77)
    });
    tm.scale(4e9);
    (net, tm)
}

#[test]
fn robust_routing_has_no_worse_availability_than_regular() {
    let (net, tm) = testbed(5);
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let opt = RobustOptimizer::new(&ev, Params::quick(9));
    let report = opt.optimize();
    let universe = FailureUniverse::of(&net);
    let model = FailureModel::uniform(&universe);

    let reg = availability::analyze(&ev, &universe, &report.regular, &model, 0.05);
    let rob = availability::analyze(&ev, &universe, &report.robust, &model, 0.05);

    // The robust routing was optimized against exactly this failure
    // ensemble's worst members: its expected violation rate must not be
    // dramatically worse, and typically improves. Assert the weak,
    // always-true direction plus report sanity.
    assert!(rob.expected_violations.is_finite());
    assert!(reg.expected_violations.is_finite());
    assert!(rob.network_availability >= 0.0 && rob.network_availability <= 1.0);
    assert!(rob.mean_availability() >= rob.network_availability - 1e-12);
    // Pair lists cover the same demand pairs.
    assert_eq!(reg.pairs.len(), rob.pairs.len());
    // Worst-first ordering.
    for w in rob.pairs.windows(2) {
        assert!(w[0].availability <= w[1].availability + 1e-12);
    }
}

#[test]
fn availability_probabilities_sum_consistently() {
    let (net, tm) = testbed(6);
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let w = dtr::routing::WeightSetting::uniform(net.num_links(), 20);
    let model = FailureModel::length_proportional(&net, &universe);
    let f = 0.08;
    let report = availability::analyze(&ev, &universe, &w, &model, f);
    // Expected violations equal the sum over pairs of their violation
    // probability mass.
    let pair_mass: f64 = report.pairs.iter().map(|p| 1.0 - p.availability).sum();
    assert!((pair_mass - report.expected_violations).abs() < 1e-9);
    assert_eq!(report.failure_fraction, f);
}

#[test]
fn optimized_dtr_weights_round_trip_through_text() {
    let (net, tm) = testbed(7);
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let opt = RobustOptimizer::new(&ev, Params::quick(3));
    let report = opt.optimize();

    let text = dtr_io::to_text(&report.robust);
    let back = dtr_io::from_text(&text).expect("round trip parses");
    assert_eq!(back, report.robust);
    // The re-imported setting evaluates identically.
    assert_eq!(
        ev.cost(&back, dtr::routing::Scenario::Normal),
        report.robust_normal_cost
    );
}

#[test]
fn mtr_weights_round_trip_preserves_evaluation() {
    use dtr::mtr::{MtrConfig, MtrEvaluator};
    let (net, tm) = testbed(8);
    let matrices = vec![tm.delay.clone(), tm.throughput.clone()];
    let ev = MtrEvaluator::new(&net, &matrices, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
    let w = WeightSetting::random_k(2, net.num_links(), 20, &mut rng);
    let back = mtr_io::from_text(&mtr_io::to_text(&w)).expect("round trip parses");
    assert_eq!(back, w);
    assert_eq!(
        ev.cost(&back, dtr::routing::Scenario::Normal),
        ev.cost(&w, dtr::routing::Scenario::Normal)
    );
}

#[test]
fn dtr_and_mtr_text_formats_are_distinguishable() {
    // The headers differ, so feeding one format to the other parser
    // fails loudly instead of mis-importing.
    let w2 = WeightSetting::uniform_k(2, 3, 20);
    let mtr_text = mtr_io::to_text(&w2);
    assert!(mtr_io::from_text(&mtr_text).is_ok());
    assert!(dtr_io::from_text(&mtr_text).is_err());

    let wd = dtr::routing::WeightSetting::uniform(3, 20);
    let dtr_text = dtr_io::to_text(&wd);
    assert!(dtr_io::from_text(&dtr_text).is_ok());
    assert!(mtr_io::from_text(&dtr_text).is_err());
}
