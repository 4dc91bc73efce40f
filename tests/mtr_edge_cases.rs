//! Failure-injection and edge-case tests for the k-class MTR evaluator:
//! degenerate traffic, partitioning failures, saturated links, and
//! higher class counts — the inputs a release library must survive.

use dtr::mtr::{ClassSpec, MtrConfig, MtrEvaluator};
use dtr::net::{LinkId, Network, NetworkBuilder, Point};
use dtr::routing::Scenario;
use dtr::routing::WeightSetting;
use dtr::traffic::TrafficMatrix;

/// Two nodes joined by one duplex link (a bridge), plus a 3-cycle hanging
/// off node 1: failing the bridge partitions {0} from the rest.
fn bridged() -> Network {
    let mut b = NetworkBuilder::new();
    let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
    b.add_duplex_link(n[0], n[1], 1e6, 1e-3).unwrap();
    b.add_duplex_link(n[1], n[2], 1e6, 1e-3).unwrap();
    b.add_duplex_link(n[2], n[3], 1e6, 1e-3).unwrap();
    b.add_duplex_link(n[3], n[1], 1e6, 1e-3).unwrap();
    b.build().unwrap()
}

fn config3() -> MtrConfig {
    MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::sla("video", 50e-3).relaxed(0.1),
        ClassSpec::congestion("bulk"),
    ])
}

#[test]
fn zero_traffic_evaluates_to_zero_cost() {
    let net = bridged();
    let tms = vec![TrafficMatrix::zeros(4); 3];
    let ev = MtrEvaluator::new(&net, &tms, config3()).unwrap();
    let w = WeightSetting::uniform_k(3, net.num_links(), 20);
    let b = ev.evaluate(&w, Scenario::Normal);
    for c in 0..3 {
        assert_eq!(b.cost.component(c), 0.0, "class {c} cost must be zero");
    }
    assert_eq!(b.dropped, 0.0);
    assert!(b.total_loads.iter().all(|&x| x == 0.0));
    assert_eq!(b.total_violations(), 0);
}

#[test]
fn bridge_failure_charges_disconnection_not_panic() {
    let net = bridged();
    let mut tms = vec![TrafficMatrix::zeros(4); 3];
    tms[0].set(0, 3, 10.0); // voice crossing the bridge
    tms[2].set(0, 2, 20.0); // bulk crossing the bridge
    let ev = MtrEvaluator::new(&net, &tms, config3()).unwrap();
    let w = WeightSetting::uniform_k(3, net.num_links(), 20);

    let bridge = LinkId::new(0);
    let b = ev.evaluate(&w, Scenario::Link(bridge));
    // Voice pair is disconnected: charged as a violation with the finite
    // disconnect surrogate, never NaN/inf in the cost vector.
    assert!(b.cost.component(0).is_finite());
    assert!(b.cost.component(0) > 0.0);
    assert_eq!(b.sla[0].unwrap().violations, 1);
    // Bulk demand is unroutable and reported as dropped.
    assert!(b.dropped >= 20.0);
}

#[test]
fn saturated_link_stays_finite_via_linearization() {
    let net = bridged();
    let mut tms = vec![TrafficMatrix::zeros(4); 3];
    // Offer 3x the bridge capacity of bulk traffic.
    tms[2].set(0, 1, 3e6);
    let ev = MtrEvaluator::new(&net, &tms, config3()).unwrap();
    let w = WeightSetting::uniform_k(3, net.num_links(), 20);
    let b = ev.evaluate(&w, Scenario::Normal);
    assert!(
        b.cost.component(2).is_finite(),
        "congestion cost must stay finite"
    );
    assert!(b.link_delays.iter().all(|d| d.is_finite()));
    assert!(b.max_utilization(&net) > 1.0);
}

#[test]
fn four_class_evaluation_is_consistent_with_pairwise_sums() {
    // Loads are additive across classes: the total load of a 4-class
    // evaluation equals the sum of its per-class loads.
    let net = bridged();
    let mut tms = vec![TrafficMatrix::zeros(4); 4];
    for (k, tm) in tms.iter_mut().enumerate() {
        tm.set(k % 4, (k + 2) % 4, 1e4 * (k + 1) as f64);
    }
    let config = MtrConfig::new(vec![
        ClassSpec::sla("a", 25e-3),
        ClassSpec::sla("b", 25e-3),
        ClassSpec::congestion("c"),
        ClassSpec::congestion("d"),
    ]);
    let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
    let w = WeightSetting::uniform_k(4, net.num_links(), 20);
    let b = ev.evaluate(&w, Scenario::Normal);
    for l in 0..net.num_links() {
        let sum: f64 = (0..4).map(|k| b.class_loads[k][l]).sum();
        assert!((b.total_loads[l] - sum).abs() < 1e-9);
    }
}

#[test]
#[should_panic(expected = "diagonal")]
fn self_demand_is_rejected_at_the_matrix() {
    // TrafficMatrix::set refuses diagonal demands outright, so malformed
    // self-traffic can never reach the evaluator.
    let mut tm = TrafficMatrix::zeros(4);
    tm.set(1, 1, 1e5);
}

#[test]
fn node_failure_of_isolated_source_zeroes_its_class() {
    let net = bridged();
    let mut tms = vec![TrafficMatrix::zeros(4); 3];
    tms[1].set(0, 2, 5e4); // only node 0 sources traffic, class video
    let ev = MtrEvaluator::new(&net, &tms, config3()).unwrap();
    let w = WeightSetting::uniform_k(3, net.num_links(), 20);
    let b = ev.evaluate(&w, Scenario::Node(dtr::net::NodeId::new(0)));
    assert_eq!(b.dropped, 0.0);
    assert!(b.total_loads.iter().all(|&x| x == 0.0));
    assert_eq!(b.cost.component(1), 0.0);
}
