//! Integration tests: the generalized MTR robust phase against
//! *non-link* failure scenario sets — node failures (§V-F) and
//! shared-risk link groups — exercising the claim that the machinery is
//! scenario-kind agnostic.

use dtr::core::ext::srlg::SrlgCatalog;
use dtr::core::FailureUniverse;
use dtr::mtr::{robust, search, MtrConfig, MtrEvaluator, MtrParams, VecCost};
use dtr::net::Network;
use dtr::routing::Scenario;
use dtr::topogen::{rand_topo, SynthConfig, DEFAULT_CAPACITY, DEFAULT_THETA};
use dtr::traffic::{gravity, TrafficMatrix};

fn testbed(seed: u64) -> (Network, Vec<TrafficMatrix>) {
    let net = rand_topo::generate(&SynthConfig {
        nodes: 10,
        duplex_links: 22,
        seed,
    })
    .unwrap()
    .scaled_to_diameter(DEFAULT_THETA)
    .build(DEFAULT_CAPACITY)
    .unwrap();
    let tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 4e9,
        ..gravity::GravityConfig::paper_default(net.num_nodes(), seed ^ 0x3b)
    });
    (net, vec![tm.delay, tm.throughput])
}

fn config() -> MtrConfig {
    MtrConfig::dtr(25e-3, 0.2)
}

fn kfail(
    ev: &MtrEvaluator<'_>,
    w: &dtr::routing::WeightSetting,
    scenarios: &[Scenario],
) -> VecCost {
    let mut acc = VecCost::zeros(ev.num_classes());
    for &sc in scenarios {
        acc = acc.add(&ev.cost(w, sc));
    }
    acc
}

#[test]
fn mtr_robust_against_node_failures() {
    let (net, tms) = testbed(11);
    let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
    let universe = FailureUniverse::of(&net);
    let params = MtrParams::quick(5);
    let reg = search::regular(&ev, &universe, &params);

    let scenarios = Scenario::all_node_failures(&net);
    assert!(!scenarios.is_empty());
    let out = robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);

    // Constraints hold and the node-failure compound cost does not lose
    // to the regular solution's.
    assert!(robust::feasible(
        &out.best_normal,
        &reg.best_cost,
        &ev.config().specs
    ));
    let reg_kfail = kfail(&ev, &reg.best, &scenarios);
    assert!(
        !reg_kfail.better_than(&out.best_kfail),
        "node-robust MTR lost to regular: {} vs {}",
        out.best_kfail,
        reg_kfail
    );
}

#[test]
fn mtr_robust_against_srlg_groups() {
    let (net, tms) = testbed(13);
    let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
    let universe = FailureUniverse::of(&net);
    let params = MtrParams::quick(7);
    let reg = search::regular(&ev, &universe, &params);

    let catalog = SrlgCatalog::geographic(&net, 0.15);
    let scenarios = catalog.survivable_scenarios(&net);
    if scenarios.is_empty() {
        // Geometry produced no survivable multi-link groups on this
        // instance; nothing to optimize against.
        return;
    }
    let out = robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
    assert!(robust::feasible(
        &out.best_normal,
        &reg.best_cost,
        &ev.config().specs
    ));
    let reg_kfail = kfail(&ev, &reg.best, &scenarios);
    assert!(!reg_kfail.better_than(&out.best_kfail));
}

#[test]
fn mtr_mixed_scenario_kinds_in_one_objective() {
    // Links + nodes + one SRLG group in a single robust objective: the
    // engine must accept the heterogeneous set and produce a feasible
    // solution whose reported compound cost is truthful.
    let (net, tms) = testbed(17);
    let ev = MtrEvaluator::new(&net, &tms, config()).unwrap();
    let universe = FailureUniverse::of(&net);
    let params = MtrParams::quick(3);
    let reg = search::regular(&ev, &universe, &params);

    let mut scenarios = universe.scenarios();
    scenarios.truncate(3);
    scenarios.extend(Scenario::all_node_failures(&net).into_iter().take(2));
    let catalog = SrlgCatalog::geographic(&net, 0.2);
    scenarios.extend(catalog.survivable_scenarios(&net).into_iter().take(1));

    let out = robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
    assert_eq!(kfail(&ev, &out.best, &scenarios), out.best_kfail);
    assert!(robust::feasible(
        &out.best_normal,
        &reg.best_cost,
        &ev.config().specs
    ));
}
