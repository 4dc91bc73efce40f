//! The one pipeline (`dtr::core::pipeline::Optimizer`) pinned to its
//! stages.
//!
//! `RobustOptimizer` (k = 2, `Evaluator`) and `MtrOptimizer` (k = 3,
//! `MtrEvaluator`) are the same optimizer on two engines. Each report
//! must equal, bit for bit, the stages called by hand in the order the
//! two front doors have always composed them:
//!
//! * DTR: `phase1::run` → `phase1b::run` → `selection::select_for_set`
//!   (the paper's selector) → `phase2::run` on the set's indices;
//! * MTR: `search::regular` → `search::top_up_samples` →
//!   `selection::select_scenarios` → `robust::run` on the materialized
//!   `scenarios_for` / `weights_for` slices.
//!
//! Both legs run over the single-link universe and over a
//! probability-weighted `Probabilistic` set, so the pipeline's robust
//! phase on `(set, indices)` is checked against the slice path with
//! weights, too.
//!
//! The second half holds the k-class pipeline's behavioural tests (the
//! critical-set size, the per-class constraints, truthful costs,
//! determinism, arbitrary scenario sets and k = 1).

use dtr::core::phase1::Phase1Output;
use dtr::core::phase1b::Phase1bStats;
use dtr::core::pipeline::{PipelineStats, Report};
use dtr::core::robust::RobustOutput;
use dtr::core::scenario::ScenarioSet;
use dtr::core::{phase1, phase1b, phase2, selection};
use dtr::cost::{CostParams, Evaluator, LexCost};
use dtr::mtr::criticality::target_size;
use dtr::mtr::robust::{self as mtr_robust, feasible};
use dtr::mtr::search as mtr_search;
use dtr::mtr::{ClassSpec, MtrConfig, MtrEvaluator, MtrOptimizer, MtrParams, MtrReport, VecCost};
use dtr::net::{Network, NetworkBuilder, Point};
use dtr::prelude::{
    FailureUniverse, Params, Probabilistic, RobustOptimizer, RobustReport, Selector, Srlg,
};
use dtr::routing::Scenario;
use dtr::traffic::{gravity, ClassMatrices, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 6-ring with two chords, nodes on a circle (so chord lengths differ
/// from ring lengths and length-proportional probabilities are not
/// uniform).
fn ring_with_chords() -> Network {
    let mut b = NetworkBuilder::new();
    let n: Vec<_> = (0..6)
        .map(|i| b.add_node(Point::new((i as f64).cos(), (i as f64).sin())))
        .collect();
    for i in 0..6 {
        b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
    }
    b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
    b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
    b.build().unwrap()
}

/// `classes` random demand matrices on [`ring_with_chords`].
fn mtr_testbed(classes: usize) -> (Network, Vec<TrafficMatrix>) {
    let net = ring_with_chords();
    let mut rng = StdRng::seed_from_u64(33);
    let mut tms = vec![TrafficMatrix::zeros(6); classes];
    for tm in tms.iter_mut() {
        for s in 0..6 {
            for t in 0..6 {
                if s != t {
                    tm.set(s, t, rng.gen_range(1e3..3e4));
                }
            }
        }
    }
    (net, tms)
}

fn dtr_traffic(net: &Network) -> ClassMatrices {
    gravity::generate(&gravity::GravityConfig {
        total_volume: 2.5e6,
        ..gravity::GravityConfig::paper_default(net.num_nodes(), 9)
    })
}

/// Three classes with SLA thresholds tight enough (two-millisecond
/// links) that the SLA components carry cost.
fn tight_three_classes() -> MtrConfig {
    MtrConfig::new(vec![
        ClassSpec::sla("voice", 5e-3),
        ClassSpec::sla("video", 7e-3).relaxed(0.1),
        ClassSpec::congestion("bulk"),
    ])
}

/// DTR's cost model with the same tight SLA threshold.
fn tight_sla() -> CostParams {
    CostParams {
        theta: 5e-3,
        ..CostParams::default()
    }
}

fn three_classes() -> MtrConfig {
    MtrConfig::new(vec![
        ClassSpec::sla("voice", 10e-3),
        ClassSpec::sla("video", 50e-3).relaxed(0.1),
        ClassSpec::congestion("bulk"),
    ])
}

/// `got` must equal `want`, the report assembled from the stages, in
/// both settings, the cost bits, the selection, the sample count,
/// convergence and the stats (the wall-clock fields aside).
fn assert_same<C>(what: &str, got: &Report<C>, want: &Report<C>, bits: impl Fn(&C) -> Vec<u64>) {
    assert_eq!(got.regular, want.regular, "{what}: regular setting");
    assert_eq!(
        bits(&got.regular_cost),
        bits(&want.regular_cost),
        "{what}: regular cost"
    );
    assert_eq!(got.robust, want.robust, "{what}: robust setting");
    assert_eq!(bits(&got.kfail), bits(&want.kfail), "{what}: K̄fail");
    assert_eq!(
        bits(&got.robust_normal_cost),
        bits(&want.robust_normal_cost),
        "{what}: robust normal cost"
    );
    assert_eq!(
        got.critical_indices, want.critical_indices,
        "{what}: critical indices"
    );
    assert_eq!(
        got.critical_links, want.critical_links,
        "{what}: critical links"
    );
    assert_eq!(got.samples, want.samples, "{what}: samples");
    assert_eq!(got.converged, want.converged, "{what}: converged");
    assert_eq!(
        got.stats.phase1, want.stats.phase1,
        "{what}: Phase-1a stats"
    );
    assert_eq!(
        got.stats.phase1b, want.stats.phase1b,
        "{what}: Phase-1b stats"
    );
    assert_eq!(
        got.stats.phase2, want.stats.phase2,
        "{what}: robust-phase stats"
    );
    assert!(
        want.stats.phase1b.rounds > 0,
        "{what}: the top-up never ran"
    );
}

/// The report the stages' outputs make.
fn report_of<C, S: ScenarioSet>(
    set: &S,
    p1: Phase1Output<C>,
    p1b: Phase1bStats,
    critical_indices: Vec<usize>,
    robust: RobustOutput<C>,
) -> Report<C> {
    Report {
        regular: p1.best,
        regular_cost: p1.best_cost,
        robust: robust.best,
        robust_normal_cost: robust.best_normal,
        kfail: robust.best_kfail,
        critical_links: critical_indices
            .iter()
            .filter_map(|&i| match set.scenario(i) {
                Scenario::Link(l) => Some(l),
                _ => None,
            })
            .collect(),
        critical_indices,
        samples: p1.store.total(),
        converged: p1.converged,
        stats: PipelineStats {
            phase1: p1.stats,
            phase1b: p1b,
            phase2: robust.stats,
            ..PipelineStats::default()
        },
    }
}

/// DTR's stages as `RobustOptimizer::optimize` has always run them.
fn dtr_stages<S: ScenarioSet + Sync>(ev: &Evaluator<'_>, set: &S, params: &Params) -> RobustReport {
    let mut p1 = phase1::run(ev, set.universe(), params);
    let p1b = phase1b::run(ev, set.universe(), params, &mut p1);
    let critical = selection::select_for_set(set, ev, &p1, params, Selector::MeanLeftTail);
    let p2 = phase2::run(ev, set, &critical, params, &p1);
    report_of(set, p1, p1b, critical, p2)
}

fn check_dtr<S: ScenarioSet + Sync>(what: &str, ev: &Evaluator<'_>, set: S, params: Params) {
    let want = dtr_stages(ev, &set, &params);
    let got = RobustOptimizer::builder(ev)
        .scenarios(set)
        .params(params)
        .build()
        .optimize();
    assert_same(what, &got, &want, |c: &LexCost| {
        vec![c.lambda.to_bits(), c.phi.to_bits()]
    });
    assert!(
        want.kfail.lambda > 0.0,
        "{what}: the SLA class carries no cost"
    );
}

/// MTR's stages as `MtrOptimizer::optimize` ran them: the robust phase
/// on the materialized scenarios and weights of the selection.
fn mtr_stages<S: ScenarioSet>(ev: &MtrEvaluator<'_>, set: &S, params: &MtrParams) -> MtrReport {
    let mut reg = mtr_search::regular(ev, set.universe(), params);
    let (rounds, evaluations) = mtr_search::top_up_samples(ev, set.universe(), params, &mut reg);
    let p1b = Phase1bStats {
        rounds,
        evaluations,
        converged: reg.converged,
    };
    let critical = selection::select_scenarios(
        set,
        &reg.store,
        params.left_tail_fraction,
        params.critical_fraction,
    );
    let scenarios = set.scenarios_for(&critical);
    let weights = set.weighted().then(|| set.weights_for(&critical));
    let out = mtr_robust::run(
        ev,
        &scenarios,
        params,
        &reg.best_cost,
        &reg.archive,
        weights.as_deref(),
    );
    report_of(set, reg, p1b, critical, out)
}

fn check_mtr<S: ScenarioSet + Sync>(what: &str, ev: &MtrEvaluator<'_>, set: S, params: MtrParams) {
    let want = mtr_stages(ev, &set, &params);
    let got = MtrOptimizer::builder(ev)
        .scenarios(set)
        .params(params)
        .build()
        .optimize();
    assert_same(what, &got, &want, |c: &VecCost| {
        c.components().iter().map(|x| x.to_bits()).collect()
    });
    assert!(
        want.kfail.component(0) > 0.0,
        "{what}: the SLA class carries no cost"
    );
}

/// A probability-weighted set whose selected scenarios carry weights
/// other than 1, so the robust phase's weighted fold is exercised.
fn weighted_set(net: &Network) -> Probabilistic {
    let set = Probabilistic::length_proportional(net);
    assert!(set.weighted());
    assert!(
        set.weights_for(&set.all_indices())
            .iter()
            .any(|&p| p != 1.0),
        "the testbed must give non-unit probabilities"
    );
    set
}

// A zero rank-change threshold keeps the ranking from settling in
// Phase 1a, so every leg runs the top-up (two rounds at most).

#[test]
fn dtr_pipeline_is_its_stages() {
    let net = ring_with_chords();
    let tm = dtr_traffic(&net);
    let ev = Evaluator::new(&net, &tm, tight_sla());
    let params = Params {
        e: 0.0,
        max_phase1b_rounds: 2,
        ..Params::quick(21)
    };
    check_dtr("dtr single-link", &ev, FailureUniverse::of(&net), params);
    check_dtr("dtr probabilistic", &ev, weighted_set(&net), params);
}

#[test]
fn mtr_pipeline_is_its_stages() {
    let (net, tms) = mtr_testbed(3);
    let ev = MtrEvaluator::new(&net, &tms, tight_three_classes()).unwrap();
    let params = MtrParams {
        e: 0.0,
        max_sampling_rounds: 2,
        ..MtrParams::quick(7)
    };
    check_mtr("mtr single-link", &ev, FailureUniverse::of(&net), params);
    check_mtr("mtr probabilistic", &ev, weighted_set(&net), params);
}

#[test]
fn full_pipeline_three_classes() {
    let (net, tms) = mtr_testbed(3);
    let ev = MtrEvaluator::new(&net, &tms, three_classes()).unwrap();
    let opt = MtrOptimizer::new(&ev, MtrParams::quick(7));
    let report = opt.optimize();

    // Critical set respects the target fraction.
    let target = target_size(&MtrParams::quick(7), opt.universe().len());
    assert!(report.critical_indices.len() <= target);
    assert!(!report.critical_indices.is_empty());

    // Constraints hold.
    assert!(feasible(
        &report.robust_normal_cost,
        &report.regular_cost,
        &ev.config().specs
    ));

    // Reported costs are truthful.
    assert_eq!(
        ev.cost(&report.robust, Scenario::Normal),
        report.robust_normal_cost
    );
    assert_eq!(
        ev.cost(&report.regular, Scenario::Normal),
        report.regular_cost
    );

    // The robust solution beats (or ties) the regular one on the
    // critical-set compound failure cost.
    let scenarios = opt.universe().scenarios_for(&report.critical_indices);
    let mut reg_kfail = VecCost::zeros(3);
    for &sc in &scenarios {
        reg_kfail = reg_kfail.add(&ev.cost(&report.regular, sc));
    }
    assert!(!reg_kfail.better_than(&report.kfail));
}

#[test]
fn pipeline_is_deterministic() {
    let (net, tms) = mtr_testbed(2);
    let config = MtrConfig::dtr(25e-3, 0.2);
    let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
    let a = MtrOptimizer::new(&ev, MtrParams::quick(4)).optimize();
    let b = MtrOptimizer::new(&ev, MtrParams::quick(4)).optimize();
    assert_eq!(a.robust, b.robust);
    assert_eq!(a.kfail, b.kfail);
    assert_eq!(a.critical_indices, b.critical_indices);
}

#[test]
fn builder_scenario_set_pipeline_runs() {
    // The k-class pipeline rides arbitrary scenario sets — here the
    // SRLG union set — through the same builder as the two-class one.
    let (net, tms) = mtr_testbed(2);
    let config = MtrConfig::dtr(25e-3, 0.2);
    let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
    let set = Srlg::geographic(&net, 0.35);
    let groups = set.group_count();
    let singles = set.universe().len();
    let report = MtrOptimizer::builder(&ev)
        .scenarios(set)
        .params(MtrParams::quick(4))
        .build()
        .optimize();
    // Every group scenario is kept next to the critical singles.
    assert!(report.critical_indices.len() >= groups);
    assert!(report
        .critical_indices
        .iter()
        .all(|&i| i < singles + groups));
    // Default-universe builder agrees with MtrOptimizer::new.
    let a = MtrOptimizer::new(&ev, MtrParams::quick(4)).optimize();
    let b = MtrOptimizer::builder(&ev)
        .params(MtrParams::quick(4))
        .build()
        .optimize();
    assert_eq!(a.robust, b.robust);
    assert_eq!(a.critical_indices, b.critical_indices);
}

#[test]
fn single_class_pipeline_runs() {
    // k = 1 degenerates to single-topology robust routing — the
    // setting of the paper's prior-art refs [10], [23], [24].
    let (net, tms) = mtr_testbed(1);
    let config = MtrConfig::new(vec![ClassSpec::congestion("all")]);
    let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
    let report = MtrOptimizer::new(&ev, MtrParams::quick(2)).optimize();
    assert_eq!(report.kfail.len(), 1);
    assert!(!report.critical_indices.is_empty());
}
