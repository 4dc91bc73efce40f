//! Anatomy of the critical-link methodology (§IV): visualize the
//! conditional failure-cost distributions harvested in Phase 1, the
//! resulting criticality ranking, Algorithm 1's merge, and how well the
//! cheap criticality estimate predicts the *actual* damage of ignoring a
//! link.
//!
//! ```text
//! cargo run --release --example critical_links
//! ```

use dtr::core::{criticality::Criticality, phase1, phase1b, selection, FailureUniverse, Params};
use dtr::cost::{CostParams, Evaluator};
use dtr::routing::Scenario;
use dtr::topogen::{synth, SynthConfig, TopoKind};
use dtr::traffic::gravity;

fn main() {
    let net = synth(
        TopoKind::Rand,
        &SynthConfig {
            nodes: 12,
            duplex_links: 26,
            seed: 17,
        },
    )
    .expect("valid config");
    let mut traffic = gravity::generate(&gravity::GravityConfig {
        total_volume: 1.0,
        ..gravity::GravityConfig::paper_default(net.num_nodes(), 8)
    });
    traffic.scale(8e9);

    let ev = Evaluator::new(&net, &traffic, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let params = Params::reduced(123);

    // Phase 1a: optimize + harvest failure-emulating samples.
    let mut p1 = phase1::run(&ev, &universe, &params);
    println!(
        "phase 1a: best normal cost {}, {} samples over {} failable links (converged: {})",
        p1.best_cost,
        p1.store.total(),
        universe.len(),
        p1.converged
    );
    // Phase 1b: top up until the ranking converges.
    let stats = phase1b::run(&ev, &universe, &params, &mut p1);
    println!(
        "phase 1b: {} rounds, {} extra evaluations, converged: {}",
        stats.rounds, stats.evaluations, stats.converged
    );

    // Criticality estimates and the per-class rankings.
    let crit = Criticality::estimate(&p1.store, params.left_tail_fraction);
    println!("\nper-link criticality (failure index: samples, rho_L, rho_P):");
    for i in 0..universe.len() {
        println!(
            "  link {:>2}: {:>4} samples  rho_lambda {:>10.3}  rho_phi {:>12.4e}",
            i,
            p1.store.count(i),
            crit.rho[0][i],
            crit.rho[1][i]
        );
    }

    // Algorithm 1 merge at |Ec|/|E| = 25%.
    let n = universe.target_size(0.25);
    let cs = selection::select(&crit, n);
    println!(
        "\nAlgorithm 1: kept top {} of E_lambda and top {} of E_phi -> Ec = {:?}",
        cs.prefix_lens[0], cs.prefix_lens[1], cs.indices
    );
    println!(
        "residual normalized errors: lambda {:.4}, phi {:.4}",
        cs.residual_errors[0], cs.residual_errors[1]
    );

    // Ground truth: the actual compound failure cost contribution of each
    // link under the phase-1 best routing — criticality should correlate.
    println!("\nsanity: actual failure Λ of the phase-1 best routing:");
    let mut actual: Vec<(usize, f64)> = (0..universe.len())
        .map(|i| {
            let c = ev.cost(&p1.best, universe.scenario(i));
            (i, c.lambda)
        })
        .collect();
    actual.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for &(i, lam) in actual.iter().take(n) {
        let selected = if cs.indices.contains(&i) {
            "in Ec"
        } else {
            "    -"
        };
        println!("  link {i:>2}: Λfail = {lam:>10.3}  [{selected}]");
    }

    // How much does the critical search save?
    println!(
        "\nevaluations per Phase-2 sweep: critical {} vs full {} ({}%)",
        cs.indices.len(),
        universe.len(),
        100 * cs.indices.len() / universe.len()
    );
    let _ = Scenario::Normal;
}
