//! Micro-benchmarks of the k-class MTR reference evaluator: how does the
//! cost of one from-scratch evaluation scale with the class count k? It
//! should grow roughly linearly in k (one SPF sweep per class). There is
//! no separate DTR baseline: DTR's fast paths are the k = 2
//! instantiation of the same `dtr_cost::Engine`.

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_mtr::{ClassSpec, MtrConfig, MtrEvaluator, MtrWeightSetting};
use dtr_net::Network;
use dtr_routing::Scenario;
use dtr_topogen::{rand_topo, SynthConfig};
use dtr_traffic::{gravity, ClassMatrices, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn testbed() -> (Network, ClassMatrices) {
    let net = rand_topo::generate(&SynthConfig {
        nodes: 30,
        duplex_links: 90,
        seed: 7,
    })
    .unwrap()
    .scaled_to_diameter(25e-3)
    .build(500e6)
    .unwrap();
    let mut tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 1.0,
        ..gravity::GravityConfig::paper_default(30, 3)
    });
    tm.scale(3e10);
    (net, tm)
}

/// k class matrices carved out of the two-class gravity pair.
fn matrices(tm: &ClassMatrices, k: usize) -> Vec<TrafficMatrix> {
    (0..k)
        .map(|c| {
            if c % 2 == 0 {
                tm.delay.clone()
            } else {
                tm.throughput.clone()
            }
        })
        .collect()
}

/// Alternating SLA / congestion classes.
fn specs(k: usize) -> Vec<ClassSpec> {
    (0..k)
        .map(|c| {
            if c % 2 == 0 {
                ClassSpec::sla(&format!("sla{c}"), 25e-3)
            } else {
                ClassSpec::congestion(&format!("bulk{c}"))
            }
        })
        .collect()
}

fn bench_micro_mtr(c: &mut Criterion) {
    let (net, tm) = testbed();
    let mut rng = StdRng::seed_from_u64(11);

    let mut g = c.benchmark_group("micro_mtr");
    g.sample_size(30);

    for k in [1usize, 2, 3, 4] {
        let tms = matrices(&tm, k);
        let config = MtrConfig::new(specs(k));
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let w = MtrWeightSetting::random(k, net.num_links(), 20, &mut rng);
        g.bench_function(format!("mtr_evaluate_normal_30n_k{k}"), |b| {
            b.iter(|| ev.evaluate(&w, Scenario::Normal))
        });
    }

    g.finish();
}

criterion_group!(benches, bench_micro_mtr);
criterion_main!(benches);
