//! Workloads, their sizes, and the seeded generation of their inputs.
//!
//! Everything the library receives is generated here from the workload
//! seed: topology, traffic and search seeds are derived per instance
//! with `dtr_core::replica_seed` (SplitMix64), so the same `--seed`
//! always yields the same inputs, and the library never sees the seed
//! itself except through the search seed in its parameters.

use dtr::core::replica_seed;
use dtr::eval::experiments::mtr3::three_class_traffic;
use dtr::net::Network;
use dtr::topogen::{community, rand_topo, SynthConfig, DEFAULT_CAPACITY, DEFAULT_THETA};
use dtr::traffic::{gravity, ClassMatrices, TrafficMatrix};

/// The named workloads, as `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `RobustOptimizer`, Phases 1a → 1b → 1c → 2, 50-node dense demand.
    Dtr50,
    /// `MtrOptimizer`, three classes on a 30-node topology.
    Mtr3,
    /// `phase2::run` alone on a 150-node community topology with
    /// sparse hub demand and a binding cache budget.
    Tier150,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Dtr50, Workload::Mtr3, Workload::Tier150];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dtr50 => "dtr50",
            Workload::Mtr3 => "mtr3",
            Workload::Tier150 => "tier150",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size for measurement, toy size for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

impl Size {
    /// Seconds each kernel probe may spend (a few calls always run).
    pub fn probe_budget_s(self) -> f64 {
        match self {
            Size::Full => 0.15,
            Size::Toy => 0.005,
        }
    }

    /// Seconds the timed set-up passes may spend (a few passes always
    /// run).
    pub fn setup_budget_s(self) -> f64 {
        match self {
            Size::Full => 1.5,
            Size::Toy => 0.005,
        }
    }
}

/// Per-instance seeds, all derived from the workload seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    pub topology: u64,
    pub traffic: u64,
    pub search: u64,
}

impl Seeds {
    /// Seeds of instance `i` of a run with workload seed `seed`.
    pub fn derive(seed: u64, i: usize) -> Seeds {
        let base = replica_seed(seed, i);
        Seeds {
            topology: replica_seed(base, 0),
            traffic: replica_seed(base, 1),
            search: replica_seed(base, 2),
        }
    }
}

/// Nodes and duplex links of a workload's topology at `size`.
pub fn shape(w: Workload, size: Size) -> (usize, usize) {
    match (w, size) {
        (Workload::Dtr50, Size::Full) => (50, 150),
        (Workload::Mtr3, Size::Full) => (30, 90),
        (Workload::Tier150, Size::Full) => (150, 300),
        (Workload::Dtr50, Size::Toy) => (10, 20),
        (Workload::Mtr3, Size::Toy) => (8, 16),
        (Workload::Tier150, Size::Toy) => (40, 80),
    }
}

/// `micro_routing`'s RandTopo testbed shape: delay diameter 25 ms,
/// 500 Mb/s links.
pub fn rand_topology(nodes: usize, duplex_links: usize, seed: u64) -> Network {
    rand_topo::generate(&SynthConfig {
        nodes,
        duplex_links,
        seed,
    })
    .expect("RandTopo parameters are feasible")
    .scaled_to_diameter(DEFAULT_THETA)
    .build(DEFAULT_CAPACITY)
    .expect("RandTopo blueprints are connected")
}

/// `micro_routing`'s dense two-class gravity traffic at the ×0.04
/// operating point (unit volume scaled by 5e10, then by 0.04), where
/// normal conditions meet the SLA and failures cause recoverable
/// violations.
pub fn dense_traffic(nodes: usize, seed: u64) -> ClassMatrices {
    let mut tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 1.0,
        ..gravity::GravityConfig::paper_default(nodes, seed)
    });
    tm.scale(5e10 * 0.04);
    tm
}

/// `micro_routing`'s scale-tier topology family.
pub fn community_topology(nodes: usize, duplex_links: usize, seed: u64) -> Network {
    community::generate(&SynthConfig {
        nodes,
        duplex_links,
        seed,
    })
    .expect("community parameters are feasible")
    .scaled_to_diameter(DEFAULT_THETA)
    .build(DEFAULT_CAPACITY)
    .expect("community blueprints are connected")
}

/// `micro_routing`'s sparse tier traffic: `hubs` evenly spaced nodes
/// exchange all demand (0.8 Mb/s delay-class, 1.2 Mb/s throughput-class
/// per ordered hub pair). The seed rotates which nodes are hubs.
pub fn hub_traffic(nodes: usize, hubs: usize, seed: u64) -> ClassMatrices {
    let hubs = hubs.min(nodes);
    let stride = nodes / hubs;
    let offset = (seed % stride as u64) as usize;
    let mut tm = ClassMatrices::zeros(nodes);
    for i in 0..hubs {
        for j in 0..hubs {
            if i != j {
                let (a, b) = (offset + i * stride, offset + j * stride);
                tm.delay.set(a, b, 0.8e6);
                tm.throughput.set(a, b, 1.2e6);
            }
        }
    }
    tm
}

/// `experiments::mtr3`'s three class matrices (voice, video, bulk) at
/// its ≈0.4 mean-utilization operating point.
pub fn three_class(net: &Network, seed: u64) -> Vec<TrafficMatrix> {
    let volume = 0.43 * DEFAULT_CAPACITY * net.num_links() as f64 * 0.6;
    three_class_traffic(net.num_nodes(), seed, volume)
}

/// Ordered SD pairs with positive demand in at least one class.
pub fn demand_pairs(matrices: &[&TrafficMatrix]) -> usize {
    let n = matrices.first().map_or(0, |m| m.num_nodes());
    (0..n)
        .flat_map(|s| (0..n).map(move |t| (s, t)))
        .filter(|&(s, t)| s != t && matrices.iter().any(|m| m.demand(s, t) > 0.0))
        .count()
}
