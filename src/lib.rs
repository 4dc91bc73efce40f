//! # dtr — Dual-Topology Routing with robust weight optimization
//!
//! Facade crate for the workspace reproducing *"Balancing Performance,
//! Robustness and Flexibility in Routing Systems"* (Kwong, Guérin, Shaikh,
//! Tao — ACM CoNEXT 2008 / IEEE TNSM 2010).
//!
//! ## One optimizer over all failure models
//!
//! Since the `ScenarioSet` redesign, the public optimization surface is a
//! single builder: pick a failure ensemble, get the paper's two-phase
//! pipeline against it. [`prelude`] re-exports everything the typical
//! caller needs:
//!
//! ```ignore
//! use dtr::prelude::*;
//!
//! let ev = Evaluator::new(&net, &traffic, CostParams::default());
//! // Single-link failures (the paper, default set):
//! let report = RobustOptimizer::builder(&ev).params(Params::reduced(42)).build().optimize();
//! // Shared-risk conduit cuts, probabilistic models, double failures —
//! // same entry point:
//! RobustOptimizer::builder(&ev).scenarios(Srlg::geographic(&net, 0.08));
//! RobustOptimizer::builder(&ev).scenarios(Probabilistic::length_proportional(&net));
//! RobustOptimizer::builder(&ev).scenarios(DoubleLink::sampled(&net, 64, 7));
//! ```
//!
//! Custom failure models implement [`core::scenario::ScenarioSet`] and
//! ride the same builder.
//!
//! ## Module map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`net`] | `dtr-net` | directed network model, failure masks, bridges, connectivity, DOT export |
//! | [`topogen`] | `dtr-topogen` | RandTopo / NearTopo / PLTopo / Waxman generators, ring-grid-torus lattices, ISP + GEANT-like backbones |
//! | [`traffic`] | `dtr-traffic` | two-class gravity matrices, fluctuation and hot-spot uncertainty, load scaling |
//! | [`routing`] | `dtr-routing` | the one k-class weight setting, per-class SPF + ECMP engine, delay DP, link/node/double/SRLG scenarios, weight I/O |
//! | [`cost`] | `dtr-cost` | Eq. 1 delay model, Eq. 2 SLA cost, Fortz–Thorup congestion, lexicographic `K`, the evaluator |
//! | [`core`] | `dtr-core` | **the paper**: `ScenarioSet` + the one builder pipeline (any class count), Phases 1a/1b/1c + 2, criticality, Algorithm 1, baselines, `ext/` scenario-set constructors |
//! | [`mtr`] | `dtr-mtr` | generalized k-topology MTR front door (k classes, vector cost, k-way Algorithm 1); `MtrOptimizer` is the core pipeline on its engine |
//! | [`eval`] | `dtr-eval` | experiment drivers for every table/figure + extension studies, the `repro` binary |
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use dtr_core as core;
pub use dtr_cost as cost;
pub use dtr_eval as eval;
pub use dtr_mtr as mtr;
pub use dtr_net as net;
pub use dtr_persist as persist;
pub use dtr_routing as routing;
pub use dtr_topogen as topogen;
pub use dtr_traffic as traffic;

/// Everything a typical optimization caller needs, one import away.
pub mod prelude {
    pub use dtr_core::scenario::ScenarioSet;
    pub use dtr_core::{
        CheckpointSink, DoubleLink, FailureUniverse, FileSink, MemorySink, Params, Probabilistic,
        RobustOptimizer, RobustOptimizerBuilder, RobustReport, RunControl, Selector, SingleLink,
        SliceSet, SnapshotError, Srlg, Terminated, TornWrite,
    };
    pub use dtr_cost::{CostParams, Evaluator, LexCost};
    pub use dtr_mtr::{MtrOptimizer, MtrParams};
    pub use dtr_net::{LinkId, Network, NetworkBuilder, NodeId, Point};
    pub use dtr_routing::{Class, Scenario, WeightSetting};
    pub use dtr_traffic::ClassMatrices;
}
