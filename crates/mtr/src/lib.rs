//! # dtr-mtr — generalized Multi-Topology Routing
//!
//! The paper investigates robust multi-topology routing "in its most basic
//! setting, namely that of two independent routings" (§I). This crate
//! removes that restriction: it generalizes the whole machinery — weight
//! settings, lexicographic cost, evaluation, criticality, Algorithm 1 and
//! the two-phase robust search — to **k ≥ 1 traffic classes**, each routed
//! on its own logical topology and scored by its own cost model.
//!
//! Everything the paper establishes for DTR carries over:
//!
//! * Each link carries one integer weight per class (dtr-routing's one
//!   `WeightSetting`, named [`MtrWeightSetting`] here); classes share
//!   link capacity through a common FIFO queue, so per-link delays are
//!   driven by *total* load.
//! * Classes are ordered by precedence. The global cost is the
//!   k-component lexicographic vector [`VecCost`] — class `i` improvements
//!   dominate any change in classes `> i`, the direct generalization of
//!   `K = ⟨Λ, Φ⟩`.
//! * Each class declares a [`CostModel`] (SLA-delay per Eq. 2 or
//!   Fortz–Thorup congestion per \[8\]) and a [`NormalConstraint`]
//!   generalizing Eqs. (5)–(6): `Pin` forbids any normal-conditions
//!   degradation in exchange for robustness, `Relax(χ)` grants a χ budget.
//! * Criticality (Eqs. 8–9) becomes a per-class quantity; Phase 1c's
//!   Algorithm 1 merge generalizes to a k-way merge over k descending
//!   criticality lists ([`criticality::select_k`]).
//!
//! DTR is the k = 2 instantiation of dtr-cost's engine: every
//! evaluation, DTR's and MTR's alike, runs on the one delta-state
//! `dtr_cost::Engine`, built here from the class list of an
//! [`MtrConfig`], on the one weight setting. The search phases and the
//! pipeline are dtr-core's, written once for every class count; this
//! crate instantiates them.
//!
//! ## Modules
//!
//! [`class`], [`cost`], [`params`] and [`weights_io`] hold the class
//! specs, the k-vector cost, the parameters and the k-class weights text
//! format; [`evaluator`] is the k-class front door of the engine.
//! [`search`] (MTR's sample gate and the regular phase and top-up over
//! dtr-core's Phase 1), [`criticality`] (k-class names for dtr-core's
//! criticality and Algorithm 1 — [`select_k`] is a re-export — and the
//! sizing rule) and [`robust`] (the `RobustEngine` implementation of
//! [`MtrEvaluator`]) instantiate dtr-core's phases. [`MtrOptimizer`] is
//! dtr-core's one pipeline (`dtr_core::pipeline::Optimizer`) on that
//! engine, chaining them over any scenario set.
//!
//! ## Quick tour
//!
//! ```
//! use dtr_mtr::{ClassSpec, CostModel, MtrConfig, MtrEvaluator, NormalConstraint};
//! use dtr_net::{NetworkBuilder, Point};
//! use dtr_routing::Scenario;
//! use dtr_traffic::TrafficMatrix;
//!
//! // A 4-node ring.
//! let mut b = NetworkBuilder::new();
//! let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
//! for i in 0..4 {
//!     b.add_duplex_link(n[i], n[(i + 1) % 4], 1e6, 2e-3).unwrap();
//! }
//! let net = b.build().unwrap();
//!
//! // Three classes: voice (tight SLA), video (loose SLA), bulk data.
//! let config = MtrConfig::new(vec![
//!     ClassSpec::sla("voice", 10e-3).pinned(),
//!     ClassSpec::sla("video", 50e-3).relaxed(0.1),
//!     ClassSpec::congestion("bulk").relaxed(0.2),
//! ]);
//!
//! let mut tms = vec![TrafficMatrix::zeros(4); 3];
//! tms[0].set(0, 2, 1e5);
//! tms[1].set(1, 3, 2e5);
//! tms[2].set(0, 1, 3e5);
//!
//! let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
//! let w = dtr_mtr::MtrWeightSetting::uniform_k(3, net.num_links(), 20);
//! let cost = ev.evaluate(&w, Scenario::Normal).cost;
//! assert_eq!(cost.components().len(), 3);
//!
//! // The whole pipeline: regular phase, top-up, k-way selection and
//! // the robust phase over the single-link universe.
//! let report = dtr_mtr::MtrOptimizer::new(&ev, dtr_mtr::MtrParams::quick(7)).optimize();
//! assert_eq!(report.kfail.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod cost;
pub mod criticality;
pub mod evaluator;
pub mod params;
pub mod robust;
pub mod search;
pub mod weights_io;

pub use class::{ClassSpec, CostModel, MtrConfig, NormalConstraint};
pub use cost::{VecCost, COMPONENT_EPS};
pub use criticality::{select_k, KWayCriticality, KWaySelection};
pub use evaluator::{MtrBreakdown, MtrError, MtrEvaluator};
pub use params::MtrParams;
pub use robust::MtrRobustOutput;
pub use search::MtrRegularOutput;

use dtr_core::pipeline::{Optimizer, OptimizerBuilder, Report};
use dtr_core::FailureUniverse;

/// The k-class weight setting: dtr-routing's one `WeightSetting`.
pub type MtrWeightSetting = dtr_routing::WeightSetting;

/// The k-class pipeline (regular → top-up → k-way selection → robust):
/// dtr-core's one optimizer on [`MtrEvaluator`].
///
/// ```ignore
/// let report = MtrOptimizer::builder(&ev)
///     .scenarios(Srlg::geographic(&net, 0.08))   // any ScenarioSet
///     .params(MtrParams::quick(7))
///     .build()
///     .optimize();
/// ```
pub type MtrOptimizer<'e, 'a, S = FailureUniverse> = Optimizer<'e, MtrEvaluator<'a>, S>;

/// Builds an [`MtrOptimizer`].
pub type MtrOptimizerBuilder<'e, 'a, S = FailureUniverse> =
    OptimizerBuilder<'e, MtrEvaluator<'a>, S>;

/// The k-class pipeline's product.
pub type MtrReport = Report<VecCost>;
