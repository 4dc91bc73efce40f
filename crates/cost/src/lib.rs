//! # dtr-cost — cost models and the network-cost evaluator
//!
//! Implements §III of the paper:
//!
//! * [`delay_model`] — per-link delay `D_l` (Eq. 1): propagation only below
//!   the utilization threshold µ, M/M/1 queueing above it, linearized at
//!   99 % utilization to avoid the pole.
//! * [`sla`] — the delay-class cost `Λ` (Eq. 2): zero below the SLA bound
//!   θ, then a fixed penalty `B1` plus `B2` per ms of excess.
//! * [`congestion`] — the throughput-class cost `Φ`: the Fortz–Thorup
//!   piecewise-linear link congestion function `f(x_l)` summed over links
//!   carrying throughput-sensitive traffic.
//! * [`LexCost`] — the lexicographic global cost `K = ⟨Λ, Φ⟩`: a routing
//!   is better only if it improves delay-class performance, or keeps it
//!   equal and improves throughput-class performance.
//! * [`Evaluator`] — the full pipeline: weight setting + failure scenario
//!   → two-class routing → total loads → link delays → `(Λ, Φ)` plus all
//!   the per-link / per-pair diagnostics the experiments report.
//! * [`Engine`] — the incremental, delta-state evaluation engine for any
//!   number of traffic classes, each with its own [`CostModel`]; the
//!   [`Evaluator`]'s fast paths are its two-class instantiation.

#![forbid(unsafe_code)]

pub mod congestion;
pub mod delay_model;
pub mod engine;
mod evaluator;
mod lexico;
mod params;
pub mod sla;

pub use engine::{CacheIncumbent, Engine, EvalWorkspace, ScenarioCache, ScenarioEntry};
pub use evaluator::{CostBreakdown, Evaluator};
pub use lexico::{LexCost, LAMBDA_EPS};
pub use params::{CostModel, CostParams, DelayAggregation};
pub use sla::SlaSummary;
