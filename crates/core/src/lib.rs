//! # dtr-core — robust DTR optimization (the paper's contribution)
//!
//! Implements §IV of *"Balancing Performance, Robustness and Flexibility in
//! Routing Systems"*: a two-phase local-search heuristic that finds one DTR
//! weight setting performing well under normal conditions **and** under an
//! ensemble of failure scenarios, made tractable by a principled
//! critical-link methodology.
//!
//! ## Architecture: one optimizer, many failure models
//!
//! The public surface is the builder-driven pipeline over the
//! [`scenario::ScenarioSet`] trait:
//!
//! ```ignore
//! use dtr_core::{Params, RobustOptimizer};
//! use dtr_core::scenario::{DoubleLink, Probabilistic, SingleLink, Srlg};
//!
//! // The paper's single-link pipeline (default scenario set):
//! let report = RobustOptimizer::builder(&ev).params(params).build().optimize();
//!
//! // Every other failure model rides the same machinery:
//! RobustOptimizer::builder(&ev).scenarios(SingleLink::of(&net))                  // explicit default
//!     .params(params).build().optimize();
//! RobustOptimizer::builder(&ev).scenarios(Srlg::geographic(&net, 0.08))          // conduit cuts
//!     .params(params).build().optimize();
//! RobustOptimizer::builder(&ev).scenarios(Probabilistic::length_proportional(&net))
//!     .params(params).build().optimize();                                        // expected cost
//! RobustOptimizer::builder(&ev).scenarios(DoubleLink::all(&net))                 // pair failures
//!     .params(params).build().optimize();
//! ```
//!
//! A [`scenario::ScenarioSet`] enumerates weighted failure
//! [`Scenario`](dtr_routing::Scenario)s with stable indices, pre-filters
//! non-survivable scenarios at construction, and declares how the Phase-1
//! criticality signal applies to it. [`FailureUniverse`] is the canonical
//! single-link implementation; custom models (regional outages,
//! maintenance windows, k-link cascades) implement the same trait and
//! ride the same optimizer — there is exactly one Phase-2 loop in the
//! workspace ([`phase2::run_scenarios`]).
//!
//! ## Pipeline (Fig. 1 of the paper)
//!
//! 1. **Phase 1a** ([`phase1`]) — local search minimizing the normal-
//!    conditions cost `Knormal` (Eq. 3). Along the way, weight
//!    perturbations that *emulate failures* (every class weight of a link
//!    pushed into `[q·wmax, wmax]`) are harvested as samples of the
//!    conditional failure-cost distribution of that link ([`samples`]).
//! 2. **Phase 1b** ([`phase1b`]) — if the criticality *ranking* has not
//!    converged (rank-change index `S ≤ e` in every class, [`ranking`]),
//!    generate more failure-emulating samples until it has.
//! 3. **Phase 1c** ([`selection`]) — link criticality `ρ = mean −
//!    left-tail-mean` of each link's distribution ([`criticality`]),
//!    normalized per class, merged into one critical set by Algorithm 1,
//!    then mapped to scenario indices by the set
//!    ([`selection::select_scenarios`]).
//! 4. **Phase 2** ([`phase2`]) — local search minimizing the compound
//!    (weight-aware) failure cost `K̄fail` over the selected scenarios
//!    only (Eq. 7), constrained to keep normal-conditions performance
//!    (Eqs. 5–6).
//!
//! Every phase is written once for any number of traffic classes: the
//! 1a/1b drivers ([`phase1::harvest`], [`phase1b::top_up`]) and the
//! robust search ([`robust`]) are generic over [`robust::RobustEngine`],
//! and the sample store, rank tracker, criticality and Algorithm 1 hold
//! one list per class. DTR's `phase1::run`, `phase1b::run` and
//! `phase2::run` are the two-class instantiations; `dtr_mtr` supplies
//! the k-class ones.
//!
//! [`pipeline::RobustOptimizer`] runs the whole thing;
//! [`full_search::full_search`] is the brute-force `Ec = E` baseline;
//! [`baselines`] implements the prior-art critical-link selectors the
//! paper compares against (§IV-C); [`ext`] carries the scenario-set
//! constructors for the extensions sketched in the paper's conclusion.
//!
//! ## Migration from the pre-builder API
//!
//! The scattered per-extension entry points were removed in favor of the
//! builder; every old call has a direct replacement:
//!
//! | removed | replacement |
//! |---|---|
//! | `ext::srlg::optimize_robust_srlg(ev, u, crit, cat, p, p1)` | `RobustOptimizer::builder(&ev).scenarios(Srlg::from_catalog(net, cat)).params(p).build().optimize()` |
//! | `ext::probabilistic::optimize(ev, u, p, p1, model)` | `RobustOptimizer::builder(&ev).scenarios(Probabilistic::with_model(net, model)).params(p).build().optimize()` |
//! | `ext::probabilistic::select_critical(p1, model, u, p, n)` | `selection::select_for_set(&Probabilistic::with_model(net, model), &ev, &p1, &p, Selector::MeanLeftTail)` |
//! | `ext::multi_failure::double_failures(ev, u, cap, seed)` | `DoubleLink::all(&net)` / `DoubleLink::sampled(&net, cap, seed)` + `.scenarios()` |
//! | `phase2::run(ev, u, idx, p, p1, Some(w))` | `phase2::run(ev, &set, idx, p, p1)` — the set carries the weights |
//!
//! Determinism: all randomness flows from [`Params::seed`]; the builder
//! path reproduces the removed entry points bit-for-bit on equal seeds
//! (pinned by `tests/scenario_equivalence.rs` at the workspace root).
//! Parallelism: [`Params::threads`] caps the workers of Phase 1b's
//! rounds and of a portfolio's replicas ([`parallel`]); every robust
//! chain runs on one thread, and `threads = 1` gives a fully serial
//! run. Results are identical across thread counts.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod criticality;
pub mod ext;
pub mod full_search;
pub mod parallel;
pub mod params;
pub mod phase1;
pub mod phase1b;
pub mod phase2;
pub mod pipeline;
pub mod ranking;
pub mod robust;
pub mod samples;
pub mod scenario;
pub mod search;
pub mod selection;
pub mod str_baseline;
pub mod strategies;
mod universe;

pub use baselines::Selector;
pub use params::{replica_seed, Params, PortfolioParams};
pub use pipeline::{RobustOptimizer, RobustOptimizerBuilder, RobustReport};
pub use robust::RunControl;
pub use scenario::{DoubleLink, Probabilistic, ScenarioSet, SingleLink, SliceSet, Srlg};
pub use search::Terminated;
pub use universe::FailureUniverse;

// Checkpoint/restore building blocks, re-exported so downstream callers
// need no direct `dtr-persist` dependency.
pub use dtr_persist::{CheckpointSink, FileSink, MemorySink, SnapshotError, TornWrite};
