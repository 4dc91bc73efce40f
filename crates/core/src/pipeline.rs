//! The complete robust-optimization pipeline (Fig. 1 of the paper),
//! written once for every class count and generalized over
//! [`ScenarioSet`].
//!
//! One optimizer serves every failure model and every
//! [`RobustEngine`]: the builder picks the ensemble, the phases stay the
//! paper's. [`RobustOptimizer`] is its two-class (DTR) instance and
//! `dtr_mtr::MtrOptimizer` its k-class one; both run Phase 1a
//! ([`phase1::harvest`]) → 1b ([`phase1b::top_up`]) → 1c
//! ([`selection::select_scenarios`]) → the robust search
//! ([`robust::run_controlled`]) on the scenarios of the selected
//! indices. Every evaluation inside the phases flows through the pooled
//! incremental engine of `dtr_cost::engine` (per-thread workspaces,
//! replayed no-failure baselines, per-destination incremental SPF), so
//! pipeline results are bit-for-bit those of the naive per-scenario
//! evaluator at a fraction of the cost.
//!
//! ```ignore
//! // The paper's single-link pipeline:
//! let report = RobustOptimizer::builder(&ev).params(params).build().optimize();
//!
//! // Any other failure model, same machinery:
//! let report = RobustOptimizer::builder(&ev)
//!     .scenarios(Srlg::geographic(&net, 0.08))   // or Probabilistic::length_proportional(&net),
//!     .params(params)                            //    DoubleLink::all(&net), a custom impl, ...
//!     .build()
//!     .optimize();
//! ```

use std::time::{Duration, Instant};

use dtr_cost::{Evaluator, LexCost};
use dtr_net::LinkId;
use dtr_routing::{Scenario, WeightSetting};

use crate::baselines::Selector;
use crate::phase1::{self, Phase1Output};
use crate::phase1b::{self, Phase1bStats};
use crate::robust::{self, RobustEngine, RobustKnobs, RunControl};
use crate::scenario::ScenarioSet;
use crate::search::SearchStats;
use crate::selection;
use crate::universe::FailureUniverse;

/// Timing and effort accounting of one pipeline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    /// Phase-1a search effort.
    pub phase1: SearchStats,
    /// Phase-1b top-up rounds and evaluations.
    pub phase1b: Phase1bStats,
    /// Robust-phase search effort.
    pub phase2: SearchStats,
    /// Wall-clock of Phases 1a and 1b.
    pub phase1_time: Duration,
    /// Wall-clock of the robust phase.
    pub phase2_time: Duration,
}

/// The pipeline's full product, for the cost vector `C` of its engine.
#[derive(Clone, Debug)]
pub struct Report<C> {
    /// Phase-1 best: the "regular optimization" / "No Robust" solution.
    pub regular: WeightSetting,
    /// Its normal-conditions cost (`⟨Λ*, Φ*⟩` for DTR, the per-class
    /// benchmarks for MTR).
    pub regular_cost: C,
    /// The robust solution.
    pub robust: WeightSetting,
    /// Normal-conditions cost of the robust solution (Eqs. 5–6 hold).
    pub robust_normal_cost: C,
    /// Compound failure cost of the robust solution over the selected
    /// scenarios (probability-weighted for weighted sets).
    pub kfail: C,
    /// Duplex representatives of the selected *single-link* scenarios
    /// (composite sets may select group/multi scenarios too — those have
    /// no single representative and appear only in `critical_indices`).
    pub critical_links: Vec<LinkId>,
    /// Selected scenario indices into the optimizer's [`ScenarioSet`].
    pub critical_indices: Vec<usize>,
    /// Failure-cost samples collected (total across links).
    pub samples: usize,
    /// Whether every class's criticality ranking converged (Phase 1a
    /// or 1b).
    pub converged: bool,
    /// Effort and wall-clock accounting.
    pub stats: PipelineStats,
}

/// The two-class pipeline's product.
pub type RobustReport = Report<LexCost>;

impl Report<LexCost> {
    /// Realized normal-conditions degradation of the throughput class:
    /// `Φrobust/Φ* − 1` (the paper reports this as "cost degradation of
    /// throughput-sensitive traffic", Table II last row).
    pub fn phi_degradation(&self) -> f64 {
        if self.regular_cost.phi <= 0.0 {
            0.0
        } else {
            self.robust_normal_cost.phi / self.regular_cost.phi - 1.0
        }
    }
}

/// Builds an [`Optimizer`]: pick the scenario ensemble with
/// [`scenarios`](OptimizerBuilder::scenarios) (default: the network's
/// single-link [`FailureUniverse`]), set the heuristic
/// [`params`](OptimizerBuilder::params) (required).
pub struct OptimizerBuilder<'e, E: RobustEngine, S: ScenarioSet = FailureUniverse> {
    ev: &'e E,
    set: S,
    params: Option<E::Params>,
    warm_start: Option<Phase1Output<E::Cost>>,
}

/// The two-class builder.
pub type RobustOptimizerBuilder<'e, 'a, S = FailureUniverse> =
    OptimizerBuilder<'e, Evaluator<'a>, S>;

impl<'e, E: RobustEngine, S: ScenarioSet> OptimizerBuilder<'e, E, S> {
    /// Optimize against this scenario ensemble instead of the default
    /// single-link universe.
    pub fn scenarios<T: ScenarioSet>(self, set: T) -> OptimizerBuilder<'e, E, T> {
        OptimizerBuilder {
            ev: self.ev,
            set,
            params: self.params,
            warm_start: self.warm_start,
        }
    }

    /// Reuse an existing Phase-1 output instead of re-running Phases
    /// 1a/1b inside `optimize()` — for comparing several scenario
    /// ensembles against **identical** benchmarks without paying the
    /// sample harvest once per ensemble. Pass the output of
    /// [`phase1::run`] (after [`phase1b::run`] if rank convergence
    /// matters); it must come from the same evaluator, universe and
    /// params, which the caller is trusted to guarantee.
    pub fn warm_start(mut self, phase1: Phase1Output<E::Cost>) -> Self {
        self.warm_start = Some(phase1);
        self
    }

    /// Heuristic parameters (required before [`build`](Self::build)).
    pub fn params(mut self, params: E::Params) -> Self {
        self.params = Some(params);
        self
    }

    /// Finalize.
    ///
    /// # Panics
    /// Panics if [`params`](Self::params) was never set, or the params are
    /// invalid.
    pub fn build(self) -> Optimizer<'e, E, S> {
        let params = self
            .params
            .expect("the optimizer builder requires .params(..) before .build()");
        Optimizer {
            ev: self.ev,
            set: self.set,
            knobs: E::knobs(&params),
            params,
            warm_start: self.warm_start,
        }
    }
}

/// Orchestrates Phases 1a → 1b → 1c → 2 over any [`ScenarioSet`], on
/// any [`RobustEngine`].
pub struct Optimizer<'e, E: RobustEngine, S: ScenarioSet = FailureUniverse> {
    ev: &'e E,
    set: S,
    params: E::Params,
    knobs: RobustKnobs,
    warm_start: Option<Phase1Output<E::Cost>>,
}

/// The two-class (DTR) optimizer.
pub type RobustOptimizer<'e, 'a, S = FailureUniverse> = Optimizer<'e, Evaluator<'a>, S>;

impl<'e, E: RobustEngine> Optimizer<'e, E> {
    /// Start building an optimizer. The default scenario set is the
    /// network's single-link [`FailureUniverse`] (analyzed here once).
    pub fn builder(ev: &'e E) -> OptimizerBuilder<'e, E> {
        OptimizerBuilder {
            ev,
            set: FailureUniverse::of(ev.engine().net()),
            params: None,
            warm_start: None,
        }
    }

    /// Single-link optimizer — shorthand for
    /// `Optimizer::builder(ev).params(params).build()`.
    pub fn new(ev: &'e E, params: E::Params) -> Self {
        Optimizer::builder(ev).params(params).build()
    }
}

impl<E: RobustEngine, S: ScenarioSet + Sync> Optimizer<'_, E, S> {
    /// The single-link failure universe backing Phase-1 sampling.
    pub fn universe(&self) -> &FailureUniverse {
        self.set.universe()
    }

    /// The scenario ensemble the robust phase optimizes against.
    pub fn scenario_set(&self) -> &S {
        &self.set
    }

    /// The heuristic parameters.
    pub fn params(&self) -> &E::Params {
        &self.params
    }

    /// Phase 1 only — the "regular optimization" baseline the paper labels
    /// "No Robust" / "NR".
    pub fn regular_only(&self) -> Phase1Output<E::Cost> {
        phase1::harvest(self.ev, self.set.universe(), &self.params)
    }

    /// Full pipeline with the paper's critical-set selection
    /// ([`selection::select_scenarios`]).
    pub fn optimize(&self) -> Report<E::Cost> {
        let (p1, p1b, phase1_time) = self.phase1(true);
        let critical_indices = selection::select_scenarios(
            &self.set,
            &p1.store,
            self.knobs.left_tail_fraction,
            self.knobs.critical_fraction,
        );
        self.robust_phase(p1, p1b, phase1_time, critical_indices)
    }

    /// Full-search variant: the robust phase over the complete scenario
    /// set (`Ec = E`), the paper's accuracy yardstick. It needs no
    /// criticality estimate, so Phase 1b is skipped (the paper's full
    /// search has no Phase 1b/1c either).
    pub fn optimize_full(&self) -> Report<E::Cost> {
        let (p1, p1b, phase1_time) = self.phase1(false);
        let all = self.set.all_indices();
        self.robust_phase(p1, p1b, phase1_time, all)
    }

    /// Phases 1a and, with `top_up`, 1b — or the warm start, which
    /// stands for both.
    fn phase1(&self, top_up: bool) -> (Phase1Output<E::Cost>, Phase1bStats, Duration) {
        let t0 = Instant::now();
        let mut p1 = match &self.warm_start {
            Some(shared) => shared.clone(),
            None => phase1::harvest(self.ev, self.set.universe(), &self.params),
        };
        let p1b = if top_up && self.warm_start.is_none() {
            phase1b::top_up(self.ev, self.set.universe(), &self.params, &mut p1)
        } else {
            Phase1bStats {
                converged: p1.converged,
                ..Default::default()
            }
        };
        (p1, p1b, t0.elapsed())
    }

    /// The robust phase over the scenarios of `critical_indices`, and
    /// the report.
    fn robust_phase(
        &self,
        p1: Phase1Output<E::Cost>,
        p1b: Phase1bStats,
        phase1_time: Duration,
        critical_indices: Vec<usize>,
    ) -> Report<E::Cost> {
        let t1 = Instant::now();
        let p2 = robust::run_controlled(
            self.ev,
            &self.set,
            &critical_indices,
            &self.params,
            &p1.best_cost,
            &p1.archive,
            &mut RunControl::none(),
        )
        .expect("without a checkpoint sink no snapshot i/o can fail");
        let phase2_time = t1.elapsed();
        let critical_links = critical_indices
            .iter()
            .filter_map(|&i| match self.set.scenario(i) {
                Scenario::Link(l) => Some(l),
                _ => None,
            })
            .collect();
        Report {
            regular: p1.best,
            regular_cost: p1.best_cost,
            robust: p2.best,
            robust_normal_cost: p2.best_normal,
            kfail: p2.best_kfail,
            critical_links,
            critical_indices,
            samples: p1.store.total(),
            converged: p1.converged,
            stats: PipelineStats {
                phase1: p1.stats,
                phase1b: p1b,
                phase2: p2.stats,
                phase1_time,
                phase2_time,
            },
        }
    }
}

impl<S: ScenarioSet + Sync> RobustOptimizer<'_, '_, S> {
    /// Full pipeline with an explicit critical-link selector (the §IV-C
    /// selector ablation; [`Selector::MeanLeftTail`] is
    /// [`optimize`](Optimizer::optimize)).
    pub fn optimize_with_selector(&self, selector: Selector) -> RobustReport {
        let (p1, p1b, phase1_time) = self.phase1(true);
        let critical_indices =
            selection::select_for_set(&self.set, self.ev, &p1, &self.params, selector);
        self.robust_phase(p1, p1b, phase1_time, critical_indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::phase2;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    fn testbed(seed: u64) -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..7)
            .map(|i| b.add_node(Point::new((i % 3) as f64, (i / 3) as f64)))
            .collect();
        for i in 0..7 {
            b.add_duplex_link(n[i], n[(i + 1) % 7], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[2], n[5], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 3e6,
            ..gravity::GravityConfig::paper_default(7, seed)
        });
        (net, tm)
    }

    #[test]
    fn pipeline_produces_consistent_report() {
        let (net, tm) = testbed(4);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let opt = RobustOptimizer::builder(&ev)
            .params(Params::quick(1))
            .build();
        let r = opt.optimize();

        // Critical set has the configured target size.
        let expect = opt.universe().target_size(opt.params().critical_fraction);
        assert!(r.critical_indices.len() <= expect);
        assert!(!r.critical_indices.is_empty());
        assert_eq!(r.critical_links.len(), r.critical_indices.len());

        // Constraints hold (Eqs. 5-6).
        assert!(phase2::feasible(
            &r.robust_normal_cost,
            r.regular_cost.lambda,
            r.regular_cost.phi,
            opt.params().chi
        ));
        // Reported costs are truthful.
        assert_eq!(r.regular_cost, ev.cost(&r.regular, Scenario::Normal));
        assert_eq!(r.robust_normal_cost, ev.cost(&r.robust, Scenario::Normal));
        assert!(r.phi_degradation() <= opt.params().chi + 1e-9);
        assert!(r.samples > 0);
    }

    #[test]
    fn builder_and_new_agree() {
        let (net, tm) = testbed(4);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let a = RobustOptimizer::new(&ev, Params::quick(5)).optimize();
        let b = RobustOptimizer::builder(&ev)
            .params(Params::quick(5))
            .build()
            .optimize();
        assert_eq!(a.robust, b.robust);
        assert_eq!(a.kfail, b.kfail);
        assert_eq!(a.critical_indices, b.critical_indices);
    }

    #[test]
    fn robust_beats_or_matches_regular_on_kfail() {
        let (net, tm) = testbed(8);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let opt = RobustOptimizer::new(&ev, Params::quick(3));
        let r = opt.optimize();
        let scen = opt.universe().scenarios_for(&r.critical_indices);
        let k_regular = crate::parallel::sum_failure_costs(&ev, &r.regular, &scen, 1);
        assert!(
            !k_regular.better_than(&r.kfail),
            "regular {k_regular} beat robust {}",
            r.kfail
        );
    }

    #[test]
    fn full_search_is_at_least_as_good_on_its_objective() {
        let (net, tm) = testbed(2);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let opt = RobustOptimizer::new(&ev, Params::quick(9));
        let full = opt.optimize_full();
        assert_eq!(full.critical_indices.len(), opt.universe().len());
        // Full-universe Kfail of full search <= that of critical search.
        let crit = opt.optimize();
        let all = opt.universe().scenarios();
        let k_full = crate::parallel::sum_failure_costs(&ev, &full.robust, &all, 1);
        let k_crit = crate::parallel::sum_failure_costs(&ev, &crit.robust, &all, 1);
        // Not guaranteed in theory (heuristic), but with the same seeds
        // and tiny instance full search should not lose badly; allow ties
        // and small noise by only checking it is not catastrophically
        // worse (factor 2).
        assert!(
            k_full.lambda <= k_crit.lambda * 2.0 + 100.0,
            "full {k_full} vs critical {k_crit}"
        );
    }

    #[test]
    fn deterministic_end_to_end() {
        let (net, tm) = testbed(6);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let a = RobustOptimizer::new(&ev, Params::quick(12)).optimize();
        let b = RobustOptimizer::new(&ev, Params::quick(12)).optimize();
        assert_eq!(a.robust, b.robust);
        assert_eq!(a.kfail, b.kfail);
        assert_eq!(a.critical_indices, b.critical_indices);
    }

    #[test]
    fn selector_ablation_runs() {
        let (net, tm) = testbed(5);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let opt = RobustOptimizer::new(&ev, Params::quick(2));
        for sel in [Selector::Random, Selector::LoadBased, Selector::Fluctuation] {
            let r = opt.optimize_with_selector(sel);
            assert!(!r.critical_indices.is_empty(), "{sel}");
        }
        // The paper's selector is what `optimize` runs.
        let paper = opt.optimize_with_selector(Selector::MeanLeftTail);
        let plain = opt.optimize();
        assert_eq!(paper.critical_indices, plain.critical_indices);
        assert_eq!(paper.robust, plain.robust);
    }

    #[test]
    #[should_panic(expected = "requires .params")]
    fn builder_without_params_panics() {
        let (net, tm) = testbed(3);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let _ = RobustOptimizer::builder(&ev).build();
    }
}
