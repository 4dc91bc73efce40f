//! The complete k-class robust-optimization pipeline (Fig. 1
//! generalized), builder-driven over [`ScenarioSet`] exactly like the
//! two-class `dtr_core::RobustOptimizer`:
//!
//! ```ignore
//! let report = MtrOptimizer::builder(&ev)
//!     .scenarios(Srlg::geographic(&net, 0.08))   // any ScenarioSet
//!     .params(MtrParams::quick(7))
//!     .build()
//!     .optimize();
//! ```

use std::time::{Duration, Instant};

use dtr_core::scenario::ScenarioSet;
use dtr_core::search::SearchStats;
use dtr_core::{selection, FailureUniverse};
use dtr_net::LinkId;
use dtr_routing::Scenario;

use crate::cost::VecCost;
use crate::criticality::KWayCriticality;
use crate::evaluator::MtrEvaluator;
use crate::params::MtrParams;
use crate::robust::{self, MtrRobustOutput};
use crate::search;
use crate::weights::MtrWeightSetting;

/// The pipeline's full product.
#[derive(Clone, Debug)]
pub struct MtrReport {
    /// Regular-phase best: the "No Robust" solution.
    pub regular: MtrWeightSetting,
    /// Its normal-conditions cost (the per-class benchmarks).
    pub regular_cost: VecCost,
    /// The robust solution.
    pub robust: MtrWeightSetting,
    /// Normal-conditions cost of the robust solution (per-class
    /// constraints hold).
    pub robust_normal_cost: VecCost,
    /// Compound failure cost of the robust solution over the critical
    /// set.
    pub kfail: VecCost,
    /// Selected critical links (duplex representatives).
    pub critical_links: Vec<LinkId>,
    /// Same, as failure indices into the universe.
    pub critical_indices: Vec<usize>,
    /// Per-class criticality estimates used for the selection.
    pub criticality: KWayCriticality,
    /// Failure-cost samples collected (total across links).
    pub samples: usize,
    /// Whether every class's criticality ranking converged.
    pub converged: bool,
    /// Top-up rounds spent after the regular phase.
    pub top_up_rounds: usize,
    /// Effort and wall-clock accounting.
    pub stats: MtrPipelineStats,
}

/// Timing and effort accounting of one pipeline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct MtrPipelineStats {
    /// Regular-phase search effort.
    pub regular: SearchStats,
    /// Robust-phase search effort.
    pub robust: SearchStats,
    /// Evaluations spent topping up samples.
    pub top_up_evaluations: usize,
    /// Wall-clock of the regular phase (incl. top-up and selection).
    pub phase1_time: Duration,
    /// Wall-clock of the robust phase.
    pub phase2_time: Duration,
}

/// Builds an [`MtrOptimizer`]: pick the scenario ensemble with
/// [`scenarios`](MtrOptimizerBuilder::scenarios) (default: the network's
/// single-link [`FailureUniverse`]), set the required
/// [`params`](MtrOptimizerBuilder::params).
pub struct MtrOptimizerBuilder<'e, 'a, S: ScenarioSet = FailureUniverse> {
    ev: &'e MtrEvaluator<'a>,
    set: S,
    params: Option<MtrParams>,
}

impl<'e, 'a, S: ScenarioSet> MtrOptimizerBuilder<'e, 'a, S> {
    /// Optimize against this scenario ensemble instead of the default
    /// single-link universe.
    pub fn scenarios<T: ScenarioSet>(self, set: T) -> MtrOptimizerBuilder<'e, 'a, T> {
        MtrOptimizerBuilder {
            ev: self.ev,
            set,
            params: self.params,
        }
    }

    /// Heuristic parameters (required before [`build`](Self::build)).
    pub fn params(mut self, params: MtrParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Finalize.
    ///
    /// # Panics
    /// Panics if [`params`](Self::params) was never set, or the params
    /// are invalid.
    pub fn build(self) -> MtrOptimizer<'e, 'a, S> {
        let params = self
            .params
            .expect("MtrOptimizer::builder requires .params(..) before .build()");
        params.validate();
        MtrOptimizer {
            ev: self.ev,
            set: self.set,
            params,
        }
    }
}

/// Orchestrates regular → top-up → k-way selection → robust over any
/// [`ScenarioSet`].
pub struct MtrOptimizer<'e, 'a, S: ScenarioSet = FailureUniverse> {
    ev: &'e MtrEvaluator<'a>,
    set: S,
    params: MtrParams,
}

impl<'e, 'a> MtrOptimizer<'e, 'a> {
    /// Start building an optimizer. The default scenario set is the
    /// network's single-link [`FailureUniverse`] (analyzed here once).
    pub fn builder(ev: &'e MtrEvaluator<'a>) -> MtrOptimizerBuilder<'e, 'a, FailureUniverse> {
        MtrOptimizerBuilder {
            ev,
            set: FailureUniverse::of(ev.net()),
            params: None,
        }
    }

    /// Single-link optimizer — shorthand for
    /// `MtrOptimizer::builder(ev).params(params).build()`.
    pub fn new(ev: &'e MtrEvaluator<'a>, params: MtrParams) -> Self {
        MtrOptimizer::builder(ev).params(params).build()
    }
}

impl<'e, 'a, S: ScenarioSet> MtrOptimizer<'e, 'a, S> {
    /// The single-link failure universe backing sample harvesting.
    pub fn universe(&self) -> &FailureUniverse {
        self.set.universe()
    }

    /// The scenario ensemble the robust phase optimizes against.
    pub fn scenario_set(&self) -> &S {
        &self.set
    }

    /// Run the full pipeline.
    pub fn optimize(&self) -> MtrReport {
        let universe = self.set.universe();
        let t0 = Instant::now();
        let mut reg = search::regular(self.ev, universe, &self.params);
        let (top_up_rounds, top_up_evaluations) =
            search::top_up_samples(self.ev, universe, &self.params, &mut reg);

        // k-way Phase 1c, scenario-set aware: dtr-core's one set-aware
        // selection (estimate, the set's probability scaling, Algorithm
        // 1, failure → scenario indices; the full sweep for sets without
        // single-link structure).
        let (criticality, indices) = selection::select_scenarios(
            &self.set,
            &reg.store,
            self.params.left_tail_fraction,
            self.params.critical_fraction,
        );
        let critical_links: Vec<LinkId> = indices
            .iter()
            .filter_map(|&i| match self.set.scenario(i) {
                Scenario::Link(l) => Some(l),
                _ => None,
            })
            .collect();
        let scenarios = self.set.scenarios_for(&indices);
        let weights = self.set.weighted().then(|| self.set.weights_for(&indices));
        let phase1_time = t0.elapsed();

        let t1 = Instant::now();
        let MtrRobustOutput {
            best: robust,
            best_kfail,
            best_normal,
            stats: robust_stats,
            ..
        } = robust::run(
            self.ev,
            &scenarios,
            &self.params,
            &reg.best_cost,
            &reg.archive,
            weights.as_deref(),
        );
        let phase2_time = t1.elapsed();

        MtrReport {
            regular: reg.best,
            regular_cost: reg.best_cost,
            robust,
            robust_normal_cost: best_normal,
            kfail: best_kfail,
            critical_links,
            critical_indices: indices,
            criticality,
            samples: reg.store.total(),
            converged: reg.converged,
            top_up_rounds,
            stats: MtrPipelineStats {
                regular: reg.stats,
                robust: robust_stats,
                top_up_evaluations,
                phase1_time,
                phase2_time,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassSpec, MtrConfig};
    use crate::robust::feasible;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_routing::Scenario;
    use dtr_traffic::TrafficMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn testbed(classes: usize) -> (Network, Vec<TrafficMatrix>) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new((i as f64).cos(), (i as f64).sin())))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();

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

    #[test]
    fn full_pipeline_three_classes() {
        let (net, tms) = testbed(3);
        let config = MtrConfig::new(vec![
            ClassSpec::sla("voice", 10e-3),
            ClassSpec::sla("video", 50e-3).relaxed(0.1),
            ClassSpec::congestion("bulk"),
        ]);
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let opt = MtrOptimizer::new(&ev, MtrParams::quick(7));
        let report = opt.optimize();

        // Critical set respects the target fraction.
        let target = crate::criticality::target_size(&MtrParams::quick(7), opt.universe().len());
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
        let (net, tms) = testbed(2);
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
        // SRLG union set — through the same builder as dtr-core.
        use dtr_core::scenario::ScenarioSet as _;
        let (net, tms) = testbed(2);
        let config = MtrConfig::dtr(25e-3, 0.2);
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let set = dtr_core::Srlg::geographic(&net, 0.35);
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
        let (net, tms) = testbed(1);
        let config = MtrConfig::new(vec![ClassSpec::congestion("all")]);
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let report = MtrOptimizer::new(&ev, MtrParams::quick(2)).optimize();
        assert_eq!(report.kfail.len(), 1);
        assert!(!report.critical_indices.is_empty());
    }
}
