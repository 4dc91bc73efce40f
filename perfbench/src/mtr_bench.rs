//! `mtr3`: the k-class optimizer with three classes (voice SLA, relaxed
//! video SLA, bulk congestion), built the way `experiments::mtr3`
//! builds it, plus the `dtr-mtr` engine probes.

use std::hint::black_box;

use dtr::core::{FailureUniverse, ScenarioSet};
use dtr::mtr::criticality::{select_k, target_size, KWayCriticality};
use dtr::mtr::search::{self as mtr_search};
use dtr::mtr::{
    robust, ClassSpec, MtrConfig, MtrEvaluator, MtrOptimizer, MtrParams, MtrWeightSetting, VecCost,
};
use dtr::net::Network;
use dtr::routing::Scenario;
use dtr::traffic::TrafficMatrix;

use crate::clock::{probe_us, span, timed};
use crate::dtr_bench::{accept_ratio, routing_probes};
use crate::inputs::{self, Seeds, Size, Workload};
use crate::metrics::Metrics;
use crate::{Bench, Config, Provenance};

pub(crate) struct Mtr3 {
    size: Size,
}

impl Mtr3 {
    pub(crate) fn new(cfg: &Config) -> Self {
        Mtr3 { size: cfg.size }
    }
}

fn config() -> MtrConfig {
    MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::sla("video", 60e-3).relaxed(0.1),
        ClassSpec::congestion("bulk"),
    ])
}

pub(crate) struct MtrInputs {
    net: Network,
    matrices: Vec<TrafficMatrix>,
    universe: FailureUniverse,
    params: MtrParams,
}

impl MtrInputs {
    fn evaluator(&self) -> MtrEvaluator<'_> {
        MtrEvaluator::new(&self.net, &self.matrices, config()).expect("mtr3 configuration is valid")
    }
}

pub(crate) struct MtrOutcome {
    weights: MtrWeightSetting,
    kfail: VecCost,
    normal: VecCost,
    /// The regular phase's normal-conditions benchmark (k-class Eqs. 5–6).
    benchmark: VecCost,
    critical: Vec<usize>,
}

fn bits(c: &VecCost) -> Vec<u64> {
    c.components().iter().map(|x| x.to_bits()).collect()
}

impl Bench for Mtr3 {
    type Inputs = MtrInputs;
    type Outcome = MtrOutcome;

    fn instances(&self) -> usize {
        match self.size {
            Size::Full => 24,
            Size::Toy => 2,
        }
    }

    fn setup(&self, seeds: Seeds, parts: &mut Metrics) -> MtrInputs {
        let (nodes, duplex) = inputs::shape(Workload::Mtr3, self.size);
        let (net, s) = timed(|| inputs::rand_topology(nodes, duplex, seeds.topology));
        parts.set("setup.topology_s", s);
        let (matrices, s) = timed(|| inputs::three_class(&net, seeds.traffic));
        parts.set("setup.traffic_s", s);
        let (_, s) = timed(|| black_box(MtrEvaluator::new(&net, &matrices, config())));
        parts.set("setup.evaluator_s", s);
        let (universe, s) = timed(|| FailureUniverse::of(&net));
        parts.set("setup.universe_s", s);
        // `MtrParams::quick` with a one-sweep cap per phase and one
        // top-up round of two samples per link.
        let params = MtrParams {
            tau: 2,
            max_sampling_rounds: 1,
            max_iterations: 1,
            threads: 1,
            ..MtrParams::quick(seeds.search)
        };
        MtrInputs {
            net,
            matrices,
            universe,
            params,
        }
    }

    fn solve(&self, inp: &MtrInputs) -> (MtrOutcome, f64) {
        let ev = inp.evaluator();
        let opt = MtrOptimizer::builder(&ev)
            .scenarios(inp.universe.clone())
            .params(inp.params)
            .build();
        let (r, secs) = timed(|| opt.optimize());
        let out = MtrOutcome {
            weights: r.robust,
            kfail: r.kfail,
            normal: r.robust_normal_cost,
            benchmark: r.regular_cost,
            critical: r.critical_indices,
        };
        (out, secs)
    }

    /// The stages `MtrOptimizer::optimize` runs, called one by one.
    fn solve_traced(&self, inp: &MtrInputs, m: &mut Metrics) -> (MtrOutcome, f64) {
        let ev = inp.evaluator();
        let u = &inp.universe;
        let params = MtrParams {
            record_trace: true,
            ..inp.params
        };
        let ((reg, top_up_evals, critical, out), secs) = timed(|| {
            let mut reg = span(m, "mtr.regular_s", || mtr_search::regular(&ev, u, &params));
            let (_, top_up_evals) = span(m, "mtr.top_up_s", || {
                mtr_search::top_up_samples(&ev, u, &params, &mut reg)
            });
            let (critical, scenarios) = span(m, "mtr.selection_s", || {
                let crit = KWayCriticality::estimate(&reg.store, params.left_tail_fraction);
                let n = target_size(&params, u.len());
                let critical = u.critical_scenarios(&select_k(&crit, n).indices);
                let scenarios = u.scenarios_for(&critical);
                (critical, scenarios)
            });
            let out = span(m, "mtr.robust_s", || {
                robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None)
            });
            (reg, top_up_evals, critical, out)
        });
        let s = &out.stats;
        m.set("mtr.regular.evals", reg.stats.evaluations as f64);
        m.set("mtr.top_up.evals", top_up_evals as f64);
        m.set("mtr.robust.evals", s.evaluations as f64);
        m.set("mtr.robust.accept_ratio", accept_ratio(&out.trace));
        m.set(
            "mtr.robust.skip_ratio",
            s.scenario_evals_skipped as f64 / s.evaluations.max(1) as f64,
        );
        let outcome = MtrOutcome {
            weights: out.best,
            kfail: out.best_kfail,
            normal: out.best_normal,
            benchmark: reg.best_cost,
            critical,
        };
        (outcome, secs)
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            "mtr.regular_s",
            "mtr.top_up_s",
            "mtr.selection_s",
            "mtr.robust_s",
        ]
    }

    /// The reference `MtrEvaluator::evaluate` fold over the critical
    /// scenarios must equal the returned K̄fail bit for bit, and the
    /// returned normal-conditions cost must be the reference's and meet
    /// every class's constraint.
    fn check(&self, inp: &MtrInputs, out: &MtrOutcome) -> Result<(), String> {
        let ev = inp.evaluator();
        let mut fold = VecCost::zeros(ev.num_classes());
        for &i in &out.critical {
            fold.add_assign(&ev.evaluate(&out.weights, inp.universe.scenario(i)).cost);
        }
        if bits(&fold) != bits(&out.kfail) {
            return Err(format!(
                "reference K̄fail {fold:?} differs from the returned {:?}",
                out.kfail
            ));
        }
        let normal = ev.evaluate(&out.weights, Scenario::Normal).cost;
        if bits(&normal) != bits(&out.normal) {
            return Err(format!(
                "reference normal cost {normal:?} differs from the returned {:?}",
                out.normal
            ));
        }
        if !robust::feasible(&normal, &out.benchmark, &ev.config().specs) {
            return Err(format!(
                "normal cost {normal:?} violates the class constraints against {:?}",
                out.benchmark
            ));
        }
        Ok(())
    }

    fn same(&self, a: &MtrOutcome, b: &MtrOutcome) -> bool {
        a.weights == b.weights
            && bits(&a.kfail) == bits(&b.kfail)
            && bits(&a.normal) == bits(&b.normal)
            && a.critical == b.critical
    }

    /// Λ: the SLA classes' components summed; Φ: the congestion class's.
    fn kfail(&self, out: &MtrOutcome) -> (f64, f64) {
        let specs = config().specs;
        let part = |sla: bool| -> f64 {
            specs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_sla() == sla)
                .map(|(c, _)| out.kfail.component(c))
                .sum()
        };
        (part(true), part(false))
    }

    fn provenance(&self, inp: &MtrInputs, out: &MtrOutcome) -> Provenance {
        Provenance {
            nodes: inp.net.num_nodes(),
            directed_links: inp.net.num_links(),
            demand_pairs: inputs::demand_pairs(&inp.matrices.iter().collect::<Vec<_>>()),
            classes: inp.matrices.len(),
            critical_scenarios: out.critical.len(),
            threads: inp.params.threads,
        }
    }

    /// `dtr-mtr` engine kernels (one duplex move in every class, one
    /// critical failure, a sweep over the critical set) and the
    /// `dtr-routing` kernels on the voice class.
    fn probes(&self, inp: &MtrInputs, out: &MtrOutcome, m: &mut Metrics) {
        let budget = self.size.probe_budget_s();
        let (net, w) = (&inp.net, &out.weights);
        let ev = inp.evaluator();
        let scen = inp.universe.scenarios_for(&out.critical);
        let n = scen.len();
        let reps = net.duplex_representatives();
        let wmax = inp.params.wmax;
        let mut st = (ev.acquire_workspace(), w.clone());

        let move_us = probe_us(
            &mut st,
            budget,
            |(ws, cand), i| {
                ev.cost_with(ws, w, Scenario::Normal);
                cand.clone_from(w);
                let rep = reps[i % reps.len()];
                for k in 0..cand.num_classes() {
                    let old = w.get(k, rep);
                    cand.set_duplex(net, k, rep, (old + k as u32) % wmax + 1);
                }
            },
            |(ws, cand), _| {
                black_box(ev.cost_with(ws, cand, Scenario::Normal));
            },
        );
        m.set("mtr.move_eval_us", move_us);

        ev.cost_with(&mut st.0, w, Scenario::Normal);
        let failure_us = probe_us(
            &mut st,
            budget,
            |_, _| {},
            |(ws, _), i| {
                black_box(ev.cost_with(ws, w, scen[i % n]));
            },
        );
        m.set("mtr.failure_eval_us", failure_us);

        let sweep_us = probe_us(
            &mut st,
            budget,
            |_, _| {},
            |_, _| {
                black_box(ev.evaluate_all(w, &scen));
            },
        );
        m.set("mtr.sweep_us", sweep_us / n as f64);
        ev.release_workspace(st.0);

        routing_probes(net, w.weights(0), &inp.matrices[0], &scen, budget, m);
    }

    fn bypassed(&self) -> &'static [&'static str] {
        &["core.", "cost.", "parallel.", "persist.", "setup.standin_s"]
    }
}
