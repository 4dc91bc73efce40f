//! **Selector ablation** (extension; motivated by §IV-C).
//!
//! The paper argues prior-art critical-link selectors fail in the DTR
//! setting but reports no numbers. This experiment quantifies the claim:
//! run the identical pipeline with each selector (same Phase-1 output,
//! same budgets), then score every resulting routing against the *full*
//! failure universe.

use dtr_core::{baselines::Selector, RobustOptimizer};
use dtr_topogen::TopoKind;

use crate::metrics;
use crate::render::Table;
use crate::settings::{ExpConfig, Instance, LoadSpec, TopoSpec};

#[derive(Clone, Debug)]
pub struct Row {
    pub selector: String,
    pub beta: (f64, f64),
    pub top10: (f64, f64),
    pub phi_fail: (f64, f64),
}

pub struct Ablation {
    pub rows: Vec<Row>,
    pub table: Table,
}

impl std::fmt::Display for Ablation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

pub fn run(cfg: &ExpConfig) -> Ablation {
    let n = cfg.scale.nodes(30);
    let selectors = [
        Selector::MeanLeftTail,
        Selector::Random,
        Selector::LoadBased,
        Selector::Fluctuation,
    ];
    let mut table = Table::new(
        "Ablation: critical-link selector quality (full-universe scoring)",
        &["selector", "beta", "top-10% beta", "phi_fail"],
    );
    let mut acc: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        vec![(Vec::new(), Vec::new(), Vec::new()); selectors.len()];

    for rep in 0..cfg.scale.repeats() {
        let seed = cfg.run_seed(rep);
        let inst = Instance::build(
            format!("RandTopo [{n},{}]", n * 6),
            TopoSpec::Synth(TopoKind::Rand, n, n * 3),
            LoadSpec::AvgUtil(0.43),
            dtr_cost::CostParams::default(),
            seed,
        );
        let ev = inst.evaluator();
        let opt = RobustOptimizer::builder(&ev)
            .params(cfg.scale.params(seed))
            .build();
        let all = opt.universe().scenarios();
        for (si, &sel) in selectors.iter().enumerate() {
            let report = opt.optimize_with_selector(sel);
            let series = metrics::failure_series(&ev, &report.robust, &all);
            acc[si].0.push(metrics::beta(&series));
            acc[si].1.push(metrics::top_fraction_beta(&series, 0.10));
            acc[si].2.push(metrics::phi_fail(&series));
        }
    }

    let mut rows = Vec::new();
    for (si, sel) in selectors.iter().enumerate() {
        let beta = metrics::mean_std(&acc[si].0);
        let top10 = metrics::mean_std(&acc[si].1);
        let phi = metrics::mean_std(&acc[si].2);
        table.row(vec![
            sel.to_string(),
            Table::mean_std_cell(beta.0, beta.1),
            Table::mean_std_cell(top10.0, top10.1),
            format!("{:.3e}", phi.0),
        ]);
        rows.push(Row {
            selector: sel.to_string(),
            beta,
            top10,
            phi_fail: phi,
        });
    }
    Ablation { rows, table }
}

#[cfg(test)]
mod tests {
    #[test]
    fn selectors_are_all_compared() {
        // Structure-only test; the actual runs are exercised by the repro
        // binary and the integration suite (they cost several
        // optimizations each).
        let names = ["mean-left-tail", "random", "load-based", "fluctuation"];
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
