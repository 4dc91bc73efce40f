//! **Table I** — critical vs. full search accuracy (§IV-E1).
//!
//! For each topology (RandTopo, NearTopo, PLTopo, ISP at average
//! utilization ≈ 0.43) and each critical-set size `|Ec|/|E| ∈
//! {5%, 10%, 15%}`:
//!
//! * `βfull` — mean SLA violations across all single link failures for the
//!   *full-search* solution (`Ec = E`);
//! * `βcrt`  — same for the critical-search solution;
//! * `βΦ (%)` — relative difference in the compound throughput failure
//!   cost between the two solutions.
//!
//! A good critical search achieves `βcrt ≈ βfull` and `βΦ ≈ 0` at a small
//! fraction of the evaluations. The §IV-E1 high-load follow-up (max util
//! 0.9, `|Ec|/|E| ∈ {10%, 20%, 25%}`) is [`run_high_load`].

use dtr_core::{Params, RobustOptimizer};

use crate::metrics;
use crate::render::Table;
use crate::series::{self, Series};
use crate::settings::{ExpConfig, Instance, LoadSpec, TopoSpec};

/// Raw result for one (topology, fraction) cell, averaged over repeats.
#[derive(Clone, Debug)]
pub struct Cell {
    pub topology: String,
    pub fraction: f64,
    pub beta_full: (f64, f64),
    pub beta_crt: (f64, f64),
    pub beta_phi_pct: (f64, f64),
}

/// Full Table-I output.
pub struct Table1 {
    pub cells: Vec<Cell>,
    pub table: Table,
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

/// The paper's Table I (avg util 0.43, fractions 5/10/15 %); with
/// `cfg.out_dir` set it also writes the series `table1_critical_vs_full`.
pub fn run(cfg: &ExpConfig) -> Table1 {
    let fractions = [0.05, 0.10, 0.15];
    let out = run_at(
        cfg,
        LoadSpec::AvgUtil(0.43),
        &fractions,
        "Table I: critical vs full search (avg util 0.43)",
    );
    write_csv(cfg, "table1_critical_vs_full", fractions.len(), &out);
    out
}

/// §IV-E1's high-load variant (RandTopo only, max util 0.9); with
/// `cfg.out_dir` set it also writes the series
/// `table1_high_load_critical_vs_full`.
pub fn run_high_load(cfg: &ExpConfig) -> Table1 {
    let scale = cfg.scale;
    let n = scale.nodes(30);
    let topos = vec![(
        format!("RandTopo [{},{}] @ max util 0.9", n, n * 6),
        TopoSpec::Synth(dtr_topogen::TopoKind::Rand, n, n * 3),
    )];
    let fractions = [0.10, 0.20, 0.25];
    let out = run_on(
        cfg,
        topos,
        LoadSpec::MaxUtil(0.9),
        &fractions,
        "Table I (high load): critical vs full search (max util 0.9)",
    );
    write_csv(
        cfg,
        "table1_high_load_critical_vs_full",
        fractions.len(),
        &out,
    );
    out
}

fn run_at(cfg: &ExpConfig, load: LoadSpec, fractions: &[f64], title: &str) -> Table1 {
    let topos = TopoSpec::paper_set(cfg.scale);
    run_on(cfg, topos, load, fractions, title)
}

/// Core kernel: arbitrary topology list, load and fractions.
fn run_on(
    cfg: &ExpConfig,
    topos: Vec<(String, TopoSpec)>,
    load: LoadSpec,
    fractions: &[f64],
    title: &str,
) -> Table1 {
    let mut table = Table::new(
        title,
        &[
            "topology",
            "|Ec|/|E|",
            "beta_full",
            "beta_crt",
            "beta_phi(%)",
        ],
    );
    let mut cells = Vec::new();

    for (name, topo) in topos {
        // Per-fraction accumulators over repeats.
        let mut full_betas = Vec::new();
        let mut crt_betas = vec![Vec::new(); fractions.len()];
        let mut phi_pcts = vec![Vec::new(); fractions.len()];

        for rep in 0..cfg.scale.repeats() {
            let seed = cfg.run_seed(rep);
            let inst = Instance::build(
                name.clone(),
                topo,
                load,
                dtr_cost::CostParams::default(),
                seed,
            );
            let ev = inst.evaluator();
            let base = cfg.scale.params(seed);

            // Full search once per repeat.
            let opt = RobustOptimizer::builder(&ev).params(base).build();
            let all = opt.universe().scenarios();
            let full = opt.optimize_full();
            let full_series = metrics::failure_series(&ev, &full.robust, &all);
            full_betas.push(metrics::beta(&full_series));
            let full_phi = metrics::phi_fail(&full_series);

            // Critical search per fraction.
            for (fi, &f) in fractions.iter().enumerate() {
                let params = Params {
                    critical_fraction: f,
                    ..base
                };
                let opt = RobustOptimizer::builder(&ev).params(params).build();
                let crt = opt.optimize();
                let series = metrics::failure_series(&ev, &crt.robust, &all);
                crt_betas[fi].push(metrics::beta(&series));
                phi_pcts[fi].push(metrics::beta_phi_percent(
                    metrics::phi_fail(&series),
                    full_phi,
                ));
            }
        }

        let bf = metrics::mean_std(&full_betas);
        for (fi, &f) in fractions.iter().enumerate() {
            let bc = metrics::mean_std(&crt_betas[fi]);
            let bp = metrics::mean_std(&phi_pcts[fi]);
            table.row(vec![
                name.clone(),
                format!("{:.0}%", f * 100.0),
                format!("{:.2}", bf.0),
                Table::mean_std_cell(bc.0, bc.1),
                Table::mean_std_cell(bp.0, bp.1),
            ]);
            cells.push(Cell {
                topology: name.clone(),
                fraction: f,
                beta_full: bf,
                beta_crt: bc,
                beta_phi_pct: bp,
            });
        }
    }

    Table1 { cells, table }
}

/// Write `t`'s cells at full precision as the series `name`, one row per
/// (topology, fraction), the topology as its index in the run's list
/// (cells come topology-major, `fractions` per topology).
fn write_csv(cfg: &ExpConfig, name: &str, fractions: usize, t: &Table1) {
    let mut out = Series::new(
        name,
        &[
            "topology",
            "fraction",
            "beta_full_mean",
            "beta_full_std",
            "beta_crt_mean",
            "beta_crt_std",
            "beta_phi_pct_mean",
            "beta_phi_pct_std",
        ],
    );
    for (i, c) in t.cells.iter().enumerate() {
        out.push(vec![
            (i / fractions) as f64,
            c.fraction,
            c.beta_full.0,
            c.beta_full.1,
            c.beta_crt.0,
            c.beta_crt.1,
            c.beta_phi_pct.0,
            c.beta_phi_pct.1,
        ]);
    }
    series::write_all(&[out], cfg.out_dir.as_deref());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    /// Tiny end-to-end smoke: a single topology, single fraction, to keep
    /// the unit-test suite fast. Full Table I runs live in the repro
    /// binary.
    #[test]
    fn single_cell_smoke() {
        let cfg = ExpConfig::new(Scale::Smoke, 42);
        let topos = vec![(
            "RandTopo [8,32]".to_string(),
            TopoSpec::Synth(dtr_topogen::TopoKind::Rand, 8, 16),
        )];
        let out = run_on(
            &cfg,
            topos,
            LoadSpec::AvgUtil(0.43),
            &[0.25],
            "Table I smoke",
        );
        assert_eq!(out.cells.len(), 1);
        let c = &out.cells[0];
        assert!(c.beta_full.0.is_finite());
        assert!(c.beta_crt.0.is_finite());
        assert!(c.beta_phi_pct.0 >= 0.0);
        assert!(out.table.render().contains("beta_crt"));
    }

    /// The high-load variant (registered as `table1-high-load`) runs
    /// end to end: one topology, three fractions, finite cells.
    #[test]
    fn high_load_smoke() {
        let out = run_high_load(&ExpConfig::new(Scale::Smoke, 42));
        assert_eq!(out.cells.len(), 3);
        for c in &out.cells {
            assert!(c.beta_full.0.is_finite(), "{c:?}");
            assert!(c.beta_crt.0.is_finite(), "{c:?}");
            assert!(c.beta_phi_pct.0.is_finite(), "{c:?}");
        }
    }
}
