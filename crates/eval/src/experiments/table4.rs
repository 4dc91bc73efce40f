//! **Table IV** — benefits of robust optimization vs. mean node degree
//! (§V-C): 30-node RandTopo at mean degrees 4/6/8 (path diversity knob).

use dtr_topogen::{SynthConfig, TopoKind};

use crate::experiments::common::OptimizedPair;
use crate::metrics;
use crate::render::Table;
use crate::series::{self, Series};
use crate::settings::{ExpConfig, Instance, LoadSpec, TopoSpec};

#[derive(Clone, Debug)]
pub struct Row {
    pub degree: f64,
    pub avg_robust: (f64, f64),
    pub avg_regular: (f64, f64),
    pub top10_robust: (f64, f64),
    pub top10_regular: (f64, f64),
}

pub struct Table4 {
    pub rows: Vec<Row>,
    pub table: Table,
}

impl std::fmt::Display for Table4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

/// Table IV; with `cfg.out_dir` set it also writes the rows at full
/// precision as the series `table4_sla_violations_vs_degree`.
pub fn run(cfg: &ExpConfig) -> Table4 {
    let n = cfg.scale.nodes(30);
    let mut table = Table::new(
        format!("Table IV: SLA violations in {n}-node RandTopo vs mean degree"),
        &["mean degree", "avg R", "avg NR", "top-10% R", "top-10% NR"],
    );
    let mut out = Series::new(
        "table4_sla_violations_vs_degree",
        &[
            "mean_degree",
            "avg_r_mean",
            "avg_r_std",
            "avg_nr_mean",
            "avg_nr_std",
            "top10_r_mean",
            "top10_r_std",
            "top10_nr_mean",
            "top10_nr_std",
        ],
    );
    let mut rows = Vec::new();

    for &deg in &[4.0f64, 6.0, 8.0] {
        let duplex = SynthConfig::with_mean_degree(n, deg, 0).duplex_links;
        let mut avg_r = Vec::new();
        let mut avg_nr = Vec::new();
        let mut top_r = Vec::new();
        let mut top_nr = Vec::new();
        for rep in 0..cfg.scale.repeats() {
            let seed = cfg.run_seed(rep).wrapping_add((deg * 10.0) as u64);
            let inst = Instance::build(
                format!("RandTopo [{n}] degree {deg}"),
                TopoSpec::Synth(TopoKind::Rand, n, duplex),
                LoadSpec::AvgUtil(0.43),
                dtr_cost::CostParams::default(),
                seed,
            );
            let pair = OptimizedPair::compute(&inst, cfg.scale.params(seed));
            avg_r.push(pair.beta_robust());
            avg_nr.push(pair.beta_regular());
            top_r.push(metrics::top_fraction_beta(&pair.robust, 0.10));
            top_nr.push(metrics::top_fraction_beta(&pair.regular, 0.10));
        }
        let row = Row {
            degree: deg,
            avg_robust: metrics::mean_std(&avg_r),
            avg_regular: metrics::mean_std(&avg_nr),
            top10_robust: metrics::mean_std(&top_r),
            top10_regular: metrics::mean_std(&top_nr),
        };
        table.row(vec![
            format!("{deg}"),
            Table::mean_std_cell(row.avg_robust.0, row.avg_robust.1),
            Table::mean_std_cell(row.avg_regular.0, row.avg_regular.1),
            Table::mean_std_cell(row.top10_robust.0, row.top10_robust.1),
            Table::mean_std_cell(row.top10_regular.0, row.top10_regular.1),
        ]);
        out.push(vec![
            deg,
            row.avg_robust.0,
            row.avg_robust.1,
            row.avg_regular.0,
            row.avg_regular.1,
            row.top10_robust.0,
            row.top10_robust.1,
            row.top10_regular.0,
            row.top10_regular.1,
        ]);
        rows.push(row);
    }
    series::write_all(&[out], cfg.out_dir.as_deref());
    Table4 { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_configs_scale_duplex_counts() {
        // 30 nodes at degree 4/6/8 -> 60/90/120 duplex links.
        for (deg, expect) in [(4.0, 60), (6.0, 90), (8.0, 120)] {
            assert_eq!(
                SynthConfig::with_mean_degree(30, deg, 0).duplex_links,
                expect
            );
        }
    }
}
