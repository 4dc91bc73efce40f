//! **Fig. 2(b) — empirical link cost distributions** (§IV-C).
//!
//! The paper's Fig. 2 is drawn conceptually: the criticality of a link is
//! the gap between the mean and the left-tail mean of its conditional
//! failure-cost distribution, and Fig. 2(b) contrasts a *wide*
//! distribution (critical link `l`) with a *narrow* one (non-critical
//! `l'`). This experiment regenerates the figure *from data*: run
//! Phase 1 (plus the 1b top-up), pick the most and least critical links
//! by the paper's own estimate, and emit their empirical `Λ` sample
//! distributions. The reproduction claim is the figure's qualitative
//! content: the top-ranked link's distribution is wider (mean − tail-mean
//! gap larger) than the bottom-ranked one's.

use dtr_core::criticality::Criticality;
use dtr_core::{phase1, phase1b, FailureUniverse};
use dtr_topogen::TopoKind;

use crate::render::Table;
use crate::series::{self, Series};
use crate::settings::{ExpConfig, Instance, LoadSpec, TopoSpec};

/// Summary of one link's empirical distribution.
#[derive(Clone, Debug)]
pub struct LinkDistribution {
    /// Failure index of the link.
    pub index: usize,
    /// Sample count.
    pub samples: usize,
    /// Empirical mean (`Λ̂` in the paper).
    pub mean: f64,
    /// Left-tail mean (`Λ̃`, lowest 10 %).
    pub tail_mean: f64,
    /// Criticality `ρ = mean − tail_mean`.
    pub rho: f64,
}

/// Rendered experiment result.
pub struct Fig2 {
    /// The most critical link's distribution summary.
    pub critical: LinkDistribution,
    /// The least critical link's distribution summary.
    pub flat: LinkDistribution,
    /// CSV series: sorted Λ samples of both links (quantile plot).
    pub series: Series,
    /// ASCII table.
    pub table: Table,
}

impl std::fmt::Display for Fig2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

fn summarize(store: &dtr_core::samples::SampleStore, i: usize, tail: f64) -> LinkDistribution {
    let st = store
        .stats(0, i, tail)
        .expect("phase 1b guarantees samples on every failable link");
    LinkDistribution {
        index: i,
        samples: store.count(i),
        mean: st.mean,
        tail_mean: st.tail_mean,
        rho: st.rho(),
    }
}

/// Run the experiment (single repeat — the distributions themselves are
/// the data).
pub fn run(cfg: &ExpConfig) -> Fig2 {
    let n = cfg.scale.nodes(30);
    let seed = cfg.run_seed(0);
    let inst = Instance::build(
        format!("RandTopo [{n},{}]", n * 6),
        TopoSpec::Synth(TopoKind::Rand, n, n * 3),
        LoadSpec::AvgUtil(0.43),
        dtr_cost::CostParams::default(),
        seed,
    );
    let ev = inst.evaluator();
    let params = cfg.scale.params(seed);
    let universe = FailureUniverse::of(&inst.net);

    let mut p1 = phase1::run(&ev, &universe, &params);
    phase1b::run(&ev, &universe, &params, &mut p1);
    let crit = Criticality::estimate(&p1.store, params.left_tail_fraction);
    let ranking = crit.ranking(0);
    let top = ranking[0];
    let bottom = *ranking.last().expect("non-empty universe");

    let critical = summarize(&p1.store, top, params.left_tail_fraction);
    let flat = summarize(&p1.store, bottom, params.left_tail_fraction);

    // Distribution curves via growing tail fractions: the tail mean at
    // fraction `q` is the mean of the lowest `q` share of samples, so
    // the curve (q, tail_mean(q)) traces the low half of each link's
    // distribution — wide distributions rise steeply, narrow ones stay
    // flat. (These curves are exactly what Fig. 2(b) contrasts.)
    let quantiles = 20usize;
    let mut rows = Vec::with_capacity(quantiles);
    for q in 1..=quantiles {
        let frac = q as f64 / quantiles as f64 * 0.5; // up to the median
        let c = p1.store.stats(0, top, frac).unwrap();
        let f = p1.store.stats(0, bottom, frac).unwrap();
        rows.push((frac, c.tail_mean, f.tail_mean));
    }
    let mut series = Series::new(
        "fig2b_link_cost_distributions",
        &[
            "tail_fraction",
            "critical_link_tail_mean",
            "flat_link_tail_mean",
        ],
    );
    for (frac, c, f) in rows {
        series.push(vec![frac, c, f]);
    }
    series::write_all(std::slice::from_ref(&series), cfg.out_dir.as_deref());

    let mut table = Table::new(
        format!(
            "Fig 2(b) empirical: conditional failure-cost distributions (RandTopo [{n},{}])",
            n * 6
        ),
        &[
            "link (by Λ-criticality)",
            "samples",
            "mean",
            "left-tail mean",
            "rho",
        ],
    );
    for (label, d) in [("most critical", &critical), ("least critical", &flat)] {
        table.row(vec![
            format!("{label} (#{})", d.index),
            d.samples.to_string(),
            format!("{:.2}", d.mean),
            format!("{:.2}", d.tail_mean),
            format!("{:.2}", d.rho),
        ]);
    }

    Fig2 {
        critical,
        flat,
        series,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn critical_link_distribution_is_wider() {
        let out = run(&ExpConfig::new(Scale::Smoke, 8));
        // The figure's content: ρ(top) ≥ ρ(bottom), and the top link has
        // a genuinely wide distribution.
        assert!(out.critical.rho >= out.flat.rho);
        assert!(out.critical.samples > 0 && out.flat.samples > 0);
        // Tail mean never exceeds the mean (left tail is the low end).
        assert!(out.critical.tail_mean <= out.critical.mean + 1e-12);
        assert!(out.flat.tail_mean <= out.flat.mean + 1e-12);
        // The quantile series is monotone in the tail fraction for each
        // link (growing prefixes of the sorted samples).
        let c = out.series.values("critical_link_tail_mean");
        for w in c.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }
}
