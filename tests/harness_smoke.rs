//! Smoke tests of the experiment harness: each driver runs at `Smoke`
//! scale and produces structurally valid output. (The heavyweight drivers
//! — table1, fig5..7 — are exercised by their own unit smoke tests in
//! `dtr-eval` and by the repro binary; here we cover the fast ones plus
//! the harness utilities end-to-end.)

use dtr::eval::experiments::{fig3, fig4, timing};
use dtr::eval::{ExpConfig, Scale};

#[test]
fn fig3_produces_full_series() {
    let cfg = ExpConfig::new(Scale::Smoke, 21);
    let out = fig3::run(&cfg);
    assert!(!out.violations.rows.is_empty());
    assert_eq!(out.violations.rows.len(), out.phi.rows.len());
    // Robust and regular columns both present and non-negative.
    for row in &out.violations.rows {
        assert!(row[1] >= 0.0 && row[2] >= 0.0);
    }
    assert!(out.summary.render().contains("robust"));
}

#[test]
fn fig4_counts_are_sorted_descending() {
    let cfg = ExpConfig::new(Scale::Smoke, 22);
    let out = fig4::run(&cfg);
    let rand_counts = out.count_series.values("rand_topo");
    assert!(!rand_counts.is_empty());
    let clean: Vec<f64> = rand_counts.into_iter().filter(|x| !x.is_nan()).collect();
    assert!(clean.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn timing_shows_critical_search_savings() {
    let cfg = ExpConfig::new(Scale::Smoke, 23);
    let t = timing::run(&cfg);
    assert!(t.critical.2 < t.full.2, "phase-2 evaluation savings");
    // Evaluation ratio should land in the same decade as |Ec|/|E|.
    let ratio = t.critical.2 as f64 / t.full.2 as f64;
    assert!(
        ratio < 0.8,
        "critical/full evaluation ratio {ratio} not clearly below 1"
    );
}

#[test]
fn csv_series_written_to_disk() {
    let dir = std::env::temp_dir().join(format!("dtr_harness_smoke_{}", std::process::id()));
    let cfg = ExpConfig {
        scale: Scale::Smoke,
        seed: 31,
        out_dir: Some(dir.clone()),
    };
    let _ = fig3::run(&cfg);
    assert!(dir.join("fig3a_sla_violations.csv").exists());
    assert!(dir.join("fig3b_phi_cost.csv").exists());
    let content = std::fs::read_to_string(dir.join("fig3a_sla_violations.csv")).unwrap();
    assert!(content.starts_with("failure_link_id,robust,regular"));
    std::fs::remove_dir_all(dir).ok();
}
