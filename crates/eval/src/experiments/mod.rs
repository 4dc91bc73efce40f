//! One module per paper table/figure, plus the timing study (§IV-E2) and
//! the extension studies (selector ablation, SRLG robustness, topology
//! design, search-strategy ablation, three-class MTR). See DESIGN.md §6
//! for the experiment → paper mapping.

pub mod ablation;
pub mod common;
pub mod diversity;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod flexibility;
pub mod mtr3;
pub mod resize;
pub mod search_ablation;
pub mod srlg;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod timing;
pub mod topo_design;

use crate::settings::ExpConfig;

/// An experiment runner: builds the instance, runs the optimizations,
/// renders the report.
pub type ExperimentRunner = fn(&ExpConfig) -> String;

/// Registry used by the `repro` binary: experiment name → runner that
/// returns the rendered report (and writes CSV series if
/// `cfg.out_dir` is set).
pub fn registry() -> Vec<(&'static str, ExperimentRunner)> {
    vec![
        ("table1", |c| table1::run(c).to_string()),
        ("table1-high-load", |c| table1::run_high_load(c).to_string()),
        ("table2", |c| table2::run(c).to_string()),
        ("table3", |c| table3::run(c).to_string()),
        ("table4", |c| table4::run(c).to_string()),
        ("table5", |c| table5::run(c).to_string()),
        ("fig3", |c| fig3::run(c).to_string()),
        ("fig4", |c| fig4::run(c).to_string()),
        ("fig5", |c| fig5::run(c).to_string()),
        ("fig6", |c| fig6::run(c).to_string()),
        ("fig7", |c| fig7::run(c).to_string()),
        ("timing", |c| timing::run(c).to_string()),
        ("ablation", |c| ablation::run(c).to_string()),
        ("resize", |c| resize::run(c).to_string()),
        ("flexibility", |c| flexibility::run(c).to_string()),
        ("srlg", |c| srlg::run(c).to_string()),
        ("topo-design", |c| topo_design::run(c).to_string()),
        ("search-ablation", |c| search_ablation::run(c).to_string()),
        ("mtr3", |c| mtr3::run(c).to_string()),
        ("diversity", |c| diversity::run(c).to_string()),
        ("fig2", |c| fig2::run(c).to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        let names: Vec<&str> = registry().iter().map(|(n, _)| *n).collect();
        for expected in [
            "table1",
            "table1-high-load",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "timing",
            "ablation",
            "resize",
            "flexibility",
            "srlg",
            "topo-design",
            "search-ablation",
            "mtr3",
            "diversity",
            "fig2",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
