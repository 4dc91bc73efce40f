//! Integration proof of the static pass, on two trees:
//!
//! * `tests/fixtures/` — a miniature workspace with exactly one known-bad
//!   site per lint family, plus a test-region and an allowlisted line
//!   that must both be skipped; each lint must fire at its site and
//!   nowhere else.
//! * the real workspace — must be clean (the same invariant CI gates
//!   with `cargo run -p dtr-analysis -- --check`).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use dtr_analysis::{analyze_tree, AllowEntry, Config, HotPath, Report};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_report() -> Report {
    let root = fixture_root();
    let config = Config::load(&root).expect("fixture config parses");
    analyze_tree(&root, &config).expect("fixture tree analyzes")
}

#[test]
fn every_lint_family_fires_exactly_at_its_fixture_site() {
    let report = fixture_report();
    let got: Vec<(&str, usize, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.lint))
        .collect();
    // One known-bad site per lint family, and nothing else — in the
    // pass's deterministic (file, line, lint) output order.
    let want = vec![
        ("crates/fx/src/float_fold.rs", 7, "det-float-fold"),
        ("crates/fx/src/float_fold.rs", 7, "det-hash-iter"),
        ("crates/fx/src/hash_iter.rs", 8, "det-hash-iter"),
        ("crates/fx/src/hot_alloc.rs", 5, "hot-alloc"),
        ("crates/fx/src/hot_alloc.rs", 6, "hot-alloc"),
        ("crates/fx/src/lib.rs", 1, "policy-unsafe"),
        ("crates/fx/src/partial_sort.rs", 5, "det-partial-sort"),
        ("crates/fx/src/policy.rs", 5, "policy-time"),
        ("crates/fx/src/policy.rs", 10, "policy-thread"),
    ];
    assert_eq!(got, want, "findings: {:#?}", report.findings);
}

#[test]
fn test_regions_and_allowlisted_lines_are_skipped() {
    let report = fixture_report();
    // hash_iter.rs iterates a HashMap inside its #[cfg(test)] mod
    // (lines 18..): no finding may land there.
    assert!(
        report
            .findings
            .iter()
            .all(|f| !(f.file.ends_with("hash_iter.rs") && f.line >= 18)),
        "test-region finding leaked: {:#?}",
        report.findings
    );
    // allowed.rs's vetted timing line lands in `suppressed`, not
    // `findings`, and is the only suppression the fixture needs.
    assert!(report
        .findings
        .iter()
        .all(|f| !f.file.ends_with("allowed.rs")));
    let sup: Vec<(&str, usize, &str)> = report
        .suppressed
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.lint))
        .collect();
    assert_eq!(sup, vec![("crates/fx/src/allowed.rs", 5, "policy-time")]);
    // The fixture config is fully exercised: nothing stale.
    assert!(
        report.stale_allowlist.is_empty(),
        "{:?}",
        report.stale_allowlist
    );
    assert!(
        report.stale_hot_paths.is_empty(),
        "{:?}",
        report.stale_hot_paths
    );
}

#[test]
fn stale_config_entries_fail_the_pass() {
    let root = fixture_root();
    let mut config = Config::load(&root).expect("fixture config parses");
    config.allowlist.push(AllowEntry {
        file: "crates/fx/src/policy.rs".into(),
        lint: "policy-thread".into(),
        snippet: "no such line".into(),
        defined_at: 99,
    });
    config.hot_paths.push(HotPath {
        file: "crates/fx/src/hot_alloc.rs".into(),
        function: "vanished_kernel".into(),
    });
    let report = analyze_tree(&root, &config).expect("fixture tree analyzes");
    assert_eq!(
        report.stale_allowlist.len(),
        1,
        "{:?}",
        report.stale_allowlist
    );
    assert_eq!(report.stale_allowlist[0].defined_at, 99);
    assert_eq!(
        report.stale_hot_paths.len(),
        1,
        "{:?}",
        report.stale_hot_paths
    );
    assert_eq!(report.stale_hot_paths[0].function, "vanished_kernel");
    assert!(!report.is_clean());
}

#[test]
fn real_workspace_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config = Config::load(&root).expect("workspace config parses");
    let report = analyze_tree(&root, &config).expect("workspace analyzes");
    assert!(report.files_scanned > 50, "walker missed the tree");
    assert!(
        report.is_clean(),
        "findings: {:#?}\nstale allowlist: {:?}\nstale hot paths: {:?}",
        report.findings,
        report.stale_allowlist,
        report.stale_hot_paths
    );
}
