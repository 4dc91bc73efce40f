//! Toy-size self-test of the benchmark: every workload, traced and
//! untraced, emits every catalogued metric with its unit and passes its
//! output check; `peak_rss_mb` is the run's own, not its launcher's; the
//! catalogue matches `BENCHMARK.json`; and the benchmark's own sources
//! pass the workspace's determinism lint.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::Command;

use dtr_perfbench::inputs::{Size, Workload};
use dtr_perfbench::metrics::{Def, END_TO_END, PER_LAYER};
use dtr_perfbench::{run, Config, Report};

fn toy(workload: Workload, seed: u64, trace: bool) -> Report {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-selftest-{}-{seed}-{trace}",
        workload.name()
    ));
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    run(&Config {
        workload,
        seed,
        seconds: 0.001,
        trace,
        size: Size::Toy,
        scratch,
        commit: "selftest".to_string(),
    })
}

/// `"name": {"value": <number>, "unit": "<unit>"}` is in the result line.
fn assert_emitted(line: &str, defs: &[Def], workload: Workload) {
    for d in defs {
        let key = format!("\"{}\": {{\"value\": ", d.name);
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{}: {} missing from {line}", workload.name(), d.name));
        let rest = &line[at + key.len()..];
        let (value, unit) = rest.split_once(", \"unit\": ").expect("value, then unit");
        assert!(
            value.parse::<f64>().is_ok(),
            "{}: bad value {value}",
            d.name
        );
        assert!(
            unit.starts_with(&format!("\"{}\"}}", d.unit)),
            "{}: unit is not {}",
            d.name,
            d.unit
        );
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        let plain = toy(w, 7, false);
        assert!(plain.correct(), "{}: {:?}", w.name(), plain);
        assert_eq!(plain.failed, 0);
        assert_emitted(&plain.json_line(false), END_TO_END, w);

        let traced = toy(w, 7, true);
        assert!(traced.correct(), "{}: {:?}", w.name(), traced);
        let line = traced.json_line(true);
        assert_emitted(&line, PER_LAYER, w);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

/// A launcher's peak memory must not leak into a run's `peak_rss_mb`
/// (a parent's `ru_maxrss` for its child starts at the parent's own
/// peak, because `exec` folds the old address space's mark into it):
/// with 64 MB touched here, a toy run must still read far below that.
#[test]
fn peak_rss_is_the_runs_own() {
    const BALLAST_MB: usize = 64;
    let ballast = black_box(vec![1u8; BALLAST_MB << 20]);
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest-rss");
    let out = Command::new(env!("CARGO_BIN_EXE_dtr-perfbench"))
        .args(["--workload", "mtr3", "--seed", "3", "--seconds", "0.001"])
        .args(["--trace", "0", "--toy", "--scratch"])
        .arg(&scratch)
        .output()
        .expect("run the benchmark binary");
    drop(ballast);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let key = "\"peak_rss_mb\": {\"value\": ";
    let at = line.find(key).expect("peak_rss_mb in the result line") + key.len();
    let mb: f64 = line[at..]
        .split(',')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("a number");
    assert!(
        mb > 0.0 && mb < (BALLAST_MB / 4) as f64,
        "toy run reports {mb} MB"
    );
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for d in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "{entry}");
    }
    for d in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name, d.unit, d.better
        );
        assert!(json.contains(&entry), "{entry}");
    }
    assert_eq!(
        json.matches("\"better\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the catalogue does not"
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
}

#[test]
fn sources_pass_the_determinism_lint() {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
        .expect("src directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "{files:?}");
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let rel = format!("perfbench/src/{name}");
        let text = std::fs::read_to_string(&path).expect("source file");
        for f in dtr_analysis::analyze_file(&rel, &text, &[], &mut []) {
            // Wall-clock reads are the benchmark's job, confined to one
            // module; anything else (unsafe, hash-order iteration,
            // threads of its own, ...) is a real finding.
            assert!(
                f.lint == "policy-time" && name == "clock.rs",
                "{f}: {}",
                f.line_text
            );
        }
    }
}
