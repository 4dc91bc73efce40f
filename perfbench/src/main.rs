//! `dtr-perfbench` — run one benchmark workload and print its result.
//!
//! ```text
//! dtr-perfbench --workload <dtr50|mtr3|tier150> --seed <n>
//!               --seconds <s> --trace <0|1>
//!               [--scratch <dir>] [--commit <rev>] [--toy]
//! dtr-perfbench --describe
//! ```
//!
//! Prints one result row per solved instance, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. Exits 0 when
//! every call passed its output check, 1 otherwise, 2 on bad arguments.
//! `perfbench/run.py` builds this binary and runs each workload in a
//! process of its own, so the `peak_rss_mb` it reports is that
//! workload's alone.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use dtr_perfbench::inputs::{Size, Workload};
use dtr_perfbench::{metrics, run, Config};

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "dtr-perfbench: {msg}\nusage: dtr-perfbench --workload <name> --seed <n> \
         --seconds <s> --trace <0|1> [--scratch <dir>] [--commit <rev>] [--toy]\n       \
         dtr-perfbench --describe"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    let mut commit = "unknown".to_string();
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--describe" {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        if flag == "--toy" {
            size = Size::Toy;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--scratch" => scratch = PathBuf::from(value),
            "--commit" => commit = value,
            _ => return usage(&format!("unknown argument `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("dtr-perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        size,
        scratch,
        commit,
    };
    let report = run(&cfg);
    for row in &report.rows {
        println!("{row}");
    }
    for e in &report.errors {
        println!("ERROR {e}");
    }
    println!("{}", report.json_line(trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
