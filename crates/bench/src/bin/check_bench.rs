//! Schema + sanity check for `BENCH_routing.json` — keeps the perf
//! trajectory machine-checkable in CI.
//!
//! The bench-smoke job regenerates the artifact and then runs this
//! binary, which fails the job when:
//!
//! * an expected entry is missing (`link_sweep`, `srlg_sweep`,
//!   `node_sweep`, `sharded_link_sweep`, `phase2_search`,
//!   `mtr_robust_search`), or
//! * a search bench reports `scenario_evals_skipped == 0` (the
//!   incumbent-bounded cutoff never fired — a regression in the
//!   machinery this artifact exists to track), or its two per-cause
//!   skip counters (`skipped_cache`, `skipped_cutoff`) are missing or
//!   don't sum to `scenario_evals_skipped`, or
//! * an identity flag (`identical_result`, `serial_equals_parallel`,
//!   `bit_for_bit_identical`) is missing or false, or
//! * the `checkpoint_overhead` entry is missing, recorded no durable
//!   snapshots, lost the identical-result contract, or its `overhead`
//!   exceeds the 5% budget, or
//! * a per-rep sample array is empty (the variance record the artifact
//!   promises), or
//! * the `scale_tiers` section is missing a tier (`tier_500` always;
//!   `tier_2000` and `tier_5000` unless `quick_mode` is true), a tier
//!   lacks its per-rep samples, its residency budget failed to bind
//!   (`cache_resident_scenarios >= critical_scenarios`), or the budget
//!   bound but `cache_fallback_evals == 0` (the plain fallback path
//!   that the budget exists to exercise never ran), or
//! * the `parallel_search` entry is missing, its `byte_identical` flag
//!   is false, or a multicore runner (`available_cores > 1`) recorded
//!   `speedup < 1.0` (the thread fan-out regressed to a slowdown).
//!
//! No JSON dependency is vendored, so this is a purpose-built scanner
//! for the flat two-level object `micro_routing` emits — strict enough
//! to catch a malformed or truncated artifact, not a general parser.
//!
//! Usage: `check_bench [path/to/BENCH_routing.json]` (defaults to
//! `BENCH_routing.json` in the current directory).

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// The balanced-brace body of `"section": { ... }`, or `None`.
fn section<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\"");
    let start = doc.find(&key)?;
    let open = start + doc[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in doc[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&doc[open..open + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The numeric value of `"key": <number>` inside `body`, or `None`.
fn number(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = body[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean value of `"key": true|false` inside `body`, or `None`
/// when the field is absent — so failures can say *which* it was
/// (missing field vs recorded-false) instead of conflating the two.
fn flag(body: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = body[start..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Push the right diagnostic for a boolean identity field: names the
/// exact field and distinguishes "missing" from "present but false".
fn check_flag(errors: &mut Vec<String>, body: &str, entry: &str, key: &str, meaning: &str) {
    match flag(body, key) {
        Some(true) => {}
        Some(false) => errors.push(format!("`{entry}` field `{key}` is false: {meaning}")),
        None => errors.push(format!("`{entry}` is missing field `{key}` ({meaning})")),
    }
}

/// State of `"key": [ ... ]` inside `body`: present-and-nonempty,
/// present-but-empty, or absent.
enum ArrayState {
    NonEmpty,
    Empty,
    Missing,
}

fn array_state(body: &str, key: &str) -> ArrayState {
    let pat = format!("\"{key}\":");
    let Some(start) = body.find(&pat) else {
        return ArrayState::Missing;
    };
    let rest = body[start + pat.len()..].trim_start();
    if !rest.starts_with('[') {
        return ArrayState::Missing;
    }
    if rest[1..].trim_start().starts_with(']') {
        ArrayState::Empty
    } else {
        ArrayState::NonEmpty
    }
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_routing.json".to_string());
    let doc = match std::fs::read_to_string(&path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("check_bench: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errors = Vec::new();

    // Per-scenario-kind sweep entries with a recorded speedup.
    for kind in ["link_sweep", "srlg_sweep", "node_sweep"] {
        match section(&doc, kind) {
            None => errors.push(format!("missing sweep entry `{kind}`")),
            Some(body) => {
                match number(body, "speedup") {
                    None => errors.push(format!("`{kind}` is missing field `speedup`")),
                    Some(s) if s.is_nan() || s <= 0.0 => {
                        errors.push(format!("`{kind}` field `speedup` is not positive ({s})"))
                    }
                    _ => {}
                }
                match number(body, "scenarios") {
                    None => errors.push(format!("`{kind}` is missing field `scenarios`")),
                    Some(s) if s < 1.0 => {
                        errors.push(format!("`{kind}` field `scenarios` records none ({s})"))
                    }
                    _ => {}
                }
            }
        }
    }

    match section(&doc, "sharded_link_sweep") {
        None => errors.push("missing `sharded_link_sweep` entry".into()),
        Some(body) => check_flag(
            &mut errors,
            body,
            "sharded_link_sweep",
            "serial_equals_parallel",
            "the serial == parallel identity was lost",
        ),
    }

    // End-to-end search benches: entries present, results identical,
    // cutoff observable (skips > 0), the two per-cause counters sum to
    // the legacy total, per-rep samples recorded for every leg.
    // Only `mtr_robust_search` has a third (`combined`) leg: its cached
    // cutoff differs from its uncached `cutoff` leg, while DTR's
    // `cutoff` leg already is the shipped default.
    for name in ["phase2_search", "mtr_robust_search"] {
        match section(&doc, name) {
            None => errors.push(format!("missing search entry `{name}`")),
            Some(body) => {
                check_flag(
                    &mut errors,
                    body,
                    name,
                    "identical_result",
                    "the identical-result contract was lost",
                );
                let skipped = number(body, "scenario_evals_skipped");
                match skipped {
                    None => errors.push(format!(
                        "`{name}` is missing field `scenario_evals_skipped`"
                    )),
                    Some(s) if s <= 0.0 => errors.push(format!(
                        "`{name}` reports scenario_evals_skipped == 0: the cutoff never fired"
                    )),
                    _ => {}
                }
                // The legacy counter must stay the exact per-cause sum.
                if let (Some(total), Some(ca), Some(cu)) = (
                    skipped,
                    number(body, "skipped_cache"),
                    number(body, "skipped_cutoff"),
                ) {
                    if total != ca + cu {
                        errors.push(format!(
                            "`{name}` skip partition broken: {total} != {ca} + {cu}"
                        ));
                    }
                } else if number(body, "skipped_cache").is_none()
                    || number(body, "skipped_cutoff").is_none()
                {
                    errors.push(format!(
                        "`{name}` is missing a per-cause skip counter \
                         (`skipped_cache` / `skipped_cutoff`)"
                    ));
                }
                let legs: &[&str] = if name == "mtr_robust_search" {
                    &[
                        "serial_ns_samples",
                        "cutoff_ns_samples",
                        "combined_ns_samples",
                    ]
                } else {
                    &["serial_ns_samples", "cutoff_ns_samples"]
                };
                for &arr in legs {
                    match array_state(body, arr) {
                        ArrayState::NonEmpty => {}
                        ArrayState::Empty => {
                            errors.push(format!("`{name}` per-rep sample array `{arr}` is empty"))
                        }
                        ArrayState::Missing => {
                            errors.push(format!("`{name}` is missing per-rep sample array `{arr}`"))
                        }
                    }
                }
            }
        }
    }

    // Crash-safety tax: the checkpointed search must return the
    // identical result and the durable-checkpoint overhead must stay
    // within its 5% budget at the 50-node operating point.
    match section(&doc, "checkpoint_overhead") {
        None => errors.push("missing `checkpoint_overhead` entry".into()),
        Some(body) => {
            check_flag(
                &mut errors,
                body,
                "checkpoint_overhead",
                "identical_result",
                "checkpointing perturbed the search result",
            );
            match number(body, "overhead") {
                None => errors.push("`checkpoint_overhead` is missing field `overhead`".into()),
                Some(o) if o.is_nan() => {
                    errors.push("`checkpoint_overhead` field `overhead` is NaN".into())
                }
                Some(o) if o > 0.05 => errors.push(format!(
                    "`checkpoint_overhead` {:.2}% exceeds the 5% budget",
                    o * 100.0
                )),
                _ => {}
            }
            match number(body, "checkpoints_per_run") {
                None => errors
                    .push("`checkpoint_overhead` is missing field `checkpoints_per_run`".into()),
                Some(s) if s < 1.0 => errors.push(
                    "`checkpoint_overhead` recorded no durable snapshots: \
                     the measured run never checkpointed"
                        .into(),
                ),
                _ => {}
            }
            for arr in ["plain_ns_samples", "checkpoint_ns_samples"] {
                match array_state(body, arr) {
                    ArrayState::NonEmpty => {}
                    ArrayState::Empty => errors.push(format!(
                        "`checkpoint_overhead` per-rep sample array `{arr}` is empty"
                    )),
                    ArrayState::Missing => errors.push(format!(
                        "`checkpoint_overhead` is missing per-rep sample array `{arr}`"
                    )),
                }
            }
        }
    }

    // Scale tiers: the 500-node tier is always present (quick mode runs
    // it in CI); the 2,000- and 5,000-node tiers are required of a full
    // (non-quick) artifact. Every tier must record non-empty per-rep
    // samples and a cache residency budget that actually bound, with the
    // fallback path observably exercised.
    match section(&doc, "scale_tiers") {
        None => errors.push("missing `scale_tiers` entry".into()),
        Some(body) => {
            let quick = flag(body, "quick_mode");
            if quick.is_none() {
                errors.push("`scale_tiers` is missing field `quick_mode`".into());
            }
            let tiers: &[&str] = if quick == Some(true) {
                &["tier_500"]
            } else {
                &["tier_500", "tier_2000", "tier_5000"]
            };
            for tier in tiers {
                match section(body, tier) {
                    None => errors.push(format!("`scale_tiers` is missing `{tier}`")),
                    Some(t) => {
                        for key in ["nodes", "directed_links", "cache_budget_bytes", "phase2_ns"] {
                            if number(t, key).is_none() {
                                errors.push(format!("`{tier}` is missing field `{key}`"));
                            }
                        }
                        match array_state(t, "phase2_ns_samples") {
                            ArrayState::NonEmpty => {}
                            ArrayState::Empty => errors.push(format!(
                                "`{tier}` per-rep sample array `phase2_ns_samples` is empty"
                            )),
                            ArrayState::Missing => errors.push(format!(
                                "`{tier}` is missing per-rep sample array `phase2_ns_samples`"
                            )),
                        }
                        match (
                            number(t, "critical_scenarios"),
                            number(t, "cache_resident_scenarios"),
                            number(t, "cache_fallback_evals"),
                        ) {
                            (Some(crit), Some(resident), Some(fallback)) => {
                                if resident >= crit {
                                    errors.push(format!(
                                        "`{tier}` residency budget did not bind: \
                                         {resident} resident of {crit} scenarios"
                                    ));
                                } else if fallback <= 0.0 {
                                    errors.push(format!(
                                        "`{tier}` budget bound but cache_fallback_evals == 0: \
                                         the fallback path never ran"
                                    ));
                                }
                            }
                            _ => errors.push(format!(
                                "`{tier}` is missing cache accounting \
                                 (`critical_scenarios` / `cache_resident_scenarios` / \
                                 `cache_fallback_evals`)"
                            )),
                        }
                    }
                }
            }
        }
    }

    // Search-level parallelism: the 1-thread and N-thread portfolio
    // runs of the 500-node tier must be byte-identical, and a multicore
    // runner (available_cores > 1) must not record the fan-out leg
    // slower than the serial leg.
    match section(&doc, "parallel_search") {
        None => errors.push("missing `parallel_search` entry".into()),
        Some(body) => {
            check_flag(
                &mut errors,
                body,
                "parallel_search",
                "byte_identical",
                "the 1-thread == N-thread identity was lost",
            );
            let cores = number(body, "available_cores");
            if cores.is_none() {
                errors.push("`parallel_search` is missing field `available_cores`".into());
            }
            if number(body, "threads").is_none() {
                errors.push("`parallel_search` is missing field `threads`".into());
            }
            match number(body, "speedup") {
                None => errors.push("`parallel_search` is missing field `speedup`".into()),
                Some(s) if s.is_nan() || s <= 0.0 => errors.push(format!(
                    "`parallel_search` field `speedup` is not positive ({s})"
                )),
                Some(s) if cores.is_some_and(|c| c > 1.0) && s < 1.0 => errors.push(format!(
                    "`parallel_search` thread-scaling regressed: speedup {s} < 1.0 \
                     on a multicore runner ({} cores)",
                    cores.unwrap_or(0.0)
                )),
                _ => {}
            }
            for arr in ["serial_ns_samples", "parallel_ns_samples"] {
                match array_state(body, arr) {
                    ArrayState::NonEmpty => {}
                    ArrayState::Empty => errors.push(format!(
                        "`parallel_search` per-rep sample array `{arr}` is empty"
                    )),
                    ArrayState::Missing => errors.push(format!(
                        "`parallel_search` is missing per-rep sample array `{arr}`"
                    )),
                }
            }
        }
    }

    check_flag(
        &mut errors,
        &doc,
        "artifact",
        "bit_for_bit_identical",
        "the top-level determinism contract was lost",
    );

    if errors.is_empty() {
        println!("check_bench: {path} OK");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("check_bench: {e}");
        }
        ExitCode::FAILURE
    }
}
