//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] list every metric the benchmark
//! emits; `BENCHMARK.json` mirrors their names, units and directions (the
//! self-test pins them together). Each per-layer
//! entry also records which end-to-end metric it should move and on
//! which workloads its layer does most and least of the work, so a
//! later change that claims a gain on one layer can be checked against
//! the prediction (`dtr-perfbench --describe` prints the table).

/// One metric: what it is called, its unit, and which way is better.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metric a change in this one should move (`""` if none).
    pub moves: &'static str,
    /// Workloads where the layer does most of its work.
    pub most_in: &'static str,
    /// Workloads where it does little or none (`0` is reported there
    /// when the layer is bypassed altogether).
    pub little_in: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        moves: "",
        most_in: "",
        little_in: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    most_in: &'static str,
    little_in: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
        most_in,
        little_in,
    }
}

/// Emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    e2e("solve_s", "s"),
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MB"),
];

const ALL: &str = "dtr50,mtr3,tier150";
const DTR: &str = "dtr50";
const SETUP: &str = "setup_s";
const SOLVE: &str = "solve_s";
const LO: &str = "lower";
const HI: &str = "higher";

/// Emitted by every traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[Def] = &[
    // Set-up: dtr-topogen, dtr-traffic, evaluator construction,
    // FailureUniverse, and tier150's Phase-1 stand-in.
    layer("setup.topology_s", "s", LO, SETUP, "tier150", "mtr3"),
    layer("setup.traffic_s", "s", LO, SETUP, DTR, "tier150"),
    layer("setup.evaluator_s", "s", LO, SETUP, "tier150", "mtr3"),
    layer("setup.universe_s", "s", LO, SETUP, "tier150", "mtr3"),
    layer("setup.standin_s", "s", LO, SETUP, "tier150", "dtr50,mtr3"),
    // dtr-core Phase 1a.
    layer("core.phase1_s", "s", LO, SOLVE, DTR, "mtr3,tier150"),
    layer(
        "core.phase1.sweeps",
        "count",
        LO,
        SOLVE,
        DTR,
        "mtr3,tier150",
    ),
    layer("core.phase1.evals", "count", LO, SOLVE, DTR, "mtr3,tier150"),
    layer(
        "core.phase1.accept_ratio",
        "ratio",
        HI,
        SOLVE,
        DTR,
        "mtr3,tier150",
    ),
    // dtr-core Phase 1b.
    layer("core.phase1b_s", "s", LO, SOLVE, DTR, "mtr3,tier150"),
    layer(
        "core.phase1b.rounds",
        "count",
        LO,
        SOLVE,
        DTR,
        "mtr3,tier150",
    ),
    layer(
        "core.phase1b.evals",
        "count",
        LO,
        SOLVE,
        DTR,
        "mtr3,tier150",
    ),
    // dtr-core Phase 1c.
    layer("core.selection_s", "s", LO, SOLVE, DTR, "mtr3,tier150"),
    layer(
        "core.critical_scenarios",
        "count",
        LO,
        SOLVE,
        "dtr50,tier150",
        "mtr3",
    ),
    // dtr-core Phase 2.
    layer("core.phase2_s", "s", LO, SOLVE, "dtr50,tier150", "mtr3"),
    layer(
        "core.phase2.sweeps",
        "count",
        LO,
        SOLVE,
        "dtr50,tier150",
        "mtr3",
    ),
    layer(
        "core.phase2.proposals",
        "count",
        LO,
        SOLVE,
        "dtr50,tier150",
        "mtr3",
    ),
    layer(
        "core.phase2.evals",
        "count",
        LO,
        SOLVE,
        "dtr50,tier150",
        "mtr3",
    ),
    layer(
        "core.phase2.accept_ratio",
        "ratio",
        HI,
        SOLVE,
        "dtr50,tier150",
        "mtr3",
    ),
    layer(
        "core.phase2.constraint_reject_ratio",
        "ratio",
        HI,
        SOLVE,
        "dtr50,tier150",
        "mtr3",
    ),
    layer(
        "core.phase2.skip_ratio",
        "ratio",
        HI,
        SOLVE,
        "dtr50",
        "tier150,mtr3",
    ),
    layer(
        "core.phase2.skipped_floor",
        "count",
        HI,
        SOLVE,
        "dtr50",
        "tier150,mtr3",
    ),
    layer(
        "core.phase2.skipped_cache",
        "count",
        HI,
        SOLVE,
        "dtr50",
        "tier150,mtr3",
    ),
    layer(
        "core.phase2.skipped_cutoff",
        "count",
        HI,
        SOLVE,
        "dtr50",
        "tier150,mtr3",
    ),
    layer(
        "core.spec_wasted",
        "count",
        LO,
        SOLVE,
        "dtr50,tier150",
        "mtr3",
    ),
    // dtr-cost engine kernels (probes on the workload's own inputs).
    layer("cost.move_eval_us", "us", LO, SOLVE, DTR, "mtr3"),
    layer("cost.archive_eval_us", "us", LO, SOLVE, DTR, "mtr3"),
    layer("cost.failure_eval_us", "us", LO, SOLVE, DTR, "mtr3"),
    layer("cost.sweep_us", "us", LO, SOLVE, DTR, "mtr3"),
    layer("cost.floor_us", "us", LO, SOLVE, DTR, "mtr3"),
    layer("cost.reference_us", "us", LO, "", DTR, "mtr3"),
    // dtr-cost per-scenario state cache.
    layer(
        "cost.cache.capture_us",
        "us",
        LO,
        SOLVE,
        DTR,
        "tier150,mtr3",
    ),
    layer("cost.cache.cached_us", "us", LO, SOLVE, DTR, "tier150,mtr3"),
    layer(
        "cost.cache.refresh_us",
        "us",
        LO,
        SOLVE,
        DTR,
        "tier150,mtr3",
    ),
    layer(
        "cost.cache.entry_bytes",
        "bytes",
        LO,
        "peak_rss_mb",
        "tier150",
        "mtr3",
    ),
    layer(
        "cost.cache.resident",
        "count",
        HI,
        SOLVE,
        DTR,
        "tier150,mtr3",
    ),
    layer(
        "cost.cache.fallback_ratio",
        "ratio",
        LO,
        SOLVE,
        "tier150",
        "dtr50,mtr3",
    ),
    // dtr-routing kernels.
    layer("routing.spf_us", "us", LO, SOLVE, "tier150", "dtr50"),
    layer("routing.route_dest_us", "us", LO, SOLVE, "tier150", "dtr50"),
    layer("routing.repair_us", "us", LO, SOLVE, "tier150", "dtr50"),
    // dtr-mtr engine and drivers.
    layer("mtr.regular_s", "s", LO, SOLVE, "mtr3", "dtr50,tier150"),
    layer("mtr.top_up_s", "s", LO, SOLVE, "mtr3", "dtr50,tier150"),
    layer("mtr.selection_s", "s", LO, SOLVE, "mtr3", "dtr50,tier150"),
    layer("mtr.robust_s", "s", LO, SOLVE, "mtr3", "dtr50,tier150"),
    layer(
        "mtr.regular.evals",
        "count",
        LO,
        SOLVE,
        "mtr3",
        "dtr50,tier150",
    ),
    layer(
        "mtr.top_up.evals",
        "count",
        LO,
        SOLVE,
        "mtr3",
        "dtr50,tier150",
    ),
    layer(
        "mtr.robust.evals",
        "count",
        LO,
        SOLVE,
        "mtr3",
        "dtr50,tier150",
    ),
    layer(
        "mtr.robust.accept_ratio",
        "ratio",
        HI,
        SOLVE,
        "mtr3",
        "dtr50,tier150",
    ),
    layer(
        "mtr.robust.skip_ratio",
        "ratio",
        HI,
        SOLVE,
        "mtr3",
        "dtr50,tier150",
    ),
    layer("mtr.move_eval_us", "us", LO, SOLVE, "mtr3", "dtr50,tier150"),
    layer(
        "mtr.failure_eval_us",
        "us",
        LO,
        SOLVE,
        "mtr3",
        "dtr50,tier150",
    ),
    layer("mtr.sweep_us", "us", LO, SOLVE, "mtr3", "dtr50,tier150"),
    // dtr-core::parallel (probes; every kept workload runs one thread,
    // so the two-thread figure moves no end-to-end metric yet).
    layer("parallel.sweep_t1_us", "us", LO, SOLVE, DTR, "mtr3"),
    layer("parallel.sweep_t2_us", "us", LO, "", DTR, "mtr3"),
    // dtr-persist: a timing sink around `FileSink` in dtr50's traced
    // Phase 2 (its store spans are children of `core.phase2_s`).
    layer("persist.stores", "count", LO, SOLVE, DTR, "mtr3,tier150"),
    layer("persist.bytes", "bytes", LO, SOLVE, DTR, "mtr3,tier150"),
    layer("persist.store_s", "s", LO, SOLVE, DTR, "mtr3,tier150"),
    // The harness itself: do the layers add up?
    layer("trace.overhead_frac", "ratio", LO, "", ALL, ""),
    layer("trace.unattributed_s", "s", LO, "", ALL, ""),
    // Result quality. Deterministic: a performance or simplicity change
    // must leave these bit-identical.
    layer("kfail_lambda", "cost", LO, "", ALL, ""),
    layer("kfail_phi", "cost", LO, "", ALL, ""),
    layer("fail_frac", "ratio", LO, "", ALL, ""),
];

/// Every catalogued metric.
pub fn all() -> impl Iterator<Item = &'static Def> {
    END_TO_END.iter().chain(PER_LAYER)
}

/// Look a metric up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    all().find(|d| d.name == name)
}

/// Metric values of one run, emitted in catalogue order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static Def, f64)>,
}

impl Metrics {
    /// Record `value` under catalogue metric `name` (replacing any
    /// earlier value).
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue or a non-finite
    /// value: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        match self.values.iter_mut().find(|(e, _)| e.name == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((d, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `catalogue`, in
    /// its order (values this run did not set are left out).
    pub fn to_json(&self, catalogue: &[Def]) -> String {
        let fields: Vec<String> = catalogue
            .iter()
            .filter_map(|d| {
                self.get(d.name).map(|v| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        d.name,
                        json_number(v),
                        d.unit
                    )
                })
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// The catalogue as JSON lines, one metric each, for `--describe`.
pub fn describe() -> String {
    let mut out = String::new();
    for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for d in defs {
            out.push_str(&format!(
                "{{\"kind\": \"{kind}\", \"name\": \"{}\", \"unit\": \"{}\", \
                 \"better\": \"{}\", \"moves\": \"{}\", \"most_in\": \"{}\", \
                 \"little_in\": \"{}\"}}\n",
                d.name, d.unit, d.better, d.moves, d.most_in, d.little_in
            ));
        }
    }
    out
}
