//! # dtr-perfbench — time to robust weights, end to end and by layer
//!
//! One run measures one workload for one seed (see [`inputs::Workload`]):
//! a closed loop with one client that solves a fixed batch of instances,
//! one optimizer call at a time, each on inputs generated from the seed
//! with a fixed sweep cap, so every call does a stated amount of search
//! and returns a bit-reproducible result.
//!
//! * **Untraced run** (`trace = false`): set-up passes are repeated and
//!   timed until [`Size::setup_budget_s`] is spent (at least
//!   [`SETUP_MIN_PASSES`]); then the batch is solved in rounds until the
//!   time budget is spent (at least one round). `solve_s` is the mean
//!   over instances of each instance's median solve time, `setup_s` the
//!   median over set-up passes of the mean per-instance set-up time,
//!   and `peak_rss_mb` this process's own peak resident memory. Every
//!   returned setting is checked against the reference evaluator outside
//!   the timed region.
//! * **Traced run** (`trace = true`): the first [`TRACED_INSTANCES`]
//!   instances are solved once untraced and once through the public
//!   stage functions wrapped in spans; the results must agree bit for
//!   bit. Counts come from the returned stats and the accept/reject
//!   trace; `dtr50`'s Phase 2 also checkpoints into a file through a
//!   timing sink. Kernel probes then time each lower layer's public functions
//!   on the first instance's own final setting, Phase-1 archive and
//!   critical scenarios. Per-layer values are means over the traced
//!   instances.
//!
//! The library is used only through its public API (the `dtr` facade).

#![forbid(unsafe_code)]

pub mod clock;
mod dtr_bench;
pub mod inputs;
pub mod metrics;
mod mtr_bench;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use clock::{mean, median, timed, Stopwatch};
use inputs::{Seeds, Size, Workload};
use metrics::{Metrics, END_TO_END, PER_LAYER};

/// Timed set-up passes that always run, however long they take.
pub const SETUP_MIN_PASSES: usize = 5;
/// Instances the traced run solves (twice each: untraced and traced).
pub const TRACED_INSTANCES: usize = 2;
/// Unattributed traced time above this share of traced `solve_s` is
/// flagged: the layers must add up to the end-to-end time.
pub const UNATTRIBUTED_FLAG: f64 = 0.03;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget; the first round always completes.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Directory for `dtr50`'s traced checkpoint files (created if
    /// missing).
    pub scratch: PathBuf,
    /// Source revision, recorded in every result row.
    pub commit: String,
}

/// What one invocation measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Human-readable result rows, each carrying full provenance.
    pub rows: Vec<String>,
    /// Optimizer calls attempted.
    pub attempted: u64,
    /// Calls that panicked or failed the output check.
    pub failed: u64,
    /// Benchmark-level problems (a metric not measured, ...).
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics.to_json(catalogue)
        )
    }
}

/// Facts about one solved instance, for its result row.
#[derive(Clone, Debug)]
pub(crate) struct Provenance {
    pub nodes: usize,
    pub directed_links: usize,
    pub demand_pairs: usize,
    pub classes: usize,
    pub critical_scenarios: usize,
    pub threads: usize,
}

/// One workload's optimizer, as the generic driver sees it.
pub(crate) trait Bench {
    /// Generated inputs of one instance (owned; evaluators borrow them).
    type Inputs;
    /// What one optimizer call returns.
    type Outcome;

    /// Instances per run.
    fn instances(&self) -> usize;
    /// Generate one instance, recording each set-up part's seconds as
    /// `setup.*_s` into `parts`.
    fn setup(&self, seeds: Seeds, parts: &mut Metrics) -> Self::Inputs;
    /// One untraced optimizer call and its wall-clock seconds.
    fn solve(&self, inp: &Self::Inputs) -> (Self::Outcome, f64);
    /// The same call through the public stage functions, each in a
    /// span; spans and counts go into `m`.
    fn solve_traced(&self, inp: &Self::Inputs, m: &mut Metrics) -> (Self::Outcome, f64);
    /// Names of the stage spans `solve_traced` records.
    fn stages(&self) -> &'static [&'static str];
    /// Check a result against the reference evaluator (Eq. 4 fold over
    /// the critical scenarios, Eqs. 5–6 on the normal-conditions cost).
    fn check(&self, inp: &Self::Inputs, out: &Self::Outcome) -> Result<(), String>;
    /// Bit-for-bit equality of two results.
    fn same(&self, a: &Self::Outcome, b: &Self::Outcome) -> bool;
    /// SLA (Λ) and congestion (Φ) parts of the returned K̄fail.
    fn kfail(&self, out: &Self::Outcome) -> (f64, f64);
    fn provenance(&self, inp: &Self::Inputs, out: &Self::Outcome) -> Provenance;
    /// Kernel probes on this instance's inputs and traced result.
    fn probes(&self, inp: &Self::Inputs, out: &Self::Outcome, m: &mut Metrics);
    /// Per-layer metric name prefixes this workload bypasses (reported
    /// as 0).
    fn bypassed(&self) -> &'static [&'static str];
}

/// Run one configured invocation.
pub fn run(cfg: &Config) -> Report {
    match cfg.workload {
        Workload::Dtr50 => drive(&dtr_bench::Pipeline::new(cfg), cfg),
        Workload::Tier150 => drive(&dtr_bench::Tier::new(cfg), cfg),
        Workload::Mtr3 => drive(&mtr_bench::Mtr3::new(cfg), cfg),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's peak resident memory in MB: `VmHWM` from
/// `/proc/self/status`. `exec` gives a process a fresh address space, so
/// unlike the `ru_maxrss` a parent reads back, this mark starts at zero
/// and never includes the memory of the process that launched the run.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Run `f`, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn drive<B: Bench>(b: &B, cfg: &Config) -> Report {
    let budget = Stopwatch::start();
    let mut rep = Report::default();
    let seeds: Vec<Seeds> = (0..b.instances())
        .map(|i| Seeds::derive(cfg.seed, i))
        .collect();

    // Set-up, timed pass by pass until its budget is spent; the last
    // pass's inputs are solved.
    let setup = Stopwatch::start();
    let mut pass_means = Vec::new();
    let mut part_means: Vec<Metrics> = Vec::new();
    let mut inputs = Vec::new();
    while pass_means.len() < SETUP_MIN_PASSES || setup.secs() < cfg.size.setup_budget_s() {
        let mut parts = Metrics::default();
        let mut total = 0.0;
        inputs.clear();
        for s in &seeds {
            let mut p = Metrics::default();
            let (inp, secs) = timed(|| b.setup(*s, &mut p));
            total += secs;
            add_into(&mut parts, &p);
            inputs.push(inp);
        }
        pass_means.push(total / seeds.len() as f64);
        part_means.push(scaled(&parts, 1.0 / seeds.len() as f64));
    }
    rep.metrics.set("setup_s", median(&pass_means));

    if cfg.trace {
        traced(b, cfg, &inputs, &part_means, &mut rep);
    } else {
        untraced(b, cfg, &inputs, budget, &mut rep);
        match peak_rss_mb() {
            Some(mb) => rep.metrics.set("peak_rss_mb", mb),
            None => rep
                .errors
                .push("peak_rss_mb: no VmHWM in /proc/self/status".to_string()),
        }
    }
    rep
}

fn untraced<B: Bench>(
    b: &B,
    cfg: &Config,
    inputs: &[B::Inputs],
    budget: Stopwatch,
    rep: &mut Report,
) {
    let k = inputs.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut first: Vec<Option<B::Outcome>> = (0..k).map(|_| None).collect();
    let mut rounds = 0;
    loop {
        let round = Stopwatch::start();
        for (i, inp) in inputs.iter().enumerate() {
            rep.attempted += 1;
            let Some((out, secs)) = guarded(|| b.solve(inp)) else {
                rep.failed += 1;
                rep.rows
                    .push(format!("FAILED instance={i} round={rounds}: panicked"));
                continue;
            };
            times[i].push(secs);
            let verdict = match &first[i] {
                Some(prev) if b.same(prev, &out) => Ok(()),
                Some(_) => Err("result differs from the instance's first round".to_string()),
                None => guarded(|| b.check(inp, &out))
                    .unwrap_or_else(|| Err("output check panicked".to_string())),
            };
            match verdict {
                Ok(()) if first[i].is_none() => first[i] = Some(out),
                Ok(()) => {}
                Err(e) => {
                    rep.failed += 1;
                    rep.rows
                        .push(format!("FAILED instance={i} round={rounds}: {e}"));
                }
            }
        }
        rounds += 1;
        let spent = budget.secs();
        if spent + round.secs() > cfg.seconds {
            break;
        }
    }

    let medians: Vec<f64> = times
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    if medians.len() == k {
        rep.metrics.set("solve_s", mean(&medians));
    } else {
        rep.errors
            .push("an instance produced no solve time".to_string());
    }
    let mut kfails = Vec::new();
    let mut provenance = Vec::new();
    for (i, (inp, out)) in inputs.iter().zip(&first).enumerate() {
        if let Some(out) = out {
            let kf = b.kfail(out);
            kfails.push(kf);
            provenance.push(row_provenance(b, cfg, inp, out));
            rep.rows.push(format!(
                "instance {i}: {} solve_s={} samples={:?} kfail_lambda={} kfail_phi={}",
                provenance[provenance.len() - 1],
                median(&times[i]),
                times[i],
                kf.0,
                kf.1
            ));
        }
    }
    summary_row(rep, provenance.first(), &kfails, rounds);
}

fn traced<B: Bench>(
    b: &B,
    cfg: &Config,
    inputs: &[B::Inputs],
    part_means: &[Metrics],
    rep: &mut Report,
) {
    let t = inputs.len().min(TRACED_INSTANCES);
    let mut layer_sum = Metrics::default();
    let (mut plain_s, mut traced_s, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut kfails = Vec::new();
    let mut provenance = Vec::new();
    for (i, inp) in inputs.iter().take(t).enumerate() {
        rep.attempted += 2;
        let mut m = Metrics::default();
        let plain = guarded(|| b.solve(inp));
        let traced = guarded(|| b.solve_traced(inp, &mut m));
        let panics = u64::from(plain.is_none()) + u64::from(traced.is_none());
        let (Some((pout, ps)), Some((tout, ts))) = (plain, traced) else {
            rep.failed += panics;
            rep.rows.push(format!("FAILED instance={i}: panicked"));
            continue;
        };
        let verdict = guarded(|| b.check(inp, &tout))
            .unwrap_or_else(|| Err("output check panicked".to_string()))
            .and_then(|()| {
                if b.same(&pout, &tout) {
                    Ok(())
                } else {
                    Err("traced result differs from the untraced one".to_string())
                }
            });
        if let Err(e) = verdict {
            rep.failed += 1;
            rep.rows.push(format!("FAILED instance={i}: {e}"));
            continue;
        }
        let spans: f64 = b.stages().iter().filter_map(|s| m.get(s)).sum();
        plain_s.push(ps);
        traced_s.push(ts);
        unattributed.push(ts - spans);
        let kf = b.kfail(&tout);
        kfails.push(kf);
        m.set("kfail_lambda", kf.0);
        m.set("kfail_phi", kf.1);
        provenance.push(row_provenance(b, cfg, inp, &tout));
        rep.rows.push(format!(
            "instance {i}: {} solve_s={ps} traced_solve_s={ts} kfail_lambda={} kfail_phi={}",
            provenance[provenance.len() - 1],
            kf.0,
            kf.1
        ));
        add_into(&mut layer_sum, &m);
        if i == 0 {
            let mut probes = Metrics::default();
            match guarded(|| b.probes(inp, &tout, &mut probes)) {
                Some(()) => add_into(&mut rep.metrics, &probes),
                None => rep.errors.push("kernel probes panicked".to_string()),
            }
        }
    }
    if traced_s.is_empty() {
        rep.errors.push("no traced instance completed".to_string());
        return;
    }
    add_into(
        &mut rep.metrics,
        &scaled(&layer_sum, 1.0 / traced_s.len() as f64),
    );
    for d in PER_LAYER.iter().filter(|d| d.name.starts_with("setup.")) {
        let parts: Vec<f64> = part_means.iter().filter_map(|p| p.get(d.name)).collect();
        if !parts.is_empty() {
            rep.metrics.set(d.name, median(&parts));
        }
    }
    let overhead = mean(&traced_s) / mean(&plain_s) - 1.0;
    let unattributed_s = mean(&unattributed);
    rep.metrics.set("trace.overhead_frac", overhead);
    rep.metrics.set("trace.unattributed_s", unattributed_s);
    if unattributed_s > UNATTRIBUTED_FLAG * mean(&traced_s) {
        rep.rows.push(format!(
            "FLAG trace.unattributed_s={unattributed_s} exceeds {}% of traced solve_s={}: \
             the stage spans do not add up",
            UNATTRIBUTED_FLAG * 100.0,
            mean(&traced_s)
        ));
    }
    summary_row(rep, provenance.first(), &kfails, 1);
    rep.metrics
        .set("fail_frac", rep.failed as f64 / rep.attempted as f64);
    for d in PER_LAYER {
        if rep.metrics.get(d.name).is_none() {
            if b.bypassed().iter().any(|p| d.name.starts_with(p)) {
                rep.metrics.set(d.name, 0.0);
            } else {
                rep.errors
                    .push(format!("per-layer metric {} was not measured", d.name));
            }
        }
    }
}

/// `workload=... seed=... nodes=...` for one instance's result row.
fn row_provenance<B: Bench>(b: &B, cfg: &Config, inp: &B::Inputs, out: &B::Outcome) -> String {
    let p = b.provenance(inp, out);
    format!(
        "workload={} seed={} nodes={} directed_links={} demand_pairs={} classes={} \
         critical_scenarios={} threads={} commit={} nproc={}",
        cfg.workload.name(),
        cfg.seed,
        p.nodes,
        p.directed_links,
        p.demand_pairs,
        p.classes,
        p.critical_scenarios,
        p.threads,
        cfg.commit,
        nproc()
    )
}

/// The closing row: the first instance's provenance, the batch-mean
/// K̄fail parts and the failure fraction, with units.
fn summary_row(
    rep: &mut Report,
    provenance: Option<&String>,
    kfails: &[(f64, f64)],
    rounds: usize,
) {
    let n = kfails.len().max(1) as f64;
    let lambda: f64 = kfails.iter().map(|k| k.0).sum::<f64>() / n;
    let phi: f64 = kfails.iter().map(|k| k.1).sum::<f64>() / n;
    let frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.rows.push(format!(
        "batch: {} instances={} rounds={rounds} kfail_lambda={lambda} cost \
         kfail_phi={phi} cost fail_frac={frac} ratio",
        provenance.map_or("", |p| p.as_str()),
        kfails.len()
    ));
}

/// `acc += m`, name by name.
fn add_into(acc: &mut Metrics, m: &Metrics) {
    for d in metrics::all() {
        if let Some(v) = m.get(d.name) {
            acc.set(d.name, acc.get(d.name).unwrap_or(0.0) + v);
        }
    }
}

/// `m × f`, name by name.
fn scaled(m: &Metrics, f: f64) -> Metrics {
    let mut out = Metrics::default();
    for d in metrics::all() {
        if let Some(v) = m.get(d.name) {
            out.set(d.name, v * f);
        }
    }
    out
}
