//! The two-class (DTR) workloads: the full pipeline (`dtr50`, whose
//! traced run also checkpoints Phase 2 into a file) and Phase 2 alone on
//! a larger sparse-demand topology (`tier150`), plus the kernel probes
//! of `dtr-cost`, `dtr-routing` and `dtr-core::parallel`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::path::PathBuf;

use dtr::core::phase1::{self, Phase1Output};
use dtr::core::phase1b;
use dtr::core::phase2::{self, Phase2Output};
use dtr::core::ranking::RankTracker;
use dtr::core::samples::SampleStore;
use dtr::core::search::{
    duplex_weights, failure_emulating_pair, set_duplex_weights, Archive, MoveOutcome, SearchStats,
};
use dtr::core::{
    parallel, selection, FailureUniverse, FileSink, Params, RobustOptimizer, RunControl, Selector,
};
use dtr::cost::{CostParams, Evaluator, LexCost, ScenarioCache};
use dtr::net::{LinkId, Network, NodeId};
use dtr::routing::workspace::{route_destination, route_destination_repair, DestRouting};
use dtr::routing::{spf, Class, Scenario, SpfWorkspace, WeightSetting};
use dtr::traffic::{ClassMatrices, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::{probe_us, span, timed, TimedSink};
use crate::inputs::{self, Seeds, Size, Workload};
use crate::metrics::Metrics;
use crate::{Bench, Config, Provenance};

/// One instance of a two-class workload.
pub(crate) struct DtrInputs {
    net: Network,
    tm: ClassMatrices,
    universe: FailureUniverse,
    params: Params,
    /// `tier150` only: the Phase-1 stand-in and its critical scenarios.
    standin: Option<(Phase1Output, Vec<usize>)>,
}

/// What one two-class optimizer call returned.
pub(crate) struct DtrOutcome {
    weights: WeightSetting,
    kfail: LexCost,
    normal: LexCost,
    /// `⟨Λ*, Φ*⟩`: the Phase-1 normal-conditions benchmark of Eqs. 5–6.
    benchmark: LexCost,
    critical: Vec<usize>,
    /// The Phase-1 archive (traced runs only; the probes perturb it).
    archive: Vec<WeightSetting>,
}

fn lex_bits(c: &LexCost) -> (u64, u64) {
    (c.lambda.to_bits(), c.phi.to_bits())
}

fn same_outcome(a: &DtrOutcome, b: &DtrOutcome) -> bool {
    a.weights == b.weights
        && lex_bits(&a.kfail) == lex_bits(&b.kfail)
        && lex_bits(&a.normal) == lex_bits(&b.normal)
        && a.critical == b.critical
}

/// The output check: the reference evaluator's Eq.-4 fold over the
/// critical scenarios, in index order, must equal the returned K̄fail
/// bit for bit, and the returned normal-conditions cost must be the
/// reference's and satisfy Eqs. 5–6.
fn check_outcome(inp: &DtrInputs, out: &DtrOutcome) -> Result<(), String> {
    let ev = Evaluator::new(&inp.net, &inp.tm, CostParams::default());
    let fold = out.critical.iter().fold(LexCost::ZERO, |acc, &i| {
        acc.add(&ev.evaluate(&out.weights, inp.universe.scenario(i)).cost)
    });
    if lex_bits(&fold) != lex_bits(&out.kfail) {
        return Err(format!(
            "reference K̄fail {fold:?} differs from the returned {:?}",
            out.kfail
        ));
    }
    let normal = ev.evaluate(&out.weights, Scenario::Normal).cost;
    if lex_bits(&normal) != lex_bits(&out.normal) {
        return Err(format!(
            "reference normal cost {normal:?} differs from the returned {:?}",
            out.normal
        ));
    }
    if !phase2::feasible(
        &normal,
        out.benchmark.lambda,
        out.benchmark.phi,
        inp.params.chi,
    ) {
        return Err(format!(
            "normal cost {normal:?} violates Eqs. 5-6 against {:?}",
            out.benchmark
        ));
    }
    Ok(())
}

fn provenance(inp: &DtrInputs, out: &DtrOutcome) -> Provenance {
    Provenance {
        nodes: inp.net.num_nodes(),
        directed_links: inp.net.num_links(),
        demand_pairs: inputs::demand_pairs(&[&inp.tm.delay, &inp.tm.throughput]),
        classes: 2,
        critical_scenarios: out.critical.len(),
        threads: inp.params.threads,
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Share of the replayed proposals that were accepted.
pub(crate) fn accept_ratio(trace: &[MoveOutcome]) -> f64 {
    ratio(
        trace.iter().filter(|&&o| o == MoveOutcome::Accept).count(),
        trace.len(),
    )
}

/// Phase-2 counts (and the cache counters it reports) into `m`.
fn record_phase2(p2: &Phase2Output, m: &mut Metrics) {
    let s = &p2.stats;
    let proposals = p2.trace.len();
    m.set("core.phase2.sweeps", s.iterations as f64);
    m.set("core.phase2.proposals", proposals as f64);
    m.set("core.phase2.evals", s.evaluations as f64);
    m.set("core.phase2.accept_ratio", accept_ratio(&p2.trace));
    m.set(
        "core.phase2.constraint_reject_ratio",
        ratio(p2.constraint_rejections, proposals),
    );
    m.set(
        "core.phase2.skip_ratio",
        ratio(s.scenario_evals_skipped, s.evaluations),
    );
    m.set("core.phase2.skipped_floor", s.skipped_floor as f64);
    m.set("core.phase2.skipped_cache", s.skipped_cache as f64);
    m.set("core.phase2.skipped_cutoff", s.skipped_cutoff as f64);
    m.set("cost.cache.resident", s.cache_resident_scenarios as f64);
    m.set(
        "cost.cache.fallback_ratio",
        ratio(
            s.cache_fallback_evals,
            s.evaluations - s.scenario_evals_skipped,
        ),
    );
}

/// `dtr50`: the full pipeline.
pub(crate) struct Pipeline {
    size: Size,
    /// Where the traced run's Phase-2 checkpoints go.
    scratch: PathBuf,
}

impl Pipeline {
    pub(crate) fn new(cfg: &Config) -> Self {
        Pipeline {
            size: cfg.size,
            scratch: cfg.scratch.clone(),
        }
    }

    /// `Params::quick` with a one-sweep cap per phase and one Phase-1b
    /// round of two samples per link.
    fn params(seed: u64) -> Params {
        Params {
            tau: 2,
            max_phase1b_rounds: 1,
            max_iterations: 1,
            threads: 1,
            ..Params::quick(seed)
        }
    }

    fn outcome(p1: &Phase1Output, critical: Vec<usize>, p2: Phase2Output) -> DtrOutcome {
        DtrOutcome {
            weights: p2.best,
            kfail: p2.best_kfail,
            normal: p2.best_normal,
            benchmark: p1.best_cost,
            critical,
            archive: p1
                .archive
                .entries()
                .iter()
                .map(|(w, _)| w.clone())
                .collect(),
        }
    }
}

impl Bench for Pipeline {
    type Inputs = DtrInputs;
    type Outcome = DtrOutcome;

    fn instances(&self) -> usize {
        match self.size {
            Size::Full => 8,
            Size::Toy => 2,
        }
    }

    fn setup(&self, seeds: Seeds, parts: &mut Metrics) -> DtrInputs {
        let (nodes, duplex) = inputs::shape(Workload::Dtr50, self.size);
        let (net, s) = timed(|| inputs::rand_topology(nodes, duplex, seeds.topology));
        parts.set("setup.topology_s", s);
        let (tm, s) = timed(|| inputs::dense_traffic(nodes, seeds.traffic));
        parts.set("setup.traffic_s", s);
        let (_, s) = timed(|| black_box(Evaluator::new(&net, &tm, CostParams::default())));
        parts.set("setup.evaluator_s", s);
        let (universe, s) = timed(|| FailureUniverse::of(&net));
        parts.set("setup.universe_s", s);
        DtrInputs {
            net,
            tm,
            universe,
            params: Pipeline::params(seeds.search),
            standin: None,
        }
    }

    /// The builder pipeline.
    fn solve(&self, inp: &DtrInputs) -> (DtrOutcome, f64) {
        let ev = Evaluator::new(&inp.net, &inp.tm, CostParams::default());
        let opt = RobustOptimizer::builder(&ev)
            .scenarios(inp.universe.clone())
            .params(inp.params)
            .build();
        let (r, secs) = timed(|| opt.optimize());
        let out = DtrOutcome {
            weights: r.robust,
            kfail: r.kfail,
            normal: r.robust_normal_cost,
            benchmark: r.regular_cost,
            critical: r.critical_indices,
            archive: Vec::new(),
        };
        (out, secs)
    }

    /// Phases 1a → 1b → 1c → 2 through the public stage functions, as
    /// `RobustOptimizer::optimize` runs them, with Phase 2 checkpointing
    /// into a file at every sweep boundary through a timing sink.
    /// Checkpoints do not change the search path, so the result must
    /// still equal the untraced call's.
    fn solve_traced(&self, inp: &DtrInputs, m: &mut Metrics) -> (DtrOutcome, f64) {
        let ev = Evaluator::new(&inp.net, &inp.tm, CostParams::default());
        let u = &inp.universe;
        let params = Params {
            record_trace: true,
            checkpoint_every: 1,
            ..inp.params
        };
        let path = self
            .scratch
            .join(format!("phase2-{:016x}.snap", params.seed));
        let mut file = FileSink::new(&path);
        let mut sink = TimedSink::new(&mut file);
        let ((p1, p1b, critical, p2), secs) = timed(|| {
            let mut p1 = span(m, "core.phase1_s", || phase1::run(&ev, u, &params));
            let p1b = span(m, "core.phase1b_s", || {
                phase1b::run(&ev, u, &params, &mut p1)
            });
            let critical = span(m, "core.selection_s", || {
                selection::select_for_set(u, &ev, &p1, &params, Selector::MeanLeftTail)
            });
            let p2 = span(m, "core.phase2_s", || {
                let mut ctl = RunControl::with_sink(&mut sink);
                phase2::run_controlled(&ev, u, &critical, &params, &p1, &mut ctl)
                    .expect("checkpoint store failed")
            });
            (p1, p1b, critical, p2)
        });
        m.set("persist.stores", sink.stores as f64);
        m.set("persist.bytes", sink.bytes as f64);
        m.set("persist.store_s", sink.store_s);
        // Best effort: a leftover file only costs scratch space.
        let _ = std::fs::remove_file(&path);
        m.set("core.phase1.sweeps", p1.stats.iterations as f64);
        m.set("core.phase1.evals", p1.stats.evaluations as f64);
        m.set("core.phase1.accept_ratio", accept_ratio(&p1.trace));
        m.set("core.phase1b.rounds", p1b.rounds as f64);
        m.set("core.phase1b.evals", p1b.evaluations as f64);
        m.set("core.critical_scenarios", critical.len() as f64);
        record_phase2(&p2, m);
        m.set(
            "core.spec_wasted",
            (p1.stats.speculative_wasted + p2.stats.speculative_wasted) as f64,
        );
        (Pipeline::outcome(&p1, critical, p2), secs)
    }

    fn stages(&self) -> &'static [&'static str] {
        &[
            "core.phase1_s",
            "core.phase1b_s",
            "core.selection_s",
            "core.phase2_s",
        ]
    }

    fn check(&self, inp: &DtrInputs, out: &DtrOutcome) -> Result<(), String> {
        check_outcome(inp, out)
    }

    fn same(&self, a: &DtrOutcome, b: &DtrOutcome) -> bool {
        same_outcome(a, b)
    }

    fn kfail(&self, out: &DtrOutcome) -> (f64, f64) {
        (out.kfail.lambda, out.kfail.phi)
    }

    fn provenance(&self, inp: &DtrInputs, out: &DtrOutcome) -> Provenance {
        provenance(inp, out)
    }

    fn probes(&self, inp: &DtrInputs, out: &DtrOutcome, m: &mut Metrics) {
        dtr_probes(inp, out, self.size.probe_budget_s(), m);
    }

    fn bypassed(&self) -> &'static [&'static str] {
        &["mtr.", "setup.standin_s"]
    }
}

/// `tier150`: `phase2::run` alone, from `micro_routing`'s Phase-1
/// stand-in, under a cache budget that keeps about two scenarios
/// resident.
pub(crate) struct Tier {
    size: Size,
}

impl Tier {
    pub(crate) fn new(cfg: &Config) -> Self {
        Tier { size: cfg.size }
    }

    fn critical_count(&self) -> usize {
        match self.size {
            Size::Full => 4,
            Size::Toy => 3,
        }
    }

    fn hubs(&self) -> usize {
        match self.size {
            Size::Full => 32,
            Size::Toy => 8,
        }
    }
}

/// `micro_routing`'s hand-built Phase-1 output for a tier testbed: a
/// uniform start (an archive of one), plus the `crit` costliest single
/// failures under it, from a pool of the first `2·crit` universe
/// entries, costliest first.
fn tier_standin(
    ev: &Evaluator<'_>,
    universe: &FailureUniverse,
    crit: usize,
) -> (Phase1Output, Vec<usize>) {
    let start = WeightSetting::uniform(ev.net().num_links(), 20);
    let pool = (2 * crit).min(universe.len());
    let mut ws = ev.acquire_workspace();
    let mut ranked: Vec<(usize, LexCost)> = (0..pool)
        .map(|i| (i, ev.cost_with(&mut ws, &start, universe.scenario(i))))
        .collect();
    ev.release_workspace(ws);
    ranked.sort_by(|a, b| {
        b.1.lambda
            .total_cmp(&a.1.lambda)
            .then(b.1.phi.total_cmp(&a.1.phi))
            .then(a.0.cmp(&b.0))
    });
    let critical = ranked.into_iter().take(crit).map(|(i, _)| i).collect();
    let start_cost = ev.cost(&start, Scenario::Normal);
    let mut archive = Archive::new(4);
    archive.offer(&start, start_cost);
    let p1 = Phase1Output {
        best: start,
        best_cost: start_cost,
        archive,
        store: SampleStore::new(universe.len()),
        tracker: RankTracker::new(),
        converged: true,
        trace: Vec::new(),
        stats: SearchStats::default(),
    };
    (p1, critical)
}

/// Cache budget of 2.5 entries' worth, calibrated from one capture of
/// the costliest critical scenario under the start.
fn tier_budget(
    ev: &Evaluator<'_>,
    universe: &FailureUniverse,
    p1: &Phase1Output,
    first: usize,
) -> usize {
    let mut probe = ScenarioCache::new();
    let mut ws = ev.acquire_workspace();
    ev.cache_rebuild_begin(&mut ws, &mut probe, &p1.best, 1);
    ev.cost_capture(&mut ws, &p1.best, universe.scenario(first), &mut probe, 0);
    ev.release_workspace(ws);
    let per_entry = probe.capture_split().1[0].resident_bytes();
    per_entry * 5 / 2
}

impl Bench for Tier {
    type Inputs = DtrInputs;
    type Outcome = DtrOutcome;

    fn instances(&self) -> usize {
        match self.size {
            Size::Full => 12,
            Size::Toy => 2,
        }
    }

    fn setup(&self, seeds: Seeds, parts: &mut Metrics) -> DtrInputs {
        let (nodes, duplex) = inputs::shape(Workload::Tier150, self.size);
        let (net, s) = timed(|| inputs::community_topology(nodes, duplex, seeds.topology));
        parts.set("setup.topology_s", s);
        let (tm, s) = timed(|| inputs::hub_traffic(nodes, self.hubs(), seeds.traffic));
        parts.set("setup.traffic_s", s);
        let (ev, s) = timed(|| Evaluator::new(&net, &tm, CostParams::default()));
        parts.set("setup.evaluator_s", s);
        let (universe, s) = timed(|| FailureUniverse::of(&net));
        parts.set("setup.universe_s", s);
        let ((p1, critical, budget), s) = timed(|| {
            let (p1, critical) = tier_standin(&ev, &universe, self.critical_count());
            let budget = tier_budget(&ev, &universe, &p1, critical[0]);
            (p1, critical, budget)
        });
        parts.set("setup.standin_s", s);
        drop(ev);
        let params = Params {
            max_iterations: 1,
            archive_size: 4,
            cache_budget_bytes: budget,
            ..Params::quick(seeds.search)
        };
        DtrInputs {
            net,
            tm,
            universe,
            params,
            standin: Some((p1, critical)),
        }
    }

    fn solve(&self, inp: &DtrInputs) -> (DtrOutcome, f64) {
        let (p1, critical) = inp.standin.as_ref().expect("tier inputs carry a stand-in");
        let ev = Evaluator::new(&inp.net, &inp.tm, CostParams::default());
        let (p2, secs) = timed(|| phase2::run(&ev, &inp.universe, critical, &inp.params, p1));
        (Pipeline::outcome(p1, critical.clone(), p2), secs)
    }

    fn solve_traced(&self, inp: &DtrInputs, m: &mut Metrics) -> (DtrOutcome, f64) {
        let (p1, critical) = inp.standin.as_ref().expect("tier inputs carry a stand-in");
        let ev = Evaluator::new(&inp.net, &inp.tm, CostParams::default());
        let params = Params {
            record_trace: true,
            ..inp.params
        };
        let (p2, secs) = timed(|| {
            span(m, "core.phase2_s", || {
                phase2::run(&ev, &inp.universe, critical, &params, p1)
            })
        });
        m.set("core.critical_scenarios", critical.len() as f64);
        record_phase2(&p2, m);
        m.set("core.spec_wasted", p2.stats.speculative_wasted as f64);
        (Pipeline::outcome(p1, critical.clone(), p2), secs)
    }

    fn stages(&self) -> &'static [&'static str] {
        &["core.phase2_s"]
    }

    fn check(&self, inp: &DtrInputs, out: &DtrOutcome) -> Result<(), String> {
        check_outcome(inp, out)
    }

    fn same(&self, a: &DtrOutcome, b: &DtrOutcome) -> bool {
        same_outcome(a, b)
    }

    fn kfail(&self, out: &DtrOutcome) -> (f64, f64) {
        (out.kfail.lambda, out.kfail.phi)
    }

    fn provenance(&self, inp: &DtrInputs, out: &DtrOutcome) -> Provenance {
        provenance(inp, out)
    }

    fn probes(&self, inp: &DtrInputs, out: &DtrOutcome, m: &mut Metrics) {
        dtr_probes(inp, out, self.size.probe_budget_s(), m);
    }

    fn bypassed(&self) -> &'static [&'static str] {
        &["core.phase1", "core.selection_s", "mtr.", "persist."]
    }
}

/// A deterministic duplex move for probe call `i`: link `reps[i % n]`
/// gets a weight pair different from its current one.
fn move_for(reps: &[LinkId], w: &WeightSetting, wmax: u32, i: usize) -> (LinkId, u32, u32) {
    let rep = reps[i % reps.len()];
    let (d, t) = duplex_weights(w, rep);
    (rep, d % wmax + 1, (t + 6) % wmax + 1)
}

/// Destinations with positive demand in `tm`.
fn demand_dests(tm: &TrafficMatrix) -> Vec<usize> {
    let n = tm.num_nodes();
    (0..n)
        .filter(|&t| (0..n).any(|s| s != t && tm.demand(s, t) > 0.0))
        .collect()
}

/// `dtr-routing` kernels on one class: a fresh shortest-path tree, a
/// full per-destination route (SPF + ECMP push), and the repair of a
/// destination's routing under a critical failure.
pub(crate) fn routing_probes(
    net: &Network,
    weights: &[u32],
    tm: &TrafficMatrix,
    failures: &[Scenario],
    budget: f64,
    m: &mut Metrics,
) {
    let dests = demand_dests(tm);
    let up = net.fresh_mask();
    let mut dist = Vec::new();
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let spf_us = probe_us(
        &mut (),
        budget,
        |_, _| {},
        |_, i| {
            let t = NodeId::new(dests[i % dests.len()]);
            spf::dist_to_into(net, t, weights, &up, &mut dist, &mut heap);
            black_box(&dist);
        },
    );
    m.set("routing.spf_us", spf_us);

    let mut ws = SpfWorkspace::new();
    let mut out = DestRouting::default();
    let route_us = probe_us(
        &mut (),
        budget,
        |_, _| {},
        |_, i| {
            route_destination(
                net,
                weights,
                tm,
                &up,
                dests[i % dests.len()],
                &mut ws,
                &mut out,
            );
            black_box(&out);
        },
    );
    m.set("routing.route_dest_us", route_us);

    let base: Vec<DestRouting> = dests
        .iter()
        .map(|&t| {
            let mut b = DestRouting::default();
            route_destination(net, weights, tm, &up, t, &mut ws, &mut b);
            b
        })
        .collect();
    let mut mask = net.fresh_mask();
    let repair_us = probe_us(
        &mut mask,
        budget,
        |mask, i| failures[i % failures.len()].mask_into(net, mask),
        |mask, i| {
            let d = (i / failures.len()) % dests.len();
            route_destination_repair(
                net, weights, tm, mask, dests[d], &base[d], &mut ws, &mut out,
            );
            black_box(&out);
        },
    );
    m.set("routing.repair_us", repair_us);
}

/// Kernel probes of `dtr-cost`, its scenario cache, `dtr-routing` and
/// `dtr-core::parallel`, on the instance's final setting, its Phase-1
/// archive and its critical scenarios. Every `*_us` value is a median
/// over many calls; cache and sweep values are per scenario.
fn dtr_probes(inp: &DtrInputs, out: &DtrOutcome, budget: f64, m: &mut Metrics) {
    let (net, w) = (&inp.net, &out.weights);
    let ev = Evaluator::new(net, &inp.tm, CostParams::default());
    let scen = inp.universe.scenarios_for(&out.critical);
    let n = scen.len();
    let reps = net.duplex_representatives();
    let wmax = inp.params.wmax;
    // Workspace, candidate setting and scenario cache, shared by the
    // untimed preparation and the timed call of each probe.
    let mut st = (ev.acquire_workspace(), w.clone(), ScenarioCache::new());
    let one_move = |cand: &mut WeightSetting, i: usize| {
        cand.clone_from(w);
        let (rep, d, t) = move_for(&reps, w, wmax, i);
        set_duplex_weights(cand, net, rep, d, t);
    };

    // One duplex move, evaluated on a workspace warm on the incumbent.
    let move_us = probe_us(
        &mut st,
        budget,
        |(ws, cand, _), i| {
            ev.cost_with(ws, w, Scenario::Normal);
            one_move(cand, i);
        },
        |(ws, cand, _), _| {
            black_box(ev.cost_with(ws, cand, Scenario::Normal));
        },
    );
    m.set("cost.move_eval_us", move_us);

    // The Phase-1b unit: a failure-emulating perturbation of an archive
    // member, evaluated under normal conditions.
    let mut rng = StdRng::seed_from_u64(inp.params.seed);
    let archive_us = probe_us(
        &mut st,
        budget,
        |(_, cand, _), i| {
            cand.clone_from(&out.archive[i % out.archive.len()]);
            let rep = inp.universe.failable[i % inp.universe.failable.len()];
            let (d, t) = failure_emulating_pair(wmax, inp.params.q, &mut rng);
            set_duplex_weights(cand, net, rep, d, t);
        },
        |(_, cand, _), _| {
            black_box(ev.cost(cand, Scenario::Normal));
        },
    );
    m.set("cost.archive_eval_us", archive_us);

    ev.cost_with(&mut st.0, w, Scenario::Normal);
    let failure_us = probe_us(
        &mut st,
        budget,
        |_, _| {},
        |(ws, _, _), i| {
            black_box(ev.cost_with(ws, w, scen[i % n]));
        },
    );
    m.set("cost.failure_eval_us", failure_us);

    let sweep_us = probe_us(
        &mut st,
        budget,
        |_, _| {},
        |_, _| {
            black_box(ev.evaluate_all(w, &scen));
        },
    );
    m.set("cost.sweep_us", sweep_us / n as f64);

    let floor_us = probe_us(
        &mut st,
        budget,
        |_, _| {},
        |(ws, _, _), i| {
            black_box(ev.scenario_floor(ws, scen[i % n]));
        },
    );
    m.set("cost.floor_us", floor_us);

    let reference_us = probe_us(
        &mut st,
        budget,
        |_, _| {},
        |_, i| {
            black_box(ev.evaluate(w, scen[i % n]).cost);
        },
    );
    m.set("cost.reference_us", reference_us);

    // The delta-state cache, unbounded, over the critical set.
    ev.cache_rebuild_begin(&mut st.0, &mut st.2, w, n);
    let capture_us = probe_us(
        &mut st,
        budget,
        |_, _| {},
        |(ws, _, cache), i| {
            black_box(ev.cost_capture(ws, w, scen[i % n], cache, i % n));
        },
    );
    m.set("cost.cache.capture_us", capture_us);
    for (pos, &sc) in scen.iter().enumerate() {
        ev.cost_capture(&mut st.0, w, sc, &mut st.2, pos);
    }
    let bytes: usize =
        st.2.capture_split()
            .1
            .iter()
            .map(|e| e.resident_bytes())
            .sum();
    m.set("cost.cache.entry_bytes", bytes as f64 / n as f64);

    // Read: diff a one-move candidate against the cache, then evaluate
    // every critical scenario through it.
    let cached_us = probe_us(
        &mut st,
        budget,
        |(_, cand, _), i| one_move(cand, i),
        |(ws, cand, cache), _| {
            ev.cache_begin(cache, cand);
            for (pos, &sc) in scen.iter().enumerate() {
                black_box(ev.cost_cached(ws, cand, sc, cache, pos));
            }
        },
    );
    m.set("cost.cache.cached_us", cached_us / n as f64);

    // Write: refresh the cache to a one-move neighbour (the untimed step
    // refreshes it back to the incumbent first).
    let refresh_us = probe_us(
        &mut st,
        budget,
        |(ws, cand, cache), i| {
            ev.cache_refresh(ws, cache, w, |pos| scen[pos]);
            one_move(cand, i);
        },
        |(ws, cand, cache), _| {
            ev.cache_refresh(ws, cache, cand, |pos| scen[pos]);
        },
    );
    m.set("cost.cache.refresh_us", refresh_us / n as f64);
    ev.release_workspace(st.0);

    routing_probes(
        net,
        w.weights(Class::Delay),
        &inp.tm.delay,
        &scen,
        budget,
        m,
    );

    for (name, threads) in [("parallel.sweep_t1_us", 1), ("parallel.sweep_t2_us", 2)] {
        let us = probe_us(
            &mut (),
            budget,
            |_, _| {},
            |_, _| {
                black_box(parallel::evaluate_set(
                    &ev,
                    w,
                    &inp.universe,
                    &out.critical,
                    threads,
                ));
            },
        );
        m.set(name, us);
    }
}
