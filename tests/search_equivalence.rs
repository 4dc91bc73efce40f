//! Trajectory-pinning suite for the cutoff-aware search stack.
//!
//! The serial move loop (`dtr_core::search::sweep`), the
//! incumbent-bounded failure sweeps
//! (`dtr_core::parallel::sum_set_costs_bounded`, shared by the DTR and
//! MTR instantiations of the robust search) and the thread fan-outs of
//! Phase 1b and the portfolio promise that the search trajectory is
//! **bit-for-bit** the serial, cutoff-free one: same best setting, same
//! best costs, and the same full accept/reject sequence — for every
//! thread count and cutoff on or off — and that every search counter is
//! the same at every thread count. This suite pins that promise for
//! Phase 1, Phase 1b, Phase 2 (single-link, SRLG, probabilistically
//! weighted, and slice-adapted node-failure ensembles) and both MTR
//! phases, by
//! comparing every configuration against the `threads = 1, cutoff =
//! off` anchor — which *is* the seed path — and each run's whole stats
//! against the one-thread run at the same cutoff and cache settings.
//!
//! The per-proposal trace (`MoveOutcome`) is recorded in all runs, so a
//! divergence anywhere in the accept/reject stream fails loudly, not
//! just a divergence of the end state.

use dtr::core::ext::probabilistic::FailureModel;
use dtr::core::samples::SampleStore;
use dtr::core::search::{MoveOutcome, SearchStats};
use dtr::core::{phase1, phase1b, phase2, PortfolioParams};
use dtr::mtr::{
    robust as mtr_robust, search as mtr_search, ClassSpec, MtrConfig, MtrEvaluator, MtrParams,
};
use dtr::prelude::*;
use dtr::traffic::{gravity, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small 2-connected testbed: 8-ring with three chords, gravity load.
fn testbed() -> (Network, ClassMatrices) {
    let mut b = NetworkBuilder::new();
    let n: Vec<_> = (0..8)
        .map(|i| b.add_node(Point::new((i as f64 * 0.7).cos(), (i as f64 * 0.7).sin())))
        .collect();
    for i in 0..8 {
        b.add_duplex_link(n[i], n[(i + 1) % 8], 1e6, 2e-3).unwrap();
    }
    b.add_duplex_link(n[0], n[4], 1e6, 2e-3).unwrap();
    b.add_duplex_link(n[1], n[5], 1e6, 2e-3).unwrap();
    b.add_duplex_link(n[2], n[6], 1e6, 2e-3).unwrap();
    let net = b.build().unwrap();
    let tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 3e6,
        ..gravity::GravityConfig::paper_default(8, 17)
    });
    (net, tm)
}

/// The `(threads, cutoff)` grid. The first entry is the anchor: the
/// plain serial loop.
const CONFIGS: [(usize, bool); 4] = [(1, false), (1, true), (4, false), (4, true)];

fn params_for(seed: u64, (threads, cutoff): (usize, bool)) -> Params {
    Params {
        threads,
        cutoff,
        record_trace: true,
        // Enough sweeps to exercise accepts, rejects, the constraint
        // gate, diversification restarts and the cutoff — the grid runs
        // each phase four times, so keep individual runs short.
        max_iterations: 60,
        ..Params::quick(seed)
    }
}

fn assert_phase1_equal(a: &phase1::Phase1Output, b: &phase1::Phase1Output, cfg: &str) {
    assert_eq!(a.best, b.best, "{cfg}: best setting diverged");
    assert_eq!(a.best_cost, b.best_cost, "{cfg}: best cost diverged");
    assert_eq!(a.trace, b.trace, "{cfg}: accept/reject sequence diverged");
    assert_eq!(a.converged, b.converged, "{cfg}");
    assert_eq!(a.archive.entries(), b.archive.entries(), "{cfg}: archive");
    assert_eq!(a.store.total(), b.store.total(), "{cfg}: sample count");
    for i in 0..a.store.num_links() {
        assert_eq!(a.store.count(i), b.store.count(i), "{cfg}: samples of {i}");
    }
    // Phase 1a reads neither the cutoff nor the thread count: every
    // counter matches.
    assert_eq!(a.stats, b.stats, "{cfg}: stats diverged");
}

fn assert_phase2_equal(a: &phase2::Phase2Output, b: &phase2::Phase2Output, cfg: &str) {
    assert_eq!(a.best, b.best, "{cfg}: best setting diverged");
    assert_eq!(a.best_kfail, b.best_kfail, "{cfg}: kfail diverged");
    assert_eq!(a.best_normal, b.best_normal, "{cfg}: normal cost diverged");
    assert_eq!(
        a.constraint_rejections, b.constraint_rejections,
        "{cfg}: constraint gate diverged"
    );
    assert_eq!(a.trace, b.trace, "{cfg}: accept/reject sequence diverged");
    assert_eq!(a.stats.iterations, b.stats.iterations, "{cfg}");
    assert_eq!(a.stats.evaluations, b.stats.evaluations, "{cfg}");
    assert_eq!(a.stats.diversifications, b.stats.diversifications, "{cfg}");
}

/// Every `SearchStats` counter is thread-invariant: each run's stats
/// equal the one-thread run's under the same `key` (the cutoff and
/// cache settings).
fn assert_stats_thread_invariant<K: PartialEq + std::fmt::Debug>(
    runs: &[(usize, K, SearchStats)],
    label: &str,
) {
    for (threads, key, stats) in runs {
        let (_, _, serial) = runs
            .iter()
            .find(|(t, k, _)| *t == 1 && k == key)
            .expect("every setting has a one-thread leg");
        assert_eq!(
            stats, serial,
            "{label} threads={threads} {key:?}: counters moved with the thread count"
        );
    }
}

#[test]
fn phase1_trajectory_is_invariant_across_threads() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let anchor = phase1::run(&ev, &universe, &params_for(3, CONFIGS[0]));
    assert!(
        anchor.trace.contains(&MoveOutcome::Accept) && anchor.trace.contains(&MoveOutcome::Reject),
        "anchor trace must exercise both outcomes"
    );
    for cfg in &CONFIGS[1..] {
        let out = phase1::run(&ev, &universe, &params_for(3, *cfg));
        assert_phase1_equal(&anchor, &out, &format!("{cfg:?}"));
    }
}

/// Every recorded sample, bit for bit and in record order, per class
/// and failure index.
fn assert_samples_equal(a: &SampleStore, b: &SampleStore, label: &str) {
    assert_eq!(a.num_classes(), b.num_classes(), "{label}: class count");
    assert_eq!(a.num_links(), b.num_links(), "{label}: link count");
    let bits = |s: &SampleStore, c, i| -> Vec<u64> {
        s.samples(c, i).iter().map(|x| x.to_bits()).collect()
    };
    for c in 0..a.num_classes() {
        for i in 0..a.num_links() {
            assert_eq!(
                bits(a, c, i),
                bits(b, c, i),
                "{label}: class {c} samples of {i}"
            );
        }
    }
}

/// Phase 1b's samples and `Phase1bStats` are the same at every thread
/// count. Three threads put a chunk boundary inside one archive
/// member's candidates; the MTR leg runs the same top-up at k = 3.
#[test]
fn phase1b_sample_stream_is_invariant_across_threads() {
    const THREADS: [usize; 3] = [1, 3, 4];
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(5, CONFIGS[0]));
    assert!(
        p1.archive.len() >= 2,
        "the top-up must draw from several members"
    );
    let run = |threads| {
        let mut out = p1.clone();
        out.converged = false; // force the top-up
        let stats = phase1b::run(&ev, &universe, &params_for(5, (threads, true)), &mut out);
        (out, stats)
    };
    let (anchor, anchor_stats) = run(THREADS[0]);
    assert!(anchor_stats.rounds >= 1);
    for threads in &THREADS[1..] {
        let (out, stats) = run(*threads);
        let label = format!("dtr threads={threads}");
        assert_eq!(stats, anchor_stats, "{label}: phase1b stats diverged");
        assert_eq!(out.converged, anchor.converged, "{label}");
        assert_samples_equal(&anchor.store, &out.store, &label);
    }

    let (net, tms) = (pin_net(), pin_matrices(8, 3, 71));
    let mev = MtrEvaluator::new(&net, &tms, three_classes()).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&mev, &universe, &mtr_params_for(37, MTR_CONFIGS[0]));
    assert!(
        reg.archive.len() >= 2,
        "the top-up must draw from several members"
    );
    let run = |threads| {
        let mut out = reg.clone();
        out.converged = false;
        let params = mtr_params_for(37, (threads, true, true));
        let spent = mtr_search::top_up_samples(&mev, &universe, &params, &mut out);
        (out, spent)
    };
    let (anchor, anchor_spent) = run(THREADS[0]);
    assert!(anchor_spent.0 >= 1);
    for threads in &THREADS[1..] {
        let (out, spent) = run(*threads);
        let label = format!("mtr threads={threads}");
        assert_eq!(
            spent, anchor_spent,
            "{label}: rounds and evaluations diverged"
        );
        assert_eq!(out.converged, anchor.converged, "{label}");
        assert_samples_equal(&anchor.store, &out.store, &label);
    }
}

#[test]
fn phase2_trajectory_is_invariant_on_the_single_link_universe() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(7, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let anchor = phase2::run(&ev, &universe, &all, &params_for(7, CONFIGS[0]), &p1);
    assert_eq!(anchor.stats.scenario_evals_skipped, 0);
    assert!(
        anchor.trace.contains(&MoveOutcome::ConstraintReject),
        "quick run should exercise the constraint gate"
    );
    let mut saw_skip = false;
    let mut runs = vec![(1, false, anchor.stats)];
    for cfg in &CONFIGS[1..] {
        let out = phase2::run(&ev, &universe, &all, &params_for(7, *cfg), &p1);
        assert_phase2_equal(&anchor, &out, &format!("{cfg:?}"));
        runs.push((cfg.0, cfg.1, out.stats));
        // The per-cause skip counters partition the total exactly.
        assert_eq!(
            out.stats.scenario_evals_skipped,
            out.stats.skipped_floor + out.stats.skipped_cache + out.stats.skipped_cutoff,
            "{cfg:?}: skip counters do not partition the total"
        );
        saw_skip |= out.stats.scenario_evals_skipped > 0;
    }
    assert!(saw_skip, "the cutoff never skipped a scenario evaluation");
    assert_stats_thread_invariant(&runs, "single-link");
}

#[test]
fn phase2_trajectory_is_invariant_on_srlg_and_weighted_ensembles() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(11, CONFIGS[0]));

    // SRLG: single links plus conduit-style groups of three.
    let reps = net.duplex_representatives();
    let groups: Vec<Vec<LinkId>> = reps.chunks_exact(3).map(|g| g.to_vec()).collect();
    let srlg = Srlg::explicit(&net, &groups);
    let idx: Vec<usize> = srlg.all_indices();
    let anchor = phase2::run(&ev, &srlg, &idx, &params_for(11, CONFIGS[0]), &p1);
    let mut runs = vec![(1, false, anchor.stats)];
    for cfg in &CONFIGS[1..] {
        let out = phase2::run(&ev, &srlg, &idx, &params_for(11, *cfg), &p1);
        assert_phase2_equal(&anchor, &out, &format!("srlg {cfg:?}"));
        runs.push((cfg.0, cfg.1, out.stats));
    }
    assert_stats_thread_invariant(&runs, "srlg");

    // Probabilistic: the weighted compound objective.
    let model = FailureModel::length_proportional(&net, &universe);
    let prob = Probabilistic::with_model(&net, model);
    let idx: Vec<usize> = prob.all_indices();
    let anchor = phase2::run(&ev, &prob, &idx, &params_for(13, CONFIGS[0]), &p1);
    let mut runs = vec![(1, false, anchor.stats)];
    for cfg in &CONFIGS[1..] {
        let out = phase2::run(&ev, &prob, &idx, &params_for(13, *cfg), &p1);
        assert_phase2_equal(&anchor, &out, &format!("prob {cfg:?}"));
        runs.push((cfg.0, cfg.1, out.stats));
    }
    assert_stats_thread_invariant(&runs, "prob");
}

#[test]
fn phase2_slice_path_is_invariant_and_matches_the_set_path() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(19, CONFIGS[0]));

    // Node failures through the SliceSet adapter (traffic-removing
    // scenarios — the hardest kind for the incremental engine).
    let nodes: Vec<Scenario> = net.nodes().map(Scenario::Node).collect();
    let anchor = phase2::run_scenarios(&ev, &nodes, &params_for(19, CONFIGS[0]), &p1, None);
    let mut runs = vec![(1, false, anchor.stats)];
    for cfg in &CONFIGS[1..] {
        let out = phase2::run_scenarios(&ev, &nodes, &params_for(19, *cfg), &p1, None);
        assert_phase2_equal(&anchor, &out, &format!("nodes {cfg:?}"));
        runs.push((cfg.0, cfg.1, out.stats));
    }
    assert_stats_thread_invariant(&runs, "nodes");

    // Weighted slice: same trajectory as uniform (scale-invariant
    // acceptance), objective scaled by the mass.
    let weights = vec![0.5; nodes.len()];
    let halved = phase2::run_scenarios(
        &ev,
        &nodes,
        &params_for(19, CONFIGS[0]),
        &p1,
        Some(&weights),
    );
    assert_eq!(halved.best, anchor.best);
    assert_eq!(halved.trace, anchor.trace);

    // And the slice path is exactly the set path over the same scenarios.
    let slice_set = SliceSet::new(&nodes, None);
    let idx: Vec<usize> = (0..nodes.len()).collect();
    let via_set = phase2::run(&ev, &slice_set, &idx, &params_for(19, CONFIGS[0]), &p1);
    assert_phase2_equal(&anchor, &via_set, "slice == set");
}

/// The portfolio search must be bit-for-bit reproducible for a given
/// `(seed, replicas, rendezvous_period)` at **any** thread count —
/// replica seeds derive only from `(seed, r)`, rendezvous merges run in
/// replica index order, and each chain runs on one thread between
/// rendezvous (the parallel-search contract in `DETERMINISM.md`),
/// counters included. `threads` caps the replicas' workers: three
/// replicas run in sequence on the caller's thread at `threads = 1`,
/// on two workers at `threads = 2` (one of them runs two replicas), and
/// one per worker at `threads = 4`.
#[test]
fn phase2_portfolio_is_thread_invariant() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(37, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let run = |replicas: usize, threads: usize| {
        let params = Params {
            portfolio: PortfolioParams {
                replicas,
                rendezvous_period: 4,
            },
            ..params_for(37, (threads, true))
        };
        phase2::run(&ev, &universe, &all, &params, &p1)
    };

    // replicas == 1 stays the classic search, bit for bit, and reports
    // no per-replica traces.
    let classic = phase2::run(&ev, &universe, &all, &params_for(37, (1, true)), &p1);
    let single = run(1, 4);
    assert_phase2_equal(&classic, &single, "replicas=1 == classic");
    assert_eq!(classic.stats, single.stats, "replicas=1: stats diverged");
    assert!(single.replica_traces.is_empty());

    // replicas == 3: identical output across thread counts, including
    // every replica's full accept/reject trace and every counter.
    let anchor = run(3, 1);
    assert_eq!(anchor.replica_traces.len(), 3);
    assert!(
        anchor.replica_traces.contains(&anchor.trace),
        "the reported trace must be the winning replica's"
    );
    for threads in [2, 4] {
        let cfg = format!("portfolio threads={threads}");
        let out = run(3, threads);
        assert_phase2_equal(&anchor, &out, &cfg);
        assert_eq!(anchor.replica_traces, out.replica_traces, "{cfg}");
        assert_eq!(anchor.stats, out.stats, "{cfg}: stats diverged");
    }
}

/// Mask the attribution-only cache gauges that legitimately differ
/// between a restored run and an uninterrupted one: restore rebuilds
/// the delta-state cache with a capture sweep charged to
/// `cache_rebuild_evals`, and the residency/fallback gauges track that
/// physical work. Everything else — including the logical
/// `evaluations` — must match bit for bit ("The checkpoint contract",
/// `DETERMINISM.md`).
fn masked_dtr_stats(s: &dtr::core::search::SearchStats) -> dtr::core::search::SearchStats {
    let mut m = *s;
    m.cache_rebuild_evals = 0;
    m.cache_resident_scenarios = 0;
    m.cache_fallback_evals = 0;
    m
}

/// Kill-at-any-boundary / restore / continue must reproduce the
/// uninterrupted Phase-2 run bit for bit: same best setting and costs,
/// same full accept/reject trace, same logical stats — for cutoff and
/// cache configurations on and off, at every checkpoint the cadence
/// produced. The killed prefix must itself report a usable best-so-far
/// with `Terminated::Deadline`.
#[test]
fn phase2_kill_restore_continue_is_bit_identical() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(43, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();

    for cfg in [(1, false), (1, true), (4, true)] {
        let params = Params {
            checkpoint_every: 1,
            max_iterations: 30,
            ..params_for(43, cfg)
        };
        let full = phase2::run(&ev, &universe, &all, &params, &p1);
        assert_eq!(full.terminated, Terminated::Converged);

        // Sweep the kill point across every boundary of the run.
        let mut kill = 1u64;
        loop {
            let mut sink = MemorySink::new();
            let mut ctl = RunControl {
                sink: Some(&mut sink),
                kill_after: Some(kill),
            };
            let killed = phase2::run_controlled(&ev, &universe, &all, &params, &p1, &mut ctl)
                .expect("in-memory checkpointing cannot fail");
            if killed.terminated == Terminated::Converged {
                // The run outlived the kill grid: the uncut trajectory.
                assert_eq!(killed.best, full.best, "{cfg:?}: converged-before-kill");
                break;
            }
            assert_eq!(
                killed.terminated,
                Terminated::Deadline,
                "{cfg:?} kill {kill}"
            );
            let snap = sink
                .latest()
                .expect("cadence 1 checkpoints every boundary")
                .to_vec();
            let resumed = phase2::resume(
                &ev,
                &universe,
                &all,
                &params,
                &snap,
                &mut RunControl::none(),
            )
            .expect("snapshot restores");
            let label = format!("{cfg:?} kill {kill}");
            // A kill landing on the final boundary snapshots an
            // already-converged chain; resume then reports `Restored`.
            assert!(
                matches!(
                    resumed.terminated,
                    Terminated::Converged | Terminated::Restored
                ),
                "{label}: {:?}",
                resumed.terminated
            );
            assert_phase2_equal(&full, &resumed, &label);
            assert_eq!(
                masked_dtr_stats(&full.stats),
                masked_dtr_stats(&resumed.stats),
                "{label}: full stats diverged beyond the rebuild gauges"
            );
            kill += 3;
        }
    }
}

/// Checkpoint byte streams are reproducible across a crash: with the
/// cutoff off (no restore-time cache rebuild mutating the attribution
/// gauges), every snapshot a resumed run writes is **byte-identical**
/// to the one the uninterrupted run wrote at the same boundary — the
/// encode ∘ decode round trip is the identity on live search state.
#[test]
fn phase2_resumed_checkpoints_are_byte_identical() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(47, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let params = Params {
        checkpoint_every: 1,
        max_iterations: 30,
        ..params_for(47, (1, false))
    };

    let mut full_sink = MemorySink::new();
    let full = phase2::run_controlled(
        &ev,
        &universe,
        &all,
        &params,
        &p1,
        &mut RunControl::with_sink(&mut full_sink),
    )
    .unwrap();
    assert!(full_sink.snapshots.len() >= 4, "run too short to straddle");

    let kill = (full_sink.snapshots.len() / 2) as u64;
    let mut sink = MemorySink::new();
    let mut ctl = RunControl {
        sink: Some(&mut sink),
        kill_after: Some(kill),
    };
    phase2::run_controlled(&ev, &universe, &all, &params, &p1, &mut ctl).unwrap();
    let snap = sink.latest().unwrap().to_vec();
    let mut resume_sink = MemorySink::new();
    let resumed = phase2::resume(
        &ev,
        &universe,
        &all,
        &params,
        &snap,
        &mut RunControl::with_sink(&mut resume_sink),
    )
    .unwrap();
    assert_phase2_equal(&full, &resumed, "resumed");

    // The resumed run re-emits boundaries kill+1.. — align the tails.
    let tail = &full_sink.snapshots[kill as usize..];
    assert_eq!(resume_sink.snapshots.len(), tail.len());
    for (i, (a, b)) in tail.iter().zip(&resume_sink.snapshots).enumerate() {
        assert_eq!(
            a,
            b,
            "snapshot at boundary {} differs",
            kill as usize + i + 1
        );
    }
}

/// The portfolio variant of the kill/restore equivalence: rendezvous
/// boundaries, 3 replicas, elite merges and per-replica traces all
/// survive the crash bit for bit.
#[test]
fn phase2_portfolio_kill_restore_continue_is_bit_identical() {
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &params_for(53, CONFIGS[0]));
    let all: Vec<usize> = (0..universe.len()).collect();
    let params = Params {
        portfolio: PortfolioParams {
            replicas: 3,
            rendezvous_period: 4,
        },
        checkpoint_every: 1,
        max_iterations: 30,
        ..params_for(53, (4, true))
    };
    let full = phase2::run(&ev, &universe, &all, &params, &p1);
    assert_eq!(full.replica_traces.len(), 3);

    for kill in [1u64, 2] {
        let mut sink = MemorySink::new();
        let mut ctl = RunControl {
            sink: Some(&mut sink),
            kill_after: Some(kill),
        };
        let killed = phase2::run_controlled(&ev, &universe, &all, &params, &p1, &mut ctl).unwrap();
        assert_eq!(killed.terminated, Terminated::Deadline, "kill {kill}");
        let snap = sink.latest().unwrap().to_vec();
        let resumed = phase2::resume(
            &ev,
            &universe,
            &all,
            &params,
            &snap,
            &mut RunControl::none(),
        )
        .unwrap();
        let label = format!("portfolio kill {kill}");
        assert_phase2_equal(&full, &resumed, &label);
        assert_eq!(full.replica_traces, resumed.replica_traces, "{label}");
        assert_eq!(
            masked_dtr_stats(&full.stats),
            masked_dtr_stats(&resumed.stats),
            "{label}"
        );
    }
}

fn mtr_testbed() -> (Network, Vec<TrafficMatrix>) {
    let (net, _) = testbed();
    let mut rng = StdRng::seed_from_u64(23);
    let mut tms = vec![TrafficMatrix::zeros(8); 2];
    for tm in tms.iter_mut() {
        for s in 0..8 {
            for t in 0..8 {
                if s != t {
                    tm.set(s, t, rng.gen_range(1e3..4e4));
                }
            }
        }
    }
    (net, tms)
}

/// The MTR grid adds the delta-state cache: `(threads, cutoff,
/// cached)`, where an uncached leg runs the cutoff with
/// `cache_budget_bytes: 0`. Those legs pin the all-plain-path bounded
/// sweep (whose skips land in `skipped_cutoff` instead of
/// `skipped_cache`).
const MTR_CONFIGS: [(usize, bool, bool); 6] = [
    (1, false, false),
    (1, true, false),
    (1, true, true),
    (4, false, false),
    (4, true, false),
    (4, true, true),
];

fn mtr_params_for(seed: u64, (threads, cutoff, cached): (usize, bool, bool)) -> MtrParams {
    MtrParams {
        threads,
        cutoff,
        cache_budget_bytes: if cached { usize::MAX } else { 0 },
        record_trace: true,
        ..MtrParams::quick(seed)
    }
}

#[test]
fn mtr_regular_trajectory_is_invariant() {
    let (net, tms) = mtr_testbed();
    let config = MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::congestion("bulk").relaxed(0.2),
    ]);
    let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
    let universe = FailureUniverse::of(&net);
    let anchor = mtr_search::regular(&ev, &universe, &mtr_params_for(29, MTR_CONFIGS[0]));
    assert!(anchor.trace.contains(&MoveOutcome::Accept));
    for cfg in &MTR_CONFIGS[1..] {
        let out = mtr_search::regular(&ev, &universe, &mtr_params_for(29, *cfg));
        let cfg = format!("{cfg:?}");
        assert_eq!(anchor.best, out.best, "{cfg}");
        assert_eq!(anchor.best_cost, out.best_cost, "{cfg}");
        assert_eq!(anchor.trace, out.trace, "{cfg}");
        assert_eq!(anchor.archive.entries(), out.archive.entries(), "{cfg}");
        assert_eq!(anchor.store.total(), out.store.total(), "{cfg}");
        // The regular phase reads neither the cutoff nor the thread
        // count: every counter matches.
        assert_eq!(anchor.stats, out.stats, "{cfg}");
        assert_eq!(anchor.converged, out.converged, "{cfg}");
    }
}

#[test]
fn mtr_robust_trajectory_is_invariant() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(31, MTR_CONFIGS[0]));
    let scenarios = universe.scenarios();
    let run = |cfg: (usize, bool, bool)| {
        mtr_robust::run(
            &ev,
            &scenarios,
            &mtr_params_for(31, cfg),
            &reg.best_cost,
            &reg.archive,
            None,
        )
    };
    let anchor = run(MTR_CONFIGS[0]);
    assert_eq!(anchor.stats.scenario_evals_skipped, 0);
    let mut saw_skip = false;
    let mut saw_uncached_skip = false;
    let mut runs = vec![(1, (false, false), anchor.stats)];
    for cfg in &MTR_CONFIGS[1..] {
        let out = run(*cfg);
        runs.push((cfg.0, (cfg.1, cfg.2), out.stats));
        if !cfg.2 {
            // Nothing is resident, so no cut is the cache's.
            assert_eq!(out.stats.skipped_cache, 0, "{cfg:?}");
            saw_uncached_skip |= out.stats.skipped_cutoff > 0;
        }
        let cfg = format!("{cfg:?}");
        assert_eq!(anchor.best, out.best, "{cfg}");
        assert_eq!(anchor.best_kfail, out.best_kfail, "{cfg}");
        assert_eq!(anchor.best_normal, out.best_normal, "{cfg}");
        assert_eq!(
            anchor.constraint_rejections, out.constraint_rejections,
            "{cfg}"
        );
        assert_eq!(anchor.trace, out.trace, "{cfg}");
        assert_eq!(anchor.stats.evaluations, out.stats.evaluations, "{cfg}");
        assert_eq!(
            out.stats.scenario_evals_skipped,
            out.stats.skipped_floor + out.stats.skipped_cache + out.stats.skipped_cutoff,
            "{cfg}: skip counters do not partition the total"
        );
        saw_skip |= out.stats.scenario_evals_skipped > 0;
    }
    assert!(
        saw_skip,
        "the MTR cutoff never skipped a scenario evaluation"
    );
    assert!(
        saw_uncached_skip,
        "no uncached leg attributed a skip to the plain cutoff"
    );
    assert_stats_thread_invariant(&runs, "mtr robust");
}

/// The MTR mirror of [`phase2_portfolio_is_thread_invariant`]: the
/// robust portfolio run is bit-for-bit reproducible at any thread
/// count, counters included, whether its three replicas run on one
/// worker (`threads = 1`), two (`threads = 2`) or three (`threads =
/// 4`).
#[test]
fn mtr_robust_portfolio_is_thread_invariant() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(41, MTR_CONFIGS[0]));
    let scenarios = universe.scenarios();
    let run = |replicas: usize, threads: usize| {
        let params = MtrParams {
            portfolio: PortfolioParams {
                replicas,
                rendezvous_period: 4,
            },
            ..mtr_params_for(41, (threads, true, true))
        };
        mtr_robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None)
    };
    let assert_same = |a: &dtr::mtr::robust::MtrRobustOutput,
                       b: &dtr::mtr::robust::MtrRobustOutput,
                       cfg: &str| {
        assert_eq!(a.best, b.best, "{cfg}: best setting diverged");
        assert_eq!(a.best_kfail, b.best_kfail, "{cfg}: kfail diverged");
        assert_eq!(a.best_normal, b.best_normal, "{cfg}: normal cost diverged");
        assert_eq!(a.constraint_rejections, b.constraint_rejections, "{cfg}");
        assert_eq!(a.trace, b.trace, "{cfg}: accept/reject sequence diverged");
        assert_eq!(a.replica_traces, b.replica_traces, "{cfg}");
        assert_eq!(a.stats, b.stats, "{cfg}: stats diverged");
    };

    // replicas == 1 stays the classic robust search, bit for bit.
    let classic = mtr_robust::run(
        &ev,
        &scenarios,
        &mtr_params_for(41, (1, true, true)),
        &reg.best_cost,
        &reg.archive,
        None,
    );
    let single = run(1, 4);
    assert_same(&classic, &single, "replicas=1 == classic");
    assert!(single.replica_traces.is_empty());

    // replicas == 3: identical output across thread counts, including
    // every replica's full accept/reject trace and every counter.
    let anchor = run(3, 1);
    assert_eq!(anchor.replica_traces.len(), 3);
    assert!(
        anchor.replica_traces.contains(&anchor.trace),
        "the reported trace must be the winning replica's"
    );
    for threads in [2, 4] {
        let cfg = format!("mtr portfolio threads={threads}");
        let out = run(3, threads);
        assert_same(&anchor, &out, &cfg);
    }
}

/// MTR mirror of the restore-gauge mask: the only counters a restore
/// may disturb are the physical cache counters touched while the
/// scratch state is rebuilt from the snapshot's incumbent — including
/// the capture sweep a restore charges to `cache_rebuild_evals`.
fn masked_mtr_stats(s: &dtr::core::search::SearchStats) -> dtr::core::search::SearchStats {
    let mut m = *s;
    m.cache_rebuild_evals = 0;
    m.cache_resident_scenarios = 0;
    m.cache_fallback_evals = 0;
    m
}

/// Kill/restore/continue bit-identity for the MTR robust search, over
/// the cache on/off × cutoff grid (the zero-budget restore leg rebuilds
/// a cache that keeps nothing resident) and for a 3-replica portfolio
/// killed at a rendezvous boundary.
#[test]
fn mtr_robust_kill_restore_continue_is_bit_identical() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(37, MTR_CONFIGS[0]));
    let scenarios = universe.scenarios();

    for cfg in [(1, false, false), (1, true, false), (4, true, true)] {
        let params = MtrParams {
            checkpoint_every: 1,
            ..mtr_params_for(37, cfg)
        };
        let full = mtr_robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
        assert_eq!(full.terminated, Terminated::Converged);

        for kill in [1u64, 4, 9] {
            let mut sink = MemorySink::new();
            let mut ctl = RunControl {
                sink: Some(&mut sink),
                kill_after: Some(kill),
            };
            let killed = mtr_robust::run_controlled(
                &ev,
                &scenarios,
                &params,
                &reg.best_cost,
                &reg.archive,
                None,
                &mut ctl,
            )
            .unwrap();
            let label = format!("{cfg:?} kill {kill}");
            if killed.terminated == Terminated::Converged {
                assert_eq!(killed.best, full.best, "{label}: converged-before-kill");
                continue;
            }
            let snap = sink.latest().unwrap().to_vec();
            let resumed = mtr_robust::resume(
                &ev,
                &scenarios,
                &params,
                &reg.best_cost,
                None,
                &snap,
                &mut RunControl::none(),
            )
            .expect("snapshot restores");
            assert!(
                matches!(
                    resumed.terminated,
                    Terminated::Converged | Terminated::Restored
                ),
                "{label}: {:?}",
                resumed.terminated
            );
            assert_eq!(full.best, resumed.best, "{label}: best setting diverged");
            assert_eq!(full.best_kfail, resumed.best_kfail, "{label}");
            assert_eq!(full.best_normal, resumed.best_normal, "{label}");
            assert_eq!(
                full.constraint_rejections, resumed.constraint_rejections,
                "{label}"
            );
            assert_eq!(full.trace, resumed.trace, "{label}: accept/reject diverged");
            assert_eq!(
                masked_mtr_stats(&full.stats),
                masked_mtr_stats(&resumed.stats),
                "{label}: stats diverged beyond the cache gauges"
            );
        }
    }
}

#[test]
fn mtr_portfolio_kill_restore_continue_is_bit_identical() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let reg = mtr_search::regular(&ev, &universe, &mtr_params_for(43, MTR_CONFIGS[0]));
    let scenarios = universe.scenarios();
    let params = MtrParams {
        portfolio: PortfolioParams {
            replicas: 3,
            rendezvous_period: 4,
        },
        checkpoint_every: 1,
        ..mtr_params_for(43, (4, true, true))
    };
    let full = mtr_robust::run(&ev, &scenarios, &params, &reg.best_cost, &reg.archive, None);
    assert_eq!(full.replica_traces.len(), 3);

    for kill in [1u64, 2] {
        let mut sink = MemorySink::new();
        let mut ctl = RunControl {
            sink: Some(&mut sink),
            kill_after: Some(kill),
        };
        let killed = mtr_robust::run_controlled(
            &ev,
            &scenarios,
            &params,
            &reg.best_cost,
            &reg.archive,
            None,
            &mut ctl,
        )
        .unwrap();
        assert_eq!(killed.terminated, Terminated::Deadline, "kill {kill}");
        let snap = sink.latest().unwrap().to_vec();
        let resumed = mtr_robust::resume(
            &ev,
            &scenarios,
            &params,
            &reg.best_cost,
            None,
            &snap,
            &mut RunControl::none(),
        )
        .unwrap();
        let label = format!("mtr portfolio kill {kill}");
        assert_eq!(full.best, resumed.best, "{label}");
        assert_eq!(full.best_kfail, resumed.best_kfail, "{label}");
        assert_eq!(full.best_normal, resumed.best_normal, "{label}");
        assert_eq!(full.trace, resumed.trace, "{label}");
        assert_eq!(full.replica_traces, resumed.replica_traces, "{label}");
        assert_eq!(
            masked_mtr_stats(&full.stats),
            masked_mtr_stats(&resumed.stats),
            "{label}"
        );
    }
}

// ---------------------------------------------------------------------
// Absolute trajectory pins.
//
// Every other assertion in this suite compares runs of one build against
// an anchor of the same build, so a change that moved every
// configuration the same way would pass them all. The pins below fold
// each run's complete output — best weights, the bit patterns of its
// costs, the accept/reject trace (and every replica's), the constraint
// rejections and the iteration/evaluation/diversification counts — into
// a 64-bit FNV-1a hash and compare it against a constant recorded once.
// The inputs avoid libm transcendentals (integer node coordinates,
// `gen_range` traffic, explicit probabilities), so the constants hold on
// any IEEE-754 host. Never edit a constant to make a change pass: a
// moved pin means the trajectory moved.

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn slice_u32(&mut self, xs: &[u32]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(u64::from(x));
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn trace(&mut self, t: &[MoveOutcome]) {
        self.word(t.len() as u64);
        for m in t {
            self.word(match m {
                MoveOutcome::ConstraintReject => 0,
                MoveOutcome::Reject => 1,
                MoveOutcome::Accept => 2,
            });
        }
    }

    fn counts(&mut self, rejections: usize, iterations: usize, evals: usize, divs: usize) {
        for x in [rejections, iterations, evals, divs] {
            self.word(x as u64);
        }
    }
}

fn dtr_pin(out: &phase2::Phase2Output) -> u64 {
    let mut h = Fnv::new();
    for class in Class::ALL {
        h.slice_u32(out.best.weights(class));
    }
    h.f64s(&[out.best_kfail.lambda, out.best_kfail.phi]);
    h.f64s(&[out.best_normal.lambda, out.best_normal.phi]);
    h.trace(&out.trace);
    h.word(out.replica_traces.len() as u64);
    for t in &out.replica_traces {
        h.trace(t);
    }
    let s = &out.stats;
    h.counts(
        out.constraint_rejections,
        s.iterations,
        s.evaluations,
        s.diversifications,
    );
    h.0
}

fn mtr_pin(out: &dtr::mtr::robust::MtrRobustOutput) -> u64 {
    let mut h = Fnv::new();
    for k in 0..out.best.num_classes() {
        h.slice_u32(out.best.weights(k));
    }
    h.f64s(out.best_kfail.components());
    h.f64s(out.best_normal.components());
    h.trace(&out.trace);
    h.word(out.replica_traces.len() as u64);
    for t in &out.replica_traces {
        h.trace(t);
    }
    let s = &out.stats;
    h.counts(
        out.constraint_rejections,
        s.iterations,
        s.evaluations,
        s.diversifications,
    );
    h.0
}

/// The suite's 8-ring with three chords, rebuilt from exact inputs:
/// integer coordinates, three propagation delays, uniform `gen_range`
/// demand.
fn pin_net() -> Network {
    let mut b = NetworkBuilder::new();
    let n: Vec<_> = (0..8)
        .map(|i| b.add_node(Point::new((i % 4) as f64, (i / 4) as f64)))
        .collect();
    for i in 0..8 {
        let delay = 1e-3 * (1 + i % 3) as f64;
        b.add_duplex_link(n[i], n[(i + 1) % 8], 1e6, delay).unwrap();
    }
    b.add_duplex_link(n[0], n[4], 1e6, 2e-3).unwrap();
    b.add_duplex_link(n[1], n[5], 1e6, 3e-3).unwrap();
    b.add_duplex_link(n[2], n[6], 1e6, 1e-3).unwrap();
    b.build().unwrap()
}

fn pin_matrices(nodes: usize, classes: usize, seed: u64) -> Vec<TrafficMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tms = vec![TrafficMatrix::zeros(nodes); classes];
    for tm in tms.iter_mut() {
        for s in 0..nodes {
            for t in 0..nodes {
                if s != t {
                    tm.set(s, t, rng.gen_range(1e3..4e4));
                }
            }
        }
    }
    tms
}

fn pin_params(seed: u64) -> Params {
    Params {
        record_trace: true,
        max_iterations: 40,
        ..Params::quick(seed)
    }
}

/// The pins' k = 3 class set: one SLA class, two congestion classes.
fn three_classes() -> MtrConfig {
    MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::congestion("bulk").relaxed(0.2),
        ClassSpec::congestion("scavenger").relaxed(0.5),
    ])
}

fn mtr_pin_params(seed: u64) -> MtrParams {
    MtrParams {
        record_trace: true,
        max_iterations: 40,
        ..MtrParams::quick(seed)
    }
}

#[test]
fn absolute_trajectory_pins() {
    let net = pin_net();
    let mut tms = pin_matrices(8, 2, 61).into_iter();
    let tm = ClassMatrices {
        delay: tms.next().unwrap(),
        throughput: tms.next().unwrap(),
    };
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let universe = FailureUniverse::of(&net);
    let p1 = phase1::run(&ev, &universe, &pin_params(3));
    let all: Vec<usize> = (0..universe.len()).collect();
    let mut got: Vec<(&str, u64, usize)> = Vec::new();
    let mut dtr = |name, out: phase2::Phase2Output| {
        got.push((name, dtr_pin(&out), out.stats.diversifications));
    };

    dtr(
        "dtr single-link",
        phase2::run(&ev, &universe, &all, &pin_params(7), &p1),
    );
    let reps = net.duplex_representatives();
    let groups: Vec<Vec<LinkId>> = reps.chunks_exact(3).map(|g| g.to_vec()).collect();
    let srlg = Srlg::explicit(&net, &groups);
    dtr(
        "dtr srlg",
        phase2::run(&ev, &srlg, &srlg.all_indices(), &pin_params(11), &p1),
    );
    let mut rng = StdRng::seed_from_u64(67);
    let model = FailureModel {
        probabilities: (0..universe.len())
            .map(|_| rng.gen_range(0.01..0.2))
            .collect(),
    };
    let prob = Probabilistic::with_model(&net, model);
    dtr(
        "dtr probabilistic",
        phase2::run(&ev, &prob, &prob.all_indices(), &pin_params(13), &p1),
    );
    let nodes: Vec<Scenario> = net.nodes().map(Scenario::Node).collect();
    dtr(
        "dtr node slice",
        phase2::run_scenarios(&ev, &nodes, &pin_params(19), &p1, None),
    );
    let portfolio = Params {
        portfolio: PortfolioParams {
            replicas: 3,
            rendezvous_period: 4,
        },
        threads: 2,
        ..pin_params(37)
    };
    dtr(
        "dtr portfolio",
        phase2::run(&ev, &universe, &all, &portfolio, &p1),
    );
    let ckpt = Params {
        checkpoint_every: 1,
        ..pin_params(43)
    };
    let mut sink = MemorySink::new();
    let mut ctl = RunControl {
        sink: Some(&mut sink),
        kill_after: Some(5),
    };
    let killed = phase2::run_controlled(&ev, &universe, &all, &ckpt, &p1, &mut ctl).unwrap();
    assert_eq!(killed.terminated, Terminated::Deadline);
    let snap = sink.latest().unwrap().to_vec();
    dtr(
        "dtr kill -> resume",
        phase2::resume(&ev, &universe, &all, &ckpt, &snap, &mut RunControl::none()).unwrap(),
    );

    let tms = pin_matrices(8, 3, 71);
    let mev = MtrEvaluator::new(&net, &tms, three_classes()).unwrap();
    let reg = mtr_search::regular(&mev, &universe, &mtr_pin_params(29));
    let scenarios = universe.scenarios();
    let mut mtr = |name, out: dtr::mtr::robust::MtrRobustOutput| {
        got.push((name, mtr_pin(&out), out.stats.diversifications));
    };
    mtr(
        "mtr classic",
        mtr_robust::run(
            &mev,
            &scenarios,
            &mtr_pin_params(31),
            &reg.best_cost,
            &reg.archive,
            None,
        ),
    );
    let portfolio = MtrParams {
        portfolio: PortfolioParams {
            replicas: 3,
            rendezvous_period: 4,
        },
        threads: 2,
        ..mtr_pin_params(41)
    };
    mtr(
        "mtr portfolio",
        mtr_robust::run(
            &mev,
            &scenarios,
            &portfolio,
            &reg.best_cost,
            &reg.archive,
            None,
        ),
    );
    let mut rng = StdRng::seed_from_u64(73);
    let slice: Vec<Scenario> = scenarios.iter().copied().step_by(2).collect();
    let weights: Vec<f64> = slice.iter().map(|_| rng.gen_range(0.1..1.0)).collect();
    mtr(
        "mtr weighted slice",
        mtr_robust::run(
            &mev,
            &slice,
            &mtr_pin_params(47),
            &reg.best_cost,
            &reg.archive,
            Some(&weights),
        ),
    );

    let want: [(&str, u64); 9] = [
        ("dtr single-link", 0x845a_7081_fef5_485b),
        ("dtr srlg", 0xf225_967e_e51e_bfc7),
        ("dtr probabilistic", 0x678f_a273_6f38_0222),
        ("dtr node slice", 0x845b_f9b6_8b79_54ca),
        ("dtr portfolio", 0x5bd5_4d73_b739_91e8),
        ("dtr kill -> resume", 0xd250_ff89_d9a1_1ac6),
        ("mtr classic", 0xe1db_4798_69ed_ce93),
        ("mtr portfolio", 0x4d0a_2c41_e14d_024e),
        ("mtr weighted slice", 0x7c01_665b_25be_11f4),
    ];
    assert_eq!(got.len(), want.len());
    for ((name, pin, divs), (want_name, want_pin)) in got.iter().zip(want) {
        assert_eq!(*name, want_name);
        assert!(*divs >= 1, "{name}: the run never diversified");
        assert_eq!(*pin, want_pin, "{name}: trajectory moved");
    }
}

/// A top-up's stats and the bits of every sample in its store, per class
/// and failure index in record order.
fn phase1b_pin(stats: &phase1b::Phase1bStats, store: &SampleStore) -> u64 {
    let mut h = Fnv::new();
    h.word(stats.rounds as u64);
    h.word(stats.evaluations as u64);
    h.word(u64::from(stats.converged));
    for c in 0..store.num_classes() {
        for i in 0..store.num_links() {
            h.f64s(store.samples(c, i));
        }
    }
    h.0
}

/// Absolute pins over Phase 1b's sample bits, which the trajectory pins
/// above never reach (their Phase 2 starts from Phase 1a's output): a
/// forced DTR top-up and an MTR k = 3 top-up, each drawing from an
/// archive of several members.
#[test]
fn absolute_phase1b_pins() {
    let net = pin_net();
    let universe = FailureUniverse::of(&net);
    let mut got: Vec<(&str, u64)> = Vec::new();

    let mut tms = pin_matrices(8, 2, 61).into_iter();
    let tm = ClassMatrices {
        delay: tms.next().unwrap(),
        throughput: tms.next().unwrap(),
    };
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let params = pin_params(3);
    let mut p1 = phase1::run(&ev, &universe, &params);
    assert!(
        p1.archive.len() >= 3,
        "dtr: archive of {}",
        p1.archive.len()
    );
    p1.converged = false; // force the top-up
    let stats = phase1b::run(&ev, &universe, &params, &mut p1);
    assert!(stats.rounds >= 1);
    got.push(("dtr top-up", phase1b_pin(&stats, &p1.store)));

    let tms = pin_matrices(8, 3, 71);
    let mev = MtrEvaluator::new(&net, &tms, three_classes()).unwrap();
    let params = mtr_pin_params(29);
    let mut reg = mtr_search::regular(&mev, &universe, &params);
    assert!(
        reg.archive.len() >= 3,
        "mtr: archive of {}",
        reg.archive.len()
    );
    reg.converged = false;
    let stats = phase1b::top_up(&mev, &universe, &(&params).into(), &mut reg);
    assert!(stats.rounds >= 1);
    got.push(("mtr top-up", phase1b_pin(&stats, &reg.store)));

    let want: [(&str, u64); 2] = [
        ("dtr top-up", 0x72d8_3b33_29cd_619b),
        ("mtr top-up", 0xd8ef_4ca9_d560_38cd),
    ];
    assert_eq!(got.len(), want.len());
    for ((name, pin), (want_name, want_pin)) in got.iter().zip(want) {
        assert_eq!(*name, want_name);
        assert_eq!(
            *pin, want_pin,
            "{name}: Phase-1b samples moved: {pin:#018x}"
        );
    }
}
