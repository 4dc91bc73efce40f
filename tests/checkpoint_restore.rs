//! Fault-injection harness for the crash-safe checkpoint/restore path.
//!
//! `tests/search_equivalence.rs` pins the headline property — kill at
//! any sweep/rendezvous boundary, restore, continue, and the result is
//! bit-identical to the uninterrupted run. This suite covers the
//! failure modes around that property:
//!
//! - every corruption mode of the snapshot container maps to its typed
//!   [`SnapshotError`] (bad magic, truncation, version skew, wrong
//!   kind, flipped checksum bytes, config mismatch) — restore never
//!   panics and never silently continues from damaged state;
//! - a torn write (crash mid-checkpoint, modeled by
//!   [`TornWrite`]) leaves the previous durable snapshot intact, and
//!   resuming from it still reproduces the uninterrupted answer;
//! - a snapshot of an already-converged run restores to the identical
//!   output with [`Terminated::Restored`];
//! - the stop rule's trailing improvement window survives the
//!   checkpoint, so a stop decision that *straddles* the kill point is
//!   made at exactly the same sweep as in the uninterrupted run;
//! - a wall-clock deadline returns a usable best-so-far whose
//!   trajectory is a prefix of the undeadlined run's.

use dtr::core::{phase1, phase2};
use dtr::mtr::{robust as mtr_robust, search as mtr_search, MtrConfig, MtrEvaluator, MtrParams};
use dtr::prelude::*;
use dtr::traffic::{gravity, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Same 8-ring + chords testbed as `tests/search_equivalence.rs`.
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

fn params(seed: u64) -> Params {
    Params {
        record_trace: true,
        checkpoint_every: 1,
        max_iterations: 30,
        ..Params::quick(seed)
    }
}

/// Fixture: evaluator inputs plus one durable snapshot taken at the
/// requested kill boundary of a Phase-2 run.
struct Dtr {
    net: Network,
    tm: ClassMatrices,
}

impl Dtr {
    fn new() -> Self {
        let (net, tm) = testbed();
        Dtr { net, tm }
    }

    fn snapshot_at(&self, p: &Params, kill: u64) -> (Vec<u8>, phase2::Phase2Output) {
        let ev = Evaluator::new(&self.net, &self.tm, CostParams::default());
        let universe = FailureUniverse::of(&self.net);
        let p1 = phase1::run(&ev, &universe, p);
        let all: Vec<usize> = (0..universe.len()).collect();
        let mut sink = MemorySink::new();
        let mut ctl = RunControl {
            sink: Some(&mut sink),
            kill_after: Some(kill),
        };
        let killed = phase2::run_controlled(&ev, &universe, &all, p, &p1, &mut ctl).unwrap();
        (sink.latest().expect("cadence 1").to_vec(), killed)
    }

    fn resume(&self, p: &Params, snap: &[u8]) -> Result<phase2::Phase2Output, SnapshotError> {
        self.resume_critical(p, snap, None)
    }

    fn resume_critical(
        &self,
        p: &Params,
        snap: &[u8],
        take: Option<usize>,
    ) -> Result<phase2::Phase2Output, SnapshotError> {
        let ev = Evaluator::new(&self.net, &self.tm, CostParams::default());
        let universe = FailureUniverse::of(&self.net);
        let all: Vec<usize> = (0..take.unwrap_or(universe.len())).collect();
        phase2::resume(&ev, &universe, &all, p, snap, &mut RunControl::none())
    }
}

/// Every way of damaging the snapshot container reports its own typed
/// error — no panics, no silent acceptance of corrupt state.
#[test]
fn corrupt_snapshots_report_typed_errors() {
    let dtr = Dtr::new();
    let p = params(61);
    let (snap, _) = dtr.snapshot_at(&p, 3);

    // Undamaged control: the snapshot restores fine.
    assert!(dtr.resume(&p, &snap).is_ok());

    // Bad magic.
    let mut bad = snap.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(dtr.resume(&p, &bad), Err(SnapshotError::BadMagic)));

    // Version skew (version u32 lives right after the 8-byte magic and
    // is validated before the checksum, so a future-format snapshot is
    // reported as such rather than as generic corruption).
    let mut bad = snap.clone();
    bad[8] = 99;
    assert!(matches!(
        dtr.resume(&p, &bad),
        Err(SnapshotError::UnsupportedVersion { found: 99, .. })
    ));
    // Version 1, an older layout, is refused the same way.
    let mut old = snap.clone();
    old[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        dtr.resume(&p, &old),
        Err(SnapshotError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    ));

    // Truncation — mid-payload and inside the bare header.
    assert!(matches!(
        dtr.resume(&p, &snap[..snap.len() - 1]),
        Err(SnapshotError::Truncated { .. })
    ));
    assert!(matches!(
        dtr.resume(&p, &snap[..4]),
        Err(SnapshotError::Truncated { .. })
    ));

    // A single flipped bit anywhere in the payload or the checksum
    // trailer itself trips the FNV-1a check.
    // (Byte 24 is the first payload byte; 16..24 is the length prefix,
    // whose damage surfaces as `Truncated` before the checksum runs.)
    for pos in [24, snap.len() / 2, snap.len() - 8, snap.len() - 1] {
        let mut bad = snap.clone();
        bad[pos] ^= 0x01;
        assert!(
            matches!(
                dtr.resume(&p, &bad),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "flip at byte {pos}"
        );
    }
}

/// A snapshot from the wrong search (or the same search under different
/// trajectory-determining knobs) is refused with `WrongKind` /
/// `Mismatch` instead of resuming into garbage.
#[test]
fn foreign_and_mismatched_snapshots_are_refused() {
    let dtr = Dtr::new();
    let p = params(67);
    let (snap, _) = dtr.snapshot_at(&p, 3);

    // Trajectory-determining knobs are fingerprinted...
    assert!(matches!(
        dtr.resume(&Params { seed: 9999, ..p }, &snap),
        Err(SnapshotError::Mismatch("seed differs"))
    ));
    assert!(matches!(
        dtr.resume(&Params { chi: 0.123, ..p }, &snap),
        Err(SnapshotError::Mismatch("chi differs"))
    ));
    assert!(matches!(
        dtr.resume_critical(&p, &snap, Some(5)),
        Err(SnapshotError::Mismatch("critical-set size differs"))
    ));

    // ...while execution-shape knobs are free: the same snapshot resumed
    // with different parallelism continues bit for bit ("The checkpoint
    // contract") — output, trace and every counter.
    let serial = dtr.resume(&p, &snap).expect("snapshot restores");
    let wide = dtr
        .resume(&Params { threads: 4, ..p }, &snap)
        .expect("snapshot restores at four threads");
    assert_eq!(serial.best, wide.best);
    assert_eq!(serial.best_kfail, wide.best_kfail);
    assert_eq!(serial.best_normal, wide.best_normal);
    assert_eq!(serial.constraint_rejections, wide.constraint_rejections);
    assert_eq!(serial.trace, wide.trace);
    assert_eq!(serial.stats, wide.stats);
    assert_eq!(serial.terminated, wide.terminated);

    // An MTR snapshot fed to the DTR restore is refused by kind.
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let mp = MtrParams {
        record_trace: true,
        checkpoint_every: 1,
        ..MtrParams::quick(71)
    };
    let reg = mtr_search::regular(&ev, &universe, &mp);
    let scenarios = universe.scenarios();
    let mut sink = MemorySink::new();
    let mut ctl = RunControl {
        sink: Some(&mut sink),
        kill_after: Some(2),
    };
    mtr_robust::run_controlled(
        &ev,
        &scenarios,
        &mp,
        &reg.best_cost,
        &reg.archive,
        None,
        &mut ctl,
    )
    .unwrap();
    let mtr_snap = sink.latest().unwrap().to_vec();
    assert!(matches!(
        dtr.resume(&p, &mtr_snap),
        Err(SnapshotError::WrongKind { .. })
    ));

    // And the MTR fingerprint covers its benchmark: restoring against a
    // different normal-conditions benchmark is refused.
    let other = mtr_search::regular(
        &ev,
        &universe,
        &MtrParams {
            record_trace: true,
            ..MtrParams::quick(72)
        },
    );
    assert_ne!(reg.best_cost, other.best_cost, "seeds must disagree");
    let err = mtr_robust::resume(
        &ev,
        &scenarios,
        &mp,
        &other.best_cost,
        None,
        &mtr_snap,
        &mut RunControl::none(),
    )
    .unwrap_err();
    assert!(matches!(err, SnapshotError::Mismatch("benchmark differs")));
}

/// Crash mid-checkpoint: the torn write never replaces the durable
/// snapshot, and resuming from the surviving one reproduces the
/// uninterrupted run bit for bit.
#[test]
fn torn_write_leaves_a_usable_snapshot_behind() {
    let dtr = Dtr::new();
    let p = params(73);
    let ev = Evaluator::new(&dtr.net, &dtr.tm, CostParams::default());
    let universe = FailureUniverse::of(&dtr.net);
    let p1 = phase1::run(&ev, &universe, &p);
    let all: Vec<usize> = (0..universe.len()).collect();
    let full = phase2::run(&ev, &universe, &all, &p, &p1);

    let path = std::env::temp_dir().join(format!("dtr_torn_{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Boundaries 1 and 2 store durably; the store at boundary 3 tears
    // after 16 bytes of the temp file (no rename); the kill fires at
    // the same boundary — the crash window of a real power cut.
    let mut sink = FileSink::new(&path).with_torn_write(TornWrite {
        at_store: 2,
        keep_bytes: 16,
    });
    let mut ctl = RunControl {
        sink: Some(&mut sink),
        kill_after: Some(3),
    };
    let killed = phase2::run_controlled(&ev, &universe, &all, &p, &p1, &mut ctl).unwrap();
    assert_eq!(killed.terminated, Terminated::Deadline);
    assert_eq!(sink.stores(), 3);

    let snap = sink.load().expect("durable snapshot survives the tear");
    let resumed = dtr.resume(&p, &snap).expect("and restores");
    assert_eq!(resumed.best, full.best, "torn-write recovery diverged");
    assert_eq!(resumed.best_kfail, full.best_kfail);
    assert_eq!(resumed.trace, full.trace);
    let _ = std::fs::remove_file(&path);
}

/// Restoring a snapshot of a run that had already converged returns the
/// identical final answer and says so via `Terminated::Restored` — it
/// does not re-run anything.
#[test]
fn restoring_a_finished_run_is_terminal() {
    let dtr = Dtr::new();
    let p = params(79);
    let ev = Evaluator::new(&dtr.net, &dtr.tm, CostParams::default());
    let universe = FailureUniverse::of(&dtr.net);
    let p1 = phase1::run(&ev, &universe, &p);
    let all: Vec<usize> = (0..universe.len()).collect();
    let mut sink = MemorySink::new();
    let full = phase2::run_controlled(
        &ev,
        &universe,
        &all,
        &p,
        &p1,
        &mut RunControl::with_sink(&mut sink),
    )
    .unwrap();
    assert_eq!(full.terminated, Terminated::Converged);

    // Cadence 1 checkpoints every boundary including the converging one.
    let last = sink.latest().unwrap().to_vec();
    let restored = dtr.resume(&p, &last).unwrap();
    assert_eq!(restored.terminated, Terminated::Restored);
    assert_eq!(restored.best, full.best);
    assert_eq!(restored.best_kfail, full.best_kfail);
    assert_eq!(restored.best_normal, full.best_normal);
    assert_eq!(restored.trace, full.trace);
    assert_eq!(restored.stats.iterations, full.stats.iterations);
}

/// The stop rule's trailing improvement window is part of the snapshot:
/// killed one boundary before convergence, the resumed run makes the
/// stop (and diversification) decisions at exactly the same sweeps as
/// the uninterrupted run. Without the restored history the rule would
/// need a fresh window after restore and converge later.
#[test]
fn stop_decision_straddling_the_checkpoint_is_preserved() {
    let dtr = Dtr::new();
    let p = params(83);
    let ev = Evaluator::new(&dtr.net, &dtr.tm, CostParams::default());
    let universe = FailureUniverse::of(&dtr.net);
    let p1 = phase1::run(&ev, &universe, &p);
    let all: Vec<usize> = (0..universe.len()).collect();
    let mut sink = MemorySink::new();
    let full = phase2::run_controlled(
        &ev,
        &universe,
        &all,
        &p,
        &p1,
        &mut RunControl::with_sink(&mut sink),
    )
    .unwrap();
    let boundaries = sink.snapshots.len() as u64;
    assert!(boundaries > p.p2 as u64, "run too short to straddle");
    assert!(
        full.stats.diversifications > 0,
        "want diversifications in play"
    );

    // Kill inside the final stop window (p2 trailing sweeps) and right
    // after the first diversification-eligible sweep.
    for kill in [boundaries - 1, p.div_interval_2 as u64 + 1] {
        let (snap, killed) = dtr.snapshot_at(&p, kill);
        assert_eq!(killed.terminated, Terminated::Deadline, "kill {kill}");
        let resumed = dtr.resume(&p, &snap).unwrap();
        assert_eq!(resumed.best, full.best, "kill {kill}");
        assert_eq!(resumed.trace, full.trace, "kill {kill}: trace diverged");
        assert_eq!(
            resumed.stats.iterations, full.stats.iterations,
            "kill {kill}: stop decision moved"
        );
        assert_eq!(
            resumed.stats.diversifications, full.stats.diversifications,
            "kill {kill}: diversification schedule moved"
        );
    }
}

/// Checkpointing is strictly opt-in: cadence 0 never touches the sink.
#[test]
fn cadence_zero_disables_checkpointing() {
    let dtr = Dtr::new();
    let p = Params {
        checkpoint_every: 0,
        ..params(89)
    };
    let ev = Evaluator::new(&dtr.net, &dtr.tm, CostParams::default());
    let universe = FailureUniverse::of(&dtr.net);
    let p1 = phase1::run(&ev, &universe, &p);
    let all: Vec<usize> = (0..universe.len()).collect();
    let plain = phase2::run(&ev, &universe, &all, &p, &p1);
    let mut sink = MemorySink::new();
    let out = phase2::run_controlled(
        &ev,
        &universe,
        &all,
        &p,
        &p1,
        &mut RunControl::with_sink(&mut sink),
    )
    .unwrap();
    assert!(sink.snapshots.is_empty(), "cadence 0 must not checkpoint");
    assert_eq!(out.best, plain.best);
    assert_eq!(out.trace, plain.trace);
}

/// Anytime search: a wall-clock deadline stops at a sweep boundary with
/// a usable best-so-far whose trajectory is a bit-for-bit prefix of the
/// undeadlined run's.
#[test]
fn deadline_returns_a_prefix_of_the_undeadlined_run() {
    let dtr = Dtr::new();
    let base = Params {
        record_trace: true,
        max_iterations: 400,
        ..Params::quick(97)
    };
    let ev = Evaluator::new(&dtr.net, &dtr.tm, CostParams::default());
    let universe = FailureUniverse::of(&dtr.net);
    let p1 = phase1::run(&ev, &universe, &base);
    let all: Vec<usize> = (0..universe.len()).collect();
    let full = phase2::run(&ev, &universe, &all, &base, &p1);

    let tight = Params {
        deadline_ms: Some(1),
        ..base
    };
    let out = phase2::run(&ev, &universe, &all, &tight, &p1);
    if out.terminated == Terminated::Deadline {
        assert!(out.trace.len() <= full.trace.len());
        assert_eq!(
            out.trace[..],
            full.trace[..out.trace.len()],
            "deadlined trajectory is not a prefix"
        );
        // The full run can only improve on any prefix's best-so-far.
        assert!(!out.best_kfail.better_than(&full.best_kfail));
    } else {
        // Fast machine: the whole run fit inside a millisecond.
        assert_eq!(out.terminated, Terminated::Converged);
        assert_eq!(out.trace, full.trace);
    }

    // A generous deadline changes nothing at all.
    let loose = Params {
        deadline_ms: Some(600_000),
        ..base
    };
    let same = phase2::run(&ev, &universe, &all, &loose, &p1);
    assert_eq!(same.terminated, Terminated::Converged);
    assert_eq!(same.best, full.best);
    assert_eq!(same.trace, full.trace);
}

/// MTR deadline smoke: same anytime contract on the k-class search.
#[test]
fn mtr_deadline_is_an_anytime_stop() {
    let (net, tms) = mtr_testbed();
    let ev = MtrEvaluator::new(&net, &tms, MtrConfig::dtr(25e-3, 0.2)).unwrap();
    let universe = FailureUniverse::of(&net);
    let base = MtrParams {
        record_trace: true,
        ..MtrParams::quick(101)
    };
    let reg = mtr_search::regular(&ev, &universe, &base);
    let scenarios = universe.scenarios();
    let full = mtr_robust::run(&ev, &scenarios, &base, &reg.best_cost, &reg.archive, None);

    let tight = MtrParams {
        deadline_ms: Some(1),
        ..base
    };
    let out = mtr_robust::run(&ev, &scenarios, &tight, &reg.best_cost, &reg.archive, None);
    match out.terminated {
        Terminated::Deadline => {
            assert!(out.trace.len() <= full.trace.len());
            assert_eq!(out.trace[..], full.trace[..out.trace.len()]);
        }
        _ => assert_eq!(out.trace, full.trace),
    }

    let loose = MtrParams {
        deadline_ms: Some(600_000),
        ..base
    };
    let same = mtr_robust::run(&ev, &scenarios, &loose, &reg.best_cost, &reg.archive, None);
    assert_eq!(same.best, full.best);
    assert_eq!(same.trace, full.trace);
}
