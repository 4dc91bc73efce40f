//! The benchmark's only wall-clock reads.
//!
//! Every timing in the benchmark goes through [`Stopwatch`], so the
//! determinism lint's `policy-time` finding stays confined to this one
//! file (the self-test pins that). Time is only ever *reported*: no
//! reading feeds an input, a parameter or a search decision.

use std::time::Instant;

use dtr::core::{CheckpointSink, SnapshotError};

use crate::metrics::Metrics;

/// A started wall-clock measurement.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since [`start`](Self::start).
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Time one call: its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.secs())
}

/// Time one stage call into `m` under `name`.
pub fn span<T>(m: &mut Metrics, name: &str, f: impl FnOnce() -> T) -> T {
    let (out, secs) = timed(f);
    m.set(name, secs);
    out
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Mean of a non-empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Kernel probe: time `call(i)` for `i = 0, 1, ...` one call at a time
/// and return the median in microseconds. `prepare(i)` runs untimed
/// before each call (to set up the call's input). Stops after
/// `max_calls` calls or once `budget_s` seconds of probing have passed,
/// whichever comes first, but always times at least `min_calls` calls.
pub fn probe_us<S>(
    state: &mut S,
    budget_s: f64,
    mut prepare: impl FnMut(&mut S, usize),
    mut call: impl FnMut(&mut S, usize),
) -> f64 {
    const MIN_CALLS: usize = 7;
    const MAX_CALLS: usize = 2_000;
    let total = Stopwatch::start();
    let mut samples = Vec::new();
    for i in 0..MAX_CALLS {
        if i >= MIN_CALLS && total.secs() > budget_s {
            break;
        }
        prepare(state, i);
        let sw = Stopwatch::start();
        call(state, i);
        samples.push(sw.secs() * 1e6);
    }
    median(&samples)
}

/// A [`CheckpointSink`] that times every store of the sink it wraps.
pub struct TimedSink<'a> {
    inner: &'a mut dyn CheckpointSink,
    /// Stores performed.
    pub stores: u64,
    /// Bytes handed to the inner sink, summed over stores.
    pub bytes: u64,
    /// Seconds spent inside the inner sink's `store`.
    pub store_s: f64,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn CheckpointSink) -> Self {
        TimedSink {
            inner,
            stores: 0,
            bytes: 0,
            store_s: 0.0,
        }
    }
}

impl CheckpointSink for TimedSink<'_> {
    fn store(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let (res, s) = timed(|| self.inner.store(bytes));
        self.stores += 1;
        self.bytes += bytes.len() as u64;
        self.store_s += s;
        res
    }
}
