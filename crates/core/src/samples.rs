//! Per-link failure-cost sample store (Phase 1a/1b harvest), for any
//! number of traffic classes.
//!
//! For each failable link the store accumulates one cost vector — one
//! component per class — per failure-emulating weight perturbation of
//! that link, conditioned on the pre-perturbation setting being
//! "acceptable" (§IV-D1). These samples estimate the conditional
//! distributions of Fig. 2(a), one per class, from which criticality is
//! derived. DTR's `⟨Λ, Φ⟩` is the two-class case.

use crate::search::SearchCost;

/// Sample store indexed by class and failure index (see
/// [`crate::FailureUniverse`]), laid out `[class][failure index][sample]`.
#[derive(Clone, Debug, Default)]
pub struct SampleStore {
    per_class: Vec<Vec<Vec<f64>>>,
}

/// Mean and left-tail mean of one link's samples for one class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailStats {
    /// Sample mean (`Λ̂` / `Φ̂` in the paper).
    pub mean: f64,
    /// Mean of the lowest `tail_fraction` of samples (`Λ̃` / `Φ̃`).
    pub tail_mean: f64,
}

impl TailStats {
    /// The criticality contribution `ρ = mean − tail_mean` (Eqs. 8–9).
    /// Non-negative by construction (the tail mean cannot exceed the mean).
    pub fn rho(&self) -> f64 {
        (self.mean - self.tail_mean).max(0.0)
    }
}

impl SampleStore {
    /// Empty store of the paper's two classes (`Λ`, `Φ`) for `num_links`
    /// failable links.
    pub fn new(num_links: usize) -> Self {
        SampleStore::with_classes(2, num_links)
    }

    /// Empty store of `num_classes` classes for `num_links` failable
    /// links.
    ///
    /// # Panics
    /// Panics if `num_classes` is 0.
    pub fn with_classes(num_classes: usize, num_links: usize) -> Self {
        assert!(num_classes >= 1, "at least one class");
        SampleStore {
            per_class: vec![vec![Vec::new(); num_links]; num_classes],
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    /// Number of failable links covered.
    pub fn num_links(&self) -> usize {
        self.per_class.first().map_or(0, Vec::len)
    }

    /// Record one failure-emulating observation (every class cost at
    /// once) for failure index `i`.
    ///
    /// # Panics
    /// Panics if the cost arity differs from the store's class count.
    pub fn record<C: SearchCost>(&mut self, i: usize, cost: &C) {
        assert_eq!(cost.arity(), self.num_classes(), "cost arity mismatch");
        for (c, samples) in self.per_class.iter_mut().enumerate() {
            let v = cost.component(c);
            debug_assert!(v.is_finite(), "finite costs only");
            samples[i].push(v);
        }
    }

    /// Samples collected for failure index `i` (the same in every class).
    pub fn count(&self, i: usize) -> usize {
        self.per_class[0][i].len()
    }

    /// Total samples across all links.
    pub fn total(&self) -> usize {
        self.per_class[0].iter().map(Vec::len).sum()
    }

    /// Smallest per-link sample count (drives Phase-1b balancing).
    pub fn min_count(&self) -> usize {
        self.per_class[0].iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Index of the link with the fewest samples (ties → smallest index).
    pub fn poorest_link(&self) -> Option<usize> {
        (0..self.num_links()).min_by_key(|&i| self.count(i))
    }

    /// Class `class`'s samples at failure index `i`, in record order.
    pub fn samples(&self, class: usize, i: usize) -> &[f64] {
        &self.per_class[class][i]
    }

    /// Mean / left-tail mean of class `class`'s samples at failure index
    /// `i`; `None` if the link has no samples yet.
    pub fn stats(&self, class: usize, i: usize, tail_fraction: f64) -> Option<TailStats> {
        stats_of(&self.per_class[class][i], tail_fraction)
    }
}

fn stats_of(samples: &[f64], tail_fraction: f64) -> Option<TailStats> {
    debug_assert!((0.0..=0.5).contains(&tail_fraction) && tail_fraction > 0.0);
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let k = ((n as f64 * tail_fraction).ceil() as usize).clamp(1, n);
    let mut sorted = samples.to_vec();
    // total_cmp: a total key keeps the permutation (and the float-add
    // sequence of the tail mean below) deterministic (dtr-analysis:
    // det-partial-sort).
    sorted.sort_unstable_by(f64::total_cmp);
    let tail_mean = sorted[..k].iter().sum::<f64>() / k as f64;
    Some(TailStats { mean, tail_mean })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::LexCost;

    fn record(s: &mut SampleStore, i: usize, lambda: f64, phi: f64) {
        s.record(i, &LexCost::new(lambda, phi));
    }

    #[test]
    fn empty_store_has_no_stats() {
        let s = SampleStore::new(3);
        assert_eq!(s.num_classes(), 2);
        assert_eq!(s.num_links(), 3);
        assert_eq!(s.total(), 0);
        assert_eq!(s.count(0), 0);
        assert!(s.stats(0, 0, 0.1).is_none());
        assert_eq!(s.min_count(), 0);
        assert_eq!(s.poorest_link(), Some(0));
    }

    #[test]
    fn record_and_count() {
        let mut s = SampleStore::new(2);
        record(&mut s, 0, 1.0, 10.0);
        record(&mut s, 0, 3.0, 30.0);
        record(&mut s, 1, 5.0, 50.0);
        assert_eq!(s.count(0), 2);
        assert_eq!(s.count(1), 1);
        assert_eq!(s.total(), 3);
        assert_eq!(s.min_count(), 1);
        assert_eq!(s.poorest_link(), Some(1));
        // Components land in their own class, in record order.
        assert_eq!(s.samples(0, 0), &[1.0, 3.0]);
        assert_eq!(s.samples(1, 0), &[10.0, 30.0]);
        let st1 = s.stats(1, 0, 0.5).unwrap();
        assert!((st1.mean - 20.0).abs() < 1e-12);
        assert!((st1.tail_mean - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tail_stats_hand_check() {
        // 10 samples 1..=10; 10% tail = lowest 1 sample.
        let mut s = SampleStore::new(1);
        for v in 1..=10 {
            record(&mut s, 0, v as f64, 0.0);
        }
        let st = s.stats(0, 0, 0.10).unwrap();
        assert!((st.mean - 5.5).abs() < 1e-12);
        assert!((st.tail_mean - 1.0).abs() < 1e-12);
        assert!((st.rho() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn tail_covers_k_smallest() {
        // 20% tail of 10 samples = lowest 2.
        let mut s = SampleStore::new(1);
        for v in [5.0, 1.0, 9.0, 2.0, 7.0, 8.0, 3.0, 6.0, 4.0, 10.0] {
            record(&mut s, 0, v, 0.0);
        }
        let st = s.stats(0, 0, 0.20).unwrap();
        assert!((st.tail_mean - 1.5).abs() < 1e-12);
        // 10% of 5 -> ceil = 1 sample; 40% of 5 -> 2 samples.
        let mut s = SampleStore::new(1);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            record(&mut s, 0, v, 0.0);
        }
        assert_eq!(s.stats(0, 0, 0.1).unwrap().tail_mean, 1.0);
        assert!((s.stats(0, 0, 0.4).unwrap().tail_mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn narrow_distribution_has_small_rho() {
        let mut s = SampleStore::new(2);
        // Link 0: tight distribution. Link 1: wide.
        for _ in 0..50 {
            record(&mut s, 0, 100.0, 1.0);
        }
        for i in 0..50 {
            record(&mut s, 1, if i < 5 { 0.0 } else { 200.0 }, 1.0);
        }
        let rho0 = s.stats(0, 0, 0.1).unwrap().rho();
        let rho1 = s.stats(0, 1, 0.1).unwrap().rho();
        // Constant samples: ρ is exactly 0 in every class.
        assert_eq!(s.stats(1, 0, 0.1).unwrap().rho(), 0.0);
        assert!(rho0 < 1e-12);
        assert!(rho1 > 100.0); // mean 180, tail 0
    }

    #[test]
    fn single_sample_rho_is_zero() {
        let mut s = SampleStore::new(1);
        record(&mut s, 0, 42.0, 7.0);
        let st = s.stats(0, 0, 0.1).unwrap();
        assert_eq!(st.mean, st.tail_mean);
        assert_eq!(st.rho(), 0.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_rejected() {
        SampleStore::with_classes(3, 1).record(0, &LexCost::new(1.0, 2.0));
    }
}
