//! Link criticality — the paper's central concept (§IV-C).
//!
//! The criticality of link `l` is *the difference between the mean of the
//! conditional failure-cost distribution of `l` and its left-tail mean*
//! (Eqs. 8–9): if `l` is ignored by robust optimization, the final routing
//! behaves like a random draw from the distribution (expected cost ≈ mean);
//! if `l` is included, the optimizer steers towards the distribution's
//! favorable left tail. The gap is exactly the cost of ignoring the link.
//!
//! For Phase-1c selection, per-class criticalities are **normalized** by
//! the summed left-tail means of all links (lower-bound estimate of the
//! best achievable compound failure cost), so the classes become
//! comparable relative deviations (§IV-D2). DTR's `Λ` and `Φ` are
//! classes 0 and 1; MTR has one class per traffic class.

use crate::samples::SampleStore;

/// Per-class, per-link criticality estimates (indexed by class, then
/// failure index).
#[derive(Clone, Debug, PartialEq)]
pub struct Criticality {
    /// `rho[c][i]` — raw `ρ_c,i = mean − left-tail mean` of class `c` at
    /// failure index `i` (Eqs. 8–9); 0 for links without samples.
    pub rho: Vec<Vec<f64>>,
    /// `norm[c][i]` — normalized `ρ̄_c,i = ρ_c,i / Σ_j tail_c,j` (0 if the
    /// denominator vanishes — e.g. no SLA violation ever observed).
    pub norm: Vec<Vec<f64>>,
}

impl Criticality {
    /// Estimate criticalities from the sample store.
    pub fn estimate(store: &SampleStore, tail_fraction: f64) -> Self {
        let k = store.num_classes();
        let m = store.num_links();
        let mut rho = vec![vec![0.0; m]; k];
        let mut norm = vec![vec![0.0; m]; k];
        for (c, (rho, norm)) in rho.iter_mut().zip(&mut norm).enumerate() {
            let mut sum_tail = 0.0;
            for (i, r) in rho.iter_mut().enumerate() {
                if let Some(st) = store.stats(c, i, tail_fraction) {
                    *r = st.rho();
                    sum_tail += st.tail_mean;
                }
            }
            if sum_tail > 0.0 {
                for (n, &r) in norm.iter_mut().zip(rho.iter()) {
                    *n = r / sum_tail;
                }
            }
        }
        Criticality { rho, norm }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.rho.len()
    }

    /// Number of links covered.
    pub fn len(&self) -> usize {
        self.rho.first().map_or(0, Vec::len)
    }

    /// `true` when covering zero links.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Failure indices of class `c` sorted by descending normalized
    /// criticality — the class's list (`E_Λ`, `E_Φ` in the paper). Ties
    /// break by index for determinism.
    pub fn ranking(&self, c: usize) -> Vec<usize> {
        rank_desc(&self.norm[c])
    }

    /// Every class's [`ranking`](Self::ranking), in class order.
    pub fn rankings(&self) -> Vec<Vec<usize>> {
        (0..self.num_classes()).map(|c| self.ranking(c)).collect()
    }

    /// Criticality scaled per failure index in every class (raw and
    /// normalized values alike) — the probabilistic extension's
    /// expected-cost refinement: the criticality that drives selection is
    /// the distribution-shape criticality times the link's failure
    /// probability.
    ///
    /// # Panics
    /// Panics if `by` mismatches the covered link count.
    pub fn scaled(&self, by: &[f64]) -> Criticality {
        assert_eq!(by.len(), self.len(), "one scale factor per link");
        let scale = |per_class: &[Vec<f64>]| -> Vec<Vec<f64>> {
            per_class
                .iter()
                .map(|vals| vals.iter().zip(by).map(|(&v, &p)| v * p).collect())
                .collect()
        };
        Criticality {
            rho: scale(&self.rho),
            norm: scale(&self.norm),
        }
    }
}

/// Indices sorted by descending value; ties by ascending index
/// (deterministic).
pub fn rank_desc(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .expect("finite criticality")
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::LexCost;

    fn store_with(widths: &[(f64, f64)]) -> SampleStore {
        // Each link gets 20 lambda samples centered at 100 with the given
        // half-width, and phi samples centered at 10 with the second width.
        let mut s = SampleStore::new(widths.len());
        for (i, &(wl, wp)) in widths.iter().enumerate() {
            for k in 0..20 {
                let t = (k as f64 / 19.0) * 2.0 - 1.0; // -1..1
                s.record(i, &LexCost::new(100.0 + wl * t, 10.0 + wp * t));
            }
        }
        s
    }

    #[test]
    fn wider_distribution_is_more_critical() {
        let s = store_with(&[(50.0, 0.0), (5.0, 0.0), (0.0, 0.0)]);
        let c = Criticality::estimate(&s, 0.10);
        assert!(c.rho[0][0] > c.rho[0][1]);
        assert!(c.rho[0][1] > c.rho[0][2]);
        assert_eq!(c.rho[0][2], 0.0);
        assert_eq!(c.ranking(0), vec![0, 1, 2]);
    }

    #[test]
    fn classes_ranked_independently() {
        // Link 0 is Λ-critical only; link 1 is Φ-critical only.
        let s = store_with(&[(50.0, 0.0), (0.0, 5.0)]);
        let c = Criticality::estimate(&s, 0.10);
        assert_eq!(c.ranking(0), vec![0, 1]);
        assert_eq!(c.ranking(1), vec![1, 0]);
    }

    #[test]
    fn normalization_divides_by_tail_sum() {
        let s = store_with(&[(50.0, 0.0), (0.0, 0.0)]);
        let c = Criticality::estimate(&s, 0.10);
        // Tail means: link0 tail of 100±50 over 20 samples, k=2 lowest
        // (50, 55.26..); link1 exactly 100. Denominator = their sum.
        let denom = {
            let t0 = s.stats(0, 0, 0.10).unwrap().tail_mean;
            let t1 = s.stats(0, 1, 0.10).unwrap().tail_mean;
            t0 + t1
        };
        assert!((c.norm[0][0] - c.rho[0][0] / denom).abs() < 1e-12);
    }

    #[test]
    fn zero_costs_normalize_to_zero() {
        // All-zero lambda samples: denominator is 0; normalized must be 0.
        let mut s = SampleStore::new(2);
        for i in 0..2 {
            for _ in 0..10 {
                s.record(i, &LexCost::new(0.0, 1.0));
            }
        }
        let c = Criticality::estimate(&s, 0.10);
        assert!(c.norm[0].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn unsampled_links_have_zero_criticality() {
        let mut s = SampleStore::new(3);
        for _ in 0..10 {
            s.record(1, &LexCost::new(50.0, 5.0));
            s.record(1, &LexCost::new(150.0, 15.0));
        }
        let c = Criticality::estimate(&s, 0.10);
        assert_eq!(c.rho[0][0], 0.0);
        assert!(c.rho[0][1] > 0.0);
        assert_eq!(c.rho[0][2], 0.0);
        // Sampled link ranks first.
        assert_eq!(c.ranking(0)[0], 1);
    }

    #[test]
    fn rho_is_never_negative() {
        let s = store_with(&[(50.0, 3.0), (1.0, 1.0), (0.0, 0.0)]);
        let c = Criticality::estimate(&s, 0.10);
        assert!(c.rho[0].iter().all(|&x| x >= 0.0));
        assert!(c.rho[1].iter().all(|&x| x >= 0.0));
        assert!(c.norm[0].iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn rank_desc_tie_break_is_by_index() {
        assert_eq!(rank_desc(&[1.0, 2.0, 1.0]), vec![1, 0, 2]);
    }
}
