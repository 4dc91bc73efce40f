//! Criticality-rank convergence tracking (§IV-D1), for any number of
//! classes.
//!
//! Between consecutive rank updates (every τ samples/link on average) the
//! paper computes, per link, the rank displacement
//! `S_Λ,l(t) = |Rank_Λ(l,t) − Rank_Λ(l,t−1)|`, then the weighted total
//! `S_Λ = Σ_l γ_l · S_Λ,l` with `γ_l ∝ S_Λ,l` and `Σ γ_l = 1` — i.e. links
//! that move more count more. Criticality estimates are deemed converged
//! when every class's index is at or below `e` (`S_Λ ≤ e` and `S_Φ ≤ e`
//! for DTR).
//!
//! With `γ_l = S_l / Σ_j S_j`, the index reduces to
//! `S = Σ_l S_l² / Σ_l S_l` (and 0 when no rank changed).

/// Tracks the per-class rank vectors between updates and computes the
/// change indices.
#[derive(Clone, Debug, Default)]
pub struct RankTracker {
    prev: Option<Vec<Vec<usize>>>,
}

impl RankTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the current per-class rankings (from
    /// [`crate::criticality::Criticality::rankings`]); returns each
    /// class's change index versus the previous update, or `None` on the
    /// first call (no baseline yet).
    pub fn update(&mut self, rankings: &[Vec<usize>]) -> Option<Vec<f64>> {
        let change = self.prev.as_ref().map(|prev| {
            prev.iter()
                .zip(rankings)
                .map(|(p, c)| weighted_rank_change(p, c))
                .collect()
        });
        self.prev = Some(rankings.to_vec());
        change
    }
}

/// `S = Σ_l γ_l |rank_t(l) − rank_{t−1}(l)|` with `γ_l ∝` the displacement
/// itself, i.e. `Σ d² / Σ d` over per-link displacements `d`.
pub fn weighted_rank_change(prev: &[usize], curr: &[usize]) -> f64 {
    assert_eq!(prev.len(), curr.len(), "ranking length changed");
    let n = prev.len();
    // rank position of each link in each ordering
    let mut pos_prev = vec![0usize; n];
    let mut pos_curr = vec![0usize; n];
    for (rank, &link) in prev.iter().enumerate() {
        pos_prev[link] = rank;
    }
    for (rank, &link) in curr.iter().enumerate() {
        pos_curr[link] = rank;
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for l in 0..n {
        let d = pos_prev[l].abs_diff(pos_curr[l]) as f64;
        sum += d;
        sum_sq += d * d;
    }
    if sum == 0.0 {
        0.0
    } else {
        sum_sq / sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_rankings_have_zero_change() {
        let r = vec![2, 0, 1, 3];
        assert_eq!(weighted_rank_change(&r, &r), 0.0);
    }

    #[test]
    fn single_swap_change() {
        // Two links swap adjacent ranks: displacements [1, 1, 0, 0]
        // -> S = (1+1)/(1+1) = 1.
        let a = vec![0, 1, 2, 3];
        let b = vec![1, 0, 2, 3];
        assert_eq!(weighted_rank_change(&a, &b), 1.0);
    }

    #[test]
    fn large_moves_dominate() {
        // Link 0 moves 3 positions, others shift by <=1:
        // displacements [3, 1, 1, 1] -> S = (9+1+1+1)/6 = 2.
        let a = vec![0, 1, 2, 3];
        let b = vec![1, 2, 3, 0];
        assert_eq!(weighted_rank_change(&a, &b), 2.0);
    }

    #[test]
    fn full_reversal_is_large() {
        let a = vec![0, 1, 2, 3, 4];
        let b = vec![4, 3, 2, 1, 0];
        // displacements [4, 2, 0, 2, 4] -> (16+4+0+4+16)/12 = 40/12.
        assert!((weighted_rank_change(&a, &b) - 40.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_returns_none_first_then_changes() {
        let mut t = RankTracker::new();
        assert!(t.update(&[vec![0, 1, 2], vec![0, 1, 2]]).is_none());
        let c = t.update(&[vec![0, 1, 2], vec![0, 1, 2]]).unwrap();
        assert_eq!(c, vec![0.0, 0.0]);
        let c = t.update(&[vec![2, 1, 0], vec![0, 1, 2]]).unwrap();
        assert!(c[0] > 0.0);
        assert_eq!(c[1], 0.0);
        // Three classes: one index per class.
        let mut t = RankTracker::new();
        assert!(t.update(&[vec![0, 1], vec![1, 0], vec![0, 1]]).is_none());
        let c = t.update(&[vec![0, 1], vec![1, 0], vec![1, 0]]).unwrap();
        assert_eq!(c, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "length changed")]
    fn mismatched_lengths_panic() {
        weighted_rank_change(&[0, 1], &[0, 1, 2]);
    }
}
