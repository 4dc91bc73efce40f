//! Lexicographic global cost `K = ⟨Λ, Φ⟩` (§III).
//!
//! "K1 > K2 iff Λ1 > Λ2, or Λ1 = Λ2 and Φ1 > Φ2": delay-class performance
//! strictly dominates; throughput-class cost breaks ties. Because `Λ` is a
//! floating-point sum, equality is interpreted within a small absolute
//! tolerance (`Λ` values are multiples of `B1 = 100` plus ms-scale excess
//! terms, so `1e-6` cleanly separates genuinely different values from
//! accumulation noise).

/// The two-component network cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LexCost {
    /// Delay-class cost `Λ` (SLA penalties).
    pub lambda: f64,
    /// Throughput-class cost `Φ` (Fortz–Thorup congestion).
    pub phi: f64,
}

/// Tolerance within which two `Λ` values count as equal.
pub const LAMBDA_EPS: f64 = 1e-6;

impl LexCost {
    /// Zero cost.
    pub const ZERO: LexCost = LexCost {
        lambda: 0.0,
        phi: 0.0,
    };

    pub fn new(lambda: f64, phi: f64) -> Self {
        LexCost { lambda, phi }
    }

    /// Strictly better than `other` in the paper's lexicographic order:
    /// lower `Λ`, or equal `Λ` (within [`LAMBDA_EPS`]) and lower `Φ`.
    /// "Lower" and "higher" are the two one-sided tests `λ < λ' − ε` and
    /// `λ > λ' + ε`, as `VecCost::better_than` in `dtr-mtr` decides each
    /// component, so every `Λ` that is neither compares on `Φ`: no value
    /// at the band's rounded edge falls between the two.
    ///
    /// # Monotone early-cutoff lemma
    ///
    /// `better_than` is *antitone* in its left argument: if `p ≤ f`
    /// component-wise and `f.better_than(inc)`, then `p.better_than(inc)`
    /// (a smaller cost can only move the deciding comparison earlier or
    /// keep it winning). Combined with the fact that IEEE addition of
    /// non-negative terms is monotone non-decreasing, any index-ordered
    /// partial fold `p` of non-negative per-scenario costs is a true
    /// lower bound of the completed sum `f` — so once
    /// `!p.better_than(inc)` holds, **no completion** of the sweep can
    /// beat `inc`. This is the soundness proof behind the
    /// incumbent-bounded sweeps (`dtr_core::parallel::sum_set_costs_bounded`):
    /// cutting a sweep at that point can only discard candidates the full
    /// sweep would have rejected anyway.
    pub fn better_than(&self, other: &LexCost) -> bool {
        if self.lambda < other.lambda - LAMBDA_EPS {
            return true;
        }
        if self.lambda > other.lambda + LAMBDA_EPS {
            return false;
        }
        self.phi < other.phi
    }

    /// Component-wise sum — used to accumulate `Kfail = Σ_l K_fail,l`
    /// across failure scenarios (Eq. 4).
    pub fn add(&self, other: &LexCost) -> LexCost {
        LexCost {
            lambda: self.lambda + other.lambda,
            phi: self.phi + other.phi,
        }
    }

    /// Relative improvement of `self` over `other`, measured on the
    /// dominant component: Λ when they differ, Φ otherwise. Used by the
    /// search's `c%`-improvement stopping rule.
    pub fn relative_improvement_over(&self, other: &LexCost) -> f64 {
        if (other.lambda - self.lambda).abs() > LAMBDA_EPS {
            if other.lambda.abs() < f64::MIN_POSITIVE {
                return if self.lambda < other.lambda {
                    f64::INFINITY
                } else {
                    0.0
                };
            }
            (other.lambda - self.lambda) / other.lambda
        } else if other.phi.abs() < f64::MIN_POSITIVE {
            0.0
        } else {
            (other.phi - self.phi) / other.phi
        }
    }
}

impl std::fmt::Display for LexCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨Λ={:.4}, Φ={:.6}⟩", self.lambda, self.phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_dominates() {
        let a = LexCost::new(100.0, 999.0);
        let b = LexCost::new(200.0, 1.0);
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
    }

    #[test]
    fn phi_breaks_ties() {
        let a = LexCost::new(100.0, 5.0);
        let b = LexCost::new(100.0, 7.0);
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
        assert!(!a.better_than(&a)); // strict
    }

    #[test]
    fn epsilon_band_counts_as_equal_lambda() {
        let a = LexCost::new(100.0 + 1e-9, 5.0);
        let b = LexCost::new(100.0, 7.0);
        assert!(a.better_than(&b)); // Λ "equal", Φ smaller
    }

    #[test]
    fn band_edge_compares_on_phi() {
        // A Λ that rounds to exactly `Λ' - ε` lies on the band's edge:
        // neither lower nor higher, so Φ decides, although `|Λ - Λ'|`
        // rounds to 1.0000003e-6 here, above ε.
        let incumbent = LexCost::new(22120.597021097314, 5.0);
        let edge = LexCost::new(22120.597020097313, 4.0);
        assert!(edge.lambda >= incumbent.lambda - LAMBDA_EPS);
        assert!(edge.better_than(&incumbent));
        assert!(!incumbent.better_than(&edge));
        // Antitone at the edge: the same Λ with a higher Φ is not better,
        // and any lower Λ is.
        assert!(!LexCost::new(edge.lambda, 6.0).better_than(&incumbent));
        assert!(LexCost::new(edge.lambda - 1e-9, 6.0).better_than(&incumbent));
    }

    #[test]
    fn order_is_asymmetric_and_transitive() {
        let xs = [
            LexCost::new(0.0, 3.0),
            LexCost::new(0.0, 5.0),
            LexCost::new(100.0, 0.0),
            LexCost::new(205.0, 10.0),
        ];
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i].better_than(&xs[j]) {
                    assert!(!xs[j].better_than(&xs[i]), "asymmetry {i},{j}");
                    for k in 0..xs.len() {
                        if xs[j].better_than(&xs[k]) {
                            assert!(xs[i].better_than(&xs[k]), "transitivity {i},{j},{k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn add_is_componentwise() {
        let s = LexCost::new(1.0, 2.0).add(&LexCost::new(3.0, 4.0));
        assert_eq!(s, LexCost::new(4.0, 6.0));
    }

    #[test]
    fn relative_improvement_on_dominant_component() {
        let old = LexCost::new(200.0, 10.0);
        let new = LexCost::new(100.0, 10.0);
        assert!((new.relative_improvement_over(&old) - 0.5).abs() < 1e-12);
        // Equal lambda: measured on phi.
        let old = LexCost::new(100.0, 10.0);
        let new = LexCost::new(100.0, 9.0);
        assert!((new.relative_improvement_over(&old) - 0.1).abs() < 1e-12);
        // Zero-lambda pair: phi-based.
        let old = LexCost::new(0.0, 10.0);
        let new = LexCost::new(0.0, 8.0);
        assert!((new.relative_improvement_over(&old) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn display_shows_both_components() {
        let s = LexCost::new(1.0, 2.0).to_string();
        assert!(s.contains('Λ') && s.contains('Φ'));
    }
}
