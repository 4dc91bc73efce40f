//! k-component lexicographic cost — the generalization of `K = ⟨Λ, Φ⟩`.
//!
//! Class order is precedence order: a routing is better iff it improves
//! the first class on which the two routings differ (within an ε band,
//! mirroring `dtr_cost::LAMBDA_EPS`). With `k = 2` this is exactly the
//! paper's ordering.

/// Tolerance within which two cost components count as equal (same value
/// and rationale as `dtr_cost::LAMBDA_EPS`).
pub const COMPONENT_EPS: f64 = 1e-6;

/// A k-component cost vector ordered lexicographically.
#[derive(Clone, Debug, PartialEq)]
pub struct VecCost {
    components: Vec<f64>,
}

impl VecCost {
    /// Zero cost with `k` components.
    pub fn zeros(k: usize) -> Self {
        assert!(k >= 1, "at least one component");
        VecCost {
            components: vec![0.0; k],
        }
    }

    /// Wrap an explicit component vector.
    ///
    /// # Panics
    /// Panics if empty or any component is non-finite.
    pub fn new(components: Vec<f64>) -> Self {
        assert!(!components.is_empty(), "at least one component");
        assert!(
            components.iter().all(|c| c.is_finite()),
            "components must be finite"
        );
        VecCost { components }
    }

    /// The component slice, in class-precedence order.
    pub fn components(&self) -> &[f64] {
        &self.components
    }

    /// Cost of class `i`.
    pub fn component(&self, i: usize) -> f64 {
        self.components[i]
    }

    /// Number of components `k`.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` if there are no components (never constructible; kept for
    /// API completeness alongside [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Strictly better than `other` in lexicographic order with ε-equality
    /// on every component except that the *first* strict difference
    /// decides.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn better_than(&self, other: &VecCost) -> bool {
        assert_eq!(self.len(), other.len(), "cost arity mismatch");
        for (a, b) in self.components.iter().zip(&other.components) {
            if a < &(b - COMPONENT_EPS) {
                return true;
            }
            if a > &(b + COMPONENT_EPS) {
                return false;
            }
        }
        false
    }

    /// Component-wise sum — accumulates compound failure costs
    /// (the k-class Eq. 4).
    pub fn add(&self, other: &VecCost) -> VecCost {
        assert_eq!(self.len(), other.len(), "cost arity mismatch");
        VecCost {
            components: self
                .components
                .iter()
                .zip(&other.components)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// In-place component-wise accumulation: `self += other`. The float
    /// additions are exactly those of [`add`](Self::add), without the
    /// per-call allocation — the incumbent-bounded failure sweeps re-fold
    /// their partial sums repeatedly and must stay allocation-free.
    pub fn add_assign(&mut self, other: &VecCost) {
        assert_eq!(self.len(), other.len(), "cost arity mismatch");
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            *a += b;
        }
    }

    /// Component-wise scaling by a non-negative factor — used by the
    /// probability-weighted failure objective.
    pub fn scale(&self, factor: f64) -> VecCost {
        assert!(factor >= 0.0 && factor.is_finite());
        VecCost {
            components: self.components.iter().map(|c| c * factor).collect(),
        }
    }
}

impl dtr_core::search::SearchCost for VecCost {
    fn zeros(k: usize) -> Self {
        VecCost::zeros(k)
    }

    fn arity(&self) -> usize {
        self.len()
    }

    fn component(&self, i: usize) -> f64 {
        self.components[i]
    }

    fn from_components(components: Vec<f64>) -> Option<Self> {
        (!components.is_empty() && components.iter().all(|c| c.is_finite()))
            .then(|| VecCost::new(components))
    }

    fn reset(&mut self) {
        self.components.fill(0.0);
    }

    /// `self += other·p`, multiplying each component before the add —
    /// bit-for-bit the float sequence of `self.add(&other.scale(p))`,
    /// without the intermediate allocation.
    fn add_scaled_assign(&mut self, other: &Self, p: f64) {
        assert!(p >= 0.0 && p.is_finite());
        assert_eq!(self.len(), other.len(), "cost arity mismatch");
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            *a += b * p;
        }
    }

    fn better_than(&self, other: &Self) -> bool {
        VecCost::better_than(self, other)
    }

    /// On the dominant component: the first that differs beyond ε, or
    /// the last if none do — mirroring `LexCost::relative_improvement_over`.
    fn relative_improvement_over(&self, other: &Self) -> f64 {
        assert_eq!(self.len(), other.len(), "cost arity mismatch");
        for (i, (a, b)) in self.components.iter().zip(&other.components).enumerate() {
            let last = i + 1 == self.len();
            if (b - a).abs() > COMPONENT_EPS || last {
                if b.abs() < f64::MIN_POSITIVE {
                    return if a < b { f64::INFINITY } else { 0.0 };
                }
                return (b - a) / b;
            }
        }
        0.0
    }
}

impl std::fmt::Display for VecCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_core::search::SearchCost;

    #[test]
    fn first_component_dominates() {
        let a = VecCost::new(vec![1.0, 999.0, 999.0]);
        let b = VecCost::new(vec![2.0, 0.0, 0.0]);
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
    }

    #[test]
    fn later_components_break_ties() {
        let a = VecCost::new(vec![1.0, 5.0, 9.0]);
        let b = VecCost::new(vec![1.0, 5.0, 10.0]);
        assert!(a.better_than(&b));
        assert!(!b.better_than(&a));
    }

    #[test]
    fn equal_vectors_are_not_better() {
        let a = VecCost::new(vec![1.0, 2.0]);
        assert!(!a.better_than(&a.clone()));
    }

    #[test]
    fn epsilon_band_applies_per_component() {
        let a = VecCost::new(vec![1.0 + 0.5 * COMPONENT_EPS, 3.0]);
        let b = VecCost::new(vec![1.0, 4.0]);
        // First components equal within ε, second decides.
        assert!(a.better_than(&b));
    }

    #[test]
    fn add_and_scale() {
        let a = VecCost::new(vec![1.0, 2.0]);
        let b = VecCost::new(vec![10.0, 20.0]);
        assert_eq!(a.add(&b), VecCost::new(vec![11.0, 22.0]));
        assert_eq!(a.scale(3.0), VecCost::new(vec![3.0, 6.0]));
    }

    #[test]
    fn relative_improvement_uses_dominant_component() {
        let better = VecCost::new(vec![90.0, 5.0]);
        let worse = VecCost::new(vec![100.0, 5.0]);
        assert!((better.relative_improvement_over(&worse) - 0.1).abs() < 1e-12);
        // Tied first component: improvement measured on the second.
        let b2 = VecCost::new(vec![100.0, 4.0]);
        let w2 = VecCost::new(vec![100.0, 5.0]);
        assert!((b2.relative_improvement_over(&w2) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn improvement_from_zero_reference_is_zero_or_inf() {
        let z = VecCost::new(vec![0.0, 0.0]);
        assert_eq!(z.relative_improvement_over(&z), 0.0);
    }

    #[test]
    fn dtr_equivalence_with_lexcost() {
        // The 2-component VecCost order must agree with dtr_cost::LexCost.
        use dtr_cost::LexCost;
        let cases = [
            ((0.0, 1.0), (0.0, 2.0)),
            ((100.0, 1.0), (0.0, 2.0)),
            ((100.0, 5.0), (100.0, 5.0)),
            ((100.0, 4.0), (100.0, 5.0)),
            ((99.9999999, 9.0), (100.0, 5.0)),
        ];
        for ((l1, p1), (l2, p2)) in cases {
            let lex = LexCost::new(l1, p1).better_than(&LexCost::new(l2, p2));
            let vec = VecCost::new(vec![l1, p1]).better_than(&VecCost::new(vec![l2, p2]));
            assert_eq!(lex, vec, "disagree on ({l1},{p1}) vs ({l2},{p2})");
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let _ = VecCost::new(vec![1.0]).better_than(&VecCost::new(vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rejected() {
        let _ = VecCost::new(vec![f64::NAN]);
    }
}
