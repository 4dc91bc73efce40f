//! Traffic-class specifications for generalized MTR.
//!
//! The paper fixes two classes: delay-sensitive (SLA cost, Eq. 2, never
//! degraded — Eq. 5) and throughput-sensitive (Fortz–Thorup congestion
//! cost, degradable by χ — Eq. 6). Here each class picks its own cost
//! model and its own normal-conditions constraint; class *order* encodes
//! precedence (earlier = lexicographically dominant).

pub use dtr_cost::CostModel;
use dtr_cost::CostParams;

/// Normal-conditions constraint of one class in the robust phase — the
/// generalization of Eqs. (5)–(6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NormalConstraint {
    /// Eq. (5): the class's normal cost may not degrade at all relative to
    /// the regular-optimization benchmark (inelastic traffic).
    Pin,
    /// Eq. (6): the class's normal cost may degrade by up to a fraction
    /// `χ ≥ 0` of the benchmark (elastic traffic).
    Relax(f64),
}

impl NormalConstraint {
    /// Feasibility of a candidate normal-conditions cost against the
    /// benchmark, with the ε band of the lexicographic order applied to
    /// pinned classes.
    pub fn allows(&self, candidate: f64, benchmark: f64) -> bool {
        match *self {
            NormalConstraint::Pin => candidate <= benchmark + crate::cost::COMPONENT_EPS,
            NormalConstraint::Relax(chi) => {
                candidate <= (1.0 + chi) * benchmark + crate::cost::COMPONENT_EPS
            }
        }
    }

    /// Slack used when deciding whether a Phase-1 setting is "acceptable"
    /// for sample harvesting (§IV-D1's relaxed criteria): pinned SLA
    /// classes get the `z·B1` slack, relaxed classes their `(1+χ)` budget.
    pub fn sample_slack(&self, benchmark: f64, z_b1: f64) -> f64 {
        match *self {
            NormalConstraint::Pin => benchmark + z_b1,
            NormalConstraint::Relax(chi) => (1.0 + chi) * benchmark,
        }
    }
}

/// One traffic class: a name (reports), a cost model, and a constraint.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassSpec {
    /// Human-readable class name used in reports.
    pub name: String,
    /// How this class's cost is computed.
    pub cost: CostModel,
    /// How much normal-conditions degradation the robust phase may trade
    /// for robustness.
    pub constraint: NormalConstraint,
}

impl ClassSpec {
    /// SLA class with the paper's penalty constants (`B1 = 100`,
    /// `B2 = 1/ms`) and the `Pin` constraint.
    pub fn sla(name: &str, theta: f64) -> Self {
        assert!(theta > 0.0 && theta.is_finite(), "theta must be positive");
        ClassSpec {
            name: name.to_owned(),
            cost: CostModel::SlaDelay {
                theta,
                b1: 100.0,
                b2_per_ms: 1.0,
            },
            constraint: NormalConstraint::Pin,
        }
    }

    /// Congestion-cost class with the `Relax(0.2)` constraint (the
    /// paper's χ).
    pub fn congestion(name: &str) -> Self {
        ClassSpec {
            name: name.to_owned(),
            cost: CostModel::Congestion,
            constraint: NormalConstraint::Relax(0.2),
        }
    }

    /// Builder: pin the class (Eq. 5 semantics).
    pub fn pinned(mut self) -> Self {
        self.constraint = NormalConstraint::Pin;
        self
    }

    /// Builder: relax the class by `chi` (Eq. 6 semantics).
    ///
    /// # Panics
    /// Panics on negative or non-finite `chi`.
    pub fn relaxed(mut self, chi: f64) -> Self {
        assert!(chi >= 0.0 && chi.is_finite(), "chi must be >= 0");
        self.constraint = NormalConstraint::Relax(chi);
        self
    }

    /// `true` for SLA-delay classes.
    pub fn is_sla(&self) -> bool {
        matches!(self.cost, CostModel::SlaDelay { .. })
    }
}

/// Full MTR configuration: ordered class list (precedence order) plus the
/// shared delay-model parameters (µ, κ, linearization knee, ECMP delay
/// aggregation — the per-class θ/B1/B2 of `delay_params` are ignored,
/// each SLA class brings its own).
#[derive(Clone, Debug)]
pub struct MtrConfig {
    /// Classes in precedence order (index 0 dominates).
    pub specs: Vec<ClassSpec>,
    /// Shared link-delay model parameters.
    pub delay_params: CostParams,
}

impl MtrConfig {
    /// Configuration with the paper's default delay-model parameters.
    pub fn new(specs: Vec<ClassSpec>) -> Self {
        MtrConfig {
            specs,
            delay_params: CostParams::default(),
        }
    }

    /// The paper's DTR setting expressed as a 2-class MTR configuration:
    /// a pinned SLA class (`theta` seconds) followed by a `Relax(chi)`
    /// congestion class. With this config the MTR evaluator reproduces
    /// the DTR evaluator exactly: both run the same two-class engine
    /// (asserted by differential tests).
    pub fn dtr(theta: f64, chi: f64) -> Self {
        MtrConfig::new(vec![
            ClassSpec::sla("delay", theta),
            ClassSpec::congestion("throughput").relaxed(chi),
        ])
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.specs.len()
    }

    /// Panics on structurally invalid configurations.
    pub fn validate(&self) {
        assert!(!self.specs.is_empty(), "at least one traffic class");
        self.delay_params.validate();
        for s in &self.specs {
            if let CostModel::SlaDelay {
                theta,
                b1,
                b2_per_ms,
            } = s.cost
            {
                assert!(
                    theta > 0.0 && theta.is_finite(),
                    "class {}: bad theta",
                    s.name
                );
                assert!(
                    b1 >= 0.0 && b2_per_ms >= 0.0,
                    "class {}: negative penalty",
                    s.name
                );
            }
            if let NormalConstraint::Relax(chi) = s.constraint {
                assert!(chi >= 0.0 && chi.is_finite(), "class {}: bad chi", s.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sla_builder_sets_paper_constants() {
        let c = ClassSpec::sla("voice", 25e-3);
        match c.cost {
            CostModel::SlaDelay {
                theta,
                b1,
                b2_per_ms,
            } => {
                assert_eq!(theta, 25e-3);
                assert_eq!(b1, 100.0);
                assert_eq!(b2_per_ms, 1.0);
            }
            _ => panic!("expected SLA cost"),
        }
        assert_eq!(c.constraint, NormalConstraint::Pin);
        assert!(c.is_sla());
    }

    #[test]
    fn congestion_builder_defaults_to_paper_chi() {
        let c = ClassSpec::congestion("bulk");
        assert_eq!(c.cost, CostModel::Congestion);
        assert_eq!(c.constraint, NormalConstraint::Relax(0.2));
        assert!(!c.is_sla());
    }

    #[test]
    fn pin_allows_only_non_degrading() {
        let pin = NormalConstraint::Pin;
        assert!(pin.allows(10.0, 10.0));
        assert!(pin.allows(9.0, 10.0));
        assert!(!pin.allows(10.1, 10.0));
    }

    #[test]
    fn relax_allows_up_to_budget() {
        let r = NormalConstraint::Relax(0.2);
        assert!(r.allows(12.0, 10.0));
        assert!(!r.allows(12.5, 10.0));
    }

    #[test]
    fn sample_slack_mirrors_phase1_acceptability() {
        // Pin + z·B1 = 50 slack: benchmark 100 -> 150.
        assert_eq!(NormalConstraint::Pin.sample_slack(100.0, 50.0), 150.0);
        // Relax(0.2): benchmark 10 -> 12, z·B1 ignored.
        assert_eq!(NormalConstraint::Relax(0.2).sample_slack(10.0, 50.0), 12.0);
    }

    #[test]
    fn dtr_config_shape() {
        let c = MtrConfig::dtr(25e-3, 0.2);
        c.validate();
        assert_eq!(c.num_classes(), 2);
        assert!(c.specs[0].is_sla());
        assert_eq!(c.specs[1].constraint, NormalConstraint::Relax(0.2));
    }

    #[test]
    #[should_panic(expected = "at least one traffic class")]
    fn empty_config_rejected() {
        MtrConfig::new(vec![]).validate();
    }

    #[test]
    #[should_panic(expected = "theta must be positive")]
    fn zero_theta_rejected() {
        ClassSpec::sla("x", 0.0);
    }

    #[test]
    #[should_panic(expected = "chi must be >= 0")]
    fn negative_chi_rejected() {
        let _ = ClassSpec::congestion("x").relaxed(-0.1);
    }
}
