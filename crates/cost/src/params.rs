//! Cost-model parameters (paper §III and §V-A3).

/// How a pair's end-to-end delay is aggregated over its ECMP paths.
///
/// The paper routes each SD pair "on path P" without specifying the ECMP
/// tie case; this reproduction defaults to the conservative choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayAggregation {
    /// Worst path actually used (default): the SLA is violated if any
    /// forwarded substream can violate it.
    Max,
    /// Traffic-weighted mean over used paths (expected per-packet delay
    /// under even splitting).
    Mean,
}

/// Cost model of one traffic class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CostModel {
    /// SLA-delay cost (Eq. 2): zero below the bound `theta` (seconds),
    /// then `b1 + b2_per_ms · excess_ms`. The class's end-to-end delays
    /// are computed over *its own* routing, using link delays driven by
    /// total (all-class) load.
    SlaDelay {
        /// End-to-end delay bound θ in seconds.
        theta: f64,
        /// Fixed penalty per violated SD pair.
        b1: f64,
        /// Penalty per millisecond of excess delay.
        b2_per_ms: f64,
    },
    /// Fortz–Thorup congestion cost \[8\]: Σ f(x_l) over links carrying this
    /// class's traffic, where `x_l` is the *total* link load.
    Congestion,
}

/// All §III cost-model constants. Defaults are the paper's values (§V-A3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Average packet size κ, **bits** (paper: 1500 bytes).
    pub kappa_bits: f64,
    /// Utilization threshold µ below which queueing delay is neglected
    /// (paper: 0.95 — backbone links show negligible queueing below very
    /// high loads, their refs \[17\], \[20\]).
    pub mu: f64,
    /// Utilization at which Eq. (1b) is linearized to avoid the M/M/1 pole
    /// (paper fn 3: 0.99).
    pub linearization_knee: f64,
    /// SLA bound θ, seconds (paper: 25 ms ≈ US coast-to-coast).
    pub theta: f64,
    /// Fixed penalty per SLA violation, `B1` (paper: 100).
    pub b1: f64,
    /// Per-millisecond penalty on delay in excess of θ, `B2` (paper: 1;
    /// the excess is denominated in ms so that `B2·excess` is comparable
    /// to `B1` at backbone delay scales).
    pub b2_per_ms: f64,
    /// Finite surrogate (ms of excess delay) for a disconnected pair. Only
    /// reachable in degenerate scenarios the optimizer never enumerates;
    /// keeps every cost finite. 1000 ms ≫ any real excess.
    pub disconnect_excess_ms: f64,
    /// ECMP delay aggregation (see [`DelayAggregation`]).
    pub aggregation: DelayAggregation,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            kappa_bits: 1500.0 * 8.0,
            mu: 0.95,
            linearization_knee: 0.99,
            theta: 25e-3,
            b1: 100.0,
            b2_per_ms: 1.0,
            disconnect_excess_ms: 1000.0,
            aggregation: DelayAggregation::Max,
        }
    }
}

impl CostParams {
    /// Paper defaults with a different SLA bound θ (Table V sweeps
    /// 25–100 ms).
    pub fn with_theta(theta: f64) -> Self {
        CostParams {
            theta,
            ..Default::default()
        }
    }

    /// Validate invariants; called by the evaluator at construction.
    pub fn validate(&self) {
        assert!(self.kappa_bits > 0.0, "packet size must be positive");
        assert!(
            self.mu > 0.0 && self.mu < 1.0,
            "mu must be in (0,1), got {}",
            self.mu
        );
        assert!(
            self.linearization_knee > self.mu && self.linearization_knee < 1.0,
            "linearization knee must lie in (mu, 1)"
        );
        assert!(self.theta > 0.0, "theta must be positive");
        assert!(self.b1 >= 0.0 && self.b2_per_ms >= 0.0, "penalties >= 0");
        assert!(self.disconnect_excess_ms > 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = CostParams::default();
        assert_eq!(p.kappa_bits, 12_000.0);
        assert_eq!(p.mu, 0.95);
        assert_eq!(p.theta, 25e-3);
        assert_eq!(p.b1, 100.0);
        assert_eq!(p.b2_per_ms, 1.0);
        p.validate();
    }

    #[test]
    fn with_theta_overrides_only_theta() {
        let p = CostParams::with_theta(100e-3);
        assert_eq!(p.theta, 100e-3);
        assert_eq!(p.b1, 100.0);
    }

    #[test]
    #[should_panic(expected = "mu")]
    fn bad_mu_rejected() {
        CostParams {
            mu: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "knee")]
    fn knee_below_mu_rejected() {
        CostParams {
            mu: 0.95,
            linearization_knee: 0.9,
            ..Default::default()
        }
        .validate();
    }
}
