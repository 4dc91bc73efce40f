//! Search parameters for the generalized MTR pipeline.
//!
//! The subset of `dtr_core::Params` that is class-count independent. The
//! per-class χ budgets moved into [`crate::ClassSpec`]; everything else
//! keeps the paper's defaults and meaning.

pub use dtr_core::params::PortfolioParams;

/// Parameter block of the k-class robust search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MtrParams {
    /// Maximum IGP weight; weights live in `[1, wmax]`.
    pub wmax: u32,
    /// Failure-emulation band: a perturbation emulates a link failure when
    /// *every* class weight lands in `[q·wmax, wmax]` (paper: 0.7).
    pub q: f64,
    /// Sample-acceptance slack for pinned SLA classes: `z·B1` (paper:
    /// z = 0.5).
    pub z: f64,
    /// Left-tail fraction for criticality (paper fn 9: 10 %).
    pub left_tail_fraction: f64,
    /// Average new samples per link between criticality-rank re-checks
    /// (paper: τ = 30).
    pub tau: usize,
    /// Rank-change convergence threshold `e` on every class's `S_c`
    /// (paper: 2).
    pub e: f64,
    /// Stop when relative cost reduction over the trailing window of
    /// diversifications falls below this (paper: 0.1 % = 0.001).
    pub c: f64,
    /// Trailing diversification window of the regular phase (paper: 20).
    pub p1: usize,
    /// Trailing diversification window of the robust phase (paper: 10).
    pub p2: usize,
    /// Iterations without improvement before the regular phase restarts
    /// from a fresh random setting (paper: 100).
    pub div_interval_1: usize,
    /// Same for the robust phase (paper: 30).
    pub div_interval_2: usize,
    /// Target critical-set size as a fraction of the failure universe
    /// (paper default 0.15).
    pub critical_fraction: f64,
    /// Hard cap on extra sampling rounds when topping up samples.
    pub max_sampling_rounds: usize,
    /// Archive size: acceptable settings kept as robust-phase start
    /// points.
    pub archive_size: usize,
    /// Hard safety cap on sweeps per phase.
    pub max_iterations: usize,
    /// Worker cap of the two fan-outs over independent work: the
    /// top-up's rounds (contiguous chunks of the round in archive-member
    /// order) and a portfolio's replicas (1 = serial). Each robust chain
    /// runs on one thread. Results and every counter are bit-for-bit
    /// identical for every thread count (the parallel-search contract
    /// in `DETERMINISM.md`).
    pub threads: usize,
    /// Enable the incumbent-bounded early-cutoff failure sweeps of the
    /// robust phase, run through the delta-state scenario cache
    /// (`dtr_cost::ScenarioCache`; float-exact rejection proof, see
    /// `dtr_core::parallel::sum_set_costs_bounded`; the trajectory is
    /// identical with it on or off). The proof folds only the scenarios
    /// evaluated so far. A `cache_budget_bytes` of 0 keeps the cutoff
    /// and drops the cache.
    pub cutoff: bool,
    /// Record the per-proposal accept/reject trace into the phase
    /// outputs (`dtr_core::search::MoveOutcome`). Off by default.
    pub record_trace: bool,
    /// Portfolio/replica search for the robust phase: independent chains
    /// from derived seeds with index-ordered elite exchange
    /// ([`PortfolioParams::single()`] = classic search; see the
    /// parallel-search contract in `DETERMINISM.md`).
    pub portfolio: PortfolioParams,
    /// Residency budget in bytes for the delta-state scenario cache of
    /// the robust-phase cutoff sweeps (`dtr_cost::ScenarioCache`; only
    /// read when `cutoff` is on). Scenarios past the budget fall back to
    /// the plain per-class path, which returns the same bits — the
    /// trajectory is identical for every budget, only wall-clock and
    /// memory change. `usize::MAX` = unbounded; 0 keeps nothing
    /// resident, and the cutoff then runs uncached.
    pub cache_budget_bytes: usize,
    /// Wall-clock deadline for the robust phase in milliseconds
    /// (`None` = run to convergence). Checked only at sweep/rendezvous
    /// boundaries; the search returns best-so-far with
    /// `Terminated::Deadline`, never a half-applied accept, and every
    /// prefix of the trajectory matches an undeadlined run's (see "The
    /// checkpoint contract" in `DETERMINISM.md`).
    pub deadline_ms: Option<u64>,
    /// Checkpoint cadence for the robust phase, in boundaries (sweeps
    /// for a single chain, rendezvous for a portfolio). `0` = never
    /// checkpoint. Only read by the controlled entry points that were
    /// given a checkpoint sink; snapshots are encoded at the boundary,
    /// outside every sweep kernel, with zero effect on the trajectory.
    pub checkpoint_every: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl MtrParams {
    /// The paper's published parameter set.
    pub fn paper_default(seed: u64) -> Self {
        MtrParams {
            wmax: 20,
            q: 0.7,
            z: 0.5,
            left_tail_fraction: 0.10,
            tau: 30,
            e: 2.0,
            c: 0.001,
            p1: 20,
            p2: 10,
            div_interval_1: 100,
            div_interval_2: 30,
            critical_fraction: 0.15,
            max_sampling_rounds: 200,
            archive_size: 16,
            max_iterations: 100_000,
            threads: 1,
            cutoff: true,
            record_trace: false,
            portfolio: PortfolioParams::single(),
            cache_budget_bytes: usize::MAX,
            deadline_ms: None,
            checkpoint_every: 0,
            seed,
        }
    }

    /// CI-sized budgets: same semantics, seconds instead of hours.
    pub fn quick(seed: u64) -> Self {
        MtrParams {
            p1: 3,
            p2: 2,
            div_interval_1: 8,
            div_interval_2: 4,
            tau: 4,
            max_sampling_rounds: 20,
            max_iterations: 400,
            ..MtrParams::paper_default(seed)
        }
    }

    /// Panics on out-of-range values.
    pub fn validate(&self) {
        assert!(self.wmax >= 2, "wmax must leave room to perturb");
        assert!(self.q > 0.0 && self.q < 1.0, "q in (0,1)");
        assert!(self.z >= 0.0 && self.z <= 1.0, "z in [0,1]");
        assert!(
            self.left_tail_fraction > 0.0 && self.left_tail_fraction <= 0.5,
            "tail fraction in (0, 0.5]"
        );
        assert!(self.tau >= 1 && self.e >= 0.0);
        assert!(self.c > 0.0 && self.c < 1.0, "c in (0,1)");
        assert!(self.p1 >= 1 && self.p2 >= 1);
        assert!(self.div_interval_1 >= 1 && self.div_interval_2 >= 1);
        assert!(
            self.critical_fraction > 0.0 && self.critical_fraction <= 1.0,
            "critical fraction in (0,1]"
        );
        assert!(self.archive_size >= 1);
        assert!(self.max_iterations >= 1);
        assert!(self.threads >= 1, "at least one worker thread");
        self.portfolio.validate();
        if let Some(ms) = self.deadline_ms {
            assert!(ms >= 1, "deadline must be at least one millisecond");
        }
        // Any cache_budget_bytes is valid: a budget below one entry just
        // means a fully non-resident cache (plain-path evaluations).
        // Any checkpoint_every is valid: 0 simply disables checkpoints.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_the_text() {
        let p = MtrParams::paper_default(1);
        p.validate();
        assert_eq!(p.wmax, 20);
        assert_eq!(p.q, 0.7);
        assert_eq!(p.z, 0.5);
        assert_eq!(p.left_tail_fraction, 0.10);
        assert_eq!(p.tau, 30);
        assert_eq!(p.e, 2.0);
        assert_eq!(p.c, 0.001);
        assert_eq!((p.p1, p.p2), (20, 10));
        assert_eq!((p.div_interval_1, p.div_interval_2), (100, 30));
        assert_eq!(p.critical_fraction, 0.15);
    }

    #[test]
    fn quick_is_valid() {
        MtrParams::quick(7).validate();
    }

    #[test]
    #[should_panic(expected = "q in (0,1)")]
    fn bad_q_rejected() {
        let p = MtrParams {
            q: 1.5,
            ..MtrParams::paper_default(1)
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "critical fraction")]
    fn bad_fraction_rejected() {
        let p = MtrParams {
            critical_fraction: 0.0,
            ..MtrParams::paper_default(1)
        };
        p.validate();
    }
}
