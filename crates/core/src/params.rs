//! Heuristic parameters (paper §IV-D1 and §V-A3).

/// Portfolio/replica search configuration (see the parallel-search
/// determinism contract in `DETERMINISM.md`).
///
/// With `replicas > 1` the robust phase runs that many independent
/// search chains from distinct derived seeds, exchanging archive elites
/// at fixed rendezvous points every `rendezvous_period` sweeps. The
/// merge is replica-index-ordered, so the final best setting, costs and
/// per-replica traces are bit-for-bit reproducible for a given
/// `(seed, replicas, rendezvous_period)` at **any** thread count.
/// `replicas == 1` is exactly the classic single-chain search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PortfolioParams {
    /// Independent replica chains (1 = classic single-chain search).
    pub replicas: usize,
    /// Sweeps each replica runs between elite-exchange rendezvous.
    pub rendezvous_period: usize,
}

impl PortfolioParams {
    /// Single-chain default: no portfolio, bit-identical to the
    /// pre-portfolio search.
    pub fn single() -> Self {
        PortfolioParams {
            replicas: 1,
            rendezvous_period: 8,
        }
    }

    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.replicas >= 1, "portfolio needs at least one replica");
        assert!(
            self.rendezvous_period >= 1,
            "rendezvous period must be at least one sweep"
        );
    }
}

/// Derive the master RNG seed of portfolio replica `r` from the run
/// seed (SplitMix64 finalizer over `seed + r·golden-gamma`; replica 0
/// of a multi-replica portfolio keeps its own derived stream too, so
/// no replica shares the single-chain stream by accident).
///
/// Part of the parallel-search determinism contract (`DETERMINISM.md`):
/// the derivation depends only on `(seed, r)`, never on thread count or
/// scheduling.
pub fn replica_seed(seed: u64, r: usize) -> u64 {
    let mut z = seed.wrapping_add((r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every knob of the two-phase heuristic. `paper_default()` reproduces the
/// values the paper evaluates with; `quick()` is a CI-sized preset used by
/// tests and fast benches (documented in EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Maximum IGP weight; weights live in `[1, wmax]`.
    pub wmax: u32,
    /// Failure-emulation band: a perturbation emulates a link failure when
    /// both class weights land in `[q·wmax, wmax]` (paper: 0.7).
    pub q: f64,
    /// Sample-acceptance slack for the delay class: a pre-perturbation
    /// setting is acceptable if its `Λ` exceeds the current best by at most
    /// `z·B1` (paper: z = 0.5).
    pub z: f64,
    /// Throughput degradation budget χ: Phase 2 may degrade the normal-
    /// conditions `Φ` by up to this fraction (Eq. 6; paper: 0.2). Also the
    /// sample-acceptance slack for `Φ`.
    pub chi: f64,
    /// Left-tail fraction for criticality: mean of the lowest such share
    /// of samples (paper fn 9: 10 %).
    pub left_tail_fraction: f64,
    /// Average new samples per link between criticality-rank re-checks
    /// (paper: τ = 30).
    pub tau: usize,
    /// Rank-change convergence threshold `e` on both `S_Λ` and `S_Φ`
    /// (paper: 2).
    pub e: f64,
    /// Stop when relative cost reduction over the trailing window of
    /// diversifications falls below this (paper: c = 0.1 % = 0.001).
    pub c: f64,
    /// Trailing diversification window for the Phase-1 stop rule (paper:
    /// P1 = 20).
    pub p1: usize,
    /// Trailing diversification window for the Phase-2 stop rule (paper:
    /// P2 = 10).
    pub p2: usize,
    /// Iterations without improvement before Phase 1 restarts from a fresh
    /// random setting (paper: 100).
    pub div_interval_1: usize,
    /// Same for Phase 2, which starts near known-good settings (paper: 30).
    pub div_interval_2: usize,
    /// Target critical-set size as a fraction of the failure universe
    /// (paper default 0.15; Table I sweeps 0.05–0.25).
    pub critical_fraction: f64,
    /// Hard cap on Phase-1b sampling rounds (safety valve; the paper
    /// assumes convergence, a cap keeps degenerate instances terminating).
    pub max_phase1b_rounds: usize,
    /// Archive size: how many acceptable settings Phase 1 keeps as Phase-2
    /// starting points.
    pub archive_size: usize,
    /// Worker cap of the two fan-outs over independent work: Phase 1b's
    /// rounds (contiguous chunks of the round in archive-member order)
    /// and a portfolio's replicas (1 = serial). Each robust chain runs
    /// on one thread. Results and every counter are identical for any
    /// value; this only changes wall-clock.
    pub threads: usize,
    /// Enable the incumbent-bounded early-cutoff failure sweeps of the
    /// robust phase, which stand each scenario's Λ floor
    /// (`dtr_cost::Engine::scenario_floor`) in for the scenarios not yet
    /// evaluated. The cutoff is a float-exact proof of rejection (see
    /// [`crate::parallel::sum_set_costs_bounded`]), so accepted moves,
    /// their costs, and the full accept/reject sequence are identical
    /// with it on or off; only losing sweeps get cheaper.
    pub cutoff: bool,
    /// Record the per-proposal accept/reject trace into the phase
    /// outputs ([`crate::search::MoveOutcome`]). Off by default: the
    /// trace grows with the move count and exists for the equivalence
    /// suite and diagnostics.
    pub record_trace: bool,
    /// Portfolio/replica search for the robust phase (Phase 2):
    /// independent chains from derived seeds with index-ordered elite
    /// exchange. `PortfolioParams::single()` = classic search.
    pub portfolio: PortfolioParams,
    /// Residency budget in bytes for the delta-state scenario cache of
    /// the Phase-2 cutoff sweeps (`dtr_cost::ScenarioCache`). Entries
    /// hold per-link load vectors and SLA pair triples, so at large node
    /// counts an unbounded cache grows roughly as `scenarios × links`;
    /// scenarios past the budget fall back to the plain repair-seeded
    /// path, which returns the same bits — the search trajectory is
    /// identical for every budget, only wall-clock changes.
    /// `usize::MAX` = unbounded (the 50-node default never binds).
    pub cache_budget_bytes: usize,
    /// Hard safety cap on sweeps per phase — a termination backstop far
    /// above what the `c%` rule needs; never binding in practice.
    pub max_iterations: usize,
    /// Wall-clock deadline for the robust phase in milliseconds
    /// (`None` = run to convergence). Checked only at sweep (single
    /// chain) or rendezvous (portfolio) boundaries, so the search
    /// returns the best-so-far with
    /// [`Terminated::Deadline`](crate::search::Terminated) and never a
    /// half-applied accept. The deadline decides only *when* to stop,
    /// never which move is accepted: every prefix of the trajectory is
    /// the same as an undeadlined run's (see "The checkpoint contract"
    /// in `DETERMINISM.md`).
    pub deadline_ms: Option<u64>,
    /// Checkpoint cadence for the robust phase, in boundaries (sweeps
    /// for a single chain, rendezvous for a portfolio). `0` = never
    /// checkpoint. Only read by the controlled entry points that were
    /// given a checkpoint sink; the snapshot is encoded and stored at
    /// the boundary, outside every sweep kernel, and has zero effect on
    /// the trajectory.
    pub checkpoint_every: usize,
    /// Master RNG seed.
    pub seed: u64,
}

impl Params {
    /// The paper's published parameter set (§IV-D1, §V-A3).
    pub fn paper_default(seed: u64) -> Self {
        Params {
            wmax: 20,
            q: 0.7,
            z: 0.5,
            chi: 0.2,
            left_tail_fraction: 0.10,
            tau: 30,
            e: 2.0,
            c: 0.001,
            p1: 20,
            p2: 10,
            div_interval_1: 100,
            div_interval_2: 30,
            critical_fraction: 0.15,
            max_phase1b_rounds: 50,
            archive_size: 12,
            threads: 1,
            cutoff: true,
            record_trace: false,
            portfolio: PortfolioParams::single(),
            cache_budget_bytes: usize::MAX,
            max_iterations: 100_000,
            deadline_ms: None,
            checkpoint_every: 0,
            seed,
        }
    }

    /// CI-scale preset: same algorithm, drastically fewer iterations.
    /// Intended for unit/integration tests and smoke benches on networks
    /// of ≤ ~16 nodes.
    pub fn quick(seed: u64) -> Self {
        Params {
            tau: 5,
            p1: 2,
            p2: 1,
            div_interval_1: 12,
            div_interval_2: 6,
            max_phase1b_rounds: 6,
            archive_size: 6,
            max_iterations: 400,
            ..Params::paper_default(seed)
        }
    }

    /// Mid-scale preset: enough search to show the paper's qualitative
    /// effects on 15–30-node networks in seconds-to-minutes, used by the
    /// experiment harness at `Scale::Quick`.
    pub fn reduced(seed: u64) -> Self {
        Params {
            tau: 10,
            p1: 4,
            p2: 2,
            div_interval_1: 30,
            div_interval_2: 12,
            max_phase1b_rounds: 12,
            ..Params::paper_default(seed)
        }
    }

    /// Validate invariants (called by the pipeline).
    pub fn validate(&self) {
        assert!(self.wmax >= 2, "wmax must allow at least two levels");
        assert!((0.0..1.0).contains(&self.q) && self.q > 0.0, "q in (0,1)");
        assert!(self.z >= 0.0 && self.chi >= 0.0);
        assert!(
            self.left_tail_fraction > 0.0 && self.left_tail_fraction <= 0.5,
            "left tail must be a small lower quantile"
        );
        assert!(self.tau >= 1 && self.e >= 0.0 && self.c >= 0.0);
        assert!(self.p1 >= 1 && self.p2 >= 1);
        assert!(self.div_interval_1 >= 1 && self.div_interval_2 >= 1);
        assert!(
            self.critical_fraction > 0.0 && self.critical_fraction <= 1.0,
            "critical fraction in (0,1]"
        );
        assert!(self.archive_size >= 1);
        assert!(self.threads >= 1);
        self.portfolio.validate();
        assert!(self.max_iterations >= 1);
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
    fn paper_defaults_match_publication() {
        let p = Params::paper_default(0);
        assert_eq!(p.wmax, 20);
        assert_eq!(p.q, 0.7);
        assert_eq!(p.z, 0.5);
        assert_eq!(p.chi, 0.2);
        assert_eq!(p.left_tail_fraction, 0.10);
        assert_eq!(p.tau, 30);
        assert_eq!(p.e, 2.0);
        assert_eq!(p.c, 0.001);
        assert_eq!(p.p1, 20);
        assert_eq!(p.p2, 10);
        assert_eq!(p.div_interval_1, 100);
        assert_eq!(p.div_interval_2, 30);
        assert_eq!(p.critical_fraction, 0.15);
        p.validate();
    }

    #[test]
    fn presets_validate() {
        Params::quick(1).validate();
        Params::reduced(2).validate();
    }

    #[test]
    #[should_panic(expected = "critical fraction")]
    fn zero_critical_fraction_rejected() {
        Params {
            critical_fraction: 0.0,
            ..Params::paper_default(0)
        }
        .validate();
    }
}
