//! Alternative local-search acceptance strategies (ablation extension).
//!
//! The paper's heuristic accepts a weight perturbation iff it improves the
//! lexicographic cost — plain hill-climbing with random restarts (§IV-A).
//! The weight-optimization literature it builds on uses richer moves:
//! Fortz–Thorup \[8\] drive their search with *tabu* mechanics (recently
//! touched attributes are frozen), and simulated annealing is the
//! standard escape hatch from local minima. This module implements both
//! as drop-in alternatives for the *regular* (normal-conditions)
//! optimization, so the ablation experiment can quantify what the paper's
//! simpler rule gives up — or doesn't — at matched evaluation budgets.
//!
//! All strategies share the same move structure (re-draw the weight pair
//! of one physical link), the same diversification-restart skeleton and
//! the same stopping rule; only the accept/reject decision differs.

use dtr_cost::{Evaluator, LexCost};
use dtr_routing::{Scenario, WeightSetting};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::params::Params;
use crate::phase1::random_setting;
use crate::robust::RobustEngine;
use crate::search::{duplex_weights, set_duplex_weights, SearchStats, StopRule};

/// Acceptance strategy of the regular-optimization local search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// The paper's rule: accept iff the lexicographic cost improves.
    HillClimb,
    /// Simulated annealing: always accept improvements; accept
    /// degradations with probability `exp(−Δ/T)`, where `Δ` is the
    /// scalarized cost increase and `T` decays geometrically per sweep.
    Annealing {
        /// Starting temperature (in scalarized-cost units).
        initial_temperature: f64,
        /// Per-sweep geometric cooling factor in `(0, 1)`.
        cooling: f64,
    },
    /// Tabu search: a link whose weights were just changed is frozen for
    /// `tenure` sweeps (no re-perturbation), with the standard aspiration
    /// override — a move beating the global best is always allowed.
    Tabu {
        /// Sweeps a perturbed link stays frozen.
        tenure: usize,
    },
}

impl Strategy {
    /// The annealing default used by the ablation: temperature on the
    /// order of one SLA violation, 3 %-per-sweep cooling.
    pub fn default_annealing() -> Self {
        Strategy::Annealing {
            initial_temperature: 100.0,
            cooling: 0.97,
        }
    }

    /// The tabu default used by the ablation.
    pub fn default_tabu() -> Self {
        Strategy::Tabu { tenure: 8 }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::HillClimb => write!(f, "hill-climb"),
            Strategy::Annealing { .. } => write!(f, "annealing"),
            Strategy::Tabu { .. } => write!(f, "tabu"),
        }
    }
}

/// Outcome of one strategy run.
#[derive(Clone, Debug)]
pub struct StrategyOutcome {
    /// Best weight setting found.
    pub best: WeightSetting,
    /// Its normal-conditions cost.
    pub best_cost: LexCost,
    /// Effort spent.
    pub stats: SearchStats,
}

/// Scalarization used by the annealing acceptance: `Λ` dominates at the
/// scale of one fixed SLA penalty per unit, `Φ` enters at face value —
/// the smooth proxy of the lexicographic order.
fn scalar(c: &LexCost, b1: f64) -> f64 {
    c.lambda * (1.0 + b1) + c.phi
}

/// Run the regular (normal-conditions) optimization under `strategy`,
/// with the shared parameter block (`p1`, `c`, `div_interval_1`,
/// `max_iterations`, `seed`, `wmax` are honoured; sampling parameters are
/// irrelevant here and ignored).
pub fn optimize_normal(ev: &Evaluator<'_>, params: &Params, strategy: Strategy) -> StrategyOutcome {
    params.validate();
    if let Strategy::Annealing {
        initial_temperature,
        cooling,
    } = strategy
    {
        assert!(
            initial_temperature > 0.0 && initial_temperature.is_finite(),
            "temperature must be positive"
        );
        assert!(
            cooling > 0.0 && cooling < 1.0,
            "cooling factor must be in (0,1)"
        );
    }
    if let Strategy::Tabu { tenure } = strategy {
        assert!(tenure >= 1, "tabu tenure must be at least 1");
    }

    let net = ev.net();
    let b1 = ev.params().b1;
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xd1b5_4a32_d192_ed03);

    let mut stats = SearchStats::default();
    let mut stop = StopRule::new(params.p1, params.c);

    let mut current = random_setting(ev, params.wmax, &mut rng);
    let mut current_cost = ev.cost(&current, Scenario::Normal);
    stats.evaluations += 1;
    let mut best = current.clone();
    let mut best_cost = current_cost;

    let mut reps = net.duplex_representatives();
    // Tabu bookkeeping: sweep index until which a link is frozen.
    let mut frozen_until = vec![0usize; net.num_links()];
    let mut temperature = match strategy {
        Strategy::Annealing {
            initial_temperature,
            ..
        } => initial_temperature,
        _ => 0.0,
    };

    let mut stale_sweeps = 0usize;
    while stats.iterations < params.max_iterations {
        stats.iterations += 1;
        reps.shuffle(&mut rng);
        let mut improved_best = false;

        for &rep in &reps {
            let (old_wd, old_wt) = duplex_weights(&current, rep);
            let (new_wd, new_wt) = ev.draw_move(1, params.wmax, &mut rng);
            if (new_wd, new_wt) == (old_wd, old_wt) {
                continue;
            }
            set_duplex_weights(&mut current, net, rep, new_wd, new_wt);
            let cand = ev.cost(&current, Scenario::Normal);
            stats.evaluations += 1;

            let beats_global = cand.better_than(&best_cost);
            let accept = match strategy {
                Strategy::HillClimb => cand.better_than(&current_cost),
                Strategy::Annealing { .. } => {
                    if cand.better_than(&current_cost) {
                        true
                    } else {
                        let delta = scalar(&cand, b1) - scalar(&current_cost, b1);
                        delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-12)).exp()
                    }
                }
                Strategy::Tabu { tenure } => {
                    let frozen = frozen_until[rep.index()] > stats.iterations;
                    let improves = cand.better_than(&current_cost);
                    if improves && (!frozen || beats_global) {
                        frozen_until[rep.index()] = stats.iterations + tenure;
                        true
                    } else {
                        false
                    }
                }
            };

            if accept {
                current_cost = cand;
                if beats_global {
                    best = current.clone();
                    best_cost = cand;
                    improved_best = true;
                }
            } else {
                set_duplex_weights(&mut current, net, rep, old_wd, old_wt);
            }
        }

        if let Strategy::Annealing { cooling, .. } = strategy {
            temperature *= cooling;
        }

        stale_sweeps = if improved_best { 0 } else { stale_sweeps + 1 };
        if stale_sweeps >= params.div_interval_1 {
            stats.diversifications += 1;
            stale_sweeps = 0;
            if stop.record(best_cost) {
                break;
            }
            current = random_setting(ev, params.wmax, &mut rng);
            current_cost = ev.cost(&current, Scenario::Normal);
            stats.evaluations += 1;
            if let Strategy::Annealing {
                initial_temperature,
                ..
            } = strategy
            {
                // Reheat on restart (standard practice).
                temperature = initial_temperature;
            }
        }
    }

    StrategyOutcome {
        best,
        best_cost,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::CostParams;
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    fn testbed() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new((i as f64).cos(), (i as f64).sin())))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        b.add_duplex_link(n[1], n[4], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 2e6,
            ..gravity::GravityConfig::paper_default(6, 5)
        });
        (net, tm)
    }

    fn all_strategies() -> [Strategy; 3] {
        [
            Strategy::HillClimb,
            Strategy::default_annealing(),
            Strategy::default_tabu(),
        ]
    }

    #[test]
    fn every_strategy_beats_random_settings() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let params = Params::quick(7);
        for strategy in all_strategies() {
            let out = optimize_normal(&ev, &params, strategy);
            let mut rng = StdRng::seed_from_u64(999);
            for _ in 0..10 {
                let w = random_setting(&ev, params.wmax, &mut rng);
                let c = ev.cost(&w, Scenario::Normal);
                assert!(
                    !c.better_than(&out.best_cost),
                    "{strategy}: random setting beat the search"
                );
            }
        }
    }

    #[test]
    fn reported_cost_is_truthful_for_all_strategies() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let params = Params::quick(3);
        for strategy in all_strategies() {
            let out = optimize_normal(&ev, &params, strategy);
            assert_eq!(
                ev.cost(&out.best, Scenario::Normal),
                out.best_cost,
                "{strategy}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed_for_all_strategies() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        for strategy in all_strategies() {
            let a = optimize_normal(&ev, &Params::quick(11), strategy);
            let b = optimize_normal(&ev, &Params::quick(11), strategy);
            assert_eq!(a.best, b.best, "{strategy}");
            assert_eq!(a.best_cost, b.best_cost, "{strategy}");
        }
    }

    #[test]
    fn hill_climb_matches_phase1_quality_class() {
        // Sanity anchor: the strategy harness's hill-climb should land in
        // the same cost ballpark as phase1 (same acceptance rule, no
        // harvest) — not bit-identical (different RNG stream), but the
        // Λ components must agree (both should zero-out SLA violations
        // on this lightly loaded net).
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = crate::FailureUniverse::of(&net);
        let p = Params::quick(5);
        let ours = optimize_normal(&ev, &p, Strategy::HillClimb);
        let phase1 = crate::phase1::run(&ev, &universe, &p);
        assert_eq!(ours.best_cost.lambda, phase1.best_cost.lambda);
    }

    #[test]
    fn display_names() {
        assert_eq!(Strategy::HillClimb.to_string(), "hill-climb");
        assert_eq!(Strategy::default_annealing().to_string(), "annealing");
        assert_eq!(Strategy::default_tabu().to_string(), "tabu");
    }

    #[test]
    #[should_panic(expected = "cooling factor")]
    fn bad_cooling_rejected() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        optimize_normal(
            &ev,
            &Params::quick(1),
            Strategy::Annealing {
                initial_temperature: 10.0,
                cooling: 1.5,
            },
        );
    }

    #[test]
    #[should_panic(expected = "tenure")]
    fn zero_tenure_rejected() {
        let (net, tm) = testbed();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        optimize_normal(&ev, &Params::quick(1), Strategy::Tabu { tenure: 0 });
    }
}
