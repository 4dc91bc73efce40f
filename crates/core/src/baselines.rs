//! Prior-art critical-link selectors (§IV-C).
//!
//! The paper motivates its mean-minus-left-tail criticality by showing that
//! earlier single-routing selectors do not carry over to DTR:
//!
//! * **Random** (Yuan \[24\]) — sample the critical set uniformly; the DTR
//!   solution space explosion makes this a lottery.
//! * **Load-based** (Fortz & Thorup \[10\]) — pick the links with the
//!   highest normal-conditions utilization; load is neither the only nor
//!   the dominant metric for delay-sensitive traffic.
//! * **Fluctuation** (Sridharan & Guérin \[23\]) — pick links whose
//!   failure-emulating cost samples fluctuate the most (widest spread).
//!   This is the closest ancestor of the paper's method; the paper's
//!   refinement replaces fragile global thresholds by the distribution-
//!   shape quantity `mean − left-tail-mean`, computed per link.
//!
//! These selectors exist so the ablation bench can quantify how much
//! selection quality matters (the paper reports the comparison
//! qualitatively).

use dtr_cost::Evaluator;
use dtr_routing::{route_class, Class, WeightSetting};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::criticality::{rank_desc, Criticality};
use crate::samples::SampleStore;
use crate::selection;
use crate::universe::FailureUniverse;

/// Which critical-link selection strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Selector {
    /// The paper's method: normalized mean-minus-left-tail criticality
    /// merged by Algorithm 1.
    MeanLeftTail,
    /// Uniform random subset (Yuan \[24\]).
    Random,
    /// Highest normal-conditions total link load (Fortz-Thorup \[10\]).
    LoadBased,
    /// Widest per-link sample spread, max − min (adaptation of
    /// Sridharan-Guérin \[23\]; see module docs).
    Fluctuation,
}

impl std::fmt::Display for Selector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Selector::MeanLeftTail => write!(f, "mean-left-tail"),
            Selector::Random => write!(f, "random"),
            Selector::LoadBased => write!(f, "load-based"),
            Selector::Fluctuation => write!(f, "fluctuation"),
        }
    }
}

/// Select `n` critical failure indices with the given strategy.
///
/// `best` is the Phase-1 best weight setting (needed by the load-based
/// selector); `store` is the Phase-1 sample harvest (needed by the paper's
/// and the fluctuation selector); `tail_fraction` and `seed` parameterize
/// the respective strategies.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Phase-1c inputs
pub fn select(
    selector: Selector,
    ev: &Evaluator<'_>,
    universe: &FailureUniverse,
    store: &SampleStore,
    best: &WeightSetting,
    tail_fraction: f64,
    n: usize,
    seed: u64,
) -> Vec<usize> {
    let m = universe.len();
    let n = n.min(m);
    match selector {
        Selector::MeanLeftTail => {
            let crit = Criticality::estimate(store, tail_fraction);
            selection::select(&crit, n).indices
        }
        Selector::Random => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f);
            let mut idx: Vec<usize> = (0..m).collect();
            idx.shuffle(&mut rng);
            idx.truncate(n);
            idx.sort_unstable();
            idx
        }
        Selector::LoadBased => {
            // Total normal-conditions load on each failable duplex link
            // (max of the two directions).
            let net = ev.net();
            let mask = net.fresh_mask();
            let rd = route_class(net, best.weights(Class::Delay), &ev.traffic().delay, &mask);
            let rt = route_class(
                net,
                best.weights(Class::Throughput),
                &ev.traffic().throughput,
                &mask,
            );
            let total = dtr_routing::router::total_loads(&rd, &rt);
            let score: Vec<f64> = universe
                .failable
                .iter()
                .map(|&rep| {
                    let fwd = total[rep.index()];
                    let bwd = net
                        .reverse_link(rep)
                        .map(|r| total[r.index()])
                        .unwrap_or(0.0);
                    fwd.max(bwd)
                })
                .collect();
            let mut idx = rank_desc(&score);
            idx.truncate(n);
            idx.sort_unstable();
            idx
        }
        Selector::Fluctuation => {
            let score: Vec<f64> = (0..m)
                .map(|i| {
                    // Spread of the (Λ + Φ-scaled) samples; links without
                    // samples score 0.
                    match (store.stats(0, i, 0.5), store.stats(1, i, 0.5)) {
                        (Some(l), Some(p)) => {
                            // mean − tail over the lower half approximates
                            // overall spread robustly.
                            l.rho() + p.rho()
                        }
                        _ => 0.0,
                    }
                })
                .collect();
            let mut idx = rank_desc(&score);
            idx.truncate(n);
            idx.sort_unstable();
            idx
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_cost::{CostParams, LexCost};
    use dtr_net::{Network, NetworkBuilder, Point};
    use dtr_traffic::{gravity, ClassMatrices};

    fn testbed() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[3], 1e6, 2e-3).unwrap();
        let net = b.build().unwrap();
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 2e6,
            ..gravity::GravityConfig::paper_default(6, 2)
        });
        (net, tm)
    }

    fn harness() -> (Network, ClassMatrices) {
        testbed()
    }

    #[test]
    fn all_selectors_return_n_indices() {
        let (net, tm) = harness();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let mut store = SampleStore::new(universe.len());
        for i in 0..universe.len() {
            for k in 0..10 {
                store.record(i, &LexCost::new((i * k) as f64, k as f64));
            }
        }
        let best = WeightSetting::uniform(net.num_links(), 20);
        for sel in [
            Selector::MeanLeftTail,
            Selector::Random,
            Selector::LoadBased,
            Selector::Fluctuation,
        ] {
            let idx = select(sel, &ev, &universe, &store, &best, 0.1, 3, 42);
            assert!(idx.len() <= 3, "{sel}: {idx:?}");
            assert!(!idx.is_empty(), "{sel}");
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "{sel}: sorted, unique");
            assert!(idx.iter().all(|&i| i < universe.len()), "{sel}: in range");
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let (net, tm) = harness();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let store = SampleStore::new(universe.len());
        let best = WeightSetting::uniform(net.num_links(), 20);
        let a = select(Selector::Random, &ev, &universe, &store, &best, 0.1, 3, 7);
        let b = select(Selector::Random, &ev, &universe, &store, &best, 0.1, 3, 7);
        let c = select(Selector::Random, &ev, &universe, &store, &best, 0.1, 3, 8);
        assert_eq!(a, b);
        assert!(a != c || a.len() == universe.len());
    }

    #[test]
    fn load_based_picks_loaded_links() {
        let (net, _) = harness();
        // Put all traffic on a single corridor: 0 -> 1.
        let mut tm = ClassMatrices::zeros(6);
        tm.delay.set(0, 1, 1e5);
        tm.throughput.set(0, 1, 5e5);
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let store = SampleStore::new(universe.len());
        let best = WeightSetting::uniform(net.num_links(), 20);
        let idx = select(
            Selector::LoadBased,
            &ev,
            &universe,
            &store,
            &best,
            0.1,
            1,
            0,
        );
        // The selected duplex link must be the 0-1 corridor.
        let rep = universe.failable[idx[0]];
        let link = net.link(rep);
        let pair = (
            link.src.index().min(link.dst.index()),
            link.src.index().max(link.dst.index()),
        );
        assert_eq!(pair, (0, 1));
    }

    #[test]
    fn fluctuation_prefers_wide_distributions() {
        let (net, tm) = harness();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let universe = FailureUniverse::of(&net);
        let mut store = SampleStore::new(universe.len());
        for i in 0..universe.len() {
            for k in 0..10 {
                // Link 2 has a wide spread, everything else is constant.
                let v = if i == 2 { (k * 50) as f64 } else { 100.0 };
                store.record(i, &LexCost::new(v, 1.0));
            }
        }
        let best = WeightSetting::uniform(net.num_links(), 20);
        let idx = select(
            Selector::Fluctuation,
            &ev,
            &universe,
            &store,
            &best,
            0.1,
            1,
            0,
        );
        assert_eq!(idx, vec![2]);
    }
}
