//! Phase 1c — critical-set selection (Algorithm 1 of the paper), for any
//! number of classes.
//!
//! Input: one list per class (`E_Λ`, `E_Φ` for DTR) holding the links in
//! descending normalized criticality, and a target size `n`. The expected
//! normalized error of keeping only the top-`m` of a list is the
//! criticality mass *outside* the kept prefix:
//! `ρ̄_Λ(E_Λ,m) = Σ_{l ∉ E_Λ,m} ρ̄_Λ,l` (a suffix sum).
//!
//! Starting from the full lists, Algorithm 1 repeatedly shrinks the list
//! whose hypothetical one-step shrink incurs the *smallest* error, until
//! the union of the kept prefixes fits in `n`. The critical set is that
//! union. Among lists whose shrink errors tie, the one with the highest
//! class index shrinks (DTR: Φ before Λ).

use dtr_cost::Evaluator;

use crate::baselines::{self, Selector};
use crate::criticality::Criticality;
use crate::params::Params;
use crate::phase1::Phase1Output;
use crate::samples::SampleStore;
use crate::scenario::ScenarioSet;

/// Result of Phase 1c.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalSet {
    /// Selected failure indices, ascending.
    pub indices: Vec<usize>,
    /// Prefix length kept from each class's list.
    pub prefix_lens: Vec<usize>,
    /// Residual normalized error of each class (`ρ̄_c` of its dropped
    /// suffix).
    pub residual_errors: Vec<f64>,
}

/// Run Algorithm 1: merge the per-class criticality rankings into one set
/// of at most `n` links.
///
/// # Panics
/// Panics if `n == 0` while links exist (an empty critical set would make
/// Phase 2 vacuous).
pub fn select(crit: &Criticality, n: usize) -> CriticalSet {
    let k = crit.num_classes();
    let m = crit.len();
    if m == 0 {
        return CriticalSet {
            indices: Vec::new(),
            prefix_lens: vec![0; k],
            residual_errors: vec![0.0; k],
        };
    }
    assert!(n >= 1, "target critical-set size must be at least 1");
    let n = n.min(m);

    let rankings = crit.rankings();
    // suffix[c][p] = error if only the top-p prefix of class c is kept.
    let suffix: Vec<Vec<f64>> = rankings
        .iter()
        .zip(&crit.norm)
        .map(|(order, vals)| {
            let mut s = vec![0.0; m + 1];
            for p in (0..m).rev() {
                s[p] = s[p + 1] + vals[order[p]];
            }
            s
        })
        .collect();

    let mut prefix = vec![m; k];
    // Incremental union tracking: a per-link membership count over the
    // k prefixes, decremented as each shrink step drops exactly one
    // element — O(k) per step instead of a fresh O(k·m) recount, which
    // made selection quadratic in the failure universe at large
    // topologies.
    let mut membership = vec![0u32; m];
    for order in &rankings {
        for &l in order {
            membership[l] += 1;
        }
    }
    let mut union = m;
    while union > n {
        // Shrink the list that loses least (Algorithm 1, lines 3-4);
        // `<=` hands ties to the later class.
        let mut victim = None;
        for c in (0..k).filter(|&c| prefix[c] > 0) {
            let err = suffix[c][prefix[c] - 1];
            if victim.is_none_or(|(_, best)| err <= best) {
                victim = Some((c, err));
            }
        }
        let (c, _) = victim.expect("some list still shrinkable while union > n >= 1");
        prefix[c] -= 1;
        let dropped = rankings[c][prefix[c]];
        membership[dropped] -= 1;
        if membership[dropped] == 0 {
            union -= 1;
        }
    }

    let indices: Vec<usize> = (0..m).filter(|&i| membership[i] > 0).collect();
    let residual_errors = suffix.iter().zip(&prefix).map(|(s, &p)| s[p]).collect();
    CriticalSet {
        indices,
        prefix_lens: prefix,
        residual_errors,
    }
}

/// The paper's Phase 1c over an arbitrary [`ScenarioSet`], for any
/// number of classes: estimate the criticality from `store`, scale it by
/// the set's per-link factors (the probabilistic model), merge with
/// Algorithm 1 into `target_size(critical_fraction)` failures, and let
/// the set map them to scenario indices (identity for single-link sets;
/// SRLG sets append their group scenarios). Sets without per-single-link
/// structure (`supports_selection() == false`, e.g. double-link
/// ensembles) get every scenario index.
pub fn select_scenarios<S: ScenarioSet + ?Sized>(
    set: &S,
    store: &SampleStore,
    tail_fraction: f64,
    critical_fraction: f64,
) -> Vec<usize> {
    if !set.supports_selection() {
        return set.all_indices();
    }
    let crit = Criticality::estimate(store, tail_fraction);
    let crit = match set.criticality_scale() {
        Some(scale) => crit.scaled(scale),
        None => crit,
    };
    let n = set.universe().target_size(critical_fraction);
    set.critical_scenarios(&select(&crit, n).indices)
}

/// DTR's Phase-1c for an arbitrary [`ScenarioSet`]: the scenario indices
/// Phase 2 should optimize over. Selection itself is cheap — its inputs
/// (the Phase-1 sample store and, for the load-based baseline, one
/// normal-conditions routing) are already computed; no per-scenario
/// evaluation is re-derived here.
///
/// * Sets without per-single-link structure get the full sweep.
/// * The paper's [`Selector::MeanLeftTail`] runs [`select_scenarios`].
/// * Every other selector routes through [`baselines::select`]
///   unchanged, and the set maps its failure indices to scenarios.
pub fn select_for_set<S: ScenarioSet + ?Sized>(
    set: &S,
    ev: &Evaluator<'_>,
    phase1: &Phase1Output,
    params: &Params,
    selector: Selector,
) -> Vec<usize> {
    if !set.supports_selection() {
        return set.all_indices();
    }
    if selector == Selector::MeanLeftTail {
        return select_scenarios(
            set,
            &phase1.store,
            params.left_tail_fraction,
            params.critical_fraction,
        );
    }
    let universe = set.universe();
    let critical_failures = baselines::select(
        selector,
        ev,
        universe,
        &phase1.store,
        &phase1.best,
        params.left_tail_fraction,
        universe.target_size(params.critical_fraction),
        params.seed,
    );
    set.critical_scenarios(&critical_failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crit(norm_lambda: Vec<f64>, norm_phi: Vec<f64>) -> Criticality {
        crit_k(vec![norm_lambda, norm_phi])
    }

    fn crit_k(norm: Vec<Vec<f64>>) -> Criticality {
        Criticality {
            rho: norm.clone(),
            norm,
        }
    }

    #[test]
    fn returns_at_most_n_links() {
        let c = crit(vec![0.5, 0.4, 0.3, 0.2, 0.1], vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        for n in 1..=5 {
            let cs = select(&c, n);
            assert!(cs.indices.len() <= n, "n={n}: got {}", cs.indices.len());
            assert!(!cs.indices.is_empty());
        }
    }

    #[test]
    fn perfectly_aligned_classes_keep_top_links() {
        // Both classes agree: links 0 > 1 > 2 > 3.
        let c = crit(vec![0.4, 0.3, 0.2, 0.1], vec![0.4, 0.3, 0.2, 0.1]);
        let cs = select(&c, 2);
        assert_eq!(cs.indices, vec![0, 1]);
    }

    #[test]
    fn opposed_classes_take_from_both() {
        // Λ cares about 0,1; Φ cares about 3,2 — equally strongly.
        let c = crit(vec![0.6, 0.4, 0.0, 0.0], vec![0.0, 0.0, 0.4, 0.6]);
        let cs = select(&c, 2);
        // The top link of each class survives.
        assert_eq!(cs.indices, vec![0, 3]);
        assert_eq!(cs.prefix_lens[0], 1);
        assert_eq!(cs.prefix_lens[1], 1);
    }

    #[test]
    fn dominant_class_wins_budget() {
        // Λ has big criticality mass everywhere; Φ is negligible.
        let c = crit(vec![0.5, 0.3, 0.15, 0.05], vec![1e-6, 2e-6, 1.5e-6, 0.5e-6]);
        let cs = select(&c, 3);
        // Algorithm shrinks the Φ list first: kept links are Λ's top 3.
        assert_eq!(cs.indices, vec![0, 1, 2]);
        assert_eq!(cs.prefix_lens[0], 3);
    }

    #[test]
    fn residual_errors_are_suffix_sums() {
        let c = crit(vec![0.4, 0.3, 0.2, 0.1], vec![0.0, 0.0, 0.0, 0.0]);
        let cs = select(&c, 2);
        assert_eq!(cs.indices, vec![0, 1]);
        assert!((cs.residual_errors[0] - 0.3).abs() < 1e-12); // 0.2 + 0.1 left out
        assert_eq!(cs.residual_errors[1], 0.0);
    }

    #[test]
    fn n_larger_than_links_returns_all() {
        let c = crit(vec![0.1, 0.2], vec![0.3, 0.4]);
        let cs = select(&c, 10);
        assert_eq!(cs.indices, vec![0, 1]);
    }

    #[test]
    fn empty_criticality_is_fine() {
        let c = crit(vec![], vec![]);
        let cs = select(&c, 3);
        assert!(cs.indices.is_empty());
    }

    #[test]
    fn all_zero_criticality_still_returns_n_links() {
        // Degenerate but possible (no violations ever observed): selection
        // must still return a deterministic set of n links.
        let c = crit(vec![0.0; 6], vec![0.0; 6]);
        let cs = select(&c, 2);
        assert_eq!(cs.indices.len(), 2);
    }

    #[test]
    fn large_universe_selection_stays_cheap_and_exact() {
        // 50k-link universe with opposed rankings, at two and three
        // classes — the old recounting shrink loop was quadratic here.
        // Exactness is cross-checked by rebuilding the union from the
        // returned prefixes.
        let m = 50_000usize;
        let lam: Vec<f64> = (0..m).map(|i| (m - i) as f64 / m as f64).collect();
        let phi: Vec<f64> = (0..m).map(|i| (i + 1) as f64 / m as f64).collect();
        let mid: Vec<f64> = (0..m)
            .map(|i| ((i * 7919) % m + 1) as f64 / m as f64)
            .collect();
        for c in [crit(lam.clone(), phi.clone()), crit_k(vec![lam, phi, mid])] {
            let n = m / 10;
            let cs = select(&c, n);
            let mut included = vec![false; m];
            for (class, &len) in cs.prefix_lens.iter().enumerate() {
                for &l in &c.ranking(class)[..len] {
                    included[l] = true;
                }
            }
            let rebuilt: Vec<usize> = (0..m).filter(|&i| included[i]).collect();
            assert_eq!(rebuilt, cs.indices);
            assert_eq!(
                cs.indices.len(),
                n,
                "opposed full-mass lists fill n exactly"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_target_rejected() {
        select(&crit(vec![0.1, 0.2], vec![0.3, 0.4]), 0);
    }

    #[test]
    fn union_semantics_keep_overlap_cheap() {
        // Same top link in both classes: overlap means the union of
        // (n1, n2) = (2, 2) prefixes can already fit in n = 3.
        let c = crit(vec![0.9, 0.1, 0.0, 0.0], vec![0.8, 0.0, 0.2, 0.0]);
        let cs = select(&c, 3);
        assert!(cs.indices.contains(&0));
        assert!(cs.indices.len() <= 3);
    }
}
