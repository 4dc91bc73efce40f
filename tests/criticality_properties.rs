//! Property tests on the critical-link machinery (§IV): sample stores,
//! criticality estimates, rank tracking and Algorithm 1.

use dtr::core::criticality::Criticality;
use dtr::core::ranking::weighted_rank_change;
use dtr::core::samples::SampleStore;
use dtr::core::selection;
use dtr::cost::LexCost;
use dtr::mtr::VecCost;
use proptest::prelude::*;

fn arb_store(links: usize) -> impl Strategy<Value = SampleStore> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..1000.0, 0.0f64..100.0), 1..40),
        links..=links,
    )
    .prop_map(move |per_link| {
        let mut s = SampleStore::new(per_link.len());
        for (i, samples) in per_link.iter().enumerate() {
            for &(l, p) in samples {
                s.record(i, &LexCost::new(l, p));
            }
        }
        s
    })
}

/// A k-class store (k ∈ {2, 3}, 2–12 links, 0–5 samples per link) whose
/// sample values are 0, 1 or 2, so exact criticality and error ties are
/// common.
fn arb_coarse_store() -> impl Strategy<Value = SampleStore> {
    (2usize..=3, 2usize..=12).prop_flat_map(|(k, links)| {
        prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u8..3, k), 0..6),
            links,
        )
        .prop_map(move |per_link| {
            let mut s = SampleStore::with_classes(k, per_link.len());
            for (i, samples) in per_link.iter().enumerate() {
                for v in samples {
                    s.record(i, &VecCost::new(v.iter().map(|&x| f64::from(x)).collect()));
                }
            }
            s
        })
    })
}

/// Algorithm 1 as written, k-way: recount the union of the kept prefixes
/// after every step, and shrink the list whose one-step shrink loses the
/// least, the highest class index among ties. Returns the selected
/// indices, the kept prefix lengths and the residual errors.
fn reference_select(crit: &Criticality, n: usize) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let (k, m) = (crit.num_classes(), crit.len());
    let rankings = crit.rankings();
    // Suffix sums folded from the back, as the error of keeping `p`.
    let err = |c: usize, p: usize| -> f64 {
        rankings[c][p..]
            .iter()
            .rev()
            .fold(0.0, |acc, &l| acc + crit.norm[c][l])
    };
    let union = |prefix: &[usize]| -> Vec<usize> {
        let mut kept: Vec<usize> = (0..k)
            .flat_map(|c| rankings[c][..prefix[c]].iter().copied())
            .collect();
        kept.sort_unstable();
        kept.dedup();
        kept
    };
    let mut prefix = vec![m; k];
    while union(&prefix).len() > n.min(m) {
        let victim = (0..k)
            .filter(|&c| prefix[c] > 0)
            .min_by(|&a, &b| {
                err(a, prefix[a] - 1)
                    .partial_cmp(&err(b, prefix[b] - 1))
                    .unwrap()
                    .then(b.cmp(&a))
            })
            .unwrap();
        prefix[victim] -= 1;
    }
    let errors = (0..k).map(|c| err(c, prefix[c])).collect();
    (union(&prefix), prefix, errors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one Algorithm 1 (incremental membership count, k lists)
    /// equals the recounting reference on tie-heavy stores, bit for bit,
    /// at every budget.
    #[test]
    fn selection_matches_recounting_reference_on_ties(store in arb_coarse_store()) {
        let c = Criticality::estimate(&store, 0.34);
        for n in 1..=c.len() {
            let cs = selection::select(&c, n);
            let (indices, prefix_lens, errors) = reference_select(&c, n);
            prop_assert_eq!(&cs.indices, &indices, "n = {}", n);
            prop_assert_eq!(&cs.prefix_lens, &prefix_lens, "n = {}", n);
            let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&cs.residual_errors), bits(&errors), "n = {}", n);
        }
    }

    /// Criticality is always non-negative and bounded by the sample mean
    /// (rho = mean − tail_mean ≤ mean since tail_mean ≥ 0).
    #[test]
    fn criticality_nonnegative_and_bounded(store in arb_store(6)) {
        let c = Criticality::estimate(&store, 0.10);
        for i in 0..c.len() {
            prop_assert!(c.rho[0][i] >= 0.0);
            prop_assert!(c.rho[1][i] >= 0.0);
            let mean = store.stats(0, i, 0.10).unwrap().mean;
            prop_assert!(c.rho[0][i] <= mean + 1e-9);
        }
    }

    /// Normalized criticalities preserve the raw ordering per class.
    #[test]
    fn normalization_preserves_order(store in arb_store(5)) {
        let c = Criticality::estimate(&store, 0.10);
        let raw = dtr::core::criticality::rank_desc(&c.rho[0]);
        let norm = c.ranking(0);
        prop_assert_eq!(raw, norm);
    }

    /// Algorithm 1 returns between 1 and n links, all in range, sorted.
    #[test]
    fn selection_size_and_range(store in arb_store(8), n in 1usize..8) {
        let c = Criticality::estimate(&store, 0.10);
        let cs = selection::select(&c, n);
        prop_assert!(!cs.indices.is_empty());
        prop_assert!(cs.indices.len() <= n);
        prop_assert!(cs.indices.iter().all(|&i| i < 8));
        prop_assert!(cs.indices.windows(2).all(|w| w[0] < w[1]));
        // The kept prefixes are consistent with the reported residuals.
        prop_assert!(cs.residual_errors.iter().all(|&e| e >= 0.0));
    }

    /// Growing the budget never increases the residual errors.
    #[test]
    fn selection_errors_monotone_in_budget(store in arb_store(8)) {
        let c = Criticality::estimate(&store, 0.10);
        let mut prev_l = f64::INFINITY;
        let mut prev_p = f64::INFINITY;
        for n in 1..=8 {
            let cs = selection::select(&c, n);
            prop_assert!(cs.residual_errors[0] <= prev_l + 1e-12);
            prop_assert!(cs.residual_errors[1] <= prev_p + 1e-12);
            prev_l = cs.residual_errors[0];
            prev_p = cs.residual_errors[1];
        }
    }

    /// The rank-change index is zero iff the permutation is unchanged,
    /// symmetric in its arguments, and bounded by the maximum displacement.
    #[test]
    fn rank_change_properties(perm in Just(()).prop_perturb(|_, mut rng| {
        let n = 8usize;
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            v.swap(i, j);
        }
        v
    })) {
        let ident: Vec<usize> = (0..perm.len()).collect();
        let s = weighted_rank_change(&ident, &perm);
        prop_assert!(s >= 0.0);
        prop_assert_eq!(weighted_rank_change(&perm, &perm), 0.0);
        // Symmetry: displacement magnitudes are the same both ways.
        prop_assert!((weighted_rank_change(&perm, &ident) - s).abs() < 1e-12);
        // Bounded by max displacement (weights are a convex combination).
        let max_disp = perm
            .iter()
            .enumerate()
            .map(|(rank, &link)| (link as i64 - rank as i64).unsigned_abs() as f64)
            .fold(0.0f64, f64::max);
        prop_assert!(s <= max_disp + 1e-12);
    }
}

/// Deterministic regression: the convergence criterion is two-sided.
#[test]
fn convergence_needs_both_classes() {
    use dtr::core::ranking::RankTracker;
    let mut t = RankTracker::new();
    assert!(t.update(&[vec![0, 1, 2, 3], vec![0, 1, 2, 3]]).is_none());
    // Lambda ranking scrambles, phi stays: not converged at e = 0.5.
    let c = t.update(&[vec![3, 2, 1, 0], vec![0, 1, 2, 3]]).unwrap();
    assert!(!c.iter().all(|&s| s <= 0.5));
    assert_eq!(c[1], 0.0);
}

/// Three classes: each observation spreads its components over the
/// classes, counts are per link, and the estimate and Algorithm 1 find
/// each class's planted critical link.
#[test]
fn three_class_store_estimate_and_selection() {
    let mut s = SampleStore::with_classes(3, 4);
    assert_eq!((s.num_classes(), s.num_links(), s.total()), (3, 4, 0));
    assert!(s.stats(2, 0, 0.1).is_none());
    // Class c's critical link is link c; link 3 is flat everywhere.
    for i in 0..4 {
        for v in [0.0, 100.0] {
            let mut comps = vec![1.0; 3];
            if i < 3 {
                comps[i] = v;
            }
            s.record(i, &VecCost::new(comps));
        }
    }
    assert_eq!((s.count(0), s.total(), s.min_count()), (2, 8, 2));
    assert_eq!(s.samples(1, 1), &[0.0, 100.0]);
    let st = s.stats(1, 1, 0.5).unwrap();
    assert_eq!((st.mean, st.tail_mean, st.rho()), (50.0, 0.0, 50.0));
    let c = Criticality::estimate(&s, 0.5);
    for class in 0..3 {
        assert_eq!(c.ranking(class)[0], class);
    }
    let cs = selection::select(&c, 3);
    assert_eq!(cs.indices, vec![0, 1, 2]);
    assert_eq!(cs.prefix_lens.len(), 3);
    let all = selection::select(&c, 4);
    assert!(all.residual_errors.iter().all(|&e| e == 0.0));
    // An empty universe selects nothing.
    let empty = Criticality::estimate(&SampleStore::with_classes(3, 0), 0.1);
    assert!(selection::select(&empty, 5).indices.is_empty());
}
