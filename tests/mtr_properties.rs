//! Property-based tests of the generalized MTR primitives: the k-vector
//! lexicographic order, the k-class weight setting, and the k-way
//! Algorithm 1 merge.

use dtr::core::samples::SampleStore;
use dtr::mtr::{select_k, KWayCriticality, VecCost};
use dtr::routing::WeightSetting;
use proptest::prelude::*;

fn cost_vec(k: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..1e6f64, k)
}

proptest! {
    #[test]
    fn veccost_order_is_antisymmetric(a in cost_vec(3), b in cost_vec(3)) {
        let ca = VecCost::new(a);
        let cb = VecCost::new(b);
        // better_than is a strict order: never both directions.
        prop_assert!(!(ca.better_than(&cb) && cb.better_than(&ca)));
    }

    #[test]
    fn veccost_order_is_irreflexive(a in cost_vec(4)) {
        let c = VecCost::new(a);
        prop_assert!(!c.better_than(&c.clone()));
    }

    #[test]
    fn veccost_add_is_commutative_and_componentwise(a in cost_vec(3), b in cost_vec(3)) {
        let ca = VecCost::new(a.clone());
        let cb = VecCost::new(b.clone());
        prop_assert_eq!(ca.add(&cb), cb.add(&ca));
        let sum = ca.add(&cb);
        for i in 0..3 {
            prop_assert!((sum.component(i) - (a[i] + b[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn veccost_scale_is_linear(a in cost_vec(2), f in 0.0..100.0f64) {
        let c = VecCost::new(a.clone());
        let s = c.scale(f);
        #[allow(clippy::needless_range_loop)]
        for i in 0..2 {
            prop_assert!((s.component(i) - a[i] * f).abs() < 1e-6 * (1.0 + a[i] * f));
        }
    }

    #[test]
    fn veccost_strict_dominance_implies_better(
        a in cost_vec(3),
        bumps in proptest::collection::vec(0.001..1e3f64, 3),
    ) {
        // b strictly dominates a component-wise => a better_than b.
        let worse: Vec<f64> = a.iter().zip(&bumps).map(|(x, d)| x + d).collect();
        let ca = VecCost::new(a);
        let cb = VecCost::new(worse);
        prop_assert!(ca.better_than(&cb));
        prop_assert!(!cb.better_than(&ca));
    }

    #[test]
    fn weight_setting_random_stays_in_range(
        classes in 1usize..5,
        links in 1usize..40,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w = WeightSetting::random_k(classes, links, 20, &mut rng);
        for k in 0..classes {
            prop_assert!(w.weights(k).iter().all(|&x| (1..=20).contains(&x)));
        }
    }

    #[test]
    fn hamming_distance_is_a_metric_on_settings(
        links in 1usize..20,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = WeightSetting::random_k(2, links, 20, &mut rng);
        let b = WeightSetting::random_k(2, links, 20, &mut rng);
        let c = WeightSetting::random_k(2, links, 20, &mut rng);
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(a.hamming_distance(&a), 0);
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert!(
            a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c)
        );
    }

    #[test]
    fn emulation_band_is_monotone_in_q(
        seed in any::<u64>(),
        q_lo in 0.1..0.5f64,
        q_hi in 0.5..0.95f64,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w = WeightSetting::random_k(3, 10, 20, &mut rng);
        for l in 0..10 {
            let l = dtr::net::LinkId::new(l);
            // Emulating at the tighter (higher) q implies emulating at the
            // looser one.
            if w.emulates_failure(l, q_hi) {
                prop_assert!(w.emulates_failure(l, q_lo));
            }
        }
    }

    #[test]
    fn select_k_respects_target_and_returns_sorted_unique(
        samples in proptest::collection::vec(
            proptest::collection::vec(cost_vec(3), 2..6), // per link: >=2 obs
            1..12,                                         // links
        ),
        n in 1usize..12,
    ) {
        let links = samples.len();
        let mut store = SampleStore::with_classes(3, links);
        for (i, obs) in samples.iter().enumerate() {
            for o in obs {
                store.record(i, &VecCost::new(o.clone()));
            }
        }
        let crit = KWayCriticality::estimate(&store, 0.1);
        let sel = select_k(&crit, n);
        prop_assert!(sel.indices.len() <= n.min(links));
        prop_assert!(sel.indices.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(sel.indices.iter().all(|&i| i < links));
        // Residual errors are non-negative and no larger than the total
        // criticality mass of the class.
        for c in 0..3 {
            let total: f64 = crit.norm[c].iter().sum();
            prop_assert!(sel.residual_errors[c] >= -1e-12);
            prop_assert!(sel.residual_errors[c] <= total + 1e-9);
        }
    }

    #[test]
    fn select_k_errors_shrink_as_budget_grows(
        samples in proptest::collection::vec(
            proptest::collection::vec(cost_vec(2), 3..6),
            2..10,
        ),
    ) {
        let links = samples.len();
        let mut store = SampleStore::with_classes(2, links);
        for (i, obs) in samples.iter().enumerate() {
            for o in obs {
                store.record(i, &VecCost::new(o.clone()));
            }
        }
        let crit = KWayCriticality::estimate(&store, 0.1);
        let mut prev: Option<Vec<f64>> = None;
        for n in 1..=links {
            let sel = select_k(&crit, n);
            if let Some(p) = prev {
                #[allow(clippy::needless_range_loop)]
                for c in 0..2 {
                    prop_assert!(
                        sel.residual_errors[c] <= p[c] + 1e-12,
                        "error grew from {} to {} at n={}",
                        p[c], sel.residual_errors[c], n
                    );
                }
            }
            prev = Some(sel.residual_errors.clone());
        }
    }

    #[test]
    fn criticality_is_nonnegative_and_normalization_bounded(
        samples in proptest::collection::vec(
            proptest::collection::vec(cost_vec(2), 1..8),
            1..10,
        ),
    ) {
        let links = samples.len();
        let mut store = SampleStore::with_classes(2, links);
        for (i, obs) in samples.iter().enumerate() {
            for o in obs {
                store.record(i, &VecCost::new(o.clone()));
            }
        }
        let crit = KWayCriticality::estimate(&store, 0.1);
        for c in 0..2 {
            for i in 0..links {
                prop_assert!(crit.rho[c][i] >= 0.0);
                prop_assert!(crit.norm[c][i] >= 0.0);
                prop_assert!(crit.norm[c][i].is_finite());
            }
        }
    }
}
