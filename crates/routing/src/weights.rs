//! The weight setting — the optimization variable, one integer weight
//! vector per traffic class. DTR's setting is its two-class case.

use dtr_net::{LinkId, Network};
use rand::Rng;

/// Traffic class selector (§III): each link carries one weight per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Delay-sensitive traffic, routed by `W^D` (class 0).
    Delay,
    /// Throughput-sensitive traffic, routed by `W^T` (class 1).
    Throughput,
}

impl Class {
    /// Both classes, in the paper's precedence order (delay first).
    pub const ALL: [Class; 2] = [Class::Delay, Class::Throughput];
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Class::Delay => write!(f, "delay"),
            Class::Throughput => write!(f, "throughput"),
        }
    }
}

/// Names a class of a [`WeightSetting`]: DTR's [`Class`] or a k-class
/// position `usize`. With only these two implementations an integer
/// literal (`w.weights(0)`) infers `usize`.
pub trait ClassIndex: Copy {
    /// Position of the class in the setting's class order.
    fn index(self) -> usize;
}

impl ClassIndex for Class {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl ClassIndex for usize {
    #[inline]
    fn index(self) -> usize {
        self
    }
}

/// A full weight setting: `k` integer weights in `[1, wmax]` per
/// directed link, one per traffic class. DTR's `W = ⋃_l {W_l^D, W_l^T}`
/// (§III) is the k = 2 case, class 0 delay and class 1 throughput.
/// Integer weights in a bounded range are the standard IGP convention
/// (the paper perturbs weights within `[1, wmax]` and emulates failures
/// by weights near `wmax`).
#[derive(Debug, PartialEq, Eq)]
pub struct WeightSetting {
    /// `per_class[k][l]` = weight of link `l` in class `k`'s topology.
    per_class: Vec<Vec<u32>>,
    wmax: u32,
}

/// Manual impl so `clone_from` reuses the destination's buffers — the
/// search copies an accepted setting into its best, and an archived
/// setting into the current one on a restart, with `clone_from`, which
/// must not allocate in steady state (`Vec::clone_from` keeps both
/// nesting levels allocation-free).
impl Clone for WeightSetting {
    fn clone(&self) -> Self {
        WeightSetting {
            per_class: self.per_class.clone(),
            wmax: self.wmax,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.per_class.clone_from(&source.per_class);
        self.wmax = source.wmax;
    }
}

impl WeightSetting {
    /// Two classes, all weights 1 (pure hop-count routing in both
    /// topologies).
    pub fn uniform(num_links: usize, wmax: u32) -> Self {
        WeightSetting::uniform_k(Class::ALL.len(), num_links, wmax)
    }

    /// `num_classes` classes, all weights 1.
    pub fn uniform_k(num_classes: usize, num_links: usize, wmax: u32) -> Self {
        assert!(num_classes >= 1, "at least one class");
        assert!(wmax >= 1, "wmax must be at least 1");
        WeightSetting {
            per_class: vec![vec![1; num_links]; num_classes],
            wmax,
        }
    }

    /// Two classes of independent uniform random weights in `[1, wmax]`
    /// — the diversification restart state of the paper's local search
    /// (§IV-A).
    pub fn random(num_links: usize, wmax: u32, rng: &mut impl Rng) -> Self {
        WeightSetting::random_k(Class::ALL.len(), num_links, wmax, rng)
    }

    /// Independent uniform random weights for every (class, link) slot,
    /// drawn class by class.
    pub fn random_k(num_classes: usize, num_links: usize, wmax: u32, rng: &mut impl Rng) -> Self {
        assert!(num_classes >= 1, "at least one class");
        assert!(wmax >= 1, "wmax must be at least 1");
        WeightSetting {
            per_class: (0..num_classes)
                .map(|_| (0..num_links).map(|_| rng.gen_range(1..=wmax)).collect())
                .collect(),
            wmax,
        }
    }

    /// Random *symmetric* setting of `num_classes` classes: both
    /// directions of every duplex link share the same weight within each
    /// class (standard IGP practice and what the search uses).
    pub fn random_symmetric(
        num_classes: usize,
        net: &Network,
        wmax: u32,
        rng: &mut impl Rng,
    ) -> Self {
        let mut w = WeightSetting::uniform_k(num_classes, net.num_links(), wmax);
        for rep in net.duplex_representatives() {
            for k in 0..num_classes {
                let v = rng.gen_range(1..=wmax);
                w.set_duplex(net, k, rep, v);
            }
        }
        w
    }

    /// Two classes from explicit delay and throughput vectors.
    ///
    /// # Panics
    /// Panics if the vectors differ in length or any weight is outside
    /// `[1, wmax]`.
    pub fn from_vecs(delay: Vec<u32>, throughput: Vec<u32>, wmax: u32) -> Self {
        WeightSetting::from_class_vecs(vec![delay, throughput], wmax)
    }

    /// Build from explicit per-class vectors, in class order.
    ///
    /// # Panics
    /// Panics if there is no class, the vectors differ in length or any
    /// weight is outside `[1, wmax]`.
    pub fn from_class_vecs(per_class: Vec<Vec<u32>>, wmax: u32) -> Self {
        assert!(!per_class.is_empty(), "at least one class");
        assert!(wmax >= 1);
        let len = per_class[0].len();
        for v in &per_class {
            assert_eq!(v.len(), len, "class vectors differ in length");
            for &w in v {
                assert!((1..=wmax).contains(&w), "weight {w} outside [1, {wmax}]");
            }
        }
        WeightSetting { per_class, wmax }
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    /// Number of links covered.
    pub fn num_links(&self) -> usize {
        self.per_class[0].len()
    }

    /// Maximum allowed weight `wmax`.
    pub fn wmax(&self) -> u32 {
        self.wmax
    }

    /// Weight of link `l` for `class`.
    #[inline]
    pub fn get(&self, class: impl ClassIndex, l: LinkId) -> u32 {
        self.per_class[class.index()][l.index()]
    }

    /// Set the weight of link `l` for `class`.
    ///
    /// # Panics
    /// Panics if `w` is outside `[1, wmax]`.
    pub fn set(&mut self, class: impl ClassIndex, l: LinkId, w: u32) {
        assert!(
            (1..=self.wmax).contains(&w),
            "weight {w} outside [1, {}]",
            self.wmax
        );
        self.per_class[class.index()][l.index()] = w;
    }

    /// Set both directions of the physical link represented by `rep` to
    /// weight `w` for `class` (symmetric perturbation).
    pub fn set_duplex(&mut self, net: &Network, class: impl ClassIndex, rep: LinkId, w: u32) {
        self.set(class, rep, w);
        if let Some(rev) = net.reverse_link(rep) {
            self.set(class, rev, w);
        }
    }

    /// Full weight slice for `class` (indexed by link id) — what the SPF
    /// consumes.
    #[inline]
    pub fn weights(&self, class: impl ClassIndex) -> &[u32] {
        &self.per_class[class.index()]
    }

    /// The k weights of link `l`, in class order.
    pub fn link_weights(&self, l: LinkId) -> Vec<u32> {
        self.per_class.iter().map(|v| v[l.index()]).collect()
    }

    /// Number of (class, link) slots whose weight differs from `other` —
    /// a distance measure between solutions in reports and tests.
    pub fn hamming_distance(&self, other: &WeightSetting) -> usize {
        assert_eq!(self.num_classes(), other.num_classes());
        assert_eq!(self.num_links(), other.num_links());
        self.per_class
            .iter()
            .zip(&other.per_class)
            .flat_map(|(a, b)| a.iter().zip(b))
            .filter(|(a, b)| a != b)
            .count()
    }

    /// `true` if link `l`'s weight in **every** class lies in
    /// `[⌈q·wmax⌉, wmax]` — the paper's criterion for a perturbation that
    /// *emulates the failure* of link `l` (§IV-D1: assigning a large
    /// enough weight to a link has a similar effect on routing as failing
    /// it; with several classes, only when every topology shuns the link
    /// does the perturbation emulate its failure for all of them).
    pub fn emulates_failure(&self, l: LinkId, q: f64) -> bool {
        let floor = (q * self.wmax as f64).ceil() as u32;
        self.per_class.iter().all(|v| v[l.index()] >= floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_net::{NetworkBuilder, Point};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> Network {
        let mut b = NetworkBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node(Point::ORIGIN)).collect();
        for i in 0..n {
            b.add_duplex_link(ids[i], ids[(i + 1) % n], 1e6, 1e-3)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn uniform_is_all_ones() {
        let w = WeightSetting::uniform(5, 20);
        assert_eq!(w.num_classes(), 2);
        for i in 0..5 {
            assert_eq!(w.get(Class::Delay, LinkId::new(i)), 1);
            assert_eq!(w.get(Class::Throughput, LinkId::new(i)), 1);
        }
    }

    #[test]
    fn uniform_k_is_all_ones_in_every_class() {
        let w = WeightSetting::uniform_k(3, 4, 20);
        for k in 0..3 {
            for l in 0..4 {
                assert_eq!(w.get(k, LinkId::new(l)), 1);
            }
        }
    }

    #[test]
    fn random_in_range_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = WeightSetting::random(100, 20, &mut rng);
        for c in Class::ALL {
            assert!(a.weights(c).iter().all(|&w| (1..=20).contains(&w)));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let b = WeightSetting::random(100, 20, &mut rng);
        assert_eq!(a, b);
    }

    /// The two-class constructors are the k-class ones at k = 2, draw
    /// for draw.
    #[test]
    fn two_class_constructors_are_k_equals_two() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        assert_eq!(
            WeightSetting::random(50, 20, &mut r1),
            WeightSetting::random_k(2, 50, 20, &mut r2)
        );
        assert_eq!(
            WeightSetting::uniform(7, 20),
            WeightSetting::uniform_k(2, 7, 20)
        );
        let w = WeightSetting::from_vecs(vec![1, 2], vec![3, 4], 20);
        assert_eq!(
            w,
            WeightSetting::from_class_vecs(vec![vec![1, 2], vec![3, 4]], 20)
        );
        assert_eq!(w.weights(Class::Throughput), w.weights(1));
    }

    #[test]
    fn symmetric_setting_agrees_across_duplex_pairs() {
        let net = ring(5);
        let mut rng = StdRng::seed_from_u64(9);
        let w = WeightSetting::random_symmetric(3, &net, 20, &mut rng);
        for rep in net.duplex_representatives() {
            let rev = net.reverse_link(rep).unwrap();
            for k in 0..3 {
                assert_eq!(w.get(k, rep), w.get(k, rev));
            }
        }
    }

    #[test]
    fn set_get_round_trip() {
        let mut w = WeightSetting::uniform(3, 20);
        w.set(Class::Delay, LinkId::new(1), 17);
        assert_eq!(w.get(Class::Delay, LinkId::new(1)), 17);
        assert_eq!(w.get(Class::Throughput, LinkId::new(1)), 1);
        w.set(1, LinkId::new(2), 7);
        assert_eq!(w.get(Class::Throughput, LinkId::new(2)), 7);
        assert_eq!(w.link_weights(LinkId::new(2)), vec![1, 7]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn zero_weight_rejected() {
        WeightSetting::uniform(2, 20).set(Class::Delay, LinkId::new(0), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn overweight_rejected() {
        WeightSetting::uniform(2, 20).set(Class::Throughput, LinkId::new(0), 21);
    }

    #[test]
    fn failure_emulation_band() {
        let mut w = WeightSetting::uniform(2, 20);
        let l = LinkId::new(0);
        // q = 0.7 -> floor = 14.
        w.set(Class::Delay, l, 14);
        w.set(Class::Throughput, l, 20);
        assert!(w.emulates_failure(l, 0.7));
        w.set(Class::Throughput, l, 13);
        assert!(!w.emulates_failure(l, 0.7));
        assert!(!w.emulates_failure(LinkId::new(1), 0.7)); // both at 1
    }

    #[test]
    fn failure_emulation_requires_all_classes_in_band() {
        let mut w = WeightSetting::uniform_k(3, 2, 20);
        let l = LinkId::new(0);
        w.set(0, l, 14);
        w.set(1, l, 20);
        w.set(2, l, 13); // one class below the q=0.7 floor of 14
        assert!(!w.emulates_failure(l, 0.7));
        w.set(2, l, 14);
        assert!(w.emulates_failure(l, 0.7));
    }

    #[test]
    fn hamming_distance_counts_slots() {
        let a = WeightSetting::uniform(3, 20);
        let mut b = a.clone();
        assert_eq!(a.hamming_distance(&b), 0);
        b.set(Class::Delay, LinkId::new(0), 5);
        b.set(Class::Throughput, LinkId::new(2), 9);
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn from_vecs_validates() {
        let w = WeightSetting::from_vecs(vec![1, 2], vec![3, 4], 20);
        assert_eq!(w.get(Class::Throughput, LinkId::new(1)), 4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn from_vecs_rejects_out_of_range() {
        WeightSetting::from_vecs(vec![1, 25], vec![3, 4], 20);
    }
}
