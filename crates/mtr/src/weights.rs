//! k-class weight settings — the optimization variable of generalized MTR.

use dtr_net::{LinkId, Network};
use rand::rngs::StdRng;
use rand::Rng;

/// A full MTR weight setting: `k` integer weights in `[1, wmax]` per
/// directed link, one per traffic class. The k-class generalization of
/// `dtr_routing::WeightSetting`.
#[derive(Debug, PartialEq, Eq)]
pub struct MtrWeightSetting {
    /// `per_class[k][l]` = weight of link `l` in class `k`'s topology.
    per_class: Vec<Vec<u32>>,
    wmax: u32,
}

/// Manual impl so `clone_from` reuses the destination's buffers (the
/// search copies an accepted setting into its best, and an archived
/// setting into the current one on a restart, with `clone_from`;
/// `Vec::clone_from` keeps both nesting levels allocation-free in
/// steady state).
impl Clone for MtrWeightSetting {
    fn clone(&self) -> Self {
        MtrWeightSetting {
            per_class: self.per_class.clone(),
            wmax: self.wmax,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.per_class.clone_from(&source.per_class);
        self.wmax = source.wmax;
    }
}

impl dtr_core::search::ClassWeights for MtrWeightSetting {
    fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    fn class_weights(&self, k: usize) -> &[u32] {
        &self.per_class[k]
    }

    fn wmax(&self) -> u32 {
        self.wmax
    }

    fn from_class_vecs(vecs: Vec<Vec<u32>>, wmax: u32) -> Self {
        MtrWeightSetting::from_vecs(vecs, wmax)
    }
}

impl MtrWeightSetting {
    /// All weights 1 (hop-count routing in every topology).
    pub fn uniform(num_classes: usize, num_links: usize, wmax: u32) -> Self {
        assert!(num_classes >= 1, "at least one class");
        assert!(wmax >= 1, "wmax must be at least 1");
        MtrWeightSetting {
            per_class: vec![vec![1; num_links]; num_classes],
            wmax,
        }
    }

    /// Independent uniform random weights for every (class, link) slot.
    pub fn random(num_classes: usize, num_links: usize, wmax: u32, rng: &mut impl Rng) -> Self {
        assert!(num_classes >= 1, "at least one class");
        assert!(wmax >= 1, "wmax must be at least 1");
        MtrWeightSetting {
            per_class: (0..num_classes)
                .map(|_| (0..num_links).map(|_| rng.gen_range(1..=wmax)).collect())
                .collect(),
            wmax,
        }
    }

    /// Random *symmetric* setting: both directions of every duplex link
    /// share the same weight within each class (standard IGP practice and
    /// what the DTR search uses).
    pub fn random_symmetric(
        num_classes: usize,
        net: &Network,
        wmax: u32,
        rng: &mut StdRng,
    ) -> Self {
        let mut w = MtrWeightSetting::uniform(num_classes, net.num_links(), wmax);
        for rep in net.duplex_representatives() {
            for k in 0..num_classes {
                let v = rng.gen_range(1..=wmax);
                w.set_duplex(net, k, rep, v);
            }
        }
        w
    }

    /// Build from explicit per-class vectors.
    ///
    /// # Panics
    /// Panics if the vectors differ in length or any weight is outside
    /// `[1, wmax]`.
    pub fn from_vecs(per_class: Vec<Vec<u32>>, wmax: u32) -> Self {
        assert!(!per_class.is_empty(), "at least one class");
        assert!(wmax >= 1);
        let len = per_class[0].len();
        for v in &per_class {
            assert_eq!(v.len(), len, "class vectors differ in length");
            for &w in v {
                assert!((1..=wmax).contains(&w), "weight {w} outside [1, {wmax}]");
            }
        }
        MtrWeightSetting { per_class, wmax }
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.per_class.len()
    }

    /// Number of links covered.
    pub fn num_links(&self) -> usize {
        self.per_class[0].len()
    }

    /// Maximum allowed weight.
    pub fn wmax(&self) -> u32 {
        self.wmax
    }

    /// Weight of link `l` in class `k`'s topology.
    #[inline]
    pub fn get(&self, k: usize, l: LinkId) -> u32 {
        self.per_class[k][l.index()]
    }

    /// Set the weight of link `l` for class `k`.
    ///
    /// # Panics
    /// Panics if `w` is outside `[1, wmax]`.
    pub fn set(&mut self, k: usize, l: LinkId, w: u32) {
        assert!(
            (1..=self.wmax).contains(&w),
            "weight {w} outside [1, {}]",
            self.wmax
        );
        self.per_class[k][l.index()] = w;
    }

    /// Set both directions of the physical link represented by `rep` to
    /// weight `w` in class `k` (symmetric perturbation).
    pub fn set_duplex(&mut self, net: &Network, k: usize, rep: LinkId, w: u32) {
        self.set(k, rep, w);
        if let Some(rev) = net.reverse_link(rep) {
            self.set(k, rev, w);
        }
    }

    /// Weight slice of class `k` (what the per-class SPF consumes).
    #[inline]
    pub fn weights(&self, k: usize) -> &[u32] {
        &self.per_class[k]
    }

    /// The k weights of link `l`, in class order.
    pub fn link_weights(&self, l: LinkId) -> Vec<u32> {
        self.per_class.iter().map(|v| v[l.index()]).collect()
    }

    /// Number of (class, link) slots that differ from `other`.
    pub fn hamming_distance(&self, other: &MtrWeightSetting) -> usize {
        assert_eq!(self.num_classes(), other.num_classes());
        assert_eq!(self.num_links(), other.num_links());
        self.per_class
            .iter()
            .zip(&other.per_class)
            .flat_map(|(a, b)| a.iter().zip(b))
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Project onto a DTR [`dtr_routing::WeightSetting`] when `k == 2`
    /// (class 0 → delay, class 1 → throughput) — the bridge used by the
    /// differential tests against the DTR engine.
    ///
    /// # Panics
    /// Panics unless `k == 2`.
    pub fn to_dtr(&self) -> dtr_routing::WeightSetting {
        assert_eq!(
            self.num_classes(),
            2,
            "DTR projection needs exactly 2 classes"
        );
        dtr_routing::WeightSetting::from_vecs(
            self.per_class[0].clone(),
            self.per_class[1].clone(),
            self.wmax,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_core::search::ClassWeights;
    use dtr_net::{NetworkBuilder, Point};
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
    fn uniform_is_all_ones_in_every_class() {
        let w = MtrWeightSetting::uniform(3, 4, 20);
        for k in 0..3 {
            for l in 0..4 {
                assert_eq!(w.get(k, LinkId::new(l)), 1);
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = MtrWeightSetting::random(3, 50, 20, &mut rng);
        for k in 0..3 {
            assert!(a.weights(k).iter().all(|&w| (1..=20).contains(&w)));
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(a, MtrWeightSetting::random(3, 50, 20, &mut rng));
    }

    #[test]
    fn symmetric_setting_agrees_across_duplex_pairs() {
        let net = ring(5);
        let mut rng = StdRng::seed_from_u64(9);
        let w = MtrWeightSetting::random_symmetric(3, &net, 20, &mut rng);
        for rep in net.duplex_representatives() {
            let rev = net.reverse_link(rep).unwrap();
            for k in 0..3 {
                assert_eq!(w.get(k, rep), w.get(k, rev));
            }
        }
    }

    #[test]
    fn set_get_round_trip_per_class() {
        let mut w = MtrWeightSetting::uniform(2, 3, 20);
        w.set(1, LinkId::new(2), 7);
        assert_eq!(w.get(1, LinkId::new(2)), 7);
        assert_eq!(w.get(0, LinkId::new(2)), 1);
        assert_eq!(w.link_weights(LinkId::new(2)), vec![1, 7]);
    }

    #[test]
    fn failure_emulation_requires_all_classes_in_band() {
        let mut w = MtrWeightSetting::uniform(3, 2, 20);
        let l = LinkId::new(0);
        w.set(0, l, 14);
        w.set(1, l, 20);
        w.set(2, l, 13); // one class below the q=0.7 floor of 14
        assert!(!w.emulates_failure(l, 0.7));
        w.set(2, l, 14);
        assert!(w.emulates_failure(l, 0.7));
    }

    #[test]
    fn hamming_distance_counts_class_link_slots() {
        let a = MtrWeightSetting::uniform(2, 3, 20);
        let mut b = a.clone();
        b.set(0, LinkId::new(0), 2);
        b.set(1, LinkId::new(2), 9);
        assert_eq!(a.hamming_distance(&b), 2);
    }

    #[test]
    fn dtr_projection_round_trips() {
        let mut w = MtrWeightSetting::uniform(2, 3, 20);
        w.set(0, LinkId::new(1), 5);
        w.set(1, LinkId::new(2), 8);
        let d = w.to_dtr();
        assert_eq!(d.get(dtr_routing::Class::Delay, LinkId::new(1)), 5);
        assert_eq!(d.get(dtr_routing::Class::Throughput, LinkId::new(2)), 8);
    }

    #[test]
    #[should_panic(expected = "exactly 2 classes")]
    fn dtr_projection_rejects_other_arity() {
        MtrWeightSetting::uniform(3, 2, 20).to_dtr();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_weight_rejected() {
        MtrWeightSetting::uniform(1, 2, 20).set(0, LinkId::new(0), 21);
    }
}
