//! The DTR weight setting — the optimization variable.

use dtr_net::LinkId;
use rand::Rng;

/// Traffic class selector (§III): each link carries one weight per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// Delay-sensitive traffic, routed by `W^D`.
    Delay,
    /// Throughput-sensitive traffic, routed by `W^T`.
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

/// A full DTR weight setting `W = ⋃_l {W_l^D, W_l^T}` (§III): two integer
/// weights in `[1, wmax]` per directed link. Integer weights in a bounded
/// range are the standard IGP convention (the paper perturbs weights within
/// `[1, wmax]` and emulates failures by weights near `wmax`).
#[derive(Debug, PartialEq, Eq)]
pub struct WeightSetting {
    delay: Vec<u32>,
    throughput: Vec<u32>,
    wmax: u32,
}

/// Manual impl so `clone_from` reuses the destination's buffers — the
/// search copies an accepted setting into its best, and an archived
/// setting into the current one on a restart, with `clone_from`, which
/// must not allocate in steady state.
impl Clone for WeightSetting {
    fn clone(&self) -> Self {
        WeightSetting {
            delay: self.delay.clone(),
            throughput: self.throughput.clone(),
            wmax: self.wmax,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.delay.clone_from(&source.delay);
        self.throughput.clone_from(&source.throughput);
        self.wmax = source.wmax;
    }
}

impl WeightSetting {
    /// All weights set to 1 (pure hop-count routing in both topologies).
    pub fn uniform(num_links: usize, wmax: u32) -> Self {
        assert!(wmax >= 1, "wmax must be at least 1");
        WeightSetting {
            delay: vec![1; num_links],
            throughput: vec![1; num_links],
            wmax,
        }
    }

    /// Independent uniform random weights in `[1, wmax]` for every link and
    /// class — the diversification restart state of the paper's local
    /// search (§IV-A).
    pub fn random(num_links: usize, wmax: u32, rng: &mut impl Rng) -> Self {
        assert!(wmax >= 1, "wmax must be at least 1");
        WeightSetting {
            delay: (0..num_links).map(|_| rng.gen_range(1..=wmax)).collect(),
            throughput: (0..num_links).map(|_| rng.gen_range(1..=wmax)).collect(),
            wmax,
        }
    }

    /// Build from explicit per-class weight vectors.
    ///
    /// # Panics
    /// Panics if the vectors differ in length or any weight is outside
    /// `[1, wmax]`.
    pub fn from_vecs(delay: Vec<u32>, throughput: Vec<u32>, wmax: u32) -> Self {
        assert_eq!(delay.len(), throughput.len(), "class vectors differ");
        assert!(wmax >= 1);
        for &w in delay.iter().chain(&throughput) {
            assert!((1..=wmax).contains(&w), "weight {w} outside [1, {wmax}]");
        }
        WeightSetting {
            delay,
            throughput,
            wmax,
        }
    }

    /// Number of links covered.
    pub fn num_links(&self) -> usize {
        self.delay.len()
    }

    /// Maximum allowed weight `wmax`.
    pub fn wmax(&self) -> u32 {
        self.wmax
    }

    /// Weight of link `l` for `class`.
    #[inline]
    pub fn get(&self, class: Class, l: LinkId) -> u32 {
        match class {
            Class::Delay => self.delay[l.index()],
            Class::Throughput => self.throughput[l.index()],
        }
    }

    /// Set the weight of link `l` for `class`.
    ///
    /// # Panics
    /// Panics if `w` is outside `[1, wmax]`.
    pub fn set(&mut self, class: Class, l: LinkId, w: u32) {
        assert!(
            (1..=self.wmax).contains(&w),
            "weight {w} outside [1, {}]",
            self.wmax
        );
        match class {
            Class::Delay => self.delay[l.index()] = w,
            Class::Throughput => self.throughput[l.index()] = w,
        }
    }

    /// Full weight slice for `class` (indexed by link id) — what the SPF
    /// consumes.
    #[inline]
    pub fn weights(&self, class: Class) -> &[u32] {
        match class {
            Class::Delay => &self.delay,
            Class::Throughput => &self.throughput,
        }
    }

    /// Number of (link, class) slots whose weight differs from `other` —
    /// a useful distance measure between solutions in reports/tests.
    pub fn hamming_distance(&self, other: &WeightSetting) -> usize {
        assert_eq!(self.num_links(), other.num_links());
        self.delay
            .iter()
            .zip(&other.delay)
            .chain(self.throughput.iter().zip(&other.throughput))
            .filter(|(a, b)| a != b)
            .count()
    }
}

/// A weight setting viewed as one integer weight vector per traffic
/// class: what the k-class evaluation engine routes on, the search
/// archive fingerprints and the snapshot codec stores. DTR's
/// [`WeightSetting`] is its two-class instance.
pub trait ClassWeights: Clone + PartialEq + std::fmt::Debug + Send + Sync {
    /// Number of classes.
    fn num_classes(&self) -> usize;
    /// Per-link weights of class `k`.
    fn class_weights(&self, k: usize) -> &[u32];
    /// Largest allowed weight.
    fn wmax(&self) -> u32;
    /// Rebuild a setting from per-class vectors (snapshot decoding; the
    /// caller has checked their lengths and range).
    fn from_class_vecs(vecs: Vec<Vec<u32>>, wmax: u32) -> Self;

    /// `true` if link `l`'s weight in **every** class lies in
    /// `[⌈q·wmax⌉, wmax]` — the paper's criterion for a perturbation that
    /// *emulates the failure* of link `l` (§IV-D1: assigning a large
    /// enough weight to a link has a similar effect on routing as failing
    /// it; with several classes, only when every topology shuns the link
    /// does the perturbation emulate its failure for all of them).
    fn emulates_failure(&self, l: LinkId, q: f64) -> bool {
        let floor = (q * self.wmax() as f64).ceil() as u32;
        (0..self.num_classes()).all(|k| self.class_weights(k)[l.index()] >= floor)
    }
}

impl ClassWeights for WeightSetting {
    fn num_classes(&self) -> usize {
        Class::ALL.len()
    }

    #[inline]
    fn class_weights(&self, k: usize) -> &[u32] {
        self.weights(Class::ALL[k])
    }

    fn wmax(&self) -> u32 {
        self.wmax
    }

    fn from_class_vecs(vecs: Vec<Vec<u32>>, wmax: u32) -> Self {
        let [delay, throughput]: [Vec<u32>; 2] = vecs
            .try_into()
            .expect("a DTR weight setting has two classes");
        WeightSetting::from_vecs(delay, throughput, wmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_is_all_ones() {
        let w = WeightSetting::uniform(5, 20);
        for i in 0..5 {
            assert_eq!(w.get(Class::Delay, LinkId::new(i)), 1);
            assert_eq!(w.get(Class::Throughput, LinkId::new(i)), 1);
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

    #[test]
    fn set_get_round_trip() {
        let mut w = WeightSetting::uniform(3, 20);
        w.set(Class::Delay, LinkId::new(1), 17);
        assert_eq!(w.get(Class::Delay, LinkId::new(1)), 17);
        assert_eq!(w.get(Class::Throughput, LinkId::new(1)), 1);
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
