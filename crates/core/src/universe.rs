//! The failure universe: which physical links can fail, and the mapping
//! between duplex links and the perturbation/criticality bookkeeping.

use std::collections::HashMap;

use dtr_net::{LinkId, Network};
use dtr_routing::Scenario;

/// The set of physical (duplex) links the optimization reasons about.
///
/// * Perturbations operate on *duplex* links: one move re-draws the two
///   class weights of a physical link and applies them to both directions
///   symmetrically (operators configure symmetric IGP metrics, and the
///   paper's failure emulation — both class weights near `wmax` — only
///   corresponds to a physical failure if both directions move together).
/// * Failure scenarios are the *survivable* duplex failures: physical
///   links whose loss keeps the network strongly connected. Cut links are
///   excluded (no routing can mitigate a partition, so they carry no
///   optimization signal).
#[derive(Clone, Debug)]
pub struct FailureUniverse {
    /// One representative directed link id per physical link
    /// (`Network::duplex_representatives`), *all* physical links.
    pub all_duplex: Vec<LinkId>,
    /// Subset of `all_duplex` whose failure is survivable — the unit of
    /// criticality and the failure enumeration set. Index into this vec is
    /// the "failure index" used by samples/criticality/selection.
    pub failable: Vec<LinkId>,
    /// Reverse map from duplex representative to failure index, built once
    /// in [`FailureUniverse::of`] so the hot sample-harvest path does not
    /// pay a linear scan per proposal.
    index: HashMap<LinkId, usize>,
}

impl FailureUniverse {
    /// Analyze `net` once (bridge detection) and build the universe.
    pub fn of(net: &Network) -> Self {
        let all_duplex = net.duplex_representatives();
        let failable = dtr_net::bridges::survivable_duplex_failures(net);
        let index = failable.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        FailureUniverse {
            all_duplex,
            failable,
            index,
        }
    }

    /// A universe with no links at all. Backs scenario sets that are not
    /// derived from a network's duplex links (e.g. the
    /// [`crate::scenario::SliceSet`] adapter over an arbitrary scenario
    /// slice): Phase-1 sampling has nothing to perturb there, and
    /// criticality selection does not apply.
    pub fn empty() -> Self {
        FailureUniverse {
            all_duplex: Vec::new(),
            failable: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of **failable** physical links — the failure-scenario count
    /// (`|E|` in the paper's Phase-2 accounting; its well-connected
    /// topologies have no bridges, so this equals the physical link count
    /// there). Bridges are excluded: use [`FailureUniverse::total_duplex`]
    /// for the full physical link count.
    pub fn len(&self) -> usize {
        self.failable.len()
    }

    /// `true` when nothing can fail survivably (degenerate topologies).
    /// Mirrors [`FailureUniverse::len`]: a bridge-only network is "empty"
    /// even though it has physical links.
    pub fn is_empty(&self) -> bool {
        self.failable.is_empty()
    }

    /// Number of physical (duplex) links, bridges included — the
    /// perturbation set of the Phase-1 search. Prefer this accessor over
    /// reaching into `all_duplex` directly.
    pub fn total_duplex(&self) -> usize {
        self.all_duplex.len()
    }

    /// Failure index of duplex representative `l`, if survivable.
    /// O(1): the map is precomputed at construction.
    pub fn failure_index(&self, l: LinkId) -> Option<usize> {
        self.index.get(&l).copied()
    }

    /// The failure scenario for failure index `i`.
    pub fn scenario(&self, i: usize) -> Scenario {
        Scenario::Link(self.failable[i])
    }

    /// All failure scenarios, in failure-index order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.failable.iter().map(|&l| Scenario::Link(l)).collect()
    }

    /// Scenarios for a subset of failure indices (the critical set).
    pub fn scenarios_for(&self, indices: &[usize]) -> Vec<Scenario> {
        indices.iter().map(|&i| self.scenario(i)).collect()
    }

    /// Target critical-set size for a fraction `f` of the universe:
    /// `ceil(f·len)`, at least 1 (when non-empty).
    pub fn target_size(&self, f: f64) -> usize {
        FailureUniverse::target_size_for(self.len(), f)
    }

    /// The Phase-1c sizing rule for a universe of `len` failable links —
    /// `ceil(f·len)` clamped to `[1, len]`, 0 when `len` is 0 — the one
    /// rule behind [`target_size`](Self::target_size) and
    /// `dtr_mtr::criticality::target_size`.
    pub fn target_size_for(len: usize, f: f64) -> usize {
        if len == 0 {
            return 0;
        }
        ((len as f64 * f).ceil() as usize).clamp(1, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_net::{NetworkBuilder, Point};

    /// Ring of 5 plus a pendant node hanging off node 0 by a bridge.
    fn ring_with_pendant() -> Network {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6).map(|_| b.add_node(Point::ORIGIN)).collect();
        for i in 0..5 {
            b.add_duplex_link(n[i], n[(i + 1) % 5], 1e9, 1e-3).unwrap();
        }
        b.add_duplex_link(n[0], n[5], 1e9, 1e-3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bridge_excluded_from_failable() {
        let net = ring_with_pendant();
        let u = FailureUniverse::of(&net);
        assert_eq!(u.total_duplex(), 6);
        assert_eq!(u.len(), 5); // the pendant bridge can't fail survivably
        assert!(!u.is_empty()); // len/is_empty speak about failable links
    }

    #[test]
    fn failure_index_rejects_non_failable_links() {
        let net = ring_with_pendant();
        let u = FailureUniverse::of(&net);
        for &l in &u.all_duplex {
            if u.failable.contains(&l) {
                assert!(u.failure_index(l).is_some());
            } else {
                assert_eq!(u.failure_index(l), None, "bridge {l} got an index");
            }
        }
    }

    #[test]
    fn failure_index_round_trip() {
        let net = ring_with_pendant();
        let u = FailureUniverse::of(&net);
        for (i, &l) in u.failable.iter().enumerate() {
            assert_eq!(u.failure_index(l), Some(i));
            assert_eq!(u.scenario(i), Scenario::Link(l));
        }
    }

    #[test]
    fn target_size_rounds_up_and_clamps() {
        let net = ring_with_pendant();
        let u = FailureUniverse::of(&net); // 5 failable
        assert_eq!(u.target_size(0.15), 1);
        assert_eq!(u.target_size(0.5), 3);
        assert_eq!(u.target_size(1.0), 5);
        assert_eq!(u.target_size(0.0001), 1);
    }

    #[test]
    fn scenarios_cover_universe() {
        let net = ring_with_pendant();
        let u = FailureUniverse::of(&net);
        assert_eq!(u.scenarios().len(), 5);
        assert_eq!(u.scenarios_for(&[0, 2]).len(), 2);
    }
}
