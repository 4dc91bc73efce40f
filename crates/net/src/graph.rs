//! The immutable network graph.

use crate::connectivity;
use crate::geometry::Point;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::mask::LinkMask;

/// One packed adjacency entry of a node: a link and the node at its far
/// end — the head for an out-arc ([`Network::out_arcs`]), the tail for
/// an in-arc ([`Network::in_arcs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkArc {
    /// The directed link.
    pub link: LinkId,
    /// The link's other endpoint, seen from the node the arc belongs to.
    pub far: NodeId,
}

/// The link ids of one node's arcs, in arc order: what
/// [`Network::out_links`] and [`Network::in_links`] return.
#[derive(Clone, Copy, Debug)]
pub struct LinkIds<'a>(&'a [LinkArc]);

/// Iterator over a [`LinkIds`] view.
pub type LinkIdsIter<'a> = std::iter::Map<std::slice::Iter<'a, LinkArc>, fn(&LinkArc) -> &LinkId>;

impl<'a> LinkIds<'a> {
    /// Number of links.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the node has no such link.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The link ids, in arc order.
    #[inline]
    pub fn iter(&self) -> LinkIdsIter<'a> {
        self.0.iter().map(|a| &a.link)
    }
}

impl<'a> IntoIterator for LinkIds<'a> {
    type Item = &'a LinkId;
    type IntoIter = LinkIdsIter<'a>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// An immutable directed network `G = (V, E)` with per-link capacity and
/// propagation delay (paper §III).
///
/// Constructed through [`crate::NetworkBuilder`]; once built, the topology
/// never changes. Failures are expressed externally via [`LinkMask`] so that
/// a single `Network` is shared (read-only) by every candidate weight
/// setting and failure scenario evaluated during optimization — including
/// across threads.
#[derive(Clone, Debug)]
pub struct Network {
    pub(crate) positions: Vec<Point>,
    pub(crate) links: Vec<Link>,
    /// The one adjacency: packed CSR arcs. The outgoing arcs of node `v`
    /// (sorted by link id) live at
    /// `arcs_out[out_offsets[v] .. out_offsets[v + 1]]`, each holding the
    /// link id and the link's head, so the per-destination routing
    /// kernels — which walk these slices millions of times per
    /// optimization run — never load the 32-byte [`Link`] record.
    pub(crate) arcs_out: Vec<LinkArc>,
    pub(crate) out_offsets: Vec<u32>,
    /// Incoming arcs, same layout; each holds the link id and the link's
    /// tail.
    pub(crate) arcs_in: Vec<LinkArc>,
    pub(crate) in_offsets: Vec<u32>,
    /// For link `l`, the opposite direction of the same duplex link, if any.
    pub(crate) reverse: Vec<Option<LinkId>>,
}

impl Network {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of *directed* links `|E|`.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// Iterator over all link ids.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.num_links()).map(LinkId::new)
    }

    /// Link record for `l`.
    ///
    /// # Panics
    /// Panics if `l` is out of range.
    #[inline]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// Position of node `v` in the plane.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn position(&self, v: NodeId) -> Point {
        self.positions[v.index()]
    }

    /// Outgoing arcs of `v`, ascending by link id; each arc's
    /// [`far`](LinkArc::far) node is the link's head.
    #[inline]
    pub fn out_arcs(&self, v: NodeId) -> &[LinkArc] {
        let i = v.index();
        &self.arcs_out[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// Incoming arcs of `v`, ascending by link id; each arc's
    /// [`far`](LinkArc::far) node is the link's tail.
    #[inline]
    pub fn in_arcs(&self, v: NodeId) -> &[LinkArc] {
        let i = v.index();
        &self.arcs_in[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Outgoing link ids of `v`, ascending: a view over
    /// [`out_arcs`](Self::out_arcs).
    #[inline]
    pub fn out_links(&self, v: NodeId) -> LinkIds<'_> {
        LinkIds(self.out_arcs(v))
    }

    /// Incoming link ids of `v`, ascending: a view over
    /// [`in_arcs`](Self::in_arcs).
    #[inline]
    pub fn in_links(&self, v: NodeId) -> LinkIds<'_> {
        LinkIds(self.in_arcs(v))
    }

    /// The opposite direction of duplex link `l`, if the builder registered
    /// one (see [`crate::NetworkBuilder::add_duplex_link`]).
    #[inline]
    pub fn reverse_link(&self, l: LinkId) -> Option<LinkId> {
        self.reverse[l.index()]
    }

    /// Out-degree of `v` (directed).
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.out_offsets[i + 1] - self.out_offsets[i]) as usize
    }

    /// Mean node degree counting each duplex link once — the "average node
    /// degree" the paper quotes for its synthesized topologies (§V-C varies
    /// it from 4 to 8). For a fully duplex network this equals
    /// `|E| / |V|` since each duplex pair contributes two directed links.
    pub fn mean_duplex_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.num_links() as f64 / self.num_nodes() as f64
    }

    /// A fresh all-up failure mask sized for this network.
    pub fn fresh_mask(&self) -> LinkMask {
        LinkMask::all_up(self.num_links())
    }

    /// Mask with the single duplex link through `l` failed: `l` itself plus
    /// its reverse direction if one exists. This is the paper's "single link
    /// failure" — a physical failure takes out both directions.
    pub fn fail_duplex(&self, l: LinkId) -> LinkMask {
        let mut m = self.fresh_mask();
        m.fail(l.index());
        if let Some(r) = self.reverse_link(l) {
            m.fail(r.index());
        }
        m
    }

    /// Mask with node `v` failed: all links incident to `v` (either
    /// direction) are down. Used by the paper's §V-F node-failure study.
    pub fn fail_node(&self, v: NodeId) -> LinkMask {
        let mut m = self.fresh_mask();
        for &l in self.out_links(v) {
            m.fail(l.index());
        }
        for &l in self.in_links(v) {
            m.fail(l.index());
        }
        m
    }

    /// `true` if every node can reach every other node over up links.
    pub fn is_strongly_connected(&self) -> bool {
        connectivity::is_strongly_connected(self, &self.fresh_mask())
    }

    /// Deduplicated list of duplex pairs: one representative `LinkId` per
    /// physical link (the direction with the smaller id), plus unpaired
    /// simplex links. Failure enumeration iterates over this, not over all
    /// directed links, so each physical failure is counted once.
    pub fn duplex_representatives(&self) -> Vec<LinkId> {
        let mut reps = Vec::with_capacity(self.num_links() / 2 + 1);
        for l in self.links() {
            match self.reverse_link(l) {
                Some(r) if r < l => {} // counted at the smaller id
                _ => reps.push(l),
            }
        }
        reps
    }

    /// Total propagation delay of the *minimum-propagation-delay* path
    /// between the farthest-apart node pair (the network diameter in delay
    /// terms). Used by topology generators to scale link delays against the
    /// SLA bound θ. Returns `None` when the network is not connected.
    pub fn delay_diameter(&self) -> Option<f64> {
        let n = self.num_nodes();
        let mut worst: f64 = 0.0;
        for s in self.nodes() {
            let d = connectivity::min_prop_delay_from(self, s, &self.fresh_mask());
            #[allow(clippy::needless_range_loop)] // t is a node id, not just an index
            for t in 0..n {
                if t == s.index() {
                    continue;
                }
                let dt = d[t];
                if dt.is_infinite() {
                    return None;
                }
                worst = worst.max(dt);
            }
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// Triangle with duplex links; every prop delay 1 ms, capacity 1 Gb/s.
    fn triangle() -> Network {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..3).map(|_| b.add_node(Point::ORIGIN)).collect();
        b.add_duplex_link(n[0], n[1], 1e9, 1e-3).unwrap();
        b.add_duplex_link(n[1], n[2], 1e9, 1e-3).unwrap();
        b.add_duplex_link(n[2], n[0], 1e9, 1e-3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn triangle_counts() {
        let net = triangle();
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.num_links(), 6);
        assert_eq!(net.mean_duplex_degree(), 2.0);
        for v in net.nodes() {
            assert_eq!(net.out_degree(v), 2);
            assert_eq!(net.in_links(v).len(), 2);
        }
    }

    #[test]
    fn reverse_pairing_is_mutual() {
        let net = triangle();
        for l in net.links() {
            let r = net.reverse_link(l).expect("all links duplex");
            assert_eq!(net.reverse_link(r), Some(l));
            assert!(net.link(l).is_reverse_of(net.link(r)));
        }
    }

    #[test]
    fn duplex_representatives_count_physical_links() {
        let net = triangle();
        let reps = net.duplex_representatives();
        assert_eq!(reps.len(), 3);
        // Each representative is the smaller id of its pair.
        for l in reps {
            assert!(net.reverse_link(l).unwrap() > l);
        }
    }

    #[test]
    fn fail_duplex_downs_both_directions() {
        let net = triangle();
        let l = LinkId::new(0);
        let m = net.fail_duplex(l);
        assert_eq!(m.num_down(), 2);
        assert!(m.is_down(l.index()));
        assert!(m.is_down(net.reverse_link(l).unwrap().index()));
    }

    #[test]
    fn fail_node_downs_all_incident() {
        let net = triangle();
        let m = net.fail_node(NodeId::new(0));
        assert_eq!(m.num_down(), 4); // 2 out + 2 in
    }

    #[test]
    fn triangle_is_strongly_connected() {
        assert!(triangle().is_strongly_connected());
    }

    #[test]
    fn delay_diameter_of_triangle() {
        // Longest shortest-delay path = one hop of 1 ms (fully meshed).
        let d = triangle().delay_diameter().unwrap();
        assert!((d - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn delay_diameter_of_path_graph() {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
        for w in n.windows(2) {
            b.add_duplex_link(w[0], w[1], 1e9, 2e-3).unwrap();
        }
        let net = b.build().unwrap();
        let d = net.delay_diameter().unwrap();
        assert!((d - 6e-3).abs() < 1e-12); // 3 hops * 2 ms
    }

    #[test]
    fn disconnected_network_has_no_diameter() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        let d = b.add_node(Point::ORIGIN);
        b.add_duplex_link(a, c, 1e9, 1e-3).unwrap();
        let _ = d;
        let net = b.build_unchecked();
        assert_eq!(net.delay_diameter(), None);
        assert!(!net.is_strongly_connected());
    }
}
