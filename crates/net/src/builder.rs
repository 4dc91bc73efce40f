//! Validated construction of [`Network`]s.

use std::collections::HashSet;

use crate::error::NetError;
use crate::geometry::Point;
use crate::graph::{LinkArc, Network};
use crate::ids::{LinkId, NodeId};
use crate::link::Link;

/// Builder for [`Network`]. Collects nodes and links, validates them, and
/// produces the immutable graph.
///
/// ```
/// use dtr_net::{NetworkBuilder, Point};
/// let mut b = NetworkBuilder::new();
/// let a = b.add_node(Point::new(0.0, 0.0));
/// let c = b.add_node(Point::new(0.5, 0.5));
/// b.add_duplex_link(a, c, 500e6, 10e-3).unwrap();
/// let net = b.build().unwrap();
/// assert_eq!(net.num_links(), 2);
/// ```
#[derive(Default, Debug)]
pub struct NetworkBuilder {
    positions: Vec<Point>,
    links: Vec<Link>,
    seen_pairs: HashSet<(u32, u32)>,
}

impl NetworkBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node at `position`; returns its dense id.
    ///
    /// # Panics
    /// Panics if the node count would exceed the `u32` id space; use
    /// [`try_add_node`](Self::try_add_node) where a typed error is
    /// preferable (generated large-tier topologies go through it).
    pub fn add_node(&mut self, position: Point) -> NodeId {
        self.try_add_node(position).expect("node index exceeds u32")
    }

    /// Fallible form of [`add_node`](Self::add_node): returns
    /// [`NetError::TooManyNodes`] instead of panicking when the dense id
    /// space would overflow. The builder is left unchanged on error.
    pub fn try_add_node(&mut self, position: Point) -> Result<NodeId, NetError> {
        let id = NodeId::try_new(self.positions.len())?;
        self.positions.push(position);
        Ok(id)
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed links added so far.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// `true` if a directed link `src -> dst` has been added.
    pub fn has_link(&self, src: NodeId, dst: NodeId) -> bool {
        self.seen_pairs.contains(&(src.0, dst.0))
    }

    /// Add one *directed* link. Most callers want
    /// [`add_duplex_link`](Self::add_duplex_link) instead.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
        prop_delay: f64,
    ) -> Result<LinkId, NetError> {
        if src.index() >= self.positions.len() {
            return Err(NetError::UnknownNode(src));
        }
        if dst.index() >= self.positions.len() {
            return Err(NetError::UnknownNode(dst));
        }
        if src == dst {
            return Err(NetError::SelfLoop(src));
        }
        if capacity <= 0.0 || !capacity.is_finite() {
            return Err(NetError::NonPositiveCapacity(capacity));
        }
        if !prop_delay.is_finite() || prop_delay < 0.0 {
            return Err(NetError::InvalidDelay(prop_delay));
        }
        // Mint the id before touching `seen_pairs` so an over-long link
        // list is a typed error with the builder left unchanged — and so
        // `assemble`'s u32 arc offsets (cumulative counts bounded by the
        // link count) can never overflow silently.
        let id = LinkId::try_new(self.links.len())?;
        if !self.seen_pairs.insert((src.0, dst.0)) {
            return Err(NetError::DuplicateLink(src, dst));
        }
        self.links.push(Link {
            src,
            dst,
            capacity,
            prop_delay,
        });
        Ok(id)
    }

    /// Add a duplex (bidirectional) link: two directed links with identical
    /// capacity and propagation delay. Returns `(forward, backward)` ids.
    ///
    /// This is the normal physical-link constructor; [`Network::fail_duplex`]
    /// later fails both directions together, matching the paper's
    /// single-link-failure model.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        prop_delay: f64,
    ) -> Result<(LinkId, LinkId), NetError> {
        let fwd = self.add_link(a, b, capacity, prop_delay)?;
        let bwd = match self.add_link(b, a, capacity, prop_delay) {
            Ok(id) => id,
            Err(e) => {
                // Roll back the forward direction so the builder stays
                // consistent after a failed duplex insertion.
                self.links.pop();
                self.seen_pairs.remove(&(a.0, b.0));
                return Err(e);
            }
        };
        Ok((fwd, bwd))
    }

    /// Finalize into a [`Network`], requiring strong connectivity (the paper
    /// only ever evaluates connected networks; a disconnected input is a
    /// generator bug).
    pub fn build(self) -> Result<Network, NetError> {
        if self.positions.is_empty() {
            return Err(NetError::Empty);
        }
        let net = self.assemble();
        if !net.is_strongly_connected() {
            return Err(NetError::NotStronglyConnected);
        }
        Ok(net)
    }

    /// Finalize without the connectivity check. Needed by tests exercising
    /// partitioned inputs and by the bridge finder.
    pub fn build_unchecked(self) -> Network {
        self.assemble()
    }

    fn assemble(self) -> Network {
        let n = self.positions.len();
        // Packed CSR arcs: count degrees, prefix-sum into offsets, then
        // scatter arcs in link-id order (which keeps each node's slice
        // ascending by link id, as the routing code relies on).
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for link in &self.links {
            out_offsets[link.src.index() + 1] += 1;
            in_offsets[link.dst.index() + 1] += 1;
        }
        for v in 0..n {
            out_offsets[v + 1] += out_offsets[v];
            in_offsets[v + 1] += in_offsets[v];
        }
        let blank = LinkArc {
            link: LinkId::new(0),
            far: NodeId::new(0),
        };
        let mut arcs_out = vec![blank; self.links.len()];
        let mut arcs_in = vec![blank; self.links.len()];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (i, link) in self.links.iter().enumerate() {
            let link_id = LinkId::new(i);
            let o = &mut out_cursor[link.src.index()];
            arcs_out[*o as usize] = LinkArc {
                link: link_id,
                far: link.dst,
            };
            *o += 1;
            let o = &mut in_cursor[link.dst.index()];
            arcs_in[*o as usize] = LinkArc {
                link: link_id,
                far: link.src,
            };
            *o += 1;
        }
        // Pair up duplex directions: reverse[l] = id of dst->src, if present.
        let mut reverse = vec![None; self.links.len()];
        let mut by_pair = std::collections::HashMap::with_capacity(self.links.len());
        for (i, link) in self.links.iter().enumerate() {
            by_pair.insert((link.src.0, link.dst.0), LinkId::new(i));
        }
        for (i, link) in self.links.iter().enumerate() {
            reverse[i] = by_pair.get(&(link.dst.0, link.src.0)).copied();
        }
        Network {
            positions: self.positions,
            links: self.links,
            arcs_out,
            out_offsets,
            arcs_in,
            in_offsets,
            reverse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        assert_eq!(b.add_link(a, a, 1.0, 0.0), Err(NetError::SelfLoop(a)));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let ghost = NodeId::new(7);
        assert_eq!(
            b.add_link(a, ghost, 1.0, 0.0),
            Err(NetError::UnknownNode(ghost))
        );
    }

    #[test]
    fn rejects_duplicate_directed_link() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        b.add_link(a, c, 1.0, 0.0).unwrap();
        assert_eq!(
            b.add_link(a, c, 2.0, 0.0),
            Err(NetError::DuplicateLink(a, c))
        );
    }

    #[test]
    fn rejects_bad_capacity_and_delay() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        assert!(matches!(
            b.add_link(a, c, 0.0, 0.0),
            Err(NetError::NonPositiveCapacity(_))
        ));
        assert!(matches!(
            b.add_link(a, c, f64::NAN, 0.0),
            Err(NetError::NonPositiveCapacity(_))
        ));
        assert!(matches!(
            b.add_link(a, c, 1.0, -1.0),
            Err(NetError::InvalidDelay(_))
        ));
        assert!(matches!(
            b.add_link(a, c, 1.0, f64::INFINITY),
            Err(NetError::InvalidDelay(_))
        ));
    }

    #[test]
    fn duplex_rollback_on_partial_failure() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        // Pre-existing reverse direction makes the duplex insert fail...
        b.add_link(c, a, 1.0, 0.0).unwrap();
        assert!(b.add_duplex_link(a, c, 1.0, 0.0).is_err());
        // ...and the forward direction must have been rolled back.
        assert!(!b.has_link(a, c));
        assert_eq!(b.num_links(), 1);
    }

    #[test]
    fn build_rejects_empty() {
        assert_eq!(NetworkBuilder::new().build().unwrap_err(), NetError::Empty);
    }

    #[test]
    fn build_rejects_disconnected() {
        let mut b = NetworkBuilder::new();
        let _ = b.add_node(Point::ORIGIN);
        let _ = b.add_node(Point::ORIGIN);
        assert_eq!(b.build().unwrap_err(), NetError::NotStronglyConnected);
    }

    #[test]
    fn build_accepts_connected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        b.add_duplex_link(a, c, 1.0, 0.0).unwrap();
        assert!(b.build().is_ok());
    }

    #[test]
    fn try_add_node_mints_dense_ids() {
        let mut b = NetworkBuilder::new();
        assert_eq!(b.try_add_node(Point::ORIGIN).unwrap().index(), 0);
        assert_eq!(b.try_add_node(Point::ORIGIN).unwrap().index(), 1);
        assert_eq!(b.num_nodes(), 2);
        // The u32::MAX-adjacent boundary itself is pinned without any
        // allocation (indices are the mock) in
        // `ids::tests::try_new_is_exact_at_the_u32_boundary`; the builder
        // reaches it through the same `try_new` calls.
    }

    #[test]
    fn failed_add_link_leaves_builder_unchanged() {
        // The id-capacity check runs before `seen_pairs` is touched, so
        // every error path leaves the builder consistent.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        assert!(b.add_link(a, c, -1.0, 0.0).is_err());
        assert!(!b.has_link(a, c));
        assert_eq!(b.num_links(), 0);
        b.add_link(a, c, 1.0, 0.0).unwrap();
        assert!(b.add_link(a, c, 1.0, 0.0).is_err());
        assert_eq!(b.num_links(), 1);
    }

    #[test]
    fn simplex_links_have_no_reverse() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let c = b.add_node(Point::ORIGIN);
        let l = b.add_link(a, c, 1.0, 0.0).unwrap();
        let net = b.build_unchecked();
        assert_eq!(net.reverse_link(l), None);
    }
}
