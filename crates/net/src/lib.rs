//! # dtr-net — network graph substrate
//!
//! Directed-graph network model used throughout the `dtr` workspace, the
//! reproduction of *"Balancing Performance, Robustness and Flexibility in
//! Routing Systems"* (Kwong, Guérin, Shaikh, Tao — CoNEXT 2008 / TNSM 2010).
//!
//! The paper models the network as a directed graph `G = (V, E)` where every
//! link `l ∈ E` has a capacity `C_l` and a propagation delay `p_l`
//! (paper §III). Links are physically duplex — a fiber failure kills both
//! directions — but logically each direction is an independent routable link
//! with its own pair of IGP weights, exactly as in OSPF/IS-IS.
//!
//! This crate provides:
//!
//! * [`Network`] — the immutable graph: nodes, directed links, one packed
//!   adjacency ([`LinkArc`]s: link id plus far node), duplex pairing,
//!   optional Euclidean node positions.
//! * [`NetworkBuilder`] — the only way to construct a [`Network`]; validates
//!   invariants at `build()` time.
//! * [`LinkMask`] — a compact bitset of *down* links used to express failure
//!   scenarios without copying the graph.
//! * [`connectivity`] — reachability / strong-connectivity queries under a
//!   mask.
//! * [`bridges`] — identification of *cut pairs*: duplex links whose failure
//!   partitions the network (excluded from single-link failure enumeration,
//!   because no routing can survive a partition).
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! Everything here is plain, allocation-light, synchronous Rust: the
//! workload is a CPU-bound simulator, so (per the Tokio guide's own advice)
//! no async runtime is involved anywhere in the workspace.
//!
//! ## Example
//!
//! ```
//! use dtr_net::{NetworkBuilder, Point};
//!
//! let mut b = NetworkBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(1.0, 0.0));
//! // 500 Mb/s duplex link with 5 ms propagation delay each way.
//! b.add_duplex_link(a, c, 500e6, 5e-3).unwrap();
//! let net = b.build().unwrap();
//! assert_eq!(net.num_nodes(), 2);
//! assert_eq!(net.num_links(), 2); // two directed links
//! assert!(net.is_strongly_connected());
//! ```

#![forbid(unsafe_code)]

pub mod bridges;
mod builder;
pub mod connectivity;
pub mod dot;
mod error;
mod geometry;
mod graph;
mod ids;
pub mod io;
mod link;
mod mask;

pub use builder::NetworkBuilder;
pub use error::NetError;
pub use geometry::Point;
pub use graph::{LinkArc, LinkIds, LinkIdsIter, Network};
pub use ids::{LinkId, NodeId};
pub use link::Link;
pub use mask::LinkMask;
