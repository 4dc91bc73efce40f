//! # dtr-routing — the dual-topology routing engine
//!
//! Implements the packet-forwarding model the paper optimizes over (§III):
//! standard shortest-path, destination-based IGP routing with even ECMP
//! splitting (the OSPF/Fortz–Thorup model), run **twice** — once per
//! traffic class, each with its own per-link weight (`W_l^D`, `W_l^T`) —
//! over the same physical topology. The two routings interact only through
//! shared link capacity; this crate computes per-class link loads, the cost
//! crate turns total loads into delays and costs.
//!
//! Contents:
//!
//! * [`WeightSetting`] — the optimization variable: one integer weight in
//!   `[1, wmax]` per directed link and traffic class (two for DTR, k for
//!   MTR); [`ClassIndex`] names a class by [`Class`] or by position.
//! * [`spf`] — reverse Dijkstra per destination (integer weights).
//! * [`router`] — ECMP load accumulation and the per-class
//!   [`ClassRouting`] outcome (distances + link loads).
//! * [`delay`] — end-to-end delay of each SD pair over the ECMP DAG, given
//!   per-link delays (max over used paths, and traffic-weighted mean).
//! * [`Scenario`] — normal operation, single (duplex) link failure, or
//!   node failure; produces the link mask and adjusted traffic.
//! * [`paths`] — path extraction and ECMP path counting (path-diversity
//!   analysis, §V-B).
//! * [`workspace`] — the allocation-free evaluation substrate.
//!
//! # Workspace / incremental architecture
//!
//! All hot-path kernels come in two forms: an allocating convenience
//! wrapper (`spf::dist_to`, `route_class`, `delay::max_delay_to`, …) and
//! an `*_into`/`*_with` form that writes into caller-owned buffers. The
//! buffers live in a per-thread [`SpfWorkspace`]; after warm-up no
//! evaluation allocates. On top of that, [`workspace::DestRouting`]
//! records one destination's routing as the *exact sequence* of
//! floating-point accumulations, so a caller that can prove a
//! destination's routing unchanged — via [`workspace::dag_uses_any`] or
//! its flow-aware sharpening [`workspace::flow_uses_any`] (failure
//! scenarios) or [`workspace::weight_change_affects`] (local search
//! moves) — replays the recording instead of re-running Dijkstra,
//! with bit-for-bit identical results. The cost-level engine in
//! `dtr-cost` drives these primitives; every layer of fast path is
//! optional and falls back to the plain kernels.
//!
//! The per-destination kernels share one shape. Wherever they test the
//! DAG they walk the network's packed arcs (`dtr_net::LinkArc`: link id
//! plus far node); only what they read off a record's adds goes through
//! the link records. Each route kernel ends in the one ECMP push.
//!
//! * [`workspace::route_destination`] — the full route: a reverse
//!   Dijkstra whose settle sequence *is* the DAG order (turned into
//!   descending order in linear time, no sort), then the push.
//! * [`workspace::route_destination_repair`] and
//!   [`workspace::route_destination_reweight`] — one incremental kernel
//!   that repairs a previous routing after link failures or weight
//!   changes, re-settling only the nodes whose distance moved, splicing
//!   them into the previous order, and pushing with the previous
//!   record's runs as the hop lists of the nodes whose DAG out-arcs
//!   cannot have changed (each add's link record gives the hop's head).
//! * [`delay::pair_delays_into`] — the delay DP, folded over the same
//!   arcs in the same order.
//! * [`delay::flow_pair_delays_into`] — the same DP read off a record's
//!   adds instead of the arcs: one run per node with inflow, folded
//!   backwards, so it touches only the flow (each add's link record
//!   gives the run's tail and the hop's head).
//!
//! All of them are bit-for-bit the from-scratch results, pinned by
//! `tests/spf_incremental.rs` against Bellman–Ford and the sort
//! ([`spf::descending_order`]).
//!
//! The engine is pure and deterministic: same inputs ⇒ same outputs, no
//! interior mutability, no threads (parallelism happens above, in
//! `dtr-core`, by evaluating independent scenarios concurrently).

#![forbid(unsafe_code)]

pub mod delay;
mod failure;
pub mod paths;
pub mod router;
pub mod spf;
mod weights;
pub mod weights_io;
pub mod workspace;

pub use failure::{LinkGroup, Scenario, MAX_GROUP_SIZE};
pub use router::{route_class, route_class_with, ClassRouting};
pub use weights::{Class, ClassIndex, WeightSetting};
pub use workspace::SpfWorkspace;

/// Distance value marking an unreachable node (no path to the destination
/// under the failure mask).
pub const UNREACHABLE: u64 = u64::MAX;
