//! # dtr-bench — benchmark-only crate
//!
//! All content lives in `benches/micro_routing.rs` (the routing, cost and
//! search hot paths, which writes `BENCH_routing.json`) and
//! `src/bin/check_bench.rs` (the gates that validate that file). The
//! end-to-end benchmark with per-layer spans is the separate `perfbench/`
//! package at the workspace root; the `repro` binary of `dtr-eval` runs
//! the paper's tables and figures.

#![forbid(unsafe_code)]
