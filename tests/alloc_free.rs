//! Steady-state allocation accounting for the incremental evaluation
//! engine: after warm-up, evaluating **any** scenario kind — `Normal`,
//! link failures, SRLG group failures, node failures — through a reused
//! workspace must perform **zero** heap allocations.
//!
//! A counting wrapper around the system allocator measures this
//! directly; the test binary has its own `#[global_allocator]`, so the
//! count covers everything the evaluation touches. Every measured kernel
//! runs on the test's own thread, so each window counts that thread's
//! allocations only: libtest's harness thread and concurrently running
//! tests allocate at any time. Each test also holds [`serial`] from
//! warm-up through measurement, so no two windows ever overlap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

use dtr::net::Network;
use dtr::prelude::*;
use dtr::routing::LinkGroup;
use dtr::topogen::{rand_topo, SynthConfig};
use dtr::traffic::gravity;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAllocator;

thread_local! {
    /// Heap allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: a thread tearing down its locals may still free and
    // allocate; those calls are simply not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Held by every test across warm-up and measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next one may still measure.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Paper-scale testbed: 50 nodes, 300 directed links, gravity traffic.
fn testbed() -> (Network, ClassMatrices) {
    let nodes = 50;
    let net = rand_topo::generate(&SynthConfig {
        nodes,
        duplex_links: 150,
        seed: 7,
    })
    .unwrap()
    .scaled_to_diameter(25e-3)
    .build(500e6)
    .unwrap();
    let mut tm = gravity::generate(&gravity::GravityConfig {
        total_volume: 1.0,
        ..gravity::GravityConfig::paper_default(nodes, 3)
    });
    tm.scale(nodes as f64 * 1e9);
    (net, tm)
}

/// Build everything (allocating freely), derive the ensemble from the
/// freshly built network with `make_scenarios`, warm the workspace with
/// sweeps under two weight settings (covering the baseline-rebuild path
/// and the incremental-diff path, letting every buffer reach its
/// high-water capacity), then demand an allocation-free steady-state
/// sweep.
fn assert_steady_state_sweep_allocates_nothing(
    kind: &str,
    make_scenarios: impl Fn(&Network) -> Vec<Scenario>,
) {
    let _serial = serial();
    let (net, tm) = testbed();
    let scenarios = &make_scenarios(&net);
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let mut rng = StdRng::seed_from_u64(11);
    let w = WeightSetting::random(net.num_links(), 20, &mut rng);
    let w2 = WeightSetting::random(net.num_links(), 20, &mut rng);

    let mut ws = ev.acquire_workspace();
    let mut checksum = 0.0f64;
    for sweep_w in [&w, &w2, &w] {
        for &sc in scenarios {
            let c = ev.cost_with(&mut ws, sweep_w, sc);
            checksum += c.lambda + c.phi;
        }
    }

    let before = allocations();
    for &sc in scenarios {
        let c = ev.cost_with(&mut ws, &w, sc);
        checksum += c.lambda + c.phi;
    }
    let after = allocations();
    ev.release_workspace(ws);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state {kind} sweep of {} scenarios performed {} heap allocations",
        scenarios.len(),
        after - before
    );
}

#[test]
fn steady_state_link_scenario_sweep_allocates_nothing() {
    assert_steady_state_sweep_allocates_nothing("link", |net| {
        let mut scenarios = vec![Scenario::Normal];
        scenarios.extend(Scenario::all_link_failures(net));
        assert!(scenarios.len() > 50, "need a real ensemble");
        scenarios
    });
}

#[test]
fn steady_state_srlg_sweep_allocates_nothing() {
    // Deterministic conduit-style SRLG set: consecutive duplex
    // representatives grouped in threes (the exact ensemble the
    // `srlg_sweep` bench times).
    assert_steady_state_sweep_allocates_nothing("srlg", |net| {
        let reps = net.duplex_representatives();
        let mut scenarios = vec![Scenario::Normal];
        scenarios.extend(
            reps.chunks_exact(3)
                .map(|g| Scenario::Srlg(LinkGroup::new(g))),
        );
        assert!(scenarios.len() > 40, "need a real SRLG ensemble");
        scenarios
    });
}

#[test]
fn steady_state_node_failure_sweep_allocates_nothing() {
    // The node-failure ensemble also removes the dead node's traffic per
    // scenario — the engine must absorb that without cloning matrices.
    assert_steady_state_sweep_allocates_nothing("node", |net| {
        let mut scenarios = vec![Scenario::Normal];
        scenarios.extend(net.nodes().map(Scenario::Node));
        assert_eq!(scenarios.len(), 51);
        scenarios
    });
}

/// Sparse demand: the paper-scale testbed with only five hub senders
/// (every other gravity row zeroed, in both classes). Most nodes then
/// carry no flow towards a destination, so the engine's flow screens
/// keep destinations whose DAG a failure touches, and the flow delay DP
/// folds short pushes. After the same warm-ups as the dense legs — three
/// plain sweeps under two weight settings, then six candidate sweeps
/// through a captured cache — a plain sweep over every link and node
/// failure and a `cache_begin` + `cost_cached` candidate sweep perform
/// **zero** heap allocations.
#[test]
fn steady_state_sparse_demand_sweeps_allocate_nothing() {
    use rand::Rng;

    let _serial = serial();
    let (net, mut tm) = testbed();
    let n = net.num_nodes();
    for m in [&mut tm.delay, &mut tm.throughput] {
        for s in (0..n).filter(|s| s % 10 != 3) {
            for t in (0..n).filter(|&t| t != s) {
                m.set(s, t, 0.0);
            }
        }
    }
    let mut scenarios = vec![Scenario::Normal];
    scenarios.extend(Scenario::all_link_failures(&net));
    scenarios.extend(net.nodes().map(Scenario::Node));
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let mut rng = StdRng::seed_from_u64(19);
    let w = WeightSetting::random(net.num_links(), 20, &mut rng);
    let w2 = WeightSetting::random(net.num_links(), 20, &mut rng);

    let mut ws = ev.acquire_workspace();
    let mut checksum = 0.0f64;
    for sweep_w in [&w, &w2, &w] {
        for &sc in &scenarios {
            let c = ev.cost_with(&mut ws, sweep_w, sc);
            checksum += c.lambda + c.phi;
        }
    }
    let mut cache = dtr::cost::ScenarioCache::new();
    ev.cache_rebuild_begin(&mut ws, &mut cache, &w, scenarios.len());
    for (pos, &sc) in scenarios.iter().enumerate() {
        ev.cost_capture(&mut ws, &w, sc, &mut cache, pos);
    }
    let reps = net.duplex_representatives();
    let candidate = |rng: &mut StdRng| {
        let rep = reps[rng.gen_range(0..reps.len())];
        let mut cand = w.clone();
        dtr::core::search::set_duplex_weights(
            &mut cand,
            &net,
            rep,
            rng.gen_range(1..=20),
            rng.gen_range(1..=20),
        );
        cand
    };
    for _ in 0..6 {
        let cand = candidate(&mut rng);
        ev.cache_begin(&mut cache, &cand);
        for (pos, &sc) in scenarios.iter().enumerate() {
            let c = ev.cost_cached(&mut ws, &cand, sc, &cache, pos);
            checksum += c.lambda + c.phi;
        }
    }

    let cand = candidate(&mut rng);
    let before = allocations();
    for &sc in &scenarios {
        let c = ev.cost_with(&mut ws, &w, sc);
        checksum += c.lambda + c.phi;
    }
    ev.cache_begin(&mut cache, &cand);
    for (pos, &sc) in scenarios.iter().enumerate() {
        let c = ev.cost_cached(&mut ws, &cand, sc, &cache, pos);
        checksum += c.lambda + c.phi;
    }
    let after = allocations();
    ev.release_workspace(ws);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state sparse-demand sweeps of {} scenarios performed {} heap allocations",
        scenarios.len(),
        after - before
    );
}

/// The incumbent-bounded sweep stays allocation-free in steady state:
/// after warm-up, a full bounded sweep *and* a cutting sweep perform
/// **zero** heap allocations. This pins `sum_set_costs_bounded` and its
/// index-order `fold_bound` over the evaluated positions (registered in
/// crates/analysis/hot_paths.toml).
#[test]
fn steady_state_bounded_sweep_allocates_nothing() {
    use dtr::core::parallel::{self, SetSweep, SweepScratch};
    use dtr::core::scenario::ScenarioSet;

    let _serial = serial();
    let (net, tm) = testbed();
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let mut rng = StdRng::seed_from_u64(11);
    let w = WeightSetting::random(net.num_links(), 20, &mut rng);
    let universe = FailureUniverse::of(&net);
    let indices = universe.all_indices();
    let order: Vec<u32> = (0..indices.len() as u32).collect();
    let mut scratch = SweepScratch::new();
    let never = LexCost::new(f64::MAX, f64::MAX);

    let run = |scratch: &mut SweepScratch| -> f64 {
        let mut checksum = 0.0f64;
        // Full sweep (unbeatable incumbent) and cut (zero incumbent)
        // both stay allocation-free once warm.
        match parallel::sum_set_costs_bounded(
            &ev, &w, &universe, &indices, &never, &order, None, scratch,
        ) {
            SetSweep::Complete(c) => checksum += c.lambda + c.phi,
            SetSweep::Cut { .. } => unreachable!("nothing beats the never-cut incumbent"),
        }
        match parallel::sum_set_costs_bounded(
            &ev,
            &w,
            &universe,
            &indices,
            &LexCost::ZERO,
            &order,
            None,
            scratch,
        ) {
            SetSweep::Complete(_) => panic!("a zero incumbent must cut"),
            SetSweep::Cut { evaluated } => checksum += evaluated as f64,
        }
        checksum
    };

    // Warm-up lets every buffer — the sweep's pooled workspace,
    // cost/done vectors — reach its high-water capacity.
    let mut checksum = 0.0f64;
    for _ in 0..2 {
        checksum += run(&mut scratch);
    }

    let before = allocations();
    checksum += run(&mut scratch);
    let after = allocations();

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state bounded sweep of {} scenarios performed {} heap allocations",
        indices.len(),
        after - before
    );
}

/// The accept-path cache refresh: after warm-up, one more cycle of
/// re-pointing the delta-state cache at a new incumbent through
/// `Evaluator::cache_refresh` — `cache_begin`, then
/// `cache_refresh_entry` (the cached evaluation plus the commit) for
/// every resident entry, then `cache_refresh_finish`, all on one
/// workspace, as the robust search (`dtr_core::robust`) runs it on
/// every accept — performs **zero** heap allocations (the warm-up
/// comment below says what that does and does not prove; the kernels
/// are registered in crates/analysis/hot_paths.toml).
#[test]
fn steady_state_cache_refresh_allocates_nothing() {
    use rand::Rng;

    let _serial = serial();
    let (net, tm) = testbed();
    let scenarios: Vec<Scenario> = {
        let mut s: Vec<Scenario> = Scenario::all_link_failures(&net);
        s.truncate(23);
        s
    };
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let mut rng = StdRng::seed_from_u64(13);
    let inc = WeightSetting::random(net.num_links(), 20, &mut rng);

    // Build the cache on the incumbent (allocates freely).
    let mut ws = ev.acquire_workspace();
    let mut cache = dtr::cost::ScenarioCache::new();
    ev.cache_rebuild_begin(&mut ws, &mut cache, &inc, scenarios.len());
    for (pos, &sc) in scenarios.iter().enumerate() {
        ev.cost_capture(&mut ws, &inc, sc, &mut cache, pos);
    }

    // One-duplex-move candidates off the incumbent — the accept path
    // re-points the cache at such a candidate after its winning sweep.
    let reps = net.duplex_representatives();
    let candidate = |rng: &mut StdRng| {
        let rep = reps[rng.gen_range(0..reps.len())];
        let mut cand = inc.clone();
        dtr::core::search::set_duplex_weights(
            &mut cand,
            &net,
            rep,
            rng.gen_range(1..=20),
            rng.gen_range(1..=20),
        );
        cand
    };
    let refresh = |ws: &mut dtr::cost::EvalWorkspace,
                   cache: &mut dtr::cost::ScenarioCache,
                   w: &WeightSetting| {
        ev.cache_refresh(ws, cache, w, |pos| scenarios[pos]);
    };

    // Warm: 16 accept cycles (candidate diff + refresh) over a fixed
    // candidate sequence grow the buffers — baseline flags, resolution
    // codes, scratch routings, pair buffers, the pooled per-destination
    // routing buffers the commit copies fresh routings into.
    //
    // What the measured 17th cycle proves: the refresh kernels make no
    // allocation per call (no fresh buffer per entry or per
    // evaluation), and after 16 cycles round 17 allocates nothing. It
    // does not prove the routing pool has converged. The pool hands
    // buffers out LIFO, so a buffer's capacity depends on which
    // destinations it served, and capacities only grow: a per-round
    // probe over 200 cycles of this sequence saw one or two
    // allocations in 15 of rounds 17-200, the last at round 98. Round
    // 17 happens to be free of them.
    let cands: Vec<WeightSetting> = (0..6).map(|_| candidate(&mut rng)).collect();
    for _ in 0..16 {
        for cand in &cands {
            refresh(&mut ws, &mut cache, cand);
        }
    }

    // Steady state: repeating the warmed cycle must not allocate.
    let before = allocations();
    for cand in &cands {
        refresh(&mut ws, &mut cache, cand);
    }
    let after = allocations();
    ev.release_workspace(ws);

    assert_eq!(
        after - before,
        0,
        "steady-state cache refresh of {} entries performed {} heap allocations",
        scenarios.len(),
        after - before
    );
}

/// Checkpoint serialization: the search drivers encode a chain snapshot
/// at every eligible sweep/rendezvous boundary into ONE reusable
/// [`dtr::persist::Encoder`] whose buffer `begin()` clears but never
/// shrinks. After the first encode has grown that buffer to the
/// snapshot's size, re-encoding the same-shaped state — the steady
/// state of a long checkpointed run, since a chain's snapshot size is
/// fixed by the topology and archive capacity — performs **zero** heap
/// allocations. This is the dynamic half of the `encode_chain` /
/// `encode_snapshot` hot-path registrations in
/// crates/analysis/hot_paths.toml (the static lint keeps allocation
/// tokens out of their bodies; this proves the encoder they drive).
#[test]
fn steady_state_checkpoint_encoding_allocates_nothing() {
    use dtr::persist::{Encoder, KIND_DTR_PHASE2};

    let _serial = serial();
    // Chain-shaped payload at the paper-scale operating point: 300
    // directed links, a 500-proposal trace, a 16-entry archive.
    let weights: Vec<u32> = (0..300u32).map(|i| (i % 20) + 1).collect();
    let trace: Vec<u8> = (0..500u32).map(|i| (i % 3) as u8).collect();
    let history: Vec<f64> = (0..32).map(|i| 1.0 / (i as f64 + 1.0)).collect();

    let mut enc = Encoder::new();
    let encode = |enc: &mut Encoder| -> usize {
        enc.begin(KIND_DTR_PHASE2);
        enc.begin_section(0x10);
        for v in 0..14u64 {
            enc.put_u64(v); // config fingerprint scalars
        }
        enc.end_section();
        enc.begin_section(0x20);
        for v in 0..4u64 {
            enc.put_u64(v); // rng state
        }
        for v in 0..11usize {
            enc.put_usize(v); // stats counters
        }
        enc.put_usize(trace.len());
        for &t in &trace {
            enc.put_u8(t);
        }
        for _ in 0..4 {
            enc.put_slice_u32(&weights); // current/best + archive-ish settings
        }
        for v in 0..6u64 {
            enc.put_f64(v as f64); // lex costs
        }
        enc.put_slice_f64(&history); // stop-rule trailing window
        for _ in 0..16 {
            enc.put_slice_u32(&weights); // archive entries
            enc.put_f64(1.5);
            enc.put_f64(2.5);
        }
        enc.put_bool(false);
        enc.end_section();
        enc.finish().len()
    };

    // First encode grows the buffer to its high-water size.
    let n1 = encode(&mut enc);

    let before = allocations();
    let n2 = encode(&mut enc);
    let after = allocations();

    assert_eq!(n1, n2, "same state must encode to the same size");
    assert_eq!(
        after - before,
        0,
        "steady-state checkpoint encode of {n2} bytes performed {} heap allocations",
        after - before
    );
}

/// The delta-state cached path: after warm-up (cache capture plus a few
/// candidate sweeps that let every scratch buffer — fresh-routing slots,
/// dirty sets, fresh-adds lists, pair assembly — reach its high-water
/// capacity), a full candidate sweep through `cache_begin` +
/// `cost_cached` performs **zero** heap allocations. This is the
/// robust-phase steady state: thousands of candidate sweeps against one
/// resident incumbent.
#[test]
fn steady_state_delta_state_candidate_sweep_allocates_nothing() {
    use rand::Rng;

    let _serial = serial();
    let (net, tm) = testbed();
    let scenarios: Vec<Scenario> = {
        let mut s: Vec<Scenario> = Scenario::all_link_failures(&net);
        s.truncate(23);
        s
    };
    let ev = Evaluator::new(&net, &tm, CostParams::default());
    let mut rng = StdRng::seed_from_u64(11);
    let inc = WeightSetting::random(net.num_links(), 20, &mut rng);

    // Build the cache on the incumbent (allocates freely).
    let mut ws = ev.acquire_workspace();
    let mut cache = dtr::cost::ScenarioCache::new();
    ev.cache_rebuild_begin(&mut ws, &mut cache, &inc, scenarios.len());
    for (pos, &sc) in scenarios.iter().enumerate() {
        ev.cost_capture(&mut ws, &inc, sc, &mut cache, pos);
    }

    // One-duplex-move candidates off the incumbent.
    let reps = net.duplex_representatives();
    let candidate = |rng: &mut StdRng| {
        let rep = reps[rng.gen_range(0..reps.len())];
        let mut cand = inc.clone();
        dtr::core::search::set_duplex_weights(
            &mut cand,
            &net,
            rep,
            rng.gen_range(1..=20),
            rng.gen_range(1..=20),
        );
        cand
    };

    // Warm: several candidates of different shapes grow every buffer to
    // its high-water mark.
    let mut checksum = 0.0f64;
    for _ in 0..6 {
        let cand = candidate(&mut rng);
        ev.cache_begin(&mut cache, &cand);
        for (pos, &sc) in scenarios.iter().enumerate() {
            let c = ev.cost_cached(&mut ws, &cand, sc, &cache, pos);
            checksum += c.lambda + c.phi;
        }
    }

    // Steady state: a fresh candidate's full sweep must not allocate.
    let cand = candidate(&mut rng);
    let before = allocations();
    ev.cache_begin(&mut cache, &cand);
    for (pos, &sc) in scenarios.iter().enumerate() {
        let c = ev.cost_cached(&mut ws, &cand, sc, &cache, pos);
        checksum += c.lambda + c.phi;
    }
    let after = allocations();
    ev.release_workspace(ws);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state delta-state candidate sweep of {} scenarios performed {} heap allocations",
        scenarios.len(),
        after - before
    );
}

/// The engine at k = 3: mtr3's voice SLA class, relaxed video SLA class
/// and bulk congestion class. After warm-up, a plain sweep, a
/// `cache_begin` + `cost_cached` candidate sweep and a refresh
/// (`Engine::cache_refresh`: `cache_begin`, one `cache_refresh_entry`
/// per resident entry, `cache_refresh_finish`) through the engine
/// perform **zero** heap allocations — the kernels write the three
/// components into the workspace at every k.
#[test]
fn steady_state_three_class_engine_allocates_nothing() {
    use dtr::mtr::{ClassSpec, MtrConfig, MtrEvaluator};
    use dtr::routing::WeightSetting;
    use rand::Rng;

    let _serial = serial();
    // mtr3's operating point: 30 nodes, three gravity matrices.
    let nodes = 30;
    let net = rand_topo::generate(&SynthConfig {
        nodes,
        duplex_links: 75,
        seed: 7,
    })
    .unwrap()
    .scaled_to_diameter(25e-3)
    .build(500e6)
    .unwrap();
    let matrices = dtr::eval::experiments::mtr3::three_class_traffic(nodes, 3, nodes as f64 * 1e9);
    let config = MtrConfig::new(vec![
        ClassSpec::sla("voice", 25e-3),
        ClassSpec::sla("video", 60e-3).relaxed(0.1),
        ClassSpec::congestion("bulk"),
    ]);
    let ev = MtrEvaluator::new(&net, &matrices, config).unwrap();
    let eng = ev.engine();
    let scenarios: Vec<Scenario> = {
        let mut s: Vec<Scenario> = Scenario::all_link_failures(&net);
        s.truncate(12);
        s
    };
    let mut rng = StdRng::seed_from_u64(17);
    let inc = WeightSetting::random_symmetric(3, &net, 20, &mut rng);
    let reps = net.duplex_representatives();
    let cands: Vec<WeightSetting> = (0..4)
        .map(|_| {
            let rep = reps[rng.gen_range(0..reps.len())];
            let mut cand = inc.clone();
            for k in 0..3 {
                cand.set_duplex(&net, k, rep, rng.gen_range(1..=20));
            }
            cand
        })
        .collect();

    // Build the cache on the incumbent (allocates freely).
    let mut ws = eng.acquire_workspace();
    let mut cache = dtr::cost::ScenarioCache::new();
    eng.cache_rebuild_begin(&mut ws, &mut cache, &inc, scenarios.len());
    for (pos, &sc) in scenarios.iter().enumerate() {
        eng.cost_capture(&mut ws, &inc, sc, &mut cache, pos);
    }

    // The accept path: re-point the cache at a one-move candidate.
    let accept = |ws: &mut dtr::cost::EvalWorkspace,
                  cache: &mut dtr::cost::ScenarioCache,
                  w: &WeightSetting| {
        eng.cache_refresh(ws, cache, w, |pos| scenarios[pos]);
    };
    // One cycle: per candidate, a plain sweep and a cached sweep against
    // the current incumbent, then accept the candidate.
    let cycle = |ws: &mut dtr::cost::EvalWorkspace, cache: &mut dtr::cost::ScenarioCache| {
        let mut checksum = 0.0f64;
        for cand in &cands {
            for &sc in &scenarios {
                checksum += eng.cost_with(ws, cand, sc).iter().sum::<f64>();
            }
            eng.cache_begin(cache, cand);
            for (pos, &sc) in scenarios.iter().enumerate() {
                checksum += eng
                    .cost_cached(ws, cand, sc, cache, pos)
                    .iter()
                    .sum::<f64>();
            }
            accept(ws, cache, cand);
        }
        checksum
    };

    // Warm: two full cycles see every (incumbent, candidate, scenario)
    // triple of the measured cycle, so the sweep scratch is at its
    // high-water mark. The refresh recycles routing buffers across
    // destinations (LIFO pool, copied into by the commit), so its
    // capacities converge only after many accept cycles. Capacities
    // only grow and the sequence is fixed, so the count is
    // deterministic: on this testbed the last growth happens in the
    // 67th of 400 cycles, and 144 cycles leave a margin.
    let mut checksum = 0.0f64;
    for _ in 0..2 {
        checksum += cycle(&mut ws, &mut cache);
    }
    for _ in 0..144 {
        for cand in &cands {
            accept(&mut ws, &mut cache, cand);
        }
    }

    let before = allocations();
    checksum += cycle(&mut ws, &mut cache);
    let after = allocations();
    eng.release_workspace(ws);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state three-class sweeps and refresh of {} scenarios performed {} heap allocations",
        scenarios.len(),
        after - before
    );
}
