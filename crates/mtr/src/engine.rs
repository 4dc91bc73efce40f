//! The k-class incremental, delta-state evaluation engine — the
//! `dtr_cost::engine` machinery generalized over an arbitrary class mix.
//!
//! [`MtrEvaluator::evaluate`] remains the readable reference path; the
//! search loops run through this module instead:
//!
//! * **Workspace baselines + mask-diff incremental SPF**
//!   ([`MtrEvaluator::cost_with`]): each pooled [`MtrWorkspace`] keeps
//!   the no-failure routing of every class under its current weight
//!   setting as replayable [`DestRouting`] records. A scenario
//!   evaluation re-routes, per class, only the destinations whose
//!   baseline DAG uses a link of the scenario's down-set
//!   ([`dag_uses_any`]); everything else replays its recorded float adds
//!   bit-for-bit. A weight move re-routes only destinations
//!   [`weight_change_affects`] flags. Before this module the MTR
//!   evaluator routed every class from scratch per evaluation.
//! * **Delta-state scenario cache** ([`MtrScenarioCache`], with
//!   [`MtrEvaluator::cache_begin`] / [`MtrEvaluator::cost_cached`] /
//!   [`MtrEvaluator::cache_refresh`] parity to the DTR engine): the
//!   robust phase's candidate sweeps keep, per critical scenario, the
//!   incumbent's folded state — per-class resident load vectors,
//!   per-link contributor lists ([`LinkContrib`]), resident link delays
//!   and per-class SLA pair segments — so a candidate pays only for its
//!   one-duplex-link diff: the mask ∩ move destinations are re-routed,
//!   only links whose contributor set changed are refolded
//!   (destination-index-ordered fold = the reference accumulation, bit
//!   for bit), and the per-class delay DP re-runs only where the routing
//!   or an on-DAG link delay changed. See the `dtr_cost::engine` module
//!   docs for the full exactness argument; the k-class generalization
//!   changes nothing in it (classes fold independently into the shared
//!   total-load vector in class order, exactly as the reference).
//! * **Per-class Λ + Φ floors** ([`MtrEvaluator::lambda_floor`],
//!   [`MtrEvaluator::scenario_floor`]): routing-independent lower
//!   bounds of every class's cost under a scenario — the
//!   propagation-delay bound for SLA classes, and for congestion
//!   classes the load-aware cut bound of `Evaluator::phi_floor`
//!   (per-source out-cut / per-destination in-cut / min-hop volume,
//!   max-combined) applied to the class's own matrix. Both feed the
//!   incumbent-bounded sweep `dtr_core::parallel::sum_set_costs_bounded` so the MTR cutoff
//!   fires as early as DTR's. Weight-independent: computed once per
//!   search.
//! * **Repair-seeded routing everywhere**: the plain scenario path
//!   seeds each recomputed destination from the workspace baseline via
//!   [`route_destination_repair`] (bit-identical to from-scratch
//!   Dijkstra — integer distances), so capture sweeps and uncached
//!   `cost_with` calls get the same route-bound speedup as the cached
//!   path.
//!
//! Bit-for-bit equivalence with [`MtrEvaluator::evaluate`] is pinned by
//! the unit tests here, `tests/mtr_scenarios.rs`, and the randomized
//! chains in `tests/scenario_engine_equivalence.rs`;
//! `tests/search_equivalence.rs` pins the robust-phase trajectory across
//! cutoff/cache settings.

use dtr_cost::engine::{baseline_unchanged, next_engine_id, refold_link, LinkContrib};
use dtr_cost::{congestion, delay_model, sla};
use dtr_net::{LinkId, LinkMask};
use dtr_routing::workspace::{
    dag_uses_any, route_destination, route_destination_repair, weight_change_affects, DestRouting,
    WeightChange,
};
use dtr_routing::{delay, Scenario, SpfWorkspace};

use crate::class::CostModel;
use crate::cost::VecCost;
use crate::evaluator::MtrEvaluator;
use crate::weights::MtrWeightSetting;

/// Marker for "this destination was replayed from the baseline".
/// Outside the [`CACHED_BIT`] range so the decode is order-independent
/// (see `dtr_cost::engine`).
const NOT_RECOMPUTED: u32 = 0x7fff_fffe;

/// Tag bit marking a slot that resolves into the scenario cache's
/// recomputed routings.
const CACHED_BIT: u32 = 0x8000_0000;

/// Tag marking a slot that resolves into the workspace's candidate
/// baseline (a move-touched destination the mask does not affect).
const WS_BASE: u32 = 0x7fff_ffff;

/// The cached no-failure routing of one class under the workspace's
/// current weight setting.
#[derive(Debug, Default)]
struct ClassBaseline {
    weights: Vec<u32>,
    state: Vec<DestRouting>,
    valid: bool,
}

/// Per-thread scratch for the k-class incremental engine; all buffers
/// reach steady-state capacity after one use. Acquire from
/// [`MtrEvaluator::acquire_workspace`].
#[derive(Debug, Default)]
pub struct MtrWorkspace {
    /// Identity of the evaluator whose baselines this workspace holds
    /// (see `dtr_cost::engine`'s owner contract); 0 = none yet.
    owner: u64,
    spf: SpfWorkspace,
    mask: LinkMask,
    up_mask: LinkMask,
    down: Vec<u32>,
    diff: Vec<WeightChange>,
    base: Vec<ClassBaseline>,
    /// Recomputed per-destination routings of the current evaluation
    /// (all classes share the pool; SLA classes read them in the DP).
    scratch: Vec<DestRouting>,
    /// Per-class destination → resolution code.
    scratch_map: Vec<Vec<u32>>,
    class_loads: Vec<Vec<f64>>,
    total_loads: Vec<f64>,
    link_delays: Vec<f64>,
    node_delay: Vec<f64>,
    pair_delays: Vec<(usize, usize, f64)>,
    epoch: u32,
    changed: Vec<Vec<u32>>,
    link_mark: Vec<u32>,
    dirty: Vec<u32>,
    pair_dirty: Vec<u32>,
    new_adds: Vec<Vec<(u32, u32, f64)>>,
    /// Refresh scratch: rebuilt pair-segment offsets of one scenario.
    off_scratch: Vec<u32>,
    /// Refresh scratch: re-route target reused across destinations.
    refresh_tmp: DestRouting,
    /// Refresh scratch: swap buffer for one entry's per-class routed
    /// list (storage rotates with the entry, capacities reach steady
    /// state).
    refresh_list: Vec<(u32, DestRouting)>,
    /// Refresh scratch: recycled routings — leavers park here, newcomers
    /// pop here, so the sharded refresh steady state allocates nothing.
    routing_pool: Vec<DestRouting>,
    /// Cache generation the `base_same` flags were computed against.
    cand_gen: u64,
    /// Per-class per-destination exact baseline diff of the current
    /// candidate vs the cache incumbent
    /// ([`dtr_cost::engine::baseline_unchanged`]).
    base_same: Vec<Vec<bool>>,
}

impl MtrWorkspace {
    fn bind(&mut self, owner: u64, num_links: usize, k: usize) {
        if self.owner != owner {
            self.owner = owner;
            self.mask = LinkMask::all_up(num_links);
            self.up_mask = LinkMask::all_up(num_links);
            self.base.clear();
        } else if self.up_mask.len() != num_links {
            self.up_mask = LinkMask::all_up(num_links);
        }
        self.base.resize_with(k, ClassBaseline::default);
        self.scratch_map.resize_with(k, Vec::new);
        self.class_loads.resize_with(k, Vec::new);
        self.changed.resize_with(k, Vec::new);
        self.new_adds.resize_with(k, Vec::new);
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for ch in &mut self.changed {
                ch.clear();
            }
            self.link_mark.clear();
            self.epoch = 1;
        }
        self.epoch
    }
}

/// Persistent per-scenario state of the cached incumbent, k-class form
/// (see [`dtr_cost::engine::ScenarioEntry`]).
#[derive(Clone, Debug, Default)]
pub struct MtrScenarioEntry {
    /// Per class: exactly the mask-affected destinations, ascending.
    routed: Vec<Vec<(u32, DestRouting)>>,
    /// Per class: resident per-link loads of the incumbent.
    loads: Vec<Vec<f64>>,
    /// Per class: per-link contributor lists, destination-ordered.
    contrib: Vec<LinkContrib>,
    /// Resident per-link delays of the incumbent's total loads.
    link_delays: Vec<f64>,
    /// Per SLA class: resident `(s, t, ξ)` triples in reference emission
    /// order (empty for congestion classes).
    pairs: Vec<Vec<(usize, usize, f64)>>,
    /// Per SLA class: `pair_off[di]..pair_off[di+1]` indexes `pairs`.
    pair_off: Vec<Vec<u32>>,
    /// `true` while the SLA segment state (`link_delays`, `pairs`,
    /// `pair_off`) is resident; `false` after [`demote`](Self::demote)
    /// drops it to the partial tier (routings + loads only).
    sla_resident: bool,
}

impl MtrScenarioEntry {
    /// Measured resident footprint in bytes, from element counts — never
    /// vector capacities — so the number is a pure function of the
    /// captured (incumbent, scenario) state and identical across
    /// processes and thread counts (the residency plan divides the byte
    /// budget by this).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let routed: usize = self
            .routed
            .iter()
            .map(|per_class| {
                per_class
                    .iter()
                    .map(|(_, d)| size_of::<(u32, DestRouting)>() + d.resident_bytes())
                    .sum::<usize>()
            })
            .sum();
        let loads: usize = self.loads.iter().map(|l| l.len() * size_of::<f64>()).sum();
        let contrib: usize = self.contrib.iter().map(LinkContrib::resident_bytes).sum();
        let pairs: usize = self
            .pairs
            .iter()
            .map(|p| p.len() * size_of::<(usize, usize, f64)>())
            .sum();
        let pair_off: usize = self
            .pair_off
            .iter()
            .map(|o| o.len() * size_of::<u32>())
            .sum();
        routed + loads + contrib + self.link_delays.len() * size_of::<f64>() + pairs + pair_off
    }

    /// Footprint of the partial tier — routings, loads and contributor
    /// lists only, with the SLA segment state
    /// ([`demote`](Self::demote)d) excluded. Same element-count-only
    /// determinism contract as [`resident_bytes`](Self::resident_bytes).
    pub fn partial_bytes(&self) -> usize {
        use std::mem::size_of;
        let pairs: usize = self
            .pairs
            .iter()
            .map(|p| p.len() * size_of::<(usize, usize, f64)>())
            .sum();
        let pair_off: usize = self
            .pair_off
            .iter()
            .map(|o| o.len() * size_of::<u32>())
            .sum();
        self.resident_bytes() - self.link_delays.len() * size_of::<f64>() - pairs - pair_off
    }

    /// Drop the SLA segment state, keeping routings + loads + contrib:
    /// the partial residency tier. Demoted entries still ride the cached
    /// load/routing delta path; their delays and SLA segments are
    /// recomputed from candidate totals (bit-identical — unchanged links
    /// carry bitwise-identical total loads and the delay model is pure).
    pub fn demote(&mut self) {
        self.sla_resident = false;
        // Assign fresh vectors (not `clear`) so the memory is actually
        // returned — that is the point of the partial tier.
        self.link_delays = Vec::new();
        self.pairs = Vec::new();
        self.pair_off = Vec::new();
    }
}

/// Delta-state scenario cache for the MTR robust phase — the k-class
/// analogue of [`dtr_cost::ScenarioCache`], with the same
/// `cache_rebuild_begin` / `cost_capture` / `cache_begin` /
/// `cost_cached` / `cache_refresh` life cycle and the same residency
/// budget: only the prefix `0..resident` of the caller's position order
/// is captured and delta-evaluated; positions past it take the plain
/// [`MtrEvaluator::cost_with`] path, which returns the same bits.
#[derive(Debug)]
pub struct MtrScenarioCache {
    weights: Vec<Vec<u32>>,
    base: Vec<Vec<DestRouting>>,
    entries: Vec<MtrScenarioEntry>,
    diff: Vec<Vec<WeightChange>>,
    /// Globally unique stamp of the current (incumbent, candidate diff)
    /// pair (see `dtr_cost::ScenarioCache`).
    generation: u64,
    /// Residency budget in bytes (`usize::MAX` = unbounded).
    budget: usize,
    /// Positions `0..resident` are fully resident (see the type docs).
    resident: usize,
    /// Positions `resident..resident + partial` are partially resident:
    /// routings + loads + contrib only (SLA segments demoted).
    partial: usize,
    /// Per class, per destination: `true` where the last
    /// [`cache_refresh_begin`](MtrEvaluator::cache_refresh_begin) really
    /// moved the incumbent baseline (shared read-only by refresh
    /// workers).
    refresh_changed: Vec<Vec<bool>>,
}

/// Read-only refresh context shared by every
/// [`MtrEvaluator::cache_refresh_entry`] worker of one accept: the
/// already-updated incumbent baseline, the accept diff and the exact
/// "baseline moved" flags (see the parallel-search contract in
/// `DETERMINISM.md`).
#[derive(Clone, Copy, Debug)]
pub struct MtrRefreshCtx<'a> {
    base: &'a [Vec<DestRouting>],
    diff: &'a [Vec<WeightChange>],
    changed: &'a [Vec<bool>],
}

impl Default for MtrScenarioCache {
    fn default() -> Self {
        Self::new()
    }
}

impl MtrScenarioCache {
    /// Fresh, empty, unbounded cache: every position is resident.
    pub fn new() -> Self {
        MtrScenarioCache {
            weights: Vec::new(),
            base: Vec::new(),
            entries: Vec::new(),
            diff: Vec::new(),
            generation: 0,
            budget: usize::MAX,
            resident: 0,
            partial: 0,
            refresh_changed: Vec::new(),
        }
    }

    /// Fresh cache bounded to `bytes` of per-scenario resident state;
    /// the resident count is planned at the first capture of every
    /// rebuild (see [`plan_residency`](Self::plan_residency)).
    pub fn with_budget(bytes: usize) -> Self {
        MtrScenarioCache {
            budget: bytes,
            ..Self::new()
        }
    }

    /// The configured residency budget in bytes (`usize::MAX` =
    /// unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// How many positions are currently resident (full + partial tier)
    /// — the `cache_resident_scenarios` stat.
    pub fn resident_scenarios(&self) -> usize {
        self.resident + self.partial
    }

    /// How many positions are fully resident (SLA segments included);
    /// positions `full..resident_scenarios()` hold the partial tier.
    pub fn full_resident_scenarios(&self) -> usize {
        self.resident
    }

    /// `true` when position `pos` is resident (either tier) — callers
    /// route non-resident positions through the plain evaluation path.
    #[inline]
    pub fn is_resident(&self, pos: usize) -> bool {
        pos < self.resident + self.partial
    }

    /// Plan the resident prefix for a rebuild over `positions` slots by
    /// dividing the budget by the measured footprint of the
    /// already-captured entry 0 (see
    /// [`dtr_cost::ScenarioCache::plan_residency`] — same contract:
    /// element counts only, deterministic; positions past the returned
    /// prefix must be left uncaptured).
    pub fn plan_residency(&mut self, positions: usize) {
        self.partial = 0;
        if self.budget == usize::MAX {
            self.resident = positions;
            return;
        }
        let per_full = self
            .entries
            .first()
            .map_or(0, MtrScenarioEntry::resident_bytes);
        let per_partial = self
            .entries
            .first()
            .map_or(0, MtrScenarioEntry::partial_bytes);
        self.resident = match self.budget.checked_div(per_full) {
            Some(fit) => fit.min(positions),
            // Zero-sized entry (nothing captured): keep everything.
            None => positions,
        };
        if self.resident < positions {
            // Spend the leftover budget on partial-tier entries
            // (routings + loads, SLA segments demoted).
            let leftover = self.budget - self.resident * per_full;
            self.partial = match leftover.checked_div(per_partial) {
                Some(fit) => fit.min(positions - self.resident),
                None => positions - self.resident,
            };
        }
        if self.resident == 0 && self.partial > 0 {
            // Entry 0 was captured fully for calibration but only fits
            // partially: demote it now so the plan is already enforced.
            self.entries[0].demote();
        }
    }

    /// Split into the shared incumbent baseline and the per-position
    /// entries, for sharded capture sweeps.
    pub fn capture_split(&mut self) -> (&[Vec<DestRouting>], &mut [MtrScenarioEntry]) {
        (&self.base, &mut self.entries)
    }

    /// Split into the shared read-only refresh context and the
    /// per-position entries, for sharded refresh sweeps — call between
    /// [`MtrEvaluator::cache_refresh_begin`] and
    /// [`MtrEvaluator::cache_refresh_finish`].
    pub fn refresh_split(&mut self) -> (MtrRefreshCtx<'_>, &mut [MtrScenarioEntry]) {
        (
            MtrRefreshCtx {
                base: &self.base,
                diff: &self.diff,
                changed: &self.refresh_changed,
            },
            &mut self.entries,
        )
    }
}

/// The effective `(link, share)` contribution sequence of destination
/// `di` under the cached incumbent (entry routing where mask-affected,
/// baseline elsewhere, nothing for the excluded node).
fn effective_adds<'a>(
    list: &'a [(u32, DestRouting)],
    base: &'a [DestRouting],
    dests: &[u32],
    excluded: Option<usize>,
    di: usize,
) -> &'a [(u32, f64)] {
    if Some(dests[di] as usize) == excluded {
        return &[];
    }
    match list.binary_search_by_key(&(di as u32), |e| e.0) {
        Ok(k) => list[k].1.load_adds(),
        Err(_) => base[di].load_adds(),
    }
}

impl<'a> MtrEvaluator<'a> {
    /// Check a workspace out of the evaluator's pool.
    pub fn acquire_workspace(&self) -> MtrWorkspace {
        self.pool.acquire()
    }

    /// Return a workspace to the pool so its warmed-up buffers and
    /// baselines benefit later evaluations.
    pub fn release_workspace(&self, ws: MtrWorkspace) {
        self.pool.release(ws);
    }

    /// Scalar-cost shortcut: bit-for-bit the cost of
    /// [`evaluate`](Self::evaluate), computed through a pooled
    /// workspace's incremental engine — no per-evaluation routing of
    /// unaffected destinations, no steady-state allocation beyond the
    /// returned cost vector. All scenario kinds ride this path — node
    /// failures included (the node mask makes the traffic removal
    /// self-enforcing for loads, and the SLA kernel skips the dead
    /// node's pairs; same argument as `dtr_cost::engine`).
    pub fn cost(&self, w: &MtrWeightSetting, scenario: Scenario) -> VecCost {
        let mut ws = self.pool.acquire();
        let cost = self.cost_with(&mut ws, w, scenario);
        self.pool.release(ws);
        cost
    }

    /// Scenario-batched costs of `w`, in input order — bit-for-bit what
    /// per-scenario [`cost`](Self::cost) reports, sharing one pooled
    /// workspace across the whole batch.
    pub fn evaluate_all(&self, w: &MtrWeightSetting, scenarios: &[Scenario]) -> Vec<VecCost> {
        let mut ws = self.pool.acquire();
        let out = scenarios
            .iter()
            .map(|&sc| self.cost_with(&mut ws, w, sc))
            .collect();
        self.pool.release(ws);
        out
    }

    /// The workspace-based incremental cost kernel behind
    /// [`cost`](Self::cost), valid for every scenario kind.
    pub fn cost_with(
        &self,
        ws: &mut MtrWorkspace,
        w: &MtrWeightSetting,
        scenario: Scenario,
    ) -> VecCost {
        assert_eq!(
            w.num_classes(),
            self.num_classes(),
            "weight setting class count mismatch"
        );
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        self.ensure_baseline(ws, w);
        self.cost_scenario(ws, w, scenario, None)
    }

    /// Make `ws`'s per-class baselines describe the no-failure routing
    /// of `w`, re-routing only destinations the weight diff can touch.
    fn ensure_baseline(&self, ws: &mut MtrWorkspace, w: &MtrWeightSetting) {
        ws.bind(self.engine_id, self.net.num_links(), self.num_classes());
        ws.mask.reset_all_up();
        let MtrWorkspace {
            spf,
            mask,
            diff,
            base,
            ..
        } = ws;
        for (k, b) in base.iter_mut().enumerate() {
            let weights = w.weights(k);
            let tm = &self.matrices[k];
            let dests = &self.demand_dests[k];
            if b.valid && b.weights.len() == weights.len() {
                diff.clear();
                diff.extend(
                    b.weights
                        .iter()
                        .zip(weights)
                        .enumerate()
                        .filter(|(_, (o, n))| o != n)
                        .map(|(l, (&o, &n))| WeightChange {
                            link: LinkId::new(l),
                            old: o,
                            new: n,
                        }),
                );
                if diff.is_empty() {
                    continue;
                }
                for (di, &t) in dests.iter().enumerate() {
                    if weight_change_affects(self.net, &b.state[di].dist, diff) {
                        route_destination(
                            self.net,
                            weights,
                            tm,
                            mask,
                            t as usize,
                            spf,
                            &mut b.state[di],
                        );
                    }
                }
                b.weights.copy_from_slice(weights);
            } else {
                b.state.resize_with(dests.len(), DestRouting::default);
                for (di, &t) in dests.iter().enumerate() {
                    route_destination(
                        self.net,
                        weights,
                        tm,
                        mask,
                        t as usize,
                        spf,
                        &mut b.state[di],
                    );
                }
                b.weights.clear();
                b.weights.extend_from_slice(weights);
                b.valid = true;
            }
        }
    }

    /// Evaluate one scenario against valid baselines, optionally
    /// capturing the recomputed routings and folded residents into a
    /// scenario-cache entry.
    fn cost_scenario(
        &self,
        ws: &mut MtrWorkspace,
        w: &MtrWeightSetting,
        scenario: Scenario,
        mut capture: Option<&mut MtrScenarioEntry>,
    ) -> VecCost {
        let excluded = scenario.excluded_node().map(|v| v.index());
        let num_links = self.net.num_links();
        let kn = self.num_classes();
        let MtrWorkspace {
            spf,
            mask,
            down,
            base,
            scratch,
            scratch_map,
            class_loads,
            total_loads,
            link_delays,
            node_delay,
            pair_delays,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));

        if let Some(entry) = capture.as_mut() {
            entry.routed.resize_with(kn, Vec::new);
            for list in &mut entry.routed {
                list.clear();
            }
        }

        let mut scratch_used = 0usize;
        let mut dropped = 0.0f64; // diagnostic only; never in the cost
        for k in 0..kn {
            let weights = w.weights(k);
            let tm = &self.matrices[k];
            let dests = &self.demand_dests[k];
            let loads = &mut class_loads[k];
            loads.clear();
            loads.resize(num_links, 0.0);
            let map = &mut scratch_map[k];
            map.clear();
            map.resize(dests.len(), NOT_RECOMPUTED);
            for (di, &t) in dests.iter().enumerate() {
                if Some(t as usize) == excluded {
                    continue;
                }
                let b = &base[k].state[di];
                let affected = !down.is_empty() && dag_uses_any(self.net, &b.dist, weights, down);
                if !affected {
                    b.replay(loads, &mut dropped);
                    continue;
                }
                if scratch.len() == scratch_used {
                    scratch.push(DestRouting::default());
                }
                let dest = &mut scratch[scratch_used];
                // `b` is this destination's routing under the same class
                // weights with all links up (every caller runs
                // `ensure_baseline` first), so it satisfies the repair
                // precondition: seeding from it reproduces the
                // from-scratch routing bit-for-bit at a fraction of the
                // Dijkstra work.
                if self.plain_repair {
                    route_destination_repair(self.net, weights, tm, mask, t as usize, b, spf, dest);
                } else {
                    route_destination(self.net, weights, tm, mask, t as usize, spf, dest);
                }
                dest.replay(loads, &mut dropped);
                map[di] = scratch_used as u32;
                scratch_used += 1;
                if let Some(entry) = capture.as_mut() {
                    entry.routed[k].push((di as u32, scratch[scratch_used - 1].clone()));
                }
            }
        }

        // Shared FIFO total loads: the reference's zero-initialized
        // class-order accumulation, verbatim.
        total_loads.clear();
        total_loads.resize(num_links, 0.0);
        for loads in class_loads.iter() {
            for (t, &x) in total_loads.iter_mut().zip(loads) {
                *t += x;
            }
        }
        delay_model::link_delays_into(
            total_loads,
            &self.capacities,
            &self.prop_delays,
            &self.config.delay_params,
            link_delays,
        );

        let mut components = Vec::with_capacity(kn);
        let take_max = matches!(
            self.config.delay_params.aggregation,
            dtr_cost::DelayAggregation::Max
        );
        for (k, spec) in self.config.specs.iter().enumerate() {
            match spec.cost {
                CostModel::SlaDelay { .. } => {
                    let weights = w.weights(k);
                    let tm = &self.matrices[k];
                    pair_delays.clear();
                    for (di, &t) in self.demand_dests[k].iter().enumerate() {
                        if Some(t as usize) == excluded {
                            continue;
                        }
                        let dest = match scratch_map[k][di] {
                            NOT_RECOMPUTED => &base[k].state[di],
                            slot => &scratch[slot as usize],
                        };
                        delay::pair_delays_into(
                            self.net,
                            &dest.dist,
                            &dest.order,
                            weights,
                            mask,
                            link_delays,
                            take_max,
                            tm,
                            t as usize,
                            excluded,
                            node_delay,
                            pair_delays,
                        );
                    }
                    let summary = sla::summarize(&*pair_delays, &self.class_params[k]);
                    components.push(summary.lambda);
                    if let Some(entry) = capture.as_mut() {
                        entry.pairs.resize_with(kn, Vec::new);
                        entry.pair_off.resize_with(kn, Vec::new);
                        entry.pairs[k].clone_from(pair_delays);
                        let offs = &mut entry.pair_off[k];
                        offs.clear();
                        offs.push(0);
                        let mut p = 0usize;
                        for &t in &self.demand_dests[k] {
                            while p < entry.pairs[k].len() && entry.pairs[k][p].1 == t as usize {
                                p += 1;
                            }
                            offs.push(p as u32);
                        }
                        debug_assert_eq!(p, entry.pairs[k].len());
                    }
                }
                CostModel::Congestion => {
                    components.push(congestion::phi(
                        total_loads,
                        &class_loads[k],
                        &self.capacities,
                    ));
                    if let Some(entry) = capture.as_mut() {
                        entry.pairs.resize_with(kn, Vec::new);
                        entry.pair_off.resize_with(kn, Vec::new);
                        entry.pairs[k].clear();
                        entry.pair_off[k].clear();
                    }
                }
            }
        }
        VecCost::new(components)
    }

    /// Per-class load- and routing-independent lower bounds of the
    /// scenario's cost vector: for every SLA class, the sum of the
    /// propagation-delay-shortest-path penalties of its demand pairs
    /// under the scenario mask (congestion classes floor at 0). Same
    /// soundness and `1e-9` shave as `Evaluator::lambda_floor` in
    /// `dtr-cost`, applied with each class's own θ/B1/B2.
    pub fn lambda_floor(&self, scenario: Scenario) -> Vec<f64> {
        let mask = scenario.mask(self.net);
        let excluded = scenario.excluded_node().map(|v| v.index());
        self.config
            .specs
            .iter()
            .enumerate()
            .map(|(k, spec)| match spec.cost {
                CostModel::Congestion => 0.0,
                CostModel::SlaDelay { .. } => {
                    let mut lambda = 0.0f64;
                    for &t in &self.demand_dests[k] {
                        let t = t as usize;
                        if Some(t) == excluded {
                            continue;
                        }
                        let dmin = dtr_routing::spf::min_cost_to(
                            self.net,
                            dtr_net::NodeId::new(t),
                            &self.prop_delays,
                            &mask,
                        );
                        for (s, &d) in dmin.iter().enumerate() {
                            if s == t || Some(s) == excluded || self.matrices[k].demand(s, t) <= 0.0
                            {
                                continue;
                            }
                            lambda += sla::pair_penalty(d, &self.class_params[k]);
                        }
                    }
                    lambda * (1.0 - 1e-9)
                }
            })
            .collect()
    }

    /// Per-class routing-independent lower bounds with the congestion
    /// classes floored by the load-aware Φ bound instead of 0: SLA
    /// components come from [`lambda_floor`](Self::lambda_floor); each
    /// congestion class `k` gets the max of three cut bounds on its own
    /// matrix — per-source out-cut, per-destination in-cut, and the
    /// global min-hop volume — exactly as `Evaluator::phi_floor` in
    /// `dtr-cost` (see its soundness argument). The per-class bound is
    /// sound against Φ_k because Φ_k charges every link carrying class-k
    /// load at `c·g(total/c) ≥ c·g(x_k/c)`, so the single-class
    /// congestion bound is a fortiori a lower bound of the shared-link
    /// Φ_k. Weight-independent, so computed once per search and reused
    /// across every candidate sweep; allocation here is fine (cold
    /// path).
    pub fn scenario_floor(&self, scenario: Scenario) -> Vec<f64> {
        let mask = scenario.mask(self.net);
        let excluded = scenario.excluded_node().map(|v| v.index());
        let n = self.net.num_nodes();

        // Surviving cut capacities, shared across classes.
        let mut cap_out = vec![0.0f64; n];
        let mut cap_in = vec![0.0f64; n];
        let mut cap_net = 0.0f64;
        for l in 0..self.net.num_links() {
            if mask.is_down(l) {
                continue;
            }
            let link = self.net.link(LinkId::new(l));
            let c = self.capacities[l];
            cap_out[link.src.index()] += c;
            cap_in[link.dst.index()] += c;
            cap_net += c;
        }

        let mut floors = self.lambda_floor(scenario);
        for (k, spec) in self.config.specs.iter().enumerate() {
            if !matches!(spec.cost, CostModel::Congestion) {
                continue;
            }
            let tm = &self.matrices[k];
            let mut tput_out = vec![0.0f64; n];
            let mut tput_in = vec![0.0f64; n];
            let mut volume = 0.0f64;
            for &t in &self.demand_dests[k] {
                let t = t as usize;
                if Some(t) == excluded {
                    continue;
                }
                let hops = dtr_routing::spf::hops_to(self.net, dtr_net::NodeId::new(t), &mask);
                for (s, &h) in hops.iter().enumerate() {
                    if s == t || Some(s) == excluded || h == dtr_routing::UNREACHABLE {
                        continue;
                    }
                    let d = tm.demand(s, t);
                    if d <= 0.0 {
                        continue;
                    }
                    tput_out[s] += d;
                    tput_in[t] += d;
                    volume += d * h as f64;
                }
            }
            let mut out_cut = 0.0f64;
            let mut in_cut = 0.0f64;
            for v in 0..n {
                if tput_out[v] > 0.0 {
                    out_cut += congestion::link_cost(tput_out[v], cap_out[v]);
                }
                if tput_in[v] > 0.0 {
                    in_cut += congestion::link_cost(tput_in[v], cap_in[v]);
                }
            }
            let volume_bound = if volume > 0.0 {
                congestion::link_cost(volume, cap_net)
            } else {
                0.0
            };
            floors[k] = out_cut.max(in_cut).max(volume_bound) * (1.0 - 1e-9);
        }
        floors
    }

    /// Reset the cache to describe incumbent `w` with `positions`
    /// scenario slots and capture the incumbent's no-failure baseline
    /// routing per class. Entries must then be (re-)captured with
    /// [`cost_capture`](Self::cost_capture).
    pub fn cache_rebuild_begin(
        &self,
        ws: &mut MtrWorkspace,
        cache: &mut MtrScenarioCache,
        w: &MtrWeightSetting,
        positions: usize,
    ) {
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        let kn = self.num_classes();
        self.ensure_baseline(ws, w);
        cache.weights.resize_with(kn, Vec::new);
        cache.base.resize_with(kn, Vec::new);
        cache.diff.resize_with(kn, Vec::new);
        for k in 0..kn {
            cache.weights[k].clear();
            cache.weights[k].extend_from_slice(w.weights(k));
            let dests = &self.demand_dests[k];
            cache.base[k].resize_with(dests.len(), DestRouting::default);
            for (di, slot) in cache.base[k].iter_mut().enumerate() {
                slot.clone_from(&ws.base[k].state[di]);
            }
        }
        cache
            .entries
            .resize_with(positions, MtrScenarioEntry::default);
        for e in &mut cache.entries {
            for list in &mut e.routed {
                list.clear();
            }
        }
        // Unbounded caches are fully resident up front; bounded caches
        // stay at 0 until the caller captures entry 0 and calls
        // `plan_residency`.
        cache.resident = if cache.budget == usize::MAX {
            positions
        } else {
            0
        };
        cache.partial = 0;
        cache.generation = next_engine_id();
    }

    /// Compute the per-class weight diff of candidate `w` against the
    /// cache's incumbent, preparing [`cost_cached`](Self::cost_cached)
    /// calls. Returns the number of changed directed (class, link)
    /// slots.
    pub fn cache_begin(&self, cache: &mut MtrScenarioCache, w: &MtrWeightSetting) -> usize {
        let mut changed = 0;
        for (k, diffk) in cache.diff.iter_mut().enumerate() {
            let weights = w.weights(k);
            assert_eq!(
                cache.weights[k].len(),
                weights.len(),
                "cache incumbent and candidate disagree on link count"
            );
            diffk.clear();
            diffk.extend(
                cache.weights[k]
                    .iter()
                    .zip(weights)
                    .enumerate()
                    .filter(|(_, (o, n))| o != n)
                    .map(|(l, (&o, &n))| WeightChange {
                        link: LinkId::new(l),
                        old: o,
                        new: n,
                    }),
            );
            changed += diffk.len();
        }
        cache.generation = next_engine_id();
        changed
    }

    /// [`cost_with`](Self::cost_with) that also captures the scenario's
    /// full delta-state into `cache.entries[pos]`, run over the
    /// incumbent. Returns the plain evaluation's cost bit-for-bit.
    pub fn cost_capture(
        &self,
        ws: &mut MtrWorkspace,
        w: &MtrWeightSetting,
        scenario: Scenario,
        cache: &mut MtrScenarioCache,
        pos: usize,
    ) -> VecCost {
        let (base, entries) = cache.capture_split();
        self.cost_capture_into(ws, w, scenario, base, &mut entries[pos])
    }

    /// Entry-level form of [`cost_capture`](Self::cost_capture) for
    /// sharded capture sweeps (entries are position-disjoint; the
    /// baseline from [`MtrScenarioCache::capture_split`] is shared
    /// read-only).
    pub fn cost_capture_into(
        &self,
        ws: &mut MtrWorkspace,
        w: &MtrWeightSetting,
        scenario: Scenario,
        base: &[Vec<DestRouting>],
        entry: &mut MtrScenarioEntry,
    ) -> VecCost {
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        let kn = self.num_classes();
        self.ensure_baseline(ws, w);
        let cost = self.cost_scenario(ws, w, scenario, Some(entry));
        let excluded = scenario.excluded_node().map(|v| v.index());

        entry.loads.resize_with(kn, Vec::new);
        entry.contrib.resize_with(kn, LinkContrib::default);
        for k in 0..kn {
            entry.loads[k].clone_from(&ws.class_loads[k]);
        }
        entry.link_delays.clone_from(&ws.link_delays);
        entry.sla_resident = true;
        let MtrScenarioEntry {
            routed, contrib, ..
        } = entry;
        for (k, cb) in contrib.iter_mut().enumerate() {
            let list: &[(u32, DestRouting)] = &routed[k];
            let dests = &self.demand_dests[k];
            cb.rebuild(self.net.num_links(), dests.len(), |di| {
                effective_adds(list, &base[k], dests, excluded, di)
            });
        }
        cost
    }

    /// Delta-state candidate evaluation through the scenario cache — the
    /// k-class [`Evaluator::cost_cached`](dtr_cost::Evaluator::cost_cached):
    /// re-routes only destinations the candidate diff can touch, refolds
    /// only links whose contributor set changed, re-runs each SLA
    /// class's delay DP only where the routing or an on-DAG link delay
    /// changed. Requires a preceding [`cache_begin`](Self::cache_begin)
    /// for this exact `w`; bit-for-bit
    /// [`cost_with`](Self::cost_with)'s result.
    pub fn cost_cached(
        &self,
        ws: &mut MtrWorkspace,
        w: &MtrWeightSetting,
        scenario: Scenario,
        cache: &MtrScenarioCache,
        pos: usize,
    ) -> VecCost {
        let num_links = self.net.num_links();
        assert_eq!(w.num_links(), num_links, "weight size mismatch");
        let kn = self.num_classes();
        self.ensure_baseline(ws, w);
        // Exact per-destination baseline diff vs the cache incumbent,
        // computed once per (candidate, cache generation) and shared by
        // the candidate's whole scenario sweep (see the DTR engine).
        if ws.cand_gen != cache.generation {
            ws.cand_gen = cache.generation;
            ws.base_same.resize_with(kn, Vec::new);
            for k in 0..kn {
                let dests = &self.demand_dests[k];
                let basec = &cache.base[k];
                assert_eq!(
                    basec.len(),
                    dests.len(),
                    "cache baseline missing; run cache_rebuild_begin first"
                );
                let diffk = &cache.diff[k];
                let flags = &mut ws.base_same[k];
                flags.clear();
                flags.resize(dests.len(), false);
                for (di, flag) in flags.iter_mut().enumerate() {
                    *flag = diffk.is_empty()
                        || baseline_unchanged(
                            self.net,
                            &ws.base[k].state[di].dist,
                            &basec[di].dist,
                            diffk,
                        );
                }
            }
        }
        let epoch = ws.next_epoch();
        let entry = &cache.entries[pos];
        let full = entry.sla_resident;
        debug_assert!(
            !entry.loads.is_empty() && entry.loads[0].len() == num_links,
            "cost_cached requires a captured entry"
        );
        debug_assert!(
            !full || entry.link_delays.len() == num_links,
            "full-resident entry is missing its delay state"
        );
        let excluded = scenario.excluded_node().map(|v| v.index());
        let MtrWorkspace {
            spf,
            mask,
            down,
            base: ws_base,
            scratch,
            scratch_map,
            class_loads,
            total_loads,
            link_delays,
            node_delay,
            pair_delays,
            changed,
            link_mark,
            dirty,
            pair_dirty,
            new_adds,
            base_same,
            ..
        } = ws;
        scenario.mask_into(self.net, mask);
        down.clear();
        down.extend(mask.down_links().map(|i| i as u32));
        if link_mark.len() != num_links {
            link_mark.clear();
            link_mark.resize(num_links, 0);
        }
        dirty.clear();
        pair_dirty.clear();
        let mut scratch_used = 0usize;

        // Pass 1: classify destinations, re-route changed ones, collect
        // dirty links and fresh shares.
        for k in 0..kn {
            let weights = w.weights(k);
            let tm = &self.matrices[k];
            let dests = &self.demand_dests[k];
            let basec = &cache.base[k];
            let diffk = &cache.diff[k];
            let list: &[(u32, DestRouting)] = &entry.routed[k];
            let ch = &mut changed[k];
            ch.resize(dests.len(), 0);
            new_adds[k].clear();
            let map = &mut scratch_map[k];
            map.clear();
            map.resize(dests.len(), NOT_RECOMPUTED);
            let mut cursor = 0usize;
            for (di, &t) in dests.iter().enumerate() {
                while cursor < list.len() && list[cursor].0 < di as u32 {
                    cursor += 1;
                }
                let hit = cursor < list.len() && list[cursor].0 == di as u32;
                if Some(t as usize) == excluded {
                    continue;
                }
                let (old_r, fresh_code): (Option<&DestRouting>, u32) = if base_same[k][di] {
                    if !hit {
                        continue;
                    }
                    let hr = &list[cursor].1;
                    if diffk.is_empty() || !weight_change_affects(self.net, &hr.dist, diffk) {
                        map[di] = CACHED_BIT | cursor as u32;
                        continue;
                    }
                    // mask ∩ move: repair from the candidate baseline,
                    // keeping the result only if it really moved.
                    if scratch.len() == scratch_used {
                        scratch.push(DestRouting::default());
                    }
                    route_destination_repair(
                        self.net,
                        weights,
                        tm,
                        mask,
                        t as usize,
                        &ws_base[k].state[di],
                        spf,
                        &mut scratch[scratch_used],
                    );
                    if baseline_unchanged(self.net, &scratch[scratch_used].dist, &hr.dist, diffk) {
                        map[di] = CACHED_BIT | cursor as u32;
                        continue;
                    }
                    (Some(&list[cursor].1), scratch_used as u32)
                } else {
                    // The diff really moved this destination's baseline;
                    // its scenario routing may still survive (see the
                    // DTR engine).
                    let affected = !down.is_empty()
                        && dag_uses_any(self.net, &ws_base[k].state[di].dist, weights, down);
                    if !affected {
                        let old: &DestRouting = if hit { &list[cursor].1 } else { &basec[di] };
                        (Some(old), WS_BASE)
                    } else {
                        if hit {
                            let hr = &list[cursor].1;
                            if diffk.is_empty() || !weight_change_affects(self.net, &hr.dist, diffk)
                            {
                                map[di] = CACHED_BIT | cursor as u32;
                                continue;
                            }
                        }
                        if scratch.len() == scratch_used {
                            scratch.push(DestRouting::default());
                        }
                        route_destination_repair(
                            self.net,
                            weights,
                            tm,
                            mask,
                            t as usize,
                            &ws_base[k].state[di],
                            spf,
                            &mut scratch[scratch_used],
                        );
                        if hit {
                            let hr = &list[cursor].1;
                            if baseline_unchanged(
                                self.net,
                                &scratch[scratch_used].dist,
                                &hr.dist,
                                diffk,
                            ) {
                                map[di] = CACHED_BIT | cursor as u32;
                                continue;
                            }
                        }
                        let old: &DestRouting = if hit { &list[cursor].1 } else { &basec[di] };
                        (Some(old), scratch_used as u32)
                    }
                };
                ch[di] = epoch;
                map[di] = fresh_code;
                if fresh_code != WS_BASE {
                    scratch_used += 1;
                }
                if let Some(old) = old_r {
                    for &(l, _) in old.load_adds() {
                        if link_mark[l as usize] != epoch {
                            link_mark[l as usize] = epoch;
                            dirty.push(l);
                        }
                    }
                }
                let fresh: &DestRouting = if fresh_code == WS_BASE {
                    &ws_base[k].state[di]
                } else {
                    &scratch[fresh_code as usize]
                };
                for &(l, share) in fresh.load_adds() {
                    if link_mark[l as usize] != epoch {
                        link_mark[l as usize] = epoch;
                        dirty.push(l);
                    }
                    new_adds[k].push((l, di as u32, share));
                }
            }
        }

        // Pass 2: per-class candidate loads — refold dirty links when few,
        // replay every destination's effective adds when a large move
        // dirtied most of the network (see the DTR engine; both are the
        // reference accumulation bit for bit).
        let use_refold = dirty.len() * 4 < num_links;
        for k in 0..kn {
            let loads = &mut class_loads[k];
            if use_refold {
                loads.clear();
                loads.extend_from_slice(&entry.loads[k]);
                new_adds[k].sort_unstable_by_key(|&(l, d, _)| (l, d));
                let adds = &new_adds[k];
                let ch = &changed[k];
                for &l in dirty.iter() {
                    let lo = adds.partition_point(|&(al, _, _)| al < l);
                    let hi = lo + adds[lo..].partition_point(|&(al, _, _)| al == l);
                    loads[l as usize] =
                        refold_link(entry.contrib[k].row(l as usize), &adds[lo..hi], |d| {
                            ch[d as usize] == epoch
                        });
                }
            } else {
                loads.clear();
                loads.resize(num_links, 0.0);
                let mut dropped = 0.0f64;
                let dests = &self.demand_dests[k];
                let list: &[(u32, DestRouting)] = &entry.routed[k];
                for (di, &t) in dests.iter().enumerate() {
                    if Some(t as usize) == excluded {
                        continue;
                    }
                    let r: &DestRouting = match scratch_map[k][di] {
                        NOT_RECOMPUTED => &cache.base[k][di],
                        WS_BASE => &ws_base[k].state[di],
                        code if code & CACHED_BIT != 0 => &list[(code & !CACHED_BIT) as usize].1,
                        slot => &scratch[slot as usize],
                    };
                    r.replay(loads, &mut dropped);
                }
            }
        }

        // Totals (reference class-order fold) + patched link delays.
        total_loads.clear();
        total_loads.resize(num_links, 0.0);
        for loads in class_loads.iter() {
            for (t, &x) in total_loads.iter_mut().zip(loads) {
                *t += x;
            }
        }
        link_delays.clear();
        if full {
            link_delays.extend_from_slice(&entry.link_delays);
            for &l in dirty.iter() {
                let li = l as usize;
                let d = delay_model::link_delay(
                    total_loads[li],
                    self.capacities[li],
                    self.prop_delays[li],
                    &self.config.delay_params,
                );
                if d.to_bits() != link_delays[li].to_bits() {
                    link_delays[li] = d;
                    pair_dirty.push(l);
                }
            }
        } else {
            // Partial tier: no resident delay state — recompute every
            // link from the candidate totals. Bit-identical to the
            // patched path: unchanged links carry bitwise-identical
            // total loads and the delay model is pure.
            link_delays.extend(total_loads.iter().enumerate().map(|(li, &t)| {
                delay_model::link_delay(
                    t,
                    self.capacities[li],
                    self.prop_delays[li],
                    &self.config.delay_params,
                )
            }));
        }

        // Pass 3: per-class components (resident SLA segments where the
        // diff provably cannot have moved them).
        let take_max = matches!(
            self.config.delay_params.aggregation,
            dtr_cost::DelayAggregation::Max
        );
        let mut components = Vec::with_capacity(kn);
        for (k, spec) in self.config.specs.iter().enumerate() {
            match spec.cost {
                CostModel::SlaDelay { .. } => {
                    let weights = w.weights(k);
                    let tm = &self.matrices[k];
                    pair_delays.clear();
                    for (di, &t) in self.demand_dests[k].iter().enumerate() {
                        if Some(t as usize) == excluded {
                            continue;
                        }
                        let code = scratch_map[k][di];
                        let dest: &DestRouting = if code == NOT_RECOMPUTED {
                            &cache.base[k][di]
                        } else if code == WS_BASE {
                            &ws_base[k].state[di]
                        } else if code & CACHED_BIT != 0 {
                            &entry.routed[k][(code & !CACHED_BIT) as usize].1
                        } else {
                            &scratch[code as usize]
                        };
                        if full
                            && (code == NOT_RECOMPUTED || code & CACHED_BIT != 0)
                            && (pair_dirty.is_empty()
                                || !dag_uses_any(self.net, &dest.dist, weights, pair_dirty))
                        {
                            let s = entry.pair_off[k][di] as usize;
                            let e = entry.pair_off[k][di + 1] as usize;
                            pair_delays.extend_from_slice(&entry.pairs[k][s..e]);
                            continue;
                        }
                        delay::pair_delays_into(
                            self.net,
                            &dest.dist,
                            &dest.order,
                            weights,
                            mask,
                            link_delays,
                            take_max,
                            tm,
                            t as usize,
                            excluded,
                            node_delay,
                            pair_delays,
                        );
                    }
                    components.push(sla::summarize(&*pair_delays, &self.class_params[k]).lambda);
                }
                CostModel::Congestion => {
                    components.push(congestion::phi(
                        total_loads,
                        &class_loads[k],
                        &self.capacities,
                    ));
                }
            }
        }
        VecCost::new(components)
    }

    /// Re-point the cache at a new incumbent `w` incrementally (the
    /// accept-path maintenance of the MTR robust phase): surviving
    /// routings are kept, coverage of each scenario's mask-affected set
    /// is maintained exactly, and the resident folded state is updated
    /// to describe `w` — same scheme as
    /// [`Evaluator::cache_refresh`](dtr_cost::Evaluator::cache_refresh).
    pub fn cache_refresh(
        &self,
        ws: &mut MtrWorkspace,
        cache: &mut MtrScenarioCache,
        w: &MtrWeightSetting,
        scenario_at: impl Fn(usize) -> Scenario,
    ) {
        self.cache_refresh_begin(ws, cache, w);
        let resident = cache.resident + cache.partial;
        let (ctx, entries) = cache.refresh_split();
        for (pos, entry) in entries.iter_mut().enumerate().take(resident) {
            self.cache_refresh_entry(ws, w, &ctx, scenario_at(pos), entry);
        }
        self.cache_refresh_finish(cache, w);
    }

    /// First stage of [`cache_refresh`](Self::cache_refresh): compute
    /// the accept diff and update the incumbent no-failure baseline per
    /// class, recording exactly which destinations really moved in the
    /// cache's shared `refresh_changed` flags. Runs serially; the
    /// per-entry stage that follows may then be sharded (see the
    /// parallel-search contract in `DETERMINISM.md`).
    pub fn cache_refresh_begin(
        &self,
        ws: &mut MtrWorkspace,
        cache: &mut MtrScenarioCache,
        w: &MtrWeightSetting,
    ) {
        let num_links = self.net.num_links();
        assert_eq!(w.num_links(), num_links, "weight size mismatch");
        let kn = self.num_classes();
        ws.bind(self.engine_id, num_links, kn);
        let MtrScenarioCache {
            weights,
            base,
            diff,
            refresh_changed,
            ..
        } = cache;
        assert_eq!(base.len(), kn, "cache baseline missing");
        for (k, diffk) in diff.iter_mut().enumerate() {
            let new = w.weights(k);
            assert_eq!(weights[k].len(), new.len(), "link count mismatch");
            diffk.clear();
            diffk.extend(
                weights[k]
                    .iter()
                    .zip(new)
                    .enumerate()
                    .filter(|(_, (o, n))| o != n)
                    .map(|(l, (&o, &n))| WeightChange {
                        link: LinkId::new(l),
                        old: o,
                        new: n,
                    }),
            );
        }

        // Baseline update, filtering the predicate's false positives
        // with the exact diff so bit-identical re-routes don't churn
        // entries or re-run delay DPs downstream. The exact flags land
        // on the cache, shared read-only by the entry stage's workers.
        refresh_changed.resize_with(kn, Default::default);
        let mut tmp = std::mem::take(&mut ws.refresh_tmp);
        for k in 0..kn {
            let class_weights = w.weights(k);
            let tm = &self.matrices[k];
            let dests = &self.demand_dests[k];
            assert_eq!(base[k].len(), dests.len(), "cache baseline missing");
            refresh_changed[k].clear();
            refresh_changed[k].resize(dests.len(), false);
            for (di, &t) in dests.iter().enumerate() {
                if diff[k].is_empty()
                    || !weight_change_affects(self.net, &base[k][di].dist, &diff[k])
                {
                    continue;
                }
                route_destination(
                    self.net,
                    class_weights,
                    tm,
                    &ws.up_mask,
                    t as usize,
                    &mut ws.spf,
                    &mut tmp,
                );
                if !baseline_unchanged(self.net, &tmp.dist, &base[k][di].dist, &diff[k]) {
                    std::mem::swap(&mut base[k][di], &mut tmp);
                    refresh_changed[k][di] = true;
                }
            }
        }
        ws.refresh_tmp = tmp;
    }

    /// Per-entry stage of [`cache_refresh`](Self::cache_refresh) — the
    /// shardable hot kernel. Entries are position-disjoint and the
    /// context from [`MtrScenarioCache::refresh_split`] is shared
    /// read-only, so disjoint entry chunks may be refreshed
    /// concurrently by pooled workspaces; the result is the same bits
    /// as the serial loop in any order (see the parallel-search
    /// contract in `DETERMINISM.md`). Steady state allocates nothing
    /// per worker: the rebuilt routed list swaps storage with the
    /// workspace spare, leaver routings recycle through the workspace
    /// pool and newcomers pop from it. Partial-tier entries stop after
    /// the load refold (their SLA state is demoted).
    pub fn cache_refresh_entry(
        &self,
        ws: &mut MtrWorkspace,
        w: &MtrWeightSetting,
        ctx: &MtrRefreshCtx<'_>,
        scenario: Scenario,
        entry: &mut MtrScenarioEntry,
    ) {
        let num_links = self.net.num_links();
        let kn = self.num_classes();
        ws.bind(self.engine_id, num_links, kn);
        let MtrRefreshCtx {
            base,
            diff,
            changed: base_changed,
        } = *ctx;
        let take_max = matches!(
            self.config.delay_params.aggregation,
            dtr_cost::DelayAggregation::Max
        );
        {
            scenario.mask_into(self.net, &mut ws.mask);
            ws.down.clear();
            ws.down.extend(ws.mask.down_links().map(|i| i as u32));
            let excluded = scenario.excluded_node().map(|v| v.index());
            let epoch = ws.next_epoch();
            let mut tmp = std::mem::take(&mut ws.refresh_tmp);
            let mut spare = std::mem::take(&mut ws.refresh_list);
            let mut pool = std::mem::take(&mut ws.routing_pool);

            for k in 0..kn {
                let class_weights = w.weights(k);
                let tm = &self.matrices[k];
                let dests = &self.demand_dests[k];
                let ch = &mut ws.changed[k];
                ch.resize(dests.len(), 0);
                let list = &mut entry.routed[k];
                std::mem::swap(list, &mut spare);
                list.clear();
                let mut it = spare.drain(..).peekable();
                for (di, &t) in dests.iter().enumerate() {
                    let hit = it
                        .peek()
                        .is_some_and(|(d, _)| *d == di as u32)
                        .then(|| it.next().unwrap().1);
                    if Some(t as usize) == excluded {
                        if let Some(r) = hit {
                            pool.push(r);
                        }
                        continue;
                    }
                    if base_changed[k][di] {
                        let affected = !ws.down.is_empty()
                            && dag_uses_any(self.net, &base[k][di].dist, class_weights, &ws.down);
                        if affected {
                            // The cached scenario routing survives when
                            // the diff provably cannot change it.
                            if let Some(routing) = hit {
                                if diff[k].is_empty()
                                    || !weight_change_affects(self.net, &routing.dist, &diff[k])
                                {
                                    list.push((di as u32, routing));
                                    continue;
                                }
                                let mut routing = routing;
                                route_destination_repair(
                                    self.net,
                                    class_weights,
                                    tm,
                                    &ws.mask,
                                    t as usize,
                                    &base[k][di],
                                    &mut ws.spf,
                                    &mut tmp,
                                );
                                if !baseline_unchanged(self.net, &tmp.dist, &routing.dist, &diff[k])
                                {
                                    ch[di] = epoch;
                                    std::mem::swap(&mut routing, &mut tmp);
                                }
                                list.push((di as u32, routing));
                                continue;
                            }
                            ch[di] = epoch;
                            let mut routing = pool.pop().unwrap_or_default();
                            route_destination_repair(
                                self.net,
                                class_weights,
                                tm,
                                &ws.mask,
                                t as usize,
                                &base[k][di],
                                &mut ws.spf,
                                &mut routing,
                            );
                            list.push((di as u32, routing));
                        } else {
                            ch[di] = epoch;
                            if let Some(r) = hit {
                                pool.push(r);
                            }
                        }
                    } else if let Some(mut routing) = hit {
                        if !diff[k].is_empty()
                            && weight_change_affects(self.net, &routing.dist, &diff[k])
                        {
                            route_destination_repair(
                                self.net,
                                class_weights,
                                tm,
                                &ws.mask,
                                t as usize,
                                &base[k][di],
                                &mut ws.spf,
                                &mut tmp,
                            );
                            if !baseline_unchanged(self.net, &tmp.dist, &routing.dist, &diff[k]) {
                                ch[di] = epoch;
                                std::mem::swap(&mut routing, &mut tmp);
                            }
                        }
                        list.push((di as u32, routing));
                    }
                }
                for (_, r) in it {
                    pool.push(r);
                }

                let list: &[(u32, DestRouting)] = list;
                let basec = &base[k];
                entry.contrib[k].rebuild(num_links, dests.len(), |di| {
                    effective_adds(list, basec, dests, excluded, di)
                });
                let loads = &mut entry.loads[k];
                loads.clear();
                loads.resize(num_links, 0.0);
                for (l, load) in loads.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for &(_, share) in entry.contrib[k].row(l) {
                        acc += share;
                    }
                    *load = acc;
                }
            }
            ws.refresh_tmp = tmp;
            ws.refresh_list = spare;
            ws.routing_pool = pool;
            if !entry.sla_resident {
                // Partial tier: no resident delay or SLA segment state
                // to maintain.
                return;
            }

            // Delays, remembering which changed bitwise.
            ws.total_loads.clear();
            ws.total_loads.resize(num_links, 0.0);
            for loads in &entry.loads {
                for (t, &x) in ws.total_loads.iter_mut().zip(loads) {
                    *t += x;
                }
            }
            ws.pair_dirty.clear();
            for (l, old) in entry.link_delays.iter_mut().enumerate() {
                let d = delay_model::link_delay(
                    ws.total_loads[l],
                    self.capacities[l],
                    self.prop_delays[l],
                    &self.config.delay_params,
                );
                if d.to_bits() != old.to_bits() {
                    *old = d;
                    ws.pair_dirty.push(l as u32);
                }
            }

            // Pair segments per SLA class.
            for (k, spec) in self.config.specs.iter().enumerate() {
                if matches!(spec.cost, CostModel::Congestion) {
                    continue;
                }
                let class_weights = w.weights(k);
                ws.pair_delays.clear();
                let mut cursor = 0usize;
                let list = &entry.routed[k];
                let new_offs = &mut ws.off_scratch;
                new_offs.clear();
                new_offs.push(0);
                for (di, &t) in self.demand_dests[k].iter().enumerate() {
                    if Some(t as usize) != excluded {
                        while cursor < list.len() && list[cursor].0 < di as u32 {
                            cursor += 1;
                        }
                        let hit = cursor < list.len() && list[cursor].0 == di as u32;
                        let dest: &DestRouting = if hit { &list[cursor].1 } else { &base[k][di] };
                        let routing_changed = ws.changed[k][di] == epoch;
                        if !routing_changed
                            && (ws.pair_dirty.is_empty()
                                || !dag_uses_any(
                                    self.net,
                                    &dest.dist,
                                    class_weights,
                                    &ws.pair_dirty,
                                ))
                        {
                            let s = entry.pair_off[k][di] as usize;
                            let e = entry.pair_off[k][di + 1] as usize;
                            ws.pair_delays.extend_from_slice(&entry.pairs[k][s..e]);
                        } else {
                            delay::pair_delays_into(
                                self.net,
                                &dest.dist,
                                &dest.order,
                                class_weights,
                                &ws.mask,
                                &entry.link_delays,
                                take_max,
                                &self.matrices[k],
                                t as usize,
                                excluded,
                                &mut ws.node_delay,
                                &mut ws.pair_delays,
                            );
                        }
                    }
                    new_offs.push(ws.pair_delays.len() as u32);
                }
                entry.pairs[k].clone_from(&ws.pair_delays);
                entry.pair_off[k].clone_from(new_offs);
            }
        }
    }

    /// Final stage of [`cache_refresh`](Self::cache_refresh): stamp the
    /// cache as describing `w` and bump the generation. Call once,
    /// after every entry-stage worker has finished.
    pub fn cache_refresh_finish(&self, cache: &mut MtrScenarioCache, w: &MtrWeightSetting) {
        for (k, buf) in cache.weights.iter_mut().enumerate() {
            buf.clear();
            buf.extend_from_slice(w.weights(k));
        }
        cache.generation = next_engine_id();
    }
}
