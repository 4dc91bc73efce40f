//! The network-cost evaluator: the full §III pipeline.
//!
//! One [`Evaluator::evaluate`] call performs, for a given weight setting
//! and failure scenario:
//!
//! 1. apply the failure mask (and, for node failures, traffic removal);
//! 2. route both classes independently on their weighted topologies
//!    (ECMP, destination-based);
//! 3. sum per-class loads into total loads `x_l` (shared FIFO queue);
//! 4. compute per-link delays `D_l` (Eq. 1) from total loads;
//! 5. fold per-pair end-to-end delays `ξ(s,t)` over the delay-class DAGs
//!    (distance fields are reused from step 2 — no second SPF);
//! 6. score `Λ` (Eq. 2) and `Φ` (Fortz–Thorup) into the lexicographic
//!    global cost `K`.
//!
//! This function is *the* hot path of the whole system: the local search
//! calls it once per weight perturbation (Phase 1) and once per critical
//! link per perturbation (Phase 2).

use dtr_net::Network;
use dtr_routing::{delay, route_class, Class, ClassRouting, Scenario, WeightSetting, UNREACHABLE};
use dtr_traffic::ClassMatrices;

use crate::congestion;
use crate::delay_model;
use crate::engine::{Engine, EvalWorkspace, ScenarioCache};
use crate::lexico::LexCost;
use crate::params::{CostModel, CostParams, DelayAggregation};
use crate::sla::{self, SlaSummary};

/// Everything one evaluation produces. The scalar cost drives the search;
/// the vectors feed the experiment reports (per-failure-link series, link
/// utilization plots, delay distributions).
#[derive(Clone, Debug)]
pub struct CostBreakdown {
    /// The lexicographic global cost `K = ⟨Λ, Φ⟩`.
    pub cost: LexCost,
    /// SLA accounting for the delay class (violation count = the paper's β).
    pub sla: SlaSummary,
    /// Total load `x_l` per directed link (bits/s).
    pub total_loads: Vec<f64>,
    /// Delay-class load per directed link.
    pub delay_loads: Vec<f64>,
    /// Throughput-class load per directed link.
    pub throughput_loads: Vec<f64>,
    /// Per-link delay `D_l` (seconds) under the total loads.
    pub link_delays: Vec<f64>,
    /// `(s, t, ξ)` for every delay-class SD pair with positive demand.
    pub pair_delays: Vec<(usize, usize, f64)>,
    /// Demand (bits/s, both classes) unroutable under the scenario.
    pub dropped: f64,
    /// The scenario evaluated.
    pub scenario: Scenario,
}

impl CostBreakdown {
    /// Per-link utilization `x_l / C_l`.
    pub fn utilizations(&self, net: &Network) -> Vec<f64> {
        self.total_loads
            .iter()
            .zip(net.links())
            .map(|(&x, l)| x / net.link(l).capacity)
            .collect()
    }

    /// Largest link utilization.
    pub fn max_utilization(&self, net: &Network) -> f64 {
        self.utilizations(net).into_iter().fold(0.0, f64::max)
    }

    /// Mean link utilization (over all links, loaded or not) — the paper's
    /// "average link utilization".
    pub fn mean_utilization(&self, net: &Network) -> f64 {
        let u = self.utilizations(net);
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }
}

/// Reusable evaluation context: network + base traffic + cost parameters.
/// Cheap to construct. [`evaluate`](Self::evaluate) is the readable
/// reference path; everything else runs on the two-class instantiation
/// of the delta-state [`Engine`] — an SLA class scored with the caller's
/// θ, B1 and B2, then a congestion class, under the caller's delay model
/// and ECMP aggregation — and reads its two components into a
/// [`LexCost`].
pub struct Evaluator<'a> {
    net: &'a Network,
    traffic: &'a ClassMatrices,
    params: CostParams,
    engine: Engine<'a>,
}

/// The two engine components of a DTR evaluation as `⟨Λ, Φ⟩`.
fn lex(c: &[f64]) -> LexCost {
    LexCost::new(c[0], c[1])
}

impl<'a> Evaluator<'a> {
    /// Build an evaluator. Panics if the traffic matrices and network
    /// disagree on node count or the parameters are invalid.
    pub fn new(net: &'a Network, traffic: &'a ClassMatrices, params: CostParams) -> Self {
        params.validate();
        assert_eq!(
            traffic.num_nodes(),
            net.num_nodes(),
            "traffic matrices must match the network size"
        );
        let sla = CostModel::SlaDelay {
            theta: params.theta,
            b1: params.b1,
            b2_per_ms: params.b2_per_ms,
        };
        let classes = vec![
            (&traffic.delay, sla),
            (&traffic.throughput, CostModel::Congestion),
        ];
        Evaluator {
            net,
            traffic,
            params,
            engine: Engine::new(net, classes, params),
        }
    }

    /// The delta-state engine behind the fast paths.
    pub fn engine(&self) -> &Engine<'a> {
        &self.engine
    }

    pub fn net(&self) -> &Network {
        self.net
    }

    pub fn traffic(&self) -> &ClassMatrices {
        self.traffic
    }

    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Full evaluation of one (weight setting, scenario) pair.
    ///
    /// # Panics
    /// Panics unless `w` is a two-class setting over the network's links.
    pub fn evaluate(&self, w: &WeightSetting, scenario: Scenario) -> CostBreakdown {
        assert_eq!(w.num_classes(), 2, "a DTR weight setting has two classes");
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        let mask = scenario.mask(self.net);
        let offered = scenario.offered_traffic(self.traffic);

        let rd = route_class(self.net, w.weights(Class::Delay), &offered.delay, &mask);
        let rt = route_class(
            self.net,
            w.weights(Class::Throughput),
            &offered.throughput,
            &mask,
        );
        let total_loads = dtr_routing::router::total_loads(&rd, &rt);
        let link_delays = delay_model::link_delays(
            &total_loads,
            self.engine.capacities(),
            self.engine.prop_delays(),
            &self.params,
        );

        let pair_delays = self.delay_pair_delays(w, &mask, &rd, &offered, &link_delays);
        let sla = sla::summarize(&pair_delays, &self.params);
        let phi = congestion::phi(&total_loads, &rt.loads, self.engine.capacities());
        let dropped = rd.dropped + rt.dropped;

        CostBreakdown {
            cost: LexCost::new(sla.lambda, phi),
            sla,
            total_loads,
            delay_loads: rd.loads,
            throughput_loads: rt.loads,
            link_delays,
            pair_delays,
            dropped,
            scenario,
        }
    }

    /// Scalar-cost shortcut: bit-for-bit the cost of
    /// [`evaluate`](Self::evaluate), computed through a pooled workspace
    /// of the engine.
    pub fn cost(&self, w: &WeightSetting, scenario: Scenario) -> LexCost {
        let mut ws = self.acquire_workspace();
        let c = self.cost_with(&mut ws, w, scenario);
        self.release_workspace(ws);
        c
    }

    /// Scenario-batched costs of `w`, in input order — bit-for-bit what
    /// per-scenario [`evaluate`](Self::evaluate) would report, sharing
    /// one pooled workspace across the batch.
    pub fn evaluate_all(&self, w: &WeightSetting, scenarios: &[Scenario]) -> Vec<LexCost> {
        let mut ws = self.acquire_workspace();
        let out = scenarios
            .iter()
            .map(|&sc| self.cost_with(&mut ws, w, sc))
            .collect();
        self.release_workspace(ws);
        out
    }

    /// See [`Engine::acquire_workspace`].
    pub fn acquire_workspace(&self) -> EvalWorkspace {
        self.engine.acquire_workspace()
    }

    /// See [`Engine::release_workspace`].
    pub fn release_workspace(&self, ws: EvalWorkspace) {
        self.engine.release_workspace(ws)
    }

    /// [`Engine::cost_with`] as `⟨Λ, Φ⟩`.
    pub fn cost_with(&self, ws: &mut EvalWorkspace, w: &WeightSetting, sc: Scenario) -> LexCost {
        lex(self.engine.cost_with(ws, w, sc))
    }

    /// [`Engine::scenario_floor`] as `⟨Λ floor, 0⟩`. No search calls
    /// it; perfbench's `cost.floor_us` probe times it, and it leaves
    /// together with that probe.
    pub fn scenario_floor(&self, ws: &mut EvalWorkspace, scenario: Scenario) -> LexCost {
        lex(self.engine.scenario_floor(ws, scenario))
    }

    /// See [`Engine::cache_rebuild_begin`].
    pub fn cache_rebuild_begin(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
        positions: usize,
    ) {
        self.engine.cache_rebuild_begin(ws, cache, w, positions)
    }

    /// [`Engine::cost_capture`] as `⟨Λ, Φ⟩`.
    pub fn cost_capture(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        cache: &mut ScenarioCache,
        pos: usize,
    ) -> LexCost {
        lex(self.engine.cost_capture(ws, w, scenario, cache, pos))
    }

    /// See [`Engine::cache_begin`].
    pub fn cache_begin(&self, cache: &mut ScenarioCache, w: &WeightSetting) -> usize {
        self.engine.cache_begin(cache, w)
    }

    /// [`Engine::cost_cached`] as `⟨Λ, Φ⟩`.
    pub fn cost_cached(
        &self,
        ws: &mut EvalWorkspace,
        w: &WeightSetting,
        scenario: Scenario,
        cache: &ScenarioCache,
        pos: usize,
    ) -> LexCost {
        lex(self.engine.cost_cached(ws, w, scenario, cache, pos))
    }

    /// See [`Engine::cache_refresh`].
    pub fn cache_refresh(
        &self,
        ws: &mut EvalWorkspace,
        cache: &mut ScenarioCache,
        w: &WeightSetting,
        scenario_at: impl Fn(usize) -> Scenario,
    ) {
        self.engine.cache_refresh(ws, cache, w, scenario_at)
    }

    /// Per SD pair "max utilization on its path": bottleneck total-load
    /// utilization over the delay-class routing, averaged over all pairs —
    /// the paper's *average max utilization* (Table V).
    pub fn mean_bottleneck_utilization(&self, w: &WeightSetting, scenario: Scenario) -> f64 {
        let mask = scenario.mask(self.net);
        let offered = scenario.offered_traffic(self.traffic);
        let rd = route_class(self.net, w.weights(Class::Delay), &offered.delay, &mask);
        let rt = route_class(
            self.net,
            w.weights(Class::Throughput),
            &offered.throughput,
            &mask,
        );
        let total = dtr_routing::router::total_loads(&rd, &rt);
        let util: Vec<f64> = total
            .iter()
            .zip(self.engine.capacities())
            .map(|(&x, &c)| x / c)
            .collect();

        let n = self.net.num_nodes();
        let weights = w.weights(Class::Delay);
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for t in 0..n {
            let Some(dist) = rd.dist_to(t) else { continue };
            let worst = delay::bottleneck_to(self.net, dist, weights, &mask, &util);
            for s in 0..n {
                if s != t && offered.delay.demand(s, t) > 0.0 && dist[s] != UNREACHABLE {
                    sum += worst[s];
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            sum / pairs as f64
        }
    }

    fn delay_pair_delays(
        &self,
        w: &WeightSetting,
        mask: &dtr_net::LinkMask,
        rd: &ClassRouting,
        offered: &ClassMatrices,
        link_delays: &[f64],
    ) -> Vec<(usize, usize, f64)> {
        let weights = w.weights(Class::Delay);
        let take_max = matches!(self.params.aggregation, DelayAggregation::Max);
        let mut out = Vec::new();
        let mut order = Vec::new();
        let mut node_delay = Vec::new();
        delay::routing_pair_delays_into(
            self.net,
            rd,
            weights,
            mask,
            link_delays,
            take_max,
            &offered.delay,
            None, // `offered` already has the dead node's traffic removed
            &mut order,
            &mut node_delay,
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_net::{LinkId, NetworkBuilder, Point};

    /// Two-path network: 0 -> 3 via short path (0-3 direct, 10 ms) or via
    /// relay 0-1-3 (3 ms + 3 ms). Capacities 100 bits/s for easy math.
    fn net() -> Network {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(Point::ORIGIN)).collect();
        b.add_duplex_link(n[0], n[1], 100.0, 3e-3).unwrap();
        b.add_duplex_link(n[1], n[3], 100.0, 3e-3).unwrap();
        b.add_duplex_link(n[0], n[2], 100.0, 20e-3).unwrap();
        b.add_duplex_link(n[2], n[3], 100.0, 20e-3).unwrap();
        b.add_duplex_link(n[0], n[3], 100.0, 10e-3).unwrap();
        b.build().unwrap()
    }

    fn traffic() -> ClassMatrices {
        let mut tm = ClassMatrices::zeros(4);
        tm.delay.set(0, 3, 10.0);
        tm.throughput.set(0, 3, 20.0);
        tm
    }

    fn link_between(net: &Network, s: usize, t: usize) -> LinkId {
        net.links()
            .find(|&l| net.link(l).src.index() == s && net.link(l).dst.index() == t)
            .unwrap()
    }

    #[test]
    fn normal_evaluation_routes_and_scores() {
        let net = net();
        let tm = traffic();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let b = ev.evaluate(&w, Scenario::Normal);
        // Unit weights: both classes ride the direct 0->3 link.
        let direct = link_between(&net, 0, 3);
        assert_eq!(b.total_loads[direct.index()], 30.0);
        assert_eq!(b.delay_loads[direct.index()], 10.0);
        assert_eq!(b.throughput_loads[direct.index()], 20.0);
        // 10 ms < θ=25 ms: no SLA violation, Λ = 0.
        assert_eq!(b.sla.violations, 0);
        assert_eq!(b.cost.lambda, 0.0);
        // Φ > 0 (direct link carries throughput traffic at 30% util).
        assert!(b.cost.phi > 0.0);
        assert_eq!(b.dropped, 0.0);
        assert_eq!(b.pair_delays.len(), 1);
        assert!((b.pair_delays[0].2 - 10e-3).abs() < 1e-12);
    }

    #[test]
    fn failure_can_create_sla_violation() {
        let net = net();
        let tm = traffic();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let mut w = WeightSetting::uniform(net.num_links(), 20);
        // Make the short relay path expensive for delay traffic so that
        // after the direct link fails, delay traffic must use the 40 ms
        // path via node 2.
        w.set(Class::Delay, link_between(&net, 0, 1), 20);
        w.set(Class::Delay, link_between(&net, 1, 3), 20);
        let direct = link_between(&net, 0, 3);
        let b = ev.evaluate(&w, Scenario::Link(direct));
        assert_eq!(b.sla.violations, 1);
        // 40 ms vs θ = 25 ms: penalty 100 + 15 = 115.
        assert!((b.cost.lambda - 115.0).abs() < 1e-9);
    }

    #[test]
    fn separate_weights_steer_classes_independently() {
        let net = net();
        let tm = traffic();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let mut w = WeightSetting::uniform(net.num_links(), 20);
        // Push throughput traffic off the direct link.
        w.set(Class::Throughput, link_between(&net, 0, 3), 20);
        let b = ev.evaluate(&w, Scenario::Normal);
        let direct = link_between(&net, 0, 3);
        assert_eq!(b.delay_loads[direct.index()], 10.0); // delay stays
        assert_eq!(b.throughput_loads[direct.index()], 0.0); // tput moved
                                                             // Throughput ECMP-splits across the two equal-hop relays.
        assert_eq!(b.throughput_loads[link_between(&net, 0, 1).index()], 10.0);
        assert_eq!(b.throughput_loads[link_between(&net, 0, 2).index()], 10.0);
    }

    #[test]
    fn node_failure_removes_traffic_and_links() {
        let net = net();
        let mut tm = traffic();
        tm.delay.set(1, 2, 5.0); // traffic sourced at the dying node
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let b = ev.evaluate(&w, Scenario::Node(dtr_net::NodeId::new(1)));
        // Node 1's traffic is gone, 0->3 rides the direct link, no drops.
        assert_eq!(b.dropped, 0.0);
        assert_eq!(b.pair_delays.len(), 1);
        for &l in net.out_links(dtr_net::NodeId::new(1)) {
            assert_eq!(b.total_loads[l.index()], 0.0);
        }
    }

    #[test]
    fn queueing_delay_feeds_sla() {
        // Load the direct link into queueing territory (>95%) and check
        // that ξ grows beyond pure propagation.
        let net = net();
        let mut tm = ClassMatrices::zeros(4);
        tm.delay.set(0, 3, 96.0); // 96% of capacity 100
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let b = ev.evaluate(&w, Scenario::Normal);
        let xi = b.pair_delays[0].2;
        assert!(xi > 10e-3, "queueing must add to propagation: {xi}");
    }

    #[test]
    fn utilization_helpers() {
        let net = net();
        let tm = traffic();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let b = ev.evaluate(&w, Scenario::Normal);
        assert!((b.max_utilization(&net) - 0.30).abs() < 1e-12);
        assert!(b.mean_utilization(&net) > 0.0);
        assert!(b.mean_utilization(&net) < b.max_utilization(&net));
    }

    #[test]
    fn mean_bottleneck_utilization_reflects_path_load() {
        let net = net();
        let tm = traffic();
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let w = WeightSetting::uniform(net.num_links(), 20);
        let mbu = ev.mean_bottleneck_utilization(&w, Scenario::Normal);
        // Single delay pair rides the direct link at 30% utilization.
        assert!((mbu - 0.30).abs() < 1e-12);
    }

    #[test]
    fn mean_aggregation_is_not_larger_than_max() {
        let net = net();
        let tm = traffic();
        let w = WeightSetting::uniform(net.num_links(), 20);
        let ev_max = Evaluator::new(&net, &tm, CostParams::default());
        let ev_mean = Evaluator::new(
            &net,
            &tm,
            CostParams {
                aggregation: DelayAggregation::Mean,
                ..Default::default()
            },
        );
        let d_max = ev_max.evaluate(&w, Scenario::Normal).pair_delays[0].2;
        let d_mean = ev_mean.evaluate(&w, Scenario::Normal).pair_delays[0].2;
        assert!(d_mean <= d_max + 1e-15);
    }
}
