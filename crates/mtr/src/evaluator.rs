//! k-class network-cost evaluation.
//!
//! One [`MtrEvaluator::evaluate`] call performs, for a weight setting and
//! failure scenario, the k-class generalization of the §III pipeline:
//!
//! 1. apply the failure mask (node failures also remove the dead node's
//!    traffic from every class matrix);
//! 2. route each class independently on its weighted topology (ECMP,
//!    destination-based);
//! 3. sum per-class loads into total loads `x_l` (shared FIFO queue);
//! 4. compute per-link delays `D_l` (Eq. 1) from total loads;
//! 5. score each class by its own cost model (Eq. 2 over its own routing
//!    for SLA classes, Fortz–Thorup over its own carried links for
//!    congestion classes);
//! 6. assemble the k-component lexicographic cost.
//!
//! [`MtrEvaluator::evaluate`] is the readable reference path; the search
//! loops run through the k-class instantiation of `dtr-cost`'s
//! incremental, delta-state [`Engine`] ([`MtrEvaluator::cost`] and
//! [`MtrEvaluator::engine`]), which reproduces these steps bit for bit.

use dtr_cost::{congestion, delay_model, sla, DelayAggregation, Engine, EvalWorkspace, SlaSummary};
use dtr_net::{LinkMask, Network};
use dtr_routing::{delay, route_class, ClassRouting, Scenario};
use dtr_traffic::TrafficMatrix;

use crate::class::{CostModel, MtrConfig};
use crate::cost::VecCost;
use crate::weights::MtrWeightSetting;

/// Construction-time validation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MtrError {
    /// The number of traffic matrices differs from the number of classes.
    ClassCountMismatch {
        /// Classes declared in the configuration.
        classes: usize,
        /// Traffic matrices supplied.
        matrices: usize,
    },
    /// A traffic matrix disagrees with the network on node count.
    NodeCountMismatch {
        /// Index of the offending class.
        class: usize,
        /// Nodes in the network.
        net_nodes: usize,
        /// Nodes in the matrix.
        tm_nodes: usize,
    },
}

impl std::fmt::Display for MtrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MtrError::ClassCountMismatch { classes, matrices } => write!(
                f,
                "{classes} classes configured but {matrices} traffic matrices supplied"
            ),
            MtrError::NodeCountMismatch {
                class,
                net_nodes,
                tm_nodes,
            } => write!(
                f,
                "class {class}: traffic matrix has {tm_nodes} nodes, network has {net_nodes}"
            ),
        }
    }
}

impl std::error::Error for MtrError {}

/// Everything one k-class evaluation produces.
#[derive(Clone, Debug)]
pub struct MtrBreakdown {
    /// The k-component lexicographic cost.
    pub cost: VecCost,
    /// Per-class SLA accounting (`None` for congestion classes).
    pub sla: Vec<Option<SlaSummary>>,
    /// Total load `x_l` per directed link (bits/s).
    pub total_loads: Vec<f64>,
    /// Per-class offered load per directed link.
    pub class_loads: Vec<Vec<f64>>,
    /// Per-link delay `D_l` (seconds) under the total loads.
    pub link_delays: Vec<f64>,
    /// Demand (bits/s, all classes) unroutable under the scenario.
    pub dropped: f64,
    /// The scenario evaluated.
    pub scenario: Scenario,
}

impl MtrBreakdown {
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

    /// Total SLA violations across all SLA classes.
    pub fn total_violations(&self) -> usize {
        self.sla.iter().flatten().map(|s| s.violations).sum()
    }
}

/// Reusable k-class evaluation context: the class configuration plus
/// the k-class instantiation of the delta-state [`Engine`], whose
/// components the fast paths read into a [`VecCost`].
pub struct MtrEvaluator<'a> {
    net: &'a Network,
    matrices: &'a [TrafficMatrix],
    config: MtrConfig,
    engine: Engine<'a>,
}

impl std::fmt::Debug for MtrEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MtrEvaluator")
            .field("classes", &self.num_classes())
            .field("nodes", &self.net.num_nodes())
            .field("links", &self.net.num_links())
            .finish_non_exhaustive()
    }
}

impl<'a> MtrEvaluator<'a> {
    /// Build an evaluator after validating the configuration against the
    /// network and traffic matrices.
    pub fn new(
        net: &'a Network,
        matrices: &'a [TrafficMatrix],
        config: MtrConfig,
    ) -> Result<Self, MtrError> {
        config.validate();
        if matrices.len() != config.num_classes() {
            return Err(MtrError::ClassCountMismatch {
                classes: config.num_classes(),
                matrices: matrices.len(),
            });
        }
        for (k, tm) in matrices.iter().enumerate() {
            if tm.num_nodes() != net.num_nodes() {
                return Err(MtrError::NodeCountMismatch {
                    class: k,
                    net_nodes: net.num_nodes(),
                    tm_nodes: tm.num_nodes(),
                });
            }
        }
        let classes = matrices
            .iter()
            .zip(&config.specs)
            .map(|(tm, spec)| (tm, spec.cost))
            .collect();
        Ok(MtrEvaluator {
            net,
            matrices,
            engine: Engine::new(net, classes, config.delay_params),
            config,
        })
    }

    /// The network under evaluation.
    pub fn net(&self) -> &Network {
        self.net
    }

    /// The class configuration.
    pub fn config(&self) -> &MtrConfig {
        &self.config
    }

    /// Number of classes `k`.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes()
    }

    /// The base (no-failure) traffic matrices, one per class.
    pub fn matrices(&self) -> &[TrafficMatrix] {
        self.matrices
    }

    /// The delta-state engine behind the fast paths.
    pub fn engine(&self) -> &Engine<'a> {
        &self.engine
    }

    /// Toggle baseline-seeded repair on the plain scenario path (see
    /// [`Engine::set_plain_repair`]; timing only, same bits).
    pub fn set_plain_repair(&mut self, on: bool) {
        self.engine.set_plain_repair(on);
    }

    /// Largest `B1` across SLA classes (drives the `z·B1` sample-slack of
    /// the regular phase; 0 when no SLA class exists).
    pub fn max_b1(&self) -> f64 {
        self.config
            .specs
            .iter()
            .filter_map(|s| match s.cost {
                CostModel::SlaDelay { b1, .. } => Some(b1),
                CostModel::Congestion => None,
            })
            .fold(0.0, f64::max)
    }

    /// Full evaluation of one (weight setting, scenario) pair.
    ///
    /// # Panics
    /// Panics if `w` disagrees with the configuration on class count or
    /// with the network on link count.
    pub fn evaluate(&self, w: &MtrWeightSetting, scenario: Scenario) -> MtrBreakdown {
        assert_eq!(
            w.num_classes(),
            self.num_classes(),
            "weight setting class count mismatch"
        );
        assert_eq!(w.num_links(), self.net.num_links(), "weight size mismatch");
        let mask = scenario.mask(self.net);
        let offered = self.offered_matrices(scenario);

        // Route every class and accumulate the shared FIFO total load.
        let mut routings: Vec<ClassRouting> = Vec::with_capacity(self.num_classes());
        let mut total_loads = vec![0.0f64; self.net.num_links()];
        let mut dropped = 0.0;
        #[allow(clippy::needless_range_loop)] // k is the class id
        for k in 0..self.num_classes() {
            let r = route_class(self.net, w.weights(k), &offered[k], &mask);
            for (t, &x) in total_loads.iter_mut().zip(&r.loads) {
                *t += x;
            }
            dropped += r.dropped;
            routings.push(r);
        }

        let link_delays = delay_model::link_delays(
            &total_loads,
            self.engine.capacities(),
            self.engine.prop_delays(),
            &self.config.delay_params,
        );

        // Score each class with its own model.
        let mut components = Vec::with_capacity(self.num_classes());
        let mut slas = Vec::with_capacity(self.num_classes());
        for (k, spec) in self.config.specs.iter().enumerate() {
            match spec.cost {
                CostModel::SlaDelay { .. } => {
                    let pair_delays = self.class_pair_delays(
                        w,
                        k,
                        &mask,
                        &routings[k],
                        &offered[k],
                        &link_delays,
                    );
                    let summary = sla::summarize(&pair_delays, self.engine.class_params(k));
                    components.push(summary.lambda);
                    slas.push(Some(summary));
                }
                CostModel::Congestion => {
                    components.push(congestion::phi(
                        &total_loads,
                        &routings[k].loads,
                        self.engine.capacities(),
                    ));
                    slas.push(None);
                }
            }
        }

        MtrBreakdown {
            cost: VecCost::new(components),
            sla: slas,
            class_loads: routings.into_iter().map(|r| r.loads).collect(),
            total_loads,
            link_delays,
            dropped,
            scenario,
        }
    }

    /// Scalar-cost shortcut: bit-for-bit the cost of
    /// [`evaluate`](Self::evaluate), computed through a pooled workspace
    /// of the engine.
    pub fn cost(&self, w: &MtrWeightSetting, scenario: Scenario) -> VecCost {
        let mut ws = self.acquire_workspace();
        let cost = self.cost_with(&mut ws, w, scenario);
        self.release_workspace(ws);
        cost
    }

    /// Scenario-batched costs of `w`, in input order — bit-for-bit what
    /// per-scenario [`cost`](Self::cost) reports, sharing one pooled
    /// workspace across the whole batch.
    pub fn evaluate_all(&self, w: &MtrWeightSetting, scenarios: &[Scenario]) -> Vec<VecCost> {
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

    /// [`Engine::cost_with`] as a [`VecCost`].
    pub fn cost_with(&self, ws: &mut EvalWorkspace, w: &MtrWeightSetting, sc: Scenario) -> VecCost {
        VecCost::new(self.engine.cost_with(ws, w, sc).to_vec())
    }

    /// The traffic offered under `scenario`: node failures remove the dead
    /// node's row and column from every class matrix.
    fn offered_matrices(&self, scenario: Scenario) -> Vec<TrafficMatrix> {
        match scenario {
            Scenario::Node(v) => self
                .matrices
                .iter()
                .map(|tm| {
                    let mut t = tm.clone();
                    t.remove_node_traffic(v.index());
                    t
                })
                .collect(),
            _ => self.matrices.to_vec(),
        }
    }

    fn class_pair_delays(
        &self,
        w: &MtrWeightSetting,
        k: usize,
        mask: &LinkMask,
        routing: &ClassRouting,
        offered: &TrafficMatrix,
        link_delays: &[f64],
    ) -> Vec<(usize, usize, f64)> {
        let take_max = matches!(self.config.delay_params.aggregation, DelayAggregation::Max);
        let mut out = Vec::new();
        let mut order = Vec::new();
        let mut node_delay = Vec::new();
        delay::routing_pair_delays_into(
            self.net,
            routing,
            w.weights(k),
            mask,
            link_delays,
            take_max,
            offered,
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
    use crate::class::ClassSpec;
    use dtr_net::{LinkId, NetworkBuilder, Point};

    /// The same two-path network as the DTR evaluator tests: 0 -> 3 direct
    /// (10 ms) or via 0-1-3 (3+3 ms) or 0-2-3 (20+20 ms), capacities 100.
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

    fn link_between(net: &Network, s: usize, t: usize) -> LinkId {
        net.links()
            .find(|&l| net.link(l).src.index() == s && net.link(l).dst.index() == t)
            .unwrap()
    }

    fn three_class_setup() -> (Network, Vec<TrafficMatrix>, MtrConfig) {
        let net = net();
        let mut voice = TrafficMatrix::zeros(4);
        voice.set(0, 3, 5.0);
        let mut video = TrafficMatrix::zeros(4);
        video.set(0, 3, 10.0);
        let mut bulk = TrafficMatrix::zeros(4);
        bulk.set(0, 3, 20.0);
        let config = MtrConfig::new(vec![
            ClassSpec::sla("voice", 12e-3),
            ClassSpec::sla("video", 50e-3).relaxed(0.1),
            ClassSpec::congestion("bulk"),
        ]);
        (net, vec![voice, video, bulk], config)
    }

    #[test]
    fn three_classes_route_and_score() {
        let (net, tms, config) = three_class_setup();
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let b = ev.evaluate(&w, Scenario::Normal);
        // Unit weights: all classes ride the direct link.
        let direct = link_between(&net, 0, 3);
        assert_eq!(b.total_loads[direct.index()], 35.0);
        assert_eq!(b.class_loads[0][direct.index()], 5.0);
        assert_eq!(b.class_loads[2][direct.index()], 20.0);
        // 10 ms beats both SLA bounds: zero penalties.
        assert_eq!(b.cost.component(0), 0.0);
        assert_eq!(b.cost.component(1), 0.0);
        assert!(
            b.cost.component(2) > 0.0,
            "bulk congestion cost is positive"
        );
        assert_eq!(b.total_violations(), 0);
        assert!(b.sla[0].is_some() && b.sla[1].is_some() && b.sla[2].is_none());
    }

    #[test]
    fn classes_steer_independently() {
        let (net, tms, config) = three_class_setup();
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let mut w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        // Push only the bulk class off the direct link.
        w.set(2, link_between(&net, 0, 3), 20);
        let b = ev.evaluate(&w, Scenario::Normal);
        let direct = link_between(&net, 0, 3);
        assert_eq!(b.class_loads[0][direct.index()], 5.0);
        assert_eq!(b.class_loads[1][direct.index()], 10.0);
        assert_eq!(b.class_loads[2][direct.index()], 0.0);
    }

    #[test]
    fn per_class_slas_use_their_own_theta() {
        let (net, tms, config) = three_class_setup();
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let mut w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        // Force voice (θ=12ms) and video (θ=50ms) onto the 40 ms path.
        for (s, t) in [(0usize, 1usize), (1, 3), (0, 3)] {
            w.set_duplex(&net, 0, link_between(&net, s, t), 20);
            w.set_duplex(&net, 1, link_between(&net, s, t), 20);
        }
        let b = ev.evaluate(&w, Scenario::Normal);
        // Voice: 40 ms > 12 ms -> violation (100 + 28 = 128).
        assert_eq!(b.sla[0].unwrap().violations, 1);
        assert!((b.cost.component(0) - 128.0).abs() < 1e-9);
        // Video: 40 ms < 50 ms -> fine.
        assert_eq!(b.sla[1].unwrap().violations, 0);
        assert_eq!(b.cost.component(1), 0.0);
    }

    #[test]
    fn failure_scenario_reroutes_all_classes() {
        let (net, tms, config) = three_class_setup();
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let direct = link_between(&net, 0, 3);
        let b = ev.evaluate(&w, Scenario::Link(direct));
        assert_eq!(b.total_loads[direct.index()], 0.0);
        assert_eq!(b.dropped, 0.0);
        // Everything now rides 0-1-3 (6 ms, shortest by hops after ECMP
        // tie-break... both relays are 2 hops; ECMP splits evenly).
        let relay_a = link_between(&net, 0, 1);
        let relay_b = link_between(&net, 0, 2);
        let total_in = b.total_loads[relay_a.index()] + b.total_loads[relay_b.index()];
        assert!((total_in - 35.0).abs() < 1e-9);
    }

    #[test]
    fn node_failure_removes_traffic_in_every_class() {
        let (net, mut tms, config) = three_class_setup();
        tms[0].set(1, 2, 3.0);
        tms[2].set(2, 0, 4.0);
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        let b = ev.evaluate(&w, Scenario::Node(dtr_net::NodeId::new(1)));
        assert_eq!(b.dropped, 0.0);
        for &l in net.out_links(dtr_net::NodeId::new(1)) {
            assert_eq!(b.total_loads[l.index()], 0.0);
        }
        // Node 2's traffic (class 2, 2->0) is still offered.
        assert!(b.total_loads.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn single_class_mtr_is_legal() {
        let net = net();
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(0, 3, 10.0);
        let config = MtrConfig::new(vec![ClassSpec::congestion("all")]);
        let ev = MtrEvaluator::new(&net, std::slice::from_ref(&tm), config).unwrap();
        let w = MtrWeightSetting::uniform(1, net.num_links(), 20);
        let b = ev.evaluate(&w, Scenario::Normal);
        assert_eq!(b.cost.len(), 1);
        assert!(b.cost.component(0) > 0.0);
    }

    #[test]
    fn constructor_rejects_matrix_count_mismatch() {
        let (net, tms, config) = three_class_setup();
        let err = MtrEvaluator::new(&net, &tms[..2], config).unwrap_err();
        assert_eq!(
            err,
            MtrError::ClassCountMismatch {
                classes: 3,
                matrices: 2
            }
        );
        assert!(err.to_string().contains("3 classes"));
    }

    #[test]
    fn constructor_rejects_node_count_mismatch() {
        let (net, mut tms, config) = three_class_setup();
        tms[1] = TrafficMatrix::zeros(5);
        let err = MtrEvaluator::new(&net, &tms, config).unwrap_err();
        assert!(matches!(err, MtrError::NodeCountMismatch { class: 1, .. }));
    }

    #[test]
    fn cost_fast_path_matches_evaluate_bit_for_bit() {
        let (net, tms, config) = three_class_setup();
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        let mut w = MtrWeightSetting::uniform(3, net.num_links(), 20);
        w.set(0, link_between(&net, 0, 3), 7);
        w.set(2, link_between(&net, 0, 1), 3);
        let mut scenarios = vec![Scenario::Normal, Scenario::Node(dtr_net::NodeId::new(2))];
        for rep in net.duplex_representatives() {
            scenarios.push(Scenario::Link(rep));
        }
        for sc in scenarios {
            assert_eq!(ev.cost(&w, sc), ev.evaluate(&w, sc).cost, "{sc}");
        }
        // A second pass reuses the pooled workspace; results must not
        // drift.
        assert_eq!(
            ev.cost(&w, Scenario::Normal),
            ev.evaluate(&w, Scenario::Normal).cost
        );
    }

    #[test]
    fn max_b1_spans_sla_classes() {
        let (net, tms, mut config) = three_class_setup();
        config.specs[1].cost = CostModel::SlaDelay {
            theta: 50e-3,
            b1: 250.0,
            b2_per_ms: 1.0,
        };
        let ev = MtrEvaluator::new(&net, &tms, config).unwrap();
        assert_eq!(ev.max_b1(), 250.0);
    }
}
