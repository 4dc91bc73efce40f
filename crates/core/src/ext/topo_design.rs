//! Joint routing + topology design (extension; §VI: "explore how to
//! jointly design routing and network topology to maximize robustness").
//!
//! The paper's evaluation shows that the benefits of robust routing are
//! "typically in proportion to the number of paths it can explore"
//! (§V-B): robustness is bought with path diversity. This module turns
//! that observation into a design procedure — **greedy link
//! augmentation**: given a budget of new duplex links, repeatedly add the
//! candidate link that most reduces the compound single-link failure cost
//! `Kfail`, evaluated under a fixed heuristic routing policy.
//!
//! Scoring every candidate with a full robust-optimization run would cost
//! hours per candidate; the heuristic-policy proxy costs `|E|`
//! evaluations and preserves the ranking signal that matters (which new
//! link de-fragilizes the most failure scenarios), because `Kfail` under
//! any reasonable routing is dominated by the scenarios with no good
//! alternate path — exactly what a new link fixes.

use dtr_cost::{CostParams, Evaluator, LexCost};
use dtr_net::{Network, NetworkBuilder, NodeId};
use dtr_routing::{Class, WeightSetting};
use dtr_traffic::ClassMatrices;

use crate::parallel;
use crate::scenario::ScenarioSet;
use crate::universe::FailureUniverse;

/// The fixed routing policy used to score candidate links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightPolicy {
    /// All weights 1: hop-count routing in both topologies.
    HopCount,
    /// Delay-class weights proportional to propagation delay (quantized
    /// to `[1, wmax]`), throughput-class weights 1 — the natural
    /// static policy for the paper's two classes.
    DelayProportional {
        /// Quantization ceiling for the delay-class weights.
        wmax: u32,
    },
}

impl WeightPolicy {
    /// Materialize the policy for `net`.
    pub fn weights(&self, net: &Network) -> WeightSetting {
        match *self {
            WeightPolicy::HopCount => WeightSetting::uniform(net.num_links(), 20),
            WeightPolicy::DelayProportional { wmax } => {
                let max_delay = net
                    .links()
                    .map(|l| net.link(l).prop_delay)
                    .fold(0.0f64, f64::max);
                let mut w = WeightSetting::uniform(net.num_links(), wmax.max(2));
                if max_delay > 0.0 {
                    for l in net.links() {
                        let frac = net.link(l).prop_delay / max_delay;
                        let quant = 1 + (frac * (wmax.max(2) - 1) as f64).round() as u32;
                        w.set(Class::Delay, l, quant.clamp(1, wmax.max(2)));
                    }
                }
                w
            }
        }
    }
}

/// Parameters of the greedy augmentation.
#[derive(Clone, Copy, Debug)]
pub struct DesignParams {
    /// Number of duplex links to add.
    pub budget: usize,
    /// Capacity of each new link (bits/s).
    pub capacity: f64,
    /// At most this many candidate node pairs are scored per round
    /// (closest pairs first — short links are the cheap, realistic ones).
    pub candidate_limit: usize,
    /// Routing policy used for scoring.
    pub policy: WeightPolicy,
    /// Worker threads for the failure sweeps.
    pub threads: usize,
}

impl Default for DesignParams {
    fn default() -> Self {
        DesignParams {
            budget: 1,
            capacity: 500e6,
            candidate_limit: 32,
            policy: WeightPolicy::DelayProportional { wmax: 20 },
            threads: 1,
        }
    }
}

/// One accepted augmentation.
#[derive(Clone, Debug)]
pub struct AugmentationStep {
    /// Endpoints of the added duplex link.
    pub endpoints: (NodeId, NodeId),
    /// Propagation delay assigned to the new link (seconds).
    pub prop_delay: f64,
    /// Compound failure cost before adding the link.
    pub kfail_before: LexCost,
    /// Compound failure cost after adding it.
    pub kfail_after: LexCost,
}

/// Product of [`augment`].
#[derive(Clone, Debug)]
pub struct DesignReport {
    /// The augmented network (original plus accepted links).
    pub network: Network,
    /// Accepted augmentations, in order. May be shorter than the budget
    /// when no candidate improves `Kfail`.
    pub steps: Vec<AugmentationStep>,
    /// Candidates scored in total.
    pub candidates_scored: usize,
}

/// Compound failure cost of the policy routing over all survivable
/// single-link failures of `net`.
pub fn policy_kfail(
    net: &Network,
    traffic: &ClassMatrices,
    cost_params: CostParams,
    policy: WeightPolicy,
    threads: usize,
) -> LexCost {
    policy_kfail_set(
        net,
        traffic,
        cost_params,
        policy,
        &FailureUniverse::of(net),
        threads,
    )
}

/// Compound (weight-aware) cost of the policy routing over an arbitrary
/// [`ScenarioSet`] — the generalization that lets topology design target
/// SRLG or probabilistic robustness instead of plain single links.
pub fn policy_kfail_set<S: ScenarioSet + Sync + ?Sized>(
    net: &Network,
    traffic: &ClassMatrices,
    cost_params: CostParams,
    policy: WeightPolicy,
    set: &S,
    threads: usize,
) -> LexCost {
    let ev = Evaluator::new(net, traffic, cost_params);
    let w = policy.weights(net);
    parallel::sum_set_costs(&ev, &w, set, &set.all_indices(), threads)
}

/// Rebuild a [`NetworkBuilder`] holding a copy of `net` (nodes with
/// positions, one duplex link per physical link).
pub fn to_builder(net: &Network) -> NetworkBuilder {
    let mut b = NetworkBuilder::new();
    let ids: Vec<NodeId> = net.nodes().map(|v| b.add_node(net.position(v))).collect();
    for rep in net.duplex_representatives() {
        let link = net.link(rep);
        b.add_duplex_link(
            ids[link.src.index()],
            ids[link.dst.index()],
            link.capacity,
            link.prop_delay,
        )
        .expect("copying valid links cannot fail");
    }
    b
}

/// Propagation delay to assign a new link between `a` and `b`: the
/// network's observed delay-per-distance scale times the Euclidean
/// distance, falling back to the mean existing link delay when the
/// embedding is degenerate (all nodes at one point).
pub fn infer_prop_delay(net: &Network, a: NodeId, b: NodeId) -> f64 {
    let mut scale_num = 0.0;
    let mut scale_den = 0.0;
    let mut delay_sum = 0.0;
    let mut count = 0usize;
    for rep in net.duplex_representatives() {
        let link = net.link(rep);
        let d = net.position(link.src).distance(&net.position(link.dst));
        scale_num += link.prop_delay;
        scale_den += d;
        delay_sum += link.prop_delay;
        count += 1;
    }
    let dist = net.position(a).distance(&net.position(b));
    if scale_den > 0.0 && dist > 0.0 {
        dist * (scale_num / scale_den)
    } else if count > 0 {
        delay_sum / count as f64
    } else {
        1e-3
    }
}

/// Candidate node pairs without an existing duplex link, closest pairs
/// first, capped at `limit`.
pub fn candidate_pairs(net: &Network, limit: usize) -> Vec<(NodeId, NodeId)> {
    let n = net.num_nodes();
    let mut existing = vec![false; n * n];
    for l in net.links() {
        let link = net.link(l);
        existing[link.src.index() * n + link.dst.index()] = true;
    }
    let mut pairs: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if !existing[i * n + j] && !existing[j * n + i] {
                let a = NodeId::new(i);
                let b = NodeId::new(j);
                let d = net.position(a).distance(&net.position(b));
                pairs.push((a, b, d));
            }
        }
    }
    pairs.sort_by(|x, y| {
        x.2.partial_cmp(&y.2)
            .expect("finite distances")
            .then((x.0.index(), x.1.index()).cmp(&(y.0.index(), y.1.index())))
    });
    pairs.truncate(limit);
    pairs.into_iter().map(|(a, b, _)| (a, b)).collect()
}

/// Criticality input for [`rank_candidates_by_criticality`]: the robust
/// pipeline's critical links with their (normalized) criticality scores.
#[derive(Clone, Debug)]
pub struct CriticalityGuide {
    /// Critical links (duplex representatives).
    pub links: Vec<dtr_net::LinkId>,
    /// Criticality score per link (same order; any non-negative scale).
    pub scores: Vec<f64>,
}

impl CriticalityGuide {
    /// Build from a robust-pipeline report: critical links weighted by
    /// their summed normalized criticality across both classes.
    pub fn from_report(
        report: &crate::pipeline::RobustReport,
        crit: &crate::criticality::Criticality,
    ) -> Self {
        let scores = report
            .critical_indices
            .iter()
            .map(|&i| crit.norm[0][i] + crit.norm[1][i])
            .collect();
        CriticalityGuide {
            links: report.critical_links.clone(),
            scores,
        }
    }
}

/// Rank candidate node pairs by how much ρ-weighted *detour reduction*
/// they offer around the critical links — the paper's mechanism made
/// constructive: robustness comes from alternate paths (§V-B), so new
/// capacity belongs where the failure of a critical link currently
/// forces the longest detour.
///
/// For critical link `l = (u, v)` with criticality `ρ_l`, the current
/// detour is the shortest propagation-delay path from `u` to `v` in
/// `G − l`. Candidate `(a, b)` with inferred delay `δ` would offer
/// `dist(u, a) + δ + dist(b, v)` (better orientation of the two); its
/// score is `Σ_l ρ_l · max(0, detour_l − new_detour_l)`.
///
/// Returns candidates sorted by descending score (ties by node ids).
pub fn rank_candidates_by_criticality(
    net: &Network,
    guide: &CriticalityGuide,
    limit: usize,
) -> Vec<(NodeId, NodeId, f64)> {
    assert_eq!(guide.links.len(), guide.scores.len(), "one score per link");
    let candidates = candidate_pairs(net, usize::MAX);

    // Per critical link: detour distance and delay fields from both
    // endpoints in the masked network.
    struct CritInfo {
        rho: f64,
        detour: f64,
        from_u: Vec<f64>,
        from_v: Vec<f64>,
    }
    let mut infos = Vec::with_capacity(guide.links.len());
    for (&l, &rho) in guide.links.iter().zip(&guide.scores) {
        let link = net.link(l);
        let mask = net.fail_duplex(l);
        let from_u = dtr_net::connectivity::min_prop_delay_from(net, link.src, &mask);
        let from_v = dtr_net::connectivity::min_prop_delay_from(net, link.dst, &mask);
        let detour = from_u[link.dst.index()];
        if detour.is_finite() {
            infos.push(CritInfo {
                rho,
                detour,
                from_u,
                from_v,
            });
        }
    }

    let mut scored: Vec<(NodeId, NodeId, f64)> = candidates
        .into_iter()
        .map(|(a, b)| {
            let delta = infer_prop_delay(net, a, b);
            let mut score = 0.0;
            for info in &infos {
                // Both orientations of the candidate.
                let via_ab = info.from_u[a.index()] + delta + info.from_v[b.index()];
                let via_ba = info.from_u[b.index()] + delta + info.from_v[a.index()];
                let new_detour = via_ab.min(via_ba).min(info.detour);
                score += info.rho * (info.detour - new_detour);
            }
            (a, b, score)
        })
        .collect();
    scored.sort_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .expect("finite scores")
            .then((x.0.index(), x.1.index()).cmp(&(y.0.index(), y.1.index())))
    });
    scored.truncate(limit);
    scored
}

/// Run the greedy augmentation. Each round scores up to
/// `params.candidate_limit` candidate links by the `Kfail` of the
/// augmented network and accepts the best strictly-improving one; stops
/// early when no candidate improves.
pub fn augment(
    net: &Network,
    traffic: &ClassMatrices,
    cost_params: CostParams,
    params: &DesignParams,
) -> DesignReport {
    augment_with(net, traffic, cost_params, params, None)
}

/// [`augment`] with an optional [`CriticalityGuide`]: when given, each
/// round's candidate shortlist is ordered by ρ-weighted detour reduction
/// ([`rank_candidates_by_criticality`]) instead of geometric proximity —
/// spending the same evaluation budget on the candidates the paper's own
/// criticality signal points at.
pub fn augment_with(
    net: &Network,
    traffic: &ClassMatrices,
    cost_params: CostParams,
    params: &DesignParams,
    guide: Option<&CriticalityGuide>,
) -> DesignReport {
    augment_against(
        net,
        traffic,
        cost_params,
        params,
        guide,
        FailureUniverse::of,
    )
}

/// [`augment_with`] generalized over the failure model: `make_set`
/// rebuilds the target [`ScenarioSet`] for each augmented topology (the
/// scenario ensemble changes as links are added), and candidates are
/// scored on the set's compound weight-aware cost. Passing
/// [`FailureUniverse::of`] recovers the single-link design objective;
/// passing `|net| Srlg::geographic(net, r)` designs against conduit
/// cuts.
pub fn augment_against<S, F>(
    net: &Network,
    traffic: &ClassMatrices,
    cost_params: CostParams,
    params: &DesignParams,
    guide: Option<&CriticalityGuide>,
    make_set: F,
) -> DesignReport
where
    S: ScenarioSet + Sync,
    F: Fn(&Network) -> S,
{
    assert!(params.capacity > 0.0, "new links need positive capacity");
    let mut current = to_builder(net).build().expect("copy of a valid network");
    let mut steps = Vec::new();
    let mut candidates_scored = 0usize;

    for _ in 0..params.budget {
        let kfail_before = policy_kfail_set(
            &current,
            traffic,
            cost_params,
            params.policy,
            &make_set(&current),
            params.threads,
        );
        let mut best: Option<(NodeId, NodeId, f64, LexCost)> = None;

        let shortlist: Vec<(NodeId, NodeId)> = match guide {
            Some(g) => rank_candidates_by_criticality(&current, g, params.candidate_limit)
                .into_iter()
                .map(|(a, b, _)| (a, b))
                .collect(),
            None => candidate_pairs(&current, params.candidate_limit),
        };
        for (a, b) in shortlist {
            let delay = infer_prop_delay(&current, a, b);
            let mut builder = to_builder(&current);
            builder
                .add_duplex_link(a, b, params.capacity, delay)
                .expect("candidate endpoints exist");
            let augmented = builder.build().expect("augmented network stays valid");
            let kfail = policy_kfail_set(
                &augmented,
                traffic,
                cost_params,
                params.policy,
                &make_set(&augmented),
                params.threads,
            );
            candidates_scored += 1;
            let improves = kfail.better_than(&kfail_before);
            let beats_best = best
                .as_ref()
                .is_none_or(|(_, _, _, bk)| kfail.better_than(bk));
            if improves && beats_best {
                best = Some((a, b, delay, kfail));
            }
        }

        let Some((a, b, delay, kfail_after)) = best else {
            break; // no candidate helps: diminishing returns reached
        };
        let mut builder = to_builder(&current);
        builder
            .add_duplex_link(a, b, params.capacity, delay)
            .expect("accepted endpoints exist");
        current = builder.build().expect("augmented network stays valid");
        steps.push(AugmentationStep {
            endpoints: (a, b),
            prop_delay: delay,
            kfail_before,
            kfail_after,
        });
    }

    DesignReport {
        network: current,
        steps,
        candidates_scored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_net::Point;
    use dtr_traffic::gravity;

    /// A 6-ring: minimal 2-connectivity, maximal fragility — every single
    /// link failure forces the long way round.
    fn ring6() -> (Network, ClassMatrices) {
        let mut b = NetworkBuilder::new();
        let n: Vec<_> = (0..6)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 6.0;
                b.add_node(Point::new(a.cos(), a.sin()))
            })
            .collect();
        for i in 0..6 {
            b.add_duplex_link(n[i], n[(i + 1) % 6], 1e6, 2e-3).unwrap();
        }
        let net = b.build().unwrap();
        let tm = gravity::generate(&gravity::GravityConfig {
            total_volume: 1.5e6,
            ..gravity::GravityConfig::paper_default(6, 5)
        });
        (net, tm)
    }

    #[test]
    fn to_builder_round_trips_the_network() {
        let (net, _) = ring6();
        let copy = to_builder(&net).build().unwrap();
        assert_eq!(copy.num_nodes(), net.num_nodes());
        assert_eq!(copy.num_links(), net.num_links());
        for l in net.links() {
            let a = net.link(l);
            let b = copy.link(l);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.capacity, b.capacity);
            assert_eq!(a.prop_delay, b.prop_delay);
        }
    }

    #[test]
    fn candidate_pairs_excludes_existing_links_and_sorts_by_distance() {
        let (net, _) = ring6();
        let cands = candidate_pairs(&net, 100);
        // 6 nodes -> 15 pairs, 6 existing ring links -> 9 candidates.
        assert_eq!(cands.len(), 9);
        for (a, b) in &cands {
            for l in net.links() {
                let link = net.link(l);
                assert!(
                    !(link.src == *a && link.dst == *b),
                    "candidate duplicates an existing link"
                );
            }
        }
        // First candidates are the short 2-hop chords, not the diameters.
        let d0 = net.position(cands[0].0).distance(&net.position(cands[0].1));
        let dl = net
            .position(cands.last().unwrap().0)
            .distance(&net.position(cands.last().unwrap().1));
        assert!(d0 <= dl);
    }

    #[test]
    fn infer_prop_delay_scales_with_distance() {
        let (net, _) = ring6();
        // Ring edges: distance 1.0 (unit hexagon side), delay 2 ms.
        // The diameter pair (0,3) is distance 2.0 -> ≈ 4 ms.
        let d = infer_prop_delay(&net, NodeId::new(0), NodeId::new(3));
        assert!((d - 4e-3).abs() < 1e-4, "inferred {d}");
    }

    #[test]
    fn infer_prop_delay_degenerate_embedding_falls_back() {
        let mut b = NetworkBuilder::new();
        let x = b.add_node(Point::ORIGIN);
        let y = b.add_node(Point::ORIGIN);
        let z = b.add_node(Point::ORIGIN);
        b.add_duplex_link(x, y, 1e6, 3e-3).unwrap();
        b.add_duplex_link(y, z, 1e6, 5e-3).unwrap();
        b.add_duplex_link(z, x, 1e6, 4e-3).unwrap();
        let net = b.build().unwrap();
        let d = infer_prop_delay(&net, x, z);
        assert!((d - 4e-3).abs() < 1e-12, "mean fallback expected, got {d}");
    }

    #[test]
    fn augmenting_a_ring_reduces_kfail() {
        let (net, tm) = ring6();
        let params = DesignParams {
            budget: 2,
            capacity: 1e6,
            candidate_limit: 9,
            policy: WeightPolicy::HopCount,
            threads: 1,
        };
        let report = augment(&net, &tm, CostParams::default(), &params);
        assert!(
            !report.steps.is_empty(),
            "a bare ring must benefit from a chord"
        );
        for s in &report.steps {
            assert!(
                s.kfail_after.better_than(&s.kfail_before),
                "accepted step must strictly improve Kfail"
            );
        }
        // The augmented network has budget-many extra duplex links.
        assert_eq!(
            report.network.num_links(),
            net.num_links() + 2 * report.steps.len()
        );
        assert!(report.candidates_scored > 0);
    }

    #[test]
    fn steps_chain_monotonically() {
        let (net, tm) = ring6();
        let report = augment(
            &net,
            &tm,
            CostParams::default(),
            &DesignParams {
                budget: 3,
                capacity: 1e6,
                candidate_limit: 9,
                policy: WeightPolicy::HopCount,
                threads: 1,
            },
        );
        for pair in report.steps.windows(2) {
            // Next round's "before" equals previous round's "after".
            assert_eq!(pair[1].kfail_before, pair[0].kfail_after);
        }
    }

    #[test]
    fn delay_proportional_policy_prefers_short_links_for_delay_class() {
        let (net, _) = ring6();
        let w = WeightPolicy::DelayProportional { wmax: 20 }.weights(&net);
        // Uniform ring: all delays equal -> all delay weights equal and
        // maximal (frac = 1).
        for l in net.links() {
            assert_eq!(w.get(Class::Delay, l), 20);
            assert_eq!(w.get(Class::Throughput, l), 1);
        }
    }

    #[test]
    fn criticality_ranking_prefers_detour_killers() {
        let (net, _) = ring6();
        // All criticality sits on one ring link, say 0-1: failing it
        // forces the 5-hop detour 0-5-4-3-2-1. The best candidates are
        // chords that shortcut that detour; the worst do nothing for it.
        let rep = net
            .duplex_representatives()
            .into_iter()
            .find(|&l| {
                let link = net.link(l);
                (link.src.index(), link.dst.index()) == (0, 1)
                    || (link.src.index(), link.dst.index()) == (1, 0)
            })
            .unwrap();
        let guide = CriticalityGuide {
            links: vec![rep],
            scores: vec![1.0],
        };
        let ranked = rank_candidates_by_criticality(&net, &guide, usize::MAX);
        assert_eq!(ranked.len(), 9);
        // Scores are descending and non-negative.
        for w in ranked.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        assert!(ranked[0].2 > 0.0, "some candidate must cut the detour");
        // The top candidate must touch the detour's far side relative to
        // the critical link: connecting a neighbour of 0 to a neighbour
        // of 1 across the ring. Candidate (1,5) or (0,2) shortcut the
        // 5-hop detour down to ~2 hops; (2,4) style chords in the middle
        // help less.
        let top: (usize, usize) = (ranked[0].0.index(), ranked[0].1.index());
        assert!(
            [(1, 5), (0, 2)].contains(&(top.0.min(top.1), top.0.max(top.1))),
            "unexpected top candidate {top:?}"
        );
    }

    #[test]
    fn guided_augmentation_matches_or_beats_geometric_shortlists() {
        // With a shortlist too small to cover all candidates, the guided
        // ordering must never do worse than geometric ordering on the
        // final Kfail: it looks at the same number of candidates but in
        // criticality order. (With full coverage both are identical.)
        let (net, tm) = ring6();
        let universe = crate::FailureUniverse::of(&net);
        let guide = CriticalityGuide {
            links: universe.failable.clone(),
            scores: vec![1.0; universe.failable.len()],
        };
        let params = DesignParams {
            budget: 1,
            capacity: 1e6,
            candidate_limit: 3, // deliberately starved
            policy: WeightPolicy::HopCount,
            threads: 1,
        };
        let geometric = augment(&net, &tm, CostParams::default(), &params);
        let guided = augment_with(&net, &tm, CostParams::default(), &params, Some(&guide));
        let final_kfail = |r: &DesignReport| {
            policy_kfail(&r.network, &tm, CostParams::default(), params.policy, 1)
        };
        let kg = final_kfail(&guided);
        let km = final_kfail(&geometric);
        assert!(
            !km.better_than(&kg) || (km.lambda - kg.lambda).abs() < 1e-6,
            "guided {kg} lost to geometric {km}"
        );
    }

    #[test]
    fn guide_from_report_aligns_links_and_scores() {
        let (net, tm) = ring6();
        // Build a tiny pipeline run to get a real report + criticality.
        let ev = Evaluator::new(&net, &tm, CostParams::default());
        let opt = crate::RobustOptimizer::new(&ev, crate::Params::quick(3));
        let report = opt.optimize();
        // A ring has no survivable single failures... actually it does:
        // failing one ring link leaves a path. Criticality estimates need
        // the store, which the report does not carry; reconstruct from a
        // fresh Phase 1 (same seed -> same store).
        let universe = crate::FailureUniverse::of(&net);
        let p1 = crate::phase1::run(&ev, &universe, &crate::Params::quick(3));
        let crit = crate::criticality::Criticality::estimate(&p1.store, 0.1);
        let guide = CriticalityGuide::from_report(&report, &crit);
        assert_eq!(guide.links.len(), guide.scores.len());
        assert_eq!(guide.links, report.critical_links);
        assert!(guide.scores.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn augment_against_srlg_set_runs() {
        let (net, tm) = ring6();
        let params = DesignParams {
            budget: 1,
            capacity: 1e6,
            candidate_limit: 9,
            policy: WeightPolicy::HopCount,
            threads: 1,
        };
        // Designing against the SRLG union set (tiny radius -> just the
        // single-link universe plus any coincident-midpoint groups) still
        // finds an improving chord on a bare ring.
        let report = augment_against(&net, &tm, CostParams::default(), &params, None, |n| {
            crate::ext::srlg::Srlg::geographic(n, 1e-9)
        });
        assert!(!report.steps.is_empty());
        for s in &report.steps {
            assert!(s.kfail_after.better_than(&s.kfail_before));
        }
    }

    #[test]
    fn zero_budget_is_a_noop() {
        let (net, tm) = ring6();
        let report = augment(
            &net,
            &tm,
            CostParams::default(),
            &DesignParams {
                budget: 0,
                ..DesignParams::default()
            },
        );
        assert!(report.steps.is_empty());
        assert_eq!(report.network.num_links(), net.num_links());
    }
}
