//! Robustness study (beyond the paper): MANET links fail; how do stale
//! advertised sets cope?
//!
//! The paper's evaluation is static. Its motivation, however, is mobile /
//! sensor networks where links churn between TC refreshes. This module
//! measures what happens in that window: after every node has selected
//! and advertised, a fraction `p` of links fails; packets are then routed
//! with the *stale* advertised sets over the *degraded* ground truth
//! (failed advertised links are unusable; forwarding discovers this
//! hop by hop).
//!
//! Compared quantities per selector: delivery rate and QoS overhead of
//! survivors vs the degraded network's new optimum — a measure of how
//! much redundancy each advertised set retains. FNBP advertises the
//! fewest links, so this quantifies the redundancy price of its
//! compression.

use qolsr_graph::deploy::{deploy, Deployment};
use qolsr_graph::{CompactGraph, NodeId, Topology, TopologyBuilder};
use qolsr_sim::stats::OnlineStats;
use qolsr_sim::SimRng;

use crate::advertised::build_advertised_all;
use crate::eval::{connected_pairs, EvalConfig, EvalMetric, SelectorKind};
use crate::report::Figure;
use crate::routing::{optimal_value, route, RouteStrategy};
use crate::selector::AnsSelector;

/// Result of a robustness sweep for one selector.
#[derive(Debug, Clone)]
pub struct RobustnessMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// Per failure-fraction aggregates, aligned with the sweep input.
    pub per_fraction: Vec<(f64, OnlineStats, OnlineStats)>, // (p, delivery, overhead)
}

/// Runs the link-failure study at one density for the given failure
/// fractions.
///
/// Per run: deploy, select and advertise with *intact* links, fail a
/// uniform fraction `p` of links, then route `pairs` random connected
/// pairs (connected in the *degraded* network) per fraction with the
/// stale advertised sets.
pub fn link_failure_study<M: EvalMetric>(
    cfg: &EvalConfig,
    density: f64,
    fractions: &[f64],
    kinds: &[SelectorKind],
) -> Vec<RobustnessMeasures> {
    let mut out: Vec<RobustnessMeasures> = kinds
        .iter()
        .map(|&kind| RobustnessMeasures {
            kind,
            per_fraction: fractions
                .iter()
                .map(|&p| (p, OnlineStats::new(), OnlineStats::new()))
                .collect(),
        })
        .collect();

    let selectors: Vec<_> = kinds.iter().map(|&k| k.instantiate::<M>()).collect();
    let refs: Vec<&dyn AnsSelector> = selectors.iter().map(|sel| sel.as_ref()).collect();

    for run in 0..cfg.runs {
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ (0xF001 + run as u64) << 8);
        let deployment = Deployment {
            width: cfg.field.0,
            height: cfg.field.1,
            radius: cfg.radius,
            mean_degree: density,
        };
        let topo = deploy(&deployment, &cfg.weights, &mut rng);
        if topo.len() < 4 {
            continue;
        }

        // Advertise on the intact network.
        let advertised = build_advertised_all(&topo, &refs, 1);

        for (fi, &p) in fractions.iter().enumerate() {
            let degraded = fail_links(&topo, p, &mut rng);
            // Stale advertised graphs: drop failed links.
            let stale: Vec<CompactGraph> = advertised
                .iter()
                .map(|adv| intersect_links(adv.graph(), &degraded))
                .collect();

            for _ in 0..4 {
                // One pair connected in the *degraded* network per draw.
                let Some(&(s, t)) = connected_pairs(&degraded, 1, 1024, false, &mut rng).first()
                else {
                    continue;
                };
                let optimal = optimal_value::<M>(&degraded, s, t).expect("connected pair");
                for (si, _) in selectors.iter().enumerate() {
                    let (_, delivery, overhead) = &mut out[si].per_fraction[fi];
                    match route::<M>(&degraded, &stale[si], s, t, RouteStrategy::AdvertisedOnly) {
                        Ok(outcome) => {
                            delivery.push(1.0);
                            overhead.push(M::overhead(optimal, outcome.qos::<M>(&degraded)));
                        }
                        Err(_) => delivery.push(0.0),
                    }
                }
            }
        }
    }
    out
}

/// Removes each link independently with probability `p`.
fn fail_links(topo: &Topology, p: f64, rng: &mut SimRng) -> Topology {
    let mut b = TopologyBuilder::new(topo.radius());
    for n in topo.nodes() {
        b.add_node(topo.position(n));
    }
    for (a, c, qos) in topo.graph().edges() {
        if rng.next_f64() >= p {
            b.link(NodeId(a), NodeId(c), qos).expect("same node set");
        }
    }
    b.build()
}

/// Keeps only the advertised links that survived in `degraded`.
fn intersect_links(advertised: &CompactGraph, degraded: &Topology) -> CompactGraph {
    let mut out = CompactGraph::with_nodes(advertised.len());
    for (a, b, qos) in advertised.edges() {
        if degraded.has_link(NodeId(a), NodeId(b)) {
            out.add_undirected(a, b, qos);
        }
    }
    out
}

/// Renders a delivery-rate figure over the failure fractions.
pub fn delivery_figure(results: &[RobustnessMeasures], title: &str) -> Figure {
    let series = results.iter().map(|r| {
        let points = r.per_fraction.iter().map(|(p, delivery, _)| (*p, delivery));
        (r.kind.label(), points)
    });
    Figure::from_stats(
        title,
        "link failure fraction",
        "delivery rate (stale advertised sets)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_metrics::BandwidthMetric;

    fn tiny_cfg() -> EvalConfig {
        let mut cfg = EvalConfig::paper_bandwidth(3);
        cfg.field = (400.0, 400.0);
        cfg.seed = 99;
        cfg
    }

    #[test]
    fn zero_failures_deliver_everything() {
        let cfg = tiny_cfg();
        let results = link_failure_study::<BandwidthMetric>(
            &cfg,
            10.0,
            &[0.0],
            &[SelectorKind::Fnbp, SelectorKind::QolsrMpr2],
        );
        for r in &results {
            let (_, delivery, overhead) = &r.per_fraction[0];
            assert!(delivery.count() > 0);
            assert_eq!(delivery.mean(), 1.0, "{:?}", r.kind);
            assert!(overhead.mean() >= 0.0);
        }
    }

    #[test]
    fn delivery_degrades_with_failures() {
        let cfg = tiny_cfg();
        let results =
            link_failure_study::<BandwidthMetric>(&cfg, 10.0, &[0.0, 0.4], &[SelectorKind::Fnbp]);
        let r = &results[0];
        let intact = r.per_fraction[0].1.mean();
        let degraded = r.per_fraction[1].1.mean();
        assert!(
            degraded <= intact + 1e-9,
            "failures should not improve delivery: {degraded} vs {intact}"
        );
    }

    #[test]
    fn figure_renders() {
        let cfg = tiny_cfg();
        let results =
            link_failure_study::<BandwidthMetric>(&cfg, 8.0, &[0.0, 0.2], &[SelectorKind::Fnbp]);
        let fig = delivery_figure(&results, "robustness");
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.series[0].points.len(), 2);
        assert!(fig.render_text().contains("robustness"));
    }

    #[test]
    fn fail_links_is_monotone_in_p() {
        let mut rng = SimRng::seed_from_u64(4);
        let topo = deploy(
            &Deployment {
                width: 300.0,
                height: 300.0,
                radius: 100.0,
                mean_degree: 8.0,
            },
            &qolsr_graph::deploy::UniformWeights::paper_defaults(),
            &mut rng,
        );
        let none = fail_links(&topo, 0.0, &mut rng);
        assert_eq!(none.link_count(), topo.link_count());
        let all = fail_links(&topo, 1.0, &mut rng);
        assert_eq!(all.link_count(), 0);
        let some = fail_links(&topo, 0.5, &mut rng);
        assert!(some.link_count() < topo.link_count());
    }
}
