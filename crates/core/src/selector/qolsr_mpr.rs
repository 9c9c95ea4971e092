//! The QOLSR MPR heuristics of Badis & Al Agha ([1] in the paper, as
//! summarized in its §II): QoS-aware variants of the classical two-phase
//! MPR selection, still restricted to 2-hop coverage.
//!
//! * Phase 1 (both variants, same as RFC): select every 1-hop neighbor
//!   that is the *only* cover of some 2-hop neighbor.
//! * Phase 2, **MPR-1**: classical greedy by newly-covered count, with
//!   the best QoS direct link as tie-break.
//! * Phase 2, **MPR-2**: "does not consider the number of covered 2-hop
//!   neighbors but the bandwidth or delay when choosing the next node" —
//!   pick the neighbor with the best direct link among those covering at
//!   least one uncovered 2-hop neighbor.
//!
//! This is the paper's "original QOLSR" baseline (evaluated with MPR-2).

use std::collections::BTreeSet;
use std::marker::PhantomData;

use qolsr_graph::{LocalView, NodeId};
use qolsr_metrics::Metric;
use qolsr_proto::mpr::Coverage;

use super::{best_by_direct_link, AnsSelector};

/// Which phase-2 rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MprVariant {
    /// Coverage-greedy with QoS tie-break.
    Mpr1,
    /// QoS-greedy among still-useful neighbors.
    Mpr2,
}

/// The QOLSR MPR selector, generic over the QoS metric.
///
/// # Examples
///
/// ```
/// use qolsr::selector::{AnsSelector, MprVariant, QolsrMpr};
/// use qolsr_graph::{fixtures, LocalView};
/// use qolsr_metrics::BandwidthMetric;
///
/// let fig = fixtures::fig1();
/// let view = LocalView::extract(&fig.topo, fig.v[0]); // v1
/// let mprs = QolsrMpr::<BandwidthMetric>::new(MprVariant::Mpr2).select(&view);
/// // v1 selects only v2 (paper's Fig. 1 narrative).
/// assert_eq!(mprs.into_iter().collect::<Vec<_>>(), vec![fig.v[1]]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QolsrMpr<M> {
    variant: MprVariant,
    _metric: PhantomData<M>,
}

impl<M> QolsrMpr<M> {
    /// Creates the selector with the given phase-2 variant.
    pub fn new(variant: MprVariant) -> Self {
        Self {
            variant,
            _metric: PhantomData,
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> MprVariant {
        self.variant
    }
}

impl<M: Metric> AnsSelector for QolsrMpr<M> {
    fn name(&self) -> &'static str {
        match self.variant {
            MprVariant::Mpr1 => "qolsr-mpr1",
            MprVariant::Mpr2 => "qolsr-mpr2",
        }
    }

    fn select(&self, view: &LocalView) -> BTreeSet<NodeId> {
        let mut coverage = Coverage::new(view);
        // Phase 1: mandatory sole covers (identical to RFC).
        coverage.take_sole_covers();

        // Phase 2, over the useful neighbors in ascending local index.
        while !coverage.all_covered() {
            let useful: Vec<(u32, u32)> = coverage.useful().collect();
            if useful.is_empty() {
                break; // transiently uncoverable in learned views
            }
            let chosen = match self.variant {
                MprVariant::Mpr1 => {
                    let max_cover = useful.iter().map(|&(_, c)| c).max().expect("non-empty");
                    best_by_direct_link::<M>(
                        view,
                        useful
                            .iter()
                            .filter(|&&(_, c)| c == max_cover)
                            .map(|&(v, _)| v),
                    )
                }
                MprVariant::Mpr2 => best_by_direct_link::<M>(view, useful.iter().map(|&(v, _)| v)),
            }
            .expect("useful set is non-empty");
            coverage.take(chosen);
        }

        coverage
            .taken()
            .iter()
            .map(|&v| view.global_id(v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_graph::fixtures;
    use qolsr_metrics::{BandwidthMetric, DelayMetric};
    use qolsr_proto::mpr::uncovered_two_hop;

    #[test]
    fn fig1_network_wide_qolsr_mprs_are_v2_and_v5() {
        // The paper's Fig. 1 caption: "Only nodes v2 and v5 are selected
        // as MPRs" under the QOLSR heuristic.
        let f = fixtures::fig1();
        for variant in [MprVariant::Mpr1, MprVariant::Mpr2] {
            let sel = QolsrMpr::<BandwidthMetric>::new(variant);
            let mut all: BTreeSet<NodeId> = BTreeSet::new();
            for u in f.topo.nodes() {
                all.extend(sel.select(&LocalView::extract(&f.topo, u)));
            }
            assert_eq!(
                all.into_iter().collect::<Vec<_>>(),
                vec![f.v[1], f.v[4]],
                "{variant:?}"
            );
        }
    }

    #[test]
    fn both_variants_cover_all_two_hop() {
        let f = fixtures::fig2();
        let view = LocalView::extract(&f.topo, f.u);
        for variant in [MprVariant::Mpr1, MprVariant::Mpr2] {
            let mprs = QolsrMpr::<BandwidthMetric>::new(variant).select(&view);
            assert!(uncovered_two_hop(&view, &mprs).is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn mpr2_prefers_qos_over_coverage() {
        // Neighbor 1 covers {3,4} over a weak link; neighbor 2 covers
        // {3} over a strong link; neighbor 5 covers {4} over the weakest
        // link. No 2-hop node has a sole cover, so phase 2 decides:
        // MPR-1 (coverage-greedy) takes 1 alone; MPR-2 (QoS-greedy)
        // takes 2 first and then still needs 1 for node 4.
        let mut b = qolsr_graph::TopologyBuilder::abstract_nodes(6);
        let q = |w| qolsr_metrics::LinkQos::uniform(w);
        b.link(NodeId(0), NodeId(1), q(2)).unwrap();
        b.link(NodeId(0), NodeId(2), q(9)).unwrap();
        b.link(NodeId(0), NodeId(5), q(1)).unwrap();
        b.link(NodeId(1), NodeId(3), q(5)).unwrap();
        b.link(NodeId(1), NodeId(4), q(5)).unwrap();
        b.link(NodeId(2), NodeId(3), q(5)).unwrap();
        b.link(NodeId(5), NodeId(4), q(5)).unwrap();
        let t = b.build();
        let view = LocalView::extract(&t, NodeId(0));

        let mpr1 = QolsrMpr::<BandwidthMetric>::new(MprVariant::Mpr1).select(&view);
        assert_eq!(mpr1.into_iter().collect::<Vec<_>>(), vec![NodeId(1)]);

        let mpr2 = QolsrMpr::<BandwidthMetric>::new(MprVariant::Mpr2).select(&view);
        assert_eq!(
            mpr2.into_iter().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn delay_metric_prefers_fast_links() {
        // Same shape, but metric = delay: neighbor 2's link is fastest
        // (fixture delay = 11 − bandwidth).
        let f = fixtures::fig1();
        let view = LocalView::extract(&f.topo, f.v[0]);
        let mprs = QolsrMpr::<DelayMetric>::new(MprVariant::Mpr2).select(&view);
        assert!(!mprs.is_empty());
    }

    #[test]
    fn accessors() {
        let s = QolsrMpr::<BandwidthMetric>::new(MprVariant::Mpr1);
        assert_eq!(s.variant(), MprVariant::Mpr1);
        assert_eq!(s.name(), "qolsr-mpr1");
        assert_eq!(
            QolsrMpr::<BandwidthMetric>::new(MprVariant::Mpr2).name(),
            "qolsr-mpr2"
        );
    }
}
