//! Differential test of the MPR heuristics, which select on the bitset
//! rows of [`Coverage`]: QOLSR MPR-1 and MPR-2 and the RFC 3626 greedy,
//! against test-only copies of their pairwise `has_edge` formulations, on
//! every view of seeded deployments at the paper's lowest and highest
//! densities, extracted and learned.
//!
//! [`Coverage`]: qolsr_proto::mpr::Coverage

use std::collections::BTreeSet;

use qolsr::selector::{AnsSelector, MprVariant, QolsrMpr};
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::{LocalView, NodeId, Topology};
use qolsr_metrics::{best_by_preference, BandwidthMetric, DelayMetric, LinkQos, Metric};
use qolsr_proto::mpr::select_mprs;
use qolsr_sim::SimRng;

/// The `≺u` order: best direct link from the center, ties to the smallest
/// id, among 1-hop neighbors given by local index.
fn best_by_direct_link<M: Metric>(
    view: &LocalView,
    candidates: impl IntoIterator<Item = u32>,
) -> Option<u32> {
    let scored = candidates.into_iter().map(|w| {
        let qos = view.direct_qos(w).expect("a 1-hop neighbor");
        (M::link_value(&qos), view.global_id(w))
    });
    let (_, id) = best_by_preference::<M, NodeId>(scored)?;
    view.local_index(id)
}

/// Phase 1 as both heuristics ran it: every 1-hop neighbor that is the
/// only cover of some 2-hop neighbor, and the 2-hop neighbors left
/// uncovered by them.
fn sole_covers(view: &LocalView) -> (BTreeSet<u32>, BTreeSet<u32>) {
    let g = view.graph();
    let one_hop: Vec<u32> = view.one_hop_local().collect();
    let mut mprs = BTreeSet::new();
    for w in view.two_hop_local() {
        let coverers: Vec<u32> = one_hop
            .iter()
            .copied()
            .filter(|&v| g.has_edge(v, w))
            .collect();
        if coverers.len() == 1 {
            mprs.insert(coverers[0]);
        }
    }
    let uncovered = view
        .two_hop_local()
        .filter(|&w| !mprs.iter().any(|&v| g.has_edge(v, w)))
        .collect();
    (mprs, uncovered)
}

/// QOLSR MPR-1/2 as it was selected, by pairwise `has_edge` coverage.
fn oracle_qolsr<M: Metric>(view: &LocalView, variant: MprVariant) -> BTreeSet<NodeId> {
    let g = view.graph();
    let one_hop: Vec<u32> = view.one_hop_local().collect();
    let (mut mprs, mut uncovered) = sole_covers(view);
    while !uncovered.is_empty() {
        let useful: Vec<(u32, usize)> = one_hop
            .iter()
            .copied()
            .filter(|v| !mprs.contains(v))
            .map(|v| (v, uncovered.iter().filter(|&&w| g.has_edge(v, w)).count()))
            .filter(|&(_, newly)| newly > 0)
            .collect();
        let max_cover = useful.iter().map(|&(_, c)| c).max();
        let chosen = match variant {
            MprVariant::Mpr1 => best_by_direct_link::<M>(
                view,
                useful
                    .iter()
                    .filter(|&&(_, c)| Some(c) == max_cover)
                    .map(|&(v, _)| v),
            ),
            MprVariant::Mpr2 => best_by_direct_link::<M>(view, useful.iter().map(|&(v, _)| v)),
        };
        let Some(chosen) = chosen else { break };
        mprs.insert(chosen);
        uncovered.retain(|&w| !g.has_edge(chosen, w));
    }
    mprs.into_iter().map(|v| view.global_id(v)).collect()
}

/// The RFC 3626 greedy as it was selected: most newly covered, then most
/// covered in total, then the smallest global id.
fn oracle_rfc(view: &LocalView) -> BTreeSet<NodeId> {
    let g = view.graph();
    let one_hop: Vec<u32> = view.one_hop_local().collect();
    let two_hop: Vec<u32> = view.two_hop_local().collect();
    let (mut mprs, mut uncovered) = sole_covers(view);
    while !uncovered.is_empty() {
        let best = one_hop
            .iter()
            .copied()
            .filter(|v| !mprs.contains(v))
            .map(|v| {
                let newly = uncovered.iter().filter(|&&w| g.has_edge(v, w)).count();
                let total = two_hop.iter().filter(|&&w| g.has_edge(v, w)).count();
                (newly, total, v)
            })
            .filter(|&(newly, _, _)| newly > 0)
            .max_by_key(|&(newly, total, v)| (newly, total, std::cmp::Reverse(view.global_id(v))));
        let Some((_, _, v)) = best else { break };
        mprs.insert(v);
        uncovered.retain(|&w| !g.has_edge(v, w));
    }
    mprs.into_iter().map(|v| view.global_id(v)).collect()
}

fn check_view(view: &LocalView, at: &str) {
    assert_eq!(select_mprs(view), oracle_rfc(view), "RFC MPRs at {at}");
    for variant in [MprVariant::Mpr1, MprVariant::Mpr2] {
        assert_eq!(
            QolsrMpr::<BandwidthMetric>::new(variant).select(view),
            oracle_qolsr::<BandwidthMetric>(view, variant),
            "{variant:?} bandwidth at {at}"
        );
        assert_eq!(
            QolsrMpr::<DelayMetric>::new(variant).select(view),
            oracle_qolsr::<DelayMetric>(view, variant),
            "{variant:?} delay at {at}"
        );
    }
}

/// `u`'s view as learned from a partial set of HELLO reports: each link
/// at a 1-hop neighbor is heard from it with probability 3/4, so rows
/// lose entries and 2-hop neighbors lose covers.
fn learned_view(topo: &Topology, u: NodeId, rng: &mut SimRng) -> LocalView {
    let g = topo.graph();
    let direct: Vec<(NodeId, LinkQos)> = g
        .neighbors(u.0)
        .iter()
        .map(|&(v, qos)| (NodeId(v), qos))
        .collect();
    let mut reported = Vec::new();
    for &(v, _) in &direct {
        for &(w, qos) in g.neighbors(v.0) {
            if rng.next_below(4) != 0 {
                reported.push((v, NodeId(w), qos));
            }
        }
    }
    LocalView::from_parts(u, &direct, &reported)
}

fn check_world(mean_degree: f64, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let deployment = Deployment::paper_defaults(mean_degree);
    let topo = deploy(&deployment, &UniformWeights::paper_defaults(), &mut rng);
    for u in topo.nodes() {
        let at = format!("δ = {mean_degree}, u = {u}");
        check_view(&LocalView::extract(&topo, u), &at);
        check_view(&learned_view(&topo, u, &mut rng), &format!("{at}, learned"));
    }
}

#[test]
fn sparsest_paper_density_selects_as_pairwise_coverage() {
    check_world(10.0, 0xC0DE);
}

#[test]
fn densest_paper_density_selects_as_pairwise_coverage() {
    check_world(35.0, 0xC0DF);
}
