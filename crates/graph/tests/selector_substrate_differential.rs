//! Differential test of the selectors' substrate on paper worlds: the two
//! local-view constructors and the RNG reduction, on every view of seeded
//! deployments at the paper's lowest and highest densities, against
//! test-only copies of the formulations they replaced.
//!
//! Link weights are the paper's `[1, 10]`, so link values tie often: the
//! inputs where a reduction that lets an equal link witness, or a view
//! build that keeps the wrong report of a link, would go wrong.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;

use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::reduction::rng_reduce;
use qolsr_graph::{CompactGraph, LocalView, NeighborClass, NodeId, Topology};
use qolsr_metrics::{
    Bandwidth, BandwidthMetric, Delay, DelayMetric, Energy, LinkQos, Metric, ResidualEnergyMetric,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A view as the replaced constructors built it: V_u ascending, each
/// node's class, a hashed index from global id to local index, and E_u
/// inserted one `add_undirected` at a time.
struct OracleView {
    nodes: Vec<NodeId>,
    class: Vec<NeighborClass>,
    index: HashMap<NodeId, u32>,
    graph: CompactGraph,
}

impl OracleView {
    fn indexed(nodes: Vec<NodeId>, center: NodeId, one_hop: &BTreeSet<NodeId>) -> Self {
        let index: HashMap<NodeId, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut class = vec![NeighborClass::TwoHop; nodes.len()];
        class[index[&center] as usize] = NeighborClass::Center;
        for n in one_hop {
            class[index[n] as usize] = NeighborClass::OneHop;
        }
        let graph = CompactGraph::with_nodes(nodes.len());
        Self {
            nodes,
            class,
            index,
            graph,
        }
    }

    /// `LocalView::extract` as it was: every topology edge incident to a
    /// 1-hop neighbor whose other end lies in V_u.
    fn extract(topo: &Topology, u: NodeId) -> Self {
        let g = topo.graph();
        let one_hop: BTreeSet<NodeId> = g.neighbors(u.0).iter().map(|&(v, _)| NodeId(v)).collect();
        let mut nodes: BTreeSet<NodeId> = one_hop.clone();
        nodes.insert(u);
        for v in &one_hop {
            nodes.extend(g.neighbors(v.0).iter().map(|&(w, _)| NodeId(w)));
        }
        let mut view = Self::indexed(nodes.into_iter().collect(), u, &one_hop);
        for v in &one_hop {
            let lv = view.index[v];
            for &(w, qos) in g.neighbors(v.0) {
                if let Some(&lw) = view.index.get(&NodeId(w)) {
                    view.graph.add_undirected(lv, lw, qos);
                }
            }
        }
        view
    }

    /// `LocalView::from_parts` as it was: `add_undirected` per direct
    /// link, then per heard report, so a pair's last report labels it.
    fn from_parts(center: NodeId, direct: &[(NodeId, LinkQos)], reported: &[Report]) -> Self {
        let one_hop: BTreeSet<NodeId> = direct.iter().map(|&(v, _)| v).collect();
        let mut nodes: BTreeSet<NodeId> = one_hop.clone();
        nodes.insert(center);
        for &(v, w, _) in reported {
            if one_hop.contains(&v) && w != center {
                nodes.insert(w);
            }
        }
        let mut view = Self::indexed(nodes.into_iter().collect(), center, &one_hop);
        for &(v, qos) in direct {
            view.graph
                .add_undirected(view.index[&center], view.index[&v], qos);
        }
        for &(v, w, qos) in reported {
            if one_hop.contains(&v) && w != center {
                view.graph
                    .add_undirected(view.index[&v], view.index[&w], qos);
            }
        }
        view
    }

    /// Asserts that `view` holds exactly this knowledge, read through
    /// its public accessors.
    fn assert_same(&self, view: &LocalView, at: &str) {
        assert_eq!(view.len(), self.nodes.len(), "|V_u| at {at}");
        for (l, &n) in (0..).zip(&self.nodes) {
            assert_eq!(view.global_id(l), n, "global id of {l} at {at}");
            assert_eq!(view.local_index(n), Some(l), "local index of {n} at {at}");
            assert_eq!(
                view.class(l),
                self.class[l as usize],
                "class of {n} at {at}"
            );
        }
        assert_eq!(view.graph(), &self.graph, "E_u at {at}");
        assert_eq!(
            view.graph().edge_count(),
            self.graph.edge_count(),
            "|E_u| at {at}"
        );
        let center = self.index[&view.center()];
        assert_eq!(view.center_local(), center, "center at {at}");
    }
}

/// `rng_reduce` as it was: each edge kept unless a merge-intersection of
/// its ends' sorted rows finds a common neighbor over two links strictly
/// better than it.
fn oracle_rng_reduce<M: Metric>(g: &CompactGraph) -> CompactGraph {
    let mut out = CompactGraph::with_nodes(g.len());
    for (a, b, qos) in g.edges() {
        let direct = M::link_value(&qos);
        let (na, nb) = (g.neighbors(a), g.neighbors(b));
        let (mut i, mut j) = (0, 0);
        let mut witness = false;
        while i < na.len() && j < nb.len() && !witness {
            let ((za, qa), (zb, qb)) = (na[i], nb[j]);
            match za.cmp(&zb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    witness = M::better(M::link_value(&qa), direct)
                        && M::better(M::link_value(&qb), direct);
                    i += 1;
                    j += 1;
                }
            }
        }
        if !witness {
            out.add_undirected(a, b, qos);
        }
    }
    out
}

fn check_reduction<M: Metric>(g: &CompactGraph, at: &str)
where
    M::Value: Debug,
{
    assert_eq!(
        rng_reduce::<M>(g),
        oracle_rng_reduce::<M>(g),
        "{} reduction at {at}",
        M::NAME
    );
}

/// A reported link `(reporter, other end, label)`.
type Report = (NodeId, NodeId, LinkQos);

/// A label drawn like the paper's weights.
fn label(rng: &mut StdRng) -> LinkQos {
    LinkQos::with_energy(
        Bandwidth(rng.random_range(1..=10)),
        Delay(rng.random_range(1..=10)),
        Energy(rng.random_range(1..=10)),
    )
}

/// What `u` would learn from HELLOs, made harder: every link is reported
/// from each of its ends that is a 1-hop neighbor (`u` among the ends
/// named), a quarter of the reports carry a label of their own and
/// another quarter are repeated under one, a node outside the network
/// reports too, and the order is shuffled. One direct link is given twice.
fn learned_parts(
    topo: &Topology,
    u: NodeId,
    rng: &mut StdRng,
) -> (Vec<(NodeId, LinkQos)>, Vec<Report>) {
    let g = topo.graph();
    let mut direct: Vec<(NodeId, LinkQos)> = g
        .neighbors(u.0)
        .iter()
        .map(|&(v, qos)| (NodeId(v), qos))
        .collect();
    let mut reported = Vec::new();
    for &(v, _) in &direct {
        for &(w, qos) in g.neighbors(v.0) {
            let qos = if rng.random_range(0u32..4) == 0 {
                label(rng)
            } else {
                qos
            };
            reported.push((v, NodeId(w), qos));
            if rng.random_range(0u32..4) == 0 {
                reported.push((v, NodeId(w), label(rng)));
            }
        }
    }
    let stranger = NodeId(g.len() as u32);
    reported.push((stranger, NodeId(stranger.0 + 1), label(rng)));
    if let Some(&(v, _)) = direct.first() {
        direct.push((v, label(rng)));
    }
    for i in (1..reported.len()).rev() {
        reported.swap(i, rng.random_range(0..=i));
    }
    (direct, reported)
}

fn check_world(mean_degree: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let deployment = Deployment::paper_defaults(mean_degree);
    let topo = deploy(&deployment, &UniformWeights::paper_defaults(), &mut rng);
    let outside = NodeId(topo.len() as u32);
    for u in topo.nodes() {
        let at = format!("δ = {mean_degree}, u = {u}");
        let view = LocalView::extract(&topo, u);
        OracleView::extract(&topo, u).assert_same(&view, &at);
        assert_eq!(view.local_index(outside), None, "an absent id at {at}");
        assert_eq!(view.class_of(outside), None, "an absent id at {at}");

        let (direct, reported) = learned_parts(&topo, u, &mut rng);
        let learned = LocalView::from_parts(u, &direct, &reported);
        OracleView::from_parts(u, &direct, &reported)
            .assert_same(&learned, &format!("{at}, learned"));

        let g = view.graph();
        check_reduction::<BandwidthMetric>(g, &at);
        check_reduction::<DelayMetric>(g, &at);
        check_reduction::<ResidualEnergyMetric>(g, &at);
    }
}

#[test]
fn sparsest_paper_density_matches_the_replaced_substrate() {
    check_world(10.0, 0x5B57);
}

#[test]
fn densest_paper_density_matches_the_replaced_substrate() {
    check_world(35.0, 0x5B58);
}
