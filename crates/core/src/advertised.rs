//! Network-wide advertised topology: run a selector at every node and
//! collect the union of advertised links — what TC flooding makes known
//! to every node in the network.

use std::collections::BTreeSet;

use qolsr_graph::{CompactGraph, LocalView, NodeId, Topology};

use crate::eval::sharded_runs;
use crate::selector::AnsSelector;

/// The advertised links of a whole network under one selector, plus
/// per-node advertised-set sizes (the quantity of the paper's Figs. 6–7).
#[derive(Debug, Clone)]
pub struct AdvertisedTopology {
    graph: CompactGraph,
    sizes: Vec<usize>,
}

impl AdvertisedTopology {
    /// The advertised link graph over the topology's node indices
    /// (links are bidirectional, per the paper's link model).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// Advertised-set size per node.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Mean advertised-set size across nodes (0 for an empty network).
    pub fn mean_size(&self) -> f64 {
        if self.sizes.is_empty() {
            0.0
        } else {
            self.sizes.iter().sum::<usize>() as f64 / self.sizes.len() as f64
        }
    }

    /// Number of distinct advertised links.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Runs `selector` at every node of `topo` (each node sees only its own
/// `G_u`) and unions the advertised links: [`build_advertised_all`] with
/// one selector.
pub fn build_advertised(
    topo: &Topology,
    selector: &dyn AnsSelector,
    threads: usize,
) -> AdvertisedTopology {
    let mut one = build_advertised_all(topo, &[selector], threads);
    one.pop().expect("one topology per selector")
}

/// Runs every one of `selectors` at every node of `topo` and unions each
/// selector's advertised links: one topology per selector, in order.
/// Each node's `G_u` is extracted once and shared by the selectors, and
/// each graph gets its links node by node, ascending.
///
/// Work is spread over `threads` crossbeam-scoped workers from 64 nodes
/// up; results are deterministic regardless of thread count.
pub fn build_advertised_all(
    topo: &Topology,
    selectors: &[&dyn AnsSelector],
    threads: usize,
) -> Vec<AdvertisedTopology> {
    let n = topo.len();
    let selections = per_node(n, threads, |u| {
        let view = LocalView::extract(topo, u);
        selectors
            .iter()
            .map(|sel| sel.select(&view))
            .collect::<Vec<_>>()
    });
    let mut out: Vec<AdvertisedTopology> = selectors
        .iter()
        .map(|_| AdvertisedTopology {
            graph: CompactGraph::with_nodes(n),
            sizes: vec![0; n],
        })
        .collect();
    for (u, per_selector) in topo.nodes().zip(selections) {
        for (adv, ans) in out.iter_mut().zip(per_selector) {
            adv.sizes[u.index()] = ans.len();
            for w in ans {
                let qos = topo
                    .link_qos(u, w)
                    .expect("selectors only advertise 1-hop neighbors");
                adv.graph.add_undirected(u.0, w.0, qos);
            }
        }
    }
    out
}

/// Runs `selector` over pre-extracted per-node views on `threads`
/// workers, results in view order. The churn experiment fans its
/// selection-drift measurement out through this.
pub(crate) fn select_on_views(
    selector: &dyn AnsSelector,
    views: &[LocalView],
    threads: usize,
) -> Vec<BTreeSet<NodeId>> {
    per_node(views.len(), threads, |u| selector.select(&views[u.index()]))
}

/// `run_one(NodeId(i))` for every `i < n`, in index order, on up to
/// `threads` workers — sequentially below 64 nodes, where spawning
/// costs more than it saves.
fn per_node<T: Send>(n: usize, threads: usize, run_one: impl Fn(NodeId) -> T + Sync) -> Vec<T> {
    let workers = if n < 64 { 1 } else { threads };
    sharded_runs(n as u32, workers, |i| run_one(NodeId(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{Fnbp, TopologyFiltering};
    use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
    use qolsr_graph::fixtures;
    use qolsr_metrics::BandwidthMetric;
    use qolsr_sim::SimRng;

    #[test]
    fn advertised_links_are_real_links() {
        let f = fixtures::fig2();
        let adv = build_advertised(&f.topo, &Fnbp::<BandwidthMetric>::new(), 1);
        for (a, b, qos) in adv.graph().edges() {
            assert_eq!(f.topo.link_qos(NodeId(a), NodeId(b)), Some(qos));
        }
        assert!(adv.link_count() > 0);
    }

    #[test]
    fn sizes_match_per_node_selection() {
        let f = fixtures::fig2();
        let sel = Fnbp::<BandwidthMetric>::new();
        let adv = build_advertised(&f.topo, &sel, 1);
        for u in f.topo.nodes() {
            let view = LocalView::extract(&f.topo, u);
            assert_eq!(adv.sizes()[u.index()], sel.select(&view).len());
        }
        assert!(adv.mean_size() > 0.0);
    }

    #[test]
    fn parallel_matches_sequential() {
        // A network past the sequential cutoff, so four threads fan out.
        let deployment = Deployment {
            width: 600.0,
            height: 600.0,
            radius: 100.0,
            mean_degree: 10.0,
        };
        let weights = UniformWeights::paper_defaults();
        let topo = deploy(&deployment, &weights, &mut SimRng::seed_from_u64(21));
        assert!(topo.len() >= 64);
        let fnbp = Fnbp::<BandwidthMetric>::new();
        let tf = TopologyFiltering::<BandwidthMetric>::new();
        let selectors: [&dyn AnsSelector; 2] = [&fnbp, &tf];
        let seq = build_advertised_all(&topo, &selectors, 1);
        let par = build_advertised_all(&topo, &selectors, 4);
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.graph(), p.graph());
            assert_eq!(s.sizes(), p.sizes());
        }
        assert_eq!(seq[1].sizes().len(), topo.len());
    }
}
