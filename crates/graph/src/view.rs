//! The local view `G_u = (V_u, E_u)` of a node — the partial topology
//! knowledge OLSR nodes obtain by piggybacking neighbor tables on HELLO
//! messages (§III.A of the paper):
//!
//! ```text
//! V_u = {u} ∪ N(u) ∪ N²(u)
//! E_u = {(v, w) | v ∈ N(u) ∧ w ∈ V_u}
//! ```
//!
//! Notably, links between two 2-hop neighbors are *not* part of `E_u`
//! (the paper's Fig. 2 link `(v8, v9)` example), which is what makes the
//! algorithms genuinely localized.

use qolsr_metrics::LinkQos;

use crate::compact::CompactGraph;
use crate::ids::NodeId;
use crate::topology::Topology;

/// Classification of a node inside a [`LocalView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborClass {
    /// The view's center `u`.
    Center,
    /// A 1-hop neighbor (`N(u)`).
    OneHop,
    /// A strict 2-hop neighbor (`N²(u)`).
    TwoHop,
}

/// The 2-hop partial view of a node over a [`Topology`], re-indexed onto a
/// dense [`CompactGraph`] so the generic path algorithms run on it
/// directly.
///
/// # Examples
///
/// ```
/// use qolsr_graph::{fixtures, LocalView, NeighborClass};
///
/// let fig = fixtures::fig2();
/// let view = LocalView::extract(&fig.topo, fig.u);
/// assert_eq!(view.class_of(fig.u), Some(NeighborClass::Center));
/// // v3 is a two-hop neighbor of u in Fig. 2.
/// assert_eq!(view.class_of(fig.v[2]), Some(NeighborClass::TwoHop));
/// // The hidden link (v8, v9) connects two 2-hop neighbors: not in E_u.
/// let v8 = view.local_index(fig.v[7]).unwrap();
/// let v9 = view.local_index(fig.v[8]).unwrap();
/// assert!(!view.graph().has_edge(v8, v9));
/// ```
#[derive(Debug, Clone)]
pub struct LocalView {
    center: NodeId,
    center_local: u32,
    /// V_u ascending by global id; a node's position is its local index.
    nodes: Vec<NodeId>,
    class: Vec<NeighborClass>,
    graph: CompactGraph,
}

impl LocalView {
    /// Extracts the local view of `u` from the ground-truth topology.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of `topo`.
    pub fn extract(topo: &Topology, u: NodeId) -> Self {
        Self::extract_graph(topo.graph(), u)
    }

    /// Extracts the local view of `u` from a whole-network adjacency graph
    /// whose dense indices *are* the global node ids (as in
    /// [`Topology::graph`] and
    /// [`DynamicTopology::graph`](crate::DynamicTopology::graph)).
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a node of `graph`.
    pub fn extract_graph(graph: &CompactGraph, u: NodeId) -> Self {
        assert!(u.index() < graph.len(), "center not in topology");
        const ABSENT: u32 = u32::MAX;
        const CENTER: u32 = u32::MAX - 1;
        const ONE_HOP: u32 = u32::MAX - 2;
        const TWO_HOP: u32 = u32::MAX - 3;

        // V_u through one dense map over global ids: while V_u is
        // collected, `slot[n]` holds n's class; once V_u is sorted, n's
        // local index. Nodes outside V_u stay ABSENT.
        let mut slot = vec![ABSENT; graph.len()];
        let mut nodes = vec![u];
        slot[u.index()] = CENTER;
        for &(v, _) in graph.neighbors(u.0) {
            slot[v as usize] = ONE_HOP;
            nodes.push(NodeId(v));
        }
        for &(v, _) in graph.neighbors(u.0) {
            for &(w, _) in graph.neighbors(v) {
                if slot[w as usize] == ABSENT {
                    slot[w as usize] = TWO_HOP;
                    nodes.push(NodeId(w));
                }
            }
        }
        nodes.sort_unstable();
        let class: Vec<NeighborClass> = nodes
            .iter()
            .map(|n| match slot[n.index()] {
                CENTER => NeighborClass::Center,
                ONE_HOP => NeighborClass::OneHop,
                _ => NeighborClass::TwoHop,
            })
            .collect();
        for (i, n) in nodes.iter().enumerate() {
            slot[n.index()] = i as u32;
        }

        // E_u row by row: each row is the node's global row filtered to
        // V_u, so it comes out sorted. A 1-hop neighbor keeps every
        // neighbor in V_u; the center and a 2-hop node keep their 1-hop
        // neighbors (all of the center's are).
        let one_hop = |l: u32| class[l as usize] == NeighborClass::OneHop;
        let mut row = Vec::new();
        let rows = nodes
            .iter()
            .zip(&class)
            .map(|(n, &c)| {
                row.clear();
                for &(m, qos) in graph.neighbors(n.0) {
                    let l = slot[m as usize];
                    if l != ABSENT && (c == NeighborClass::OneHop || one_hop(l)) {
                        row.push((l, qos));
                    }
                }
                row.clone()
            })
            .collect();

        Self {
            center: u,
            center_local: slot[u.index()],
            nodes,
            class,
            graph: CompactGraph::from_rows(rows),
        }
    }

    /// Builds a local view directly from a node's *learned* knowledge: its
    /// direct links and the links its neighbors reported (e.g. from OLSR
    /// HELLO exchanges), rather than from ground truth.
    ///
    /// `direct` lists `(v, qos)` for each 1-hop neighbor; `reported` lists
    /// `(v, w, qos)` links announced by 1-hop neighbors `v`. Reported links
    /// whose `v` endpoint is not a known 1-hop neighbor are ignored, as are
    /// self-referential reports (`w == center`), which are already covered
    /// by `direct`. A link given more than once (from both ends, or
    /// repeated) is one edge, labelled by its last report.
    ///
    /// # Panics
    ///
    /// Panics if a link would be a self loop: `center` listed in `direct`,
    /// or a report `(v, v, _)`.
    pub fn from_parts(
        center: NodeId,
        direct: &[(NodeId, LinkQos)],
        reported: &[(NodeId, NodeId, LinkQos)],
    ) -> Self {
        let mut one_hop: Vec<NodeId> = direct.iter().map(|&(v, _)| v).collect();
        one_hop.sort_unstable();
        one_hop.dedup();
        let is_one_hop = |n: NodeId| one_hop.binary_search(&n).is_ok();
        let heard = |&&(v, w, _): &&(NodeId, NodeId, LinkQos)| w != center && is_one_hop(v);

        let mut nodes = one_hop.clone();
        nodes.push(center);
        nodes.extend(reported.iter().filter(heard).map(|&(_, w, _)| w));
        nodes.sort_unstable();
        nodes.dedup();
        let class: Vec<NeighborClass> = nodes
            .iter()
            .map(|&n| {
                if n == center {
                    NeighborClass::Center
                } else if is_one_hop(n) {
                    NeighborClass::OneHop
                } else {
                    NeighborClass::TwoHop
                }
            })
            .collect();
        let local = |n: NodeId| nodes.binary_search(&n).expect("endpoint is in V_u") as u32;

        // Every link as (lower end, higher end, label), stably sorted by
        // pair: the last report of a pair closes its run, and folding
        // each run into its first entry gives that entry the last label.
        let mut links: Vec<(u32, u32, LinkQos)> = direct
            .iter()
            .map(|&(v, qos)| (center, v, qos))
            .chain(reported.iter().filter(heard).copied())
            .map(|(a, b, qos)| {
                let (a, b) = (local(a), local(b));
                assert_ne!(a, b, "self loops are not allowed");
                (a.min(b), a.max(b), qos)
            })
            .collect();
        links.sort_by_key(|&(a, b, _)| (a, b));
        links.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 = later.2;
            }
            same
        });

        // Pushing the sorted pairs into both ends fills each row with its
        // lower neighbors, then its higher ones, each ascending.
        let mut degree = vec![0usize; nodes.len()];
        for &(a, b, ..) in &links {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut rows: Vec<Vec<(u32, LinkQos)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for &(a, b, qos) in &links {
            rows[a as usize].push((b, qos));
            rows[b as usize].push((a, qos));
        }

        let center_local = local(center);
        Self {
            center,
            center_local,
            nodes,
            class,
            graph: CompactGraph::from_rows(rows),
        }
    }

    /// The center node's global id.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The center node's local index in [`graph`](Self::graph).
    pub fn center_local(&self) -> u32 {
        self.center_local
    }

    /// Number of nodes in `V_u`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the view contains only the center.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The local adjacency graph (`E_u`), over local indices.
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// Translates a local index back to the global [`NodeId`].
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range.
    pub fn global_id(&self, local: u32) -> NodeId {
        self.nodes[local as usize]
    }

    /// Translates a global id to this view's local index, if present.
    pub fn local_index(&self, n: NodeId) -> Option<u32> {
        self.nodes.binary_search(&n).ok().map(|i| i as u32)
    }

    /// The classification of local index `local`.
    pub fn class(&self, local: u32) -> NeighborClass {
        self.class[local as usize]
    }

    /// The classification of a global id, if it is in the view.
    pub fn class_of(&self, n: NodeId) -> Option<NeighborClass> {
        self.local_index(n).map(|l| self.class(l))
    }

    /// Local indices of the 1-hop neighbors `N(u)`, ascending (local index
    /// order coincides with global id order).
    pub fn one_hop_local(&self) -> impl Iterator<Item = u32> + '_ {
        self.class
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == NeighborClass::OneHop)
            .map(|(i, _)| i as u32)
    }

    /// Local indices of the strict 2-hop neighbors `N²(u)`, ascending.
    pub fn two_hop_local(&self) -> impl Iterator<Item = u32> + '_ {
        self.class
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == NeighborClass::TwoHop)
            .map(|(i, _)| i as u32)
    }

    /// Global ids of the 1-hop neighbors, ascending.
    pub fn one_hop(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.one_hop_local().map(|l| self.global_id(l))
    }

    /// Global ids of the strict 2-hop neighbors, ascending.
    pub fn two_hop(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.two_hop_local().map(|l| self.global_id(l))
    }

    /// QoS of the direct link from the center to local index `v`, if `v`
    /// is a 1-hop neighbor.
    pub fn direct_qos(&self, v: u32) -> Option<LinkQos> {
        self.graph.qos(self.center_local, v)
    }

    /// Returns `true` if two views encode exactly the same knowledge: same
    /// center, same node set with identical classifications, and the same
    /// edges with the same QoS labels. Used by convergence tests comparing
    /// protocol-learned views against ground truth.
    pub fn same_knowledge(&self, other: &LocalView) -> bool {
        if self.center != other.center || self.nodes != other.nodes {
            return false;
        }
        if self.class != other.class {
            return false;
        }
        let mine: Vec<_> = self.graph.edges().collect();
        let theirs: Vec<_> = other.graph.edges().collect();
        mine == theirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    /// Chain 0—1—2—3 plus a 1—4 branch: from node 0, N = {1},
    /// N² = {2, 4}, and node 3 is invisible.
    fn chain_with_branch() -> Topology {
        let mut b = TopologyBuilder::abstract_nodes(5);
        for (a, c, w) in [(0, 1, 5), (1, 2, 4), (2, 3, 3), (1, 4, 2)] {
            b.link(NodeId(a), NodeId(c), LinkQos::uniform(w)).unwrap();
        }
        b.build()
    }

    #[test]
    fn classifies_neighborhoods() {
        let t = chain_with_branch();
        let v = LocalView::extract(&t, NodeId(0));
        assert_eq!(v.center(), NodeId(0));
        assert_eq!(v.class_of(NodeId(0)), Some(NeighborClass::Center));
        assert_eq!(v.class_of(NodeId(1)), Some(NeighborClass::OneHop));
        assert_eq!(v.class_of(NodeId(2)), Some(NeighborClass::TwoHop));
        assert_eq!(v.class_of(NodeId(4)), Some(NeighborClass::TwoHop));
        assert_eq!(v.class_of(NodeId(3)), None);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn one_and_two_hop_iterators() {
        let t = chain_with_branch();
        let v = LocalView::extract(&t, NodeId(0));
        assert_eq!(v.one_hop().collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(v.two_hop().collect::<Vec<_>>(), vec![NodeId(2), NodeId(4)]);
    }

    #[test]
    fn two_hop_to_two_hop_links_are_hidden() {
        // Square 0-1, 0-2, 1-3, 2-3 plus hidden 3-4 and visible 1-2.
        let mut b = TopologyBuilder::abstract_nodes(5);
        for (a, c) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 2)] {
            b.link(NodeId(a), NodeId(c), LinkQos::uniform(1)).unwrap();
        }
        let t = b.build();
        let v = LocalView::extract(&t, NodeId(0));
        // 4 is three hops away: not in the view at all.
        assert_eq!(v.class_of(NodeId(4)), None);
        // Links between 1-hop neighbors are visible.
        let l1 = v.local_index(NodeId(1)).unwrap();
        let l2 = v.local_index(NodeId(2)).unwrap();
        assert!(v.graph().has_edge(l1, l2));
    }

    #[test]
    fn direct_qos_only_for_one_hop() {
        let t = chain_with_branch();
        let v = LocalView::extract(&t, NodeId(0));
        let n1 = v.local_index(NodeId(1)).unwrap();
        let n2 = v.local_index(NodeId(2)).unwrap();
        assert_eq!(v.direct_qos(n1), Some(LinkQos::uniform(5)));
        assert_eq!(v.direct_qos(n2), None);
    }

    #[test]
    fn isolated_center() {
        let b = TopologyBuilder::abstract_nodes(1);
        let t = b.build();
        let v = LocalView::extract(&t, NodeId(0));
        assert!(v.is_empty());
        assert_eq!(v.one_hop().count(), 0);
        assert_eq!(v.two_hop().count(), 0);
    }

    #[test]
    fn local_graph_edge_counts() {
        let t = chain_with_branch();
        let v = LocalView::extract(&t, NodeId(0));
        // Edges in E_0: (0,1), (1,2), (1,4). Edge (2,3) leaves V_0.
        assert_eq!(v.graph().edge_count(), 3);
    }

    #[test]
    fn from_parts_matches_extract() {
        let t = chain_with_branch();
        let extracted = LocalView::extract(&t, NodeId(0));
        // Knowledge node 0 would learn from HELLOs: direct link to 1, and
        // node 1 reporting its links to 0, 2 and 4.
        let direct = vec![(NodeId(1), LinkQos::uniform(5))];
        let reported = vec![
            (NodeId(1), NodeId(0), LinkQos::uniform(5)),
            (NodeId(1), NodeId(2), LinkQos::uniform(4)),
            (NodeId(1), NodeId(4), LinkQos::uniform(2)),
        ];
        let built = LocalView::from_parts(NodeId(0), &direct, &reported);
        assert!(built.same_knowledge(&extracted));
    }

    #[test]
    fn from_parts_ignores_unknown_reporters() {
        let direct = vec![(NodeId(1), LinkQos::uniform(5))];
        let reported = vec![
            // Node 9 is not a 1-hop neighbor: its report must be dropped.
            (NodeId(9), NodeId(3), LinkQos::uniform(4)),
        ];
        let v = LocalView::from_parts(NodeId(0), &direct, &reported);
        assert_eq!(v.len(), 2);
        assert_eq!(v.class_of(NodeId(3)), None);
        assert_eq!(v.class_of(NodeId(9)), None);
    }

    #[test]
    fn from_parts_labels_a_link_by_its_last_report() {
        // 1 and 2 are 1-hop neighbors of 0 and both report their common
        // link, each with its own label, and 1 repeats its report. The
        // last report labels both halves, whichever end sent it and
        // whatever its label; the link is one edge.
        let q = LinkQos::uniform;
        let (one, two) = (NodeId(1), NodeId(2));
        let direct = [(one, q(5)), (two, q(6))];
        for (reported, last) in [
            ([(one, two, q(3)), (two, one, q(9)), (one, two, q(7))], q(7)),
            ([(one, two, q(9)), (one, two, q(7)), (two, one, q(3))], q(3)),
        ] {
            let v = LocalView::from_parts(NodeId(0), &direct, &reported);
            let l1 = v.local_index(one).unwrap();
            let l2 = v.local_index(two).unwrap();
            assert_eq!(v.graph().qos(l1, l2), Some(last), "{reported:?}");
            assert_eq!(v.graph().qos(l2, l1), Some(last), "{reported:?}");
            assert_eq!(v.graph().edge_count(), 3, "{reported:?}");
            assert_eq!(v.graph().degree(l1), 2, "{reported:?}");
            assert_eq!(v.graph().degree(l2), 2, "{reported:?}");
        }

        // Ids below, between and past V_u = {1, 2, 4} are absent.
        let v = LocalView::from_parts(NodeId(4), &direct, &[]);
        for absent in [NodeId(0), NodeId(3), NodeId(5), NodeId(u32::MAX)] {
            assert_eq!(v.local_index(absent), None, "{absent}");
            assert_eq!(v.class_of(absent), None, "{absent}");
        }
    }

    #[test]
    fn same_knowledge_detects_differences() {
        let t = chain_with_branch();
        let a = LocalView::extract(&t, NodeId(0));
        let b = LocalView::extract(&t, NodeId(1));
        assert!(!a.same_knowledge(&b));
        assert!(a.same_knowledge(&a));
    }
}
