//! Dense-index adjacency graph: the substrate every path algorithm runs on.

use qolsr_metrics::LinkQos;

use crate::ids::NodeId;

/// An undirected graph over dense node indices `0..n` with QoS-labelled
/// links, stored as (symmetric) adjacency lists sorted by neighbor index.
///
/// `CompactGraph` is the common representation behind
/// [`Topology`](crate::Topology), [`LocalView`](crate::LocalView), the
/// RNG-reduced views of [`reduction`](crate::reduction) and the advertised
/// graphs built by the `qolsr` core crate, so that the algorithms in
/// [`paths`](crate::paths) apply uniformly.
///
/// # Examples
///
/// ```
/// use qolsr_graph::CompactGraph;
/// use qolsr_metrics::LinkQos;
///
/// let mut g = CompactGraph::with_nodes(3);
/// g.add_undirected(0, 1, LinkQos::uniform(5));
/// g.add_undirected(1, 2, LinkQos::uniform(7));
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.qos(2, 1), Some(LinkQos::uniform(7)));
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactGraph {
    adj: Vec<Vec<(u32, LinkQos)>>,
    edges: usize,
}

impl CompactGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Creates a graph from finished adjacency rows: row `v` lists `v`'s
    /// neighbors in ascending index order, without `v` itself, and each
    /// edge sits in both of its endpoints' rows under one label.
    pub(crate) fn from_rows(adj: Vec<Vec<(u32, LinkQos)>>) -> Self {
        let halves: usize = adj.iter().map(Vec::len).sum();
        let graph = Self {
            adj,
            edges: halves / 2,
        };
        debug_assert!(graph.node_indices().all(|v| {
            let row = graph.neighbors(v);
            row.windows(2).all(|p| p[0].0 < p[1].0)
                && row
                    .iter()
                    .all(|&(w, qos)| w != v && graph.qos(w, v) == Some(qos))
        }));
        graph
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the undirected edge `a—b` with label `qos`, keeping adjacency
    /// lists sorted. Replaces the label if the edge already exists.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self loop) or either endpoint is out of range.
    pub fn add_undirected(&mut self, a: u32, b: u32, qos: LinkQos) {
        assert_ne!(a, b, "self loops are not allowed");
        assert!(
            (a as usize) < self.adj.len() && (b as usize) < self.adj.len(),
            "edge endpoint out of range"
        );
        let inserted = Self::insert_half(&mut self.adj[a as usize], b, qos);
        Self::insert_half(&mut self.adj[b as usize], a, qos);
        if inserted {
            self.edges += 1;
        }
    }

    /// Returns `true` if a new entry was inserted (`false` on label update).
    fn insert_half(list: &mut Vec<(u32, LinkQos)>, to: u32, qos: LinkQos) -> bool {
        match list.binary_search_by_key(&to, |&(n, _)| n) {
            Ok(i) => {
                list[i].1 = qos;
                false
            }
            Err(i) => {
                list.insert(i, (to, qos));
                true
            }
        }
    }

    /// Removes the undirected edge `a—b` if present; returns its label.
    pub fn remove_undirected(&mut self, a: u32, b: u32) -> Option<LinkQos> {
        let qos = {
            let list = &mut self.adj[a as usize];
            let i = list.binary_search_by_key(&b, |&(n, _)| n).ok()?;
            list.remove(i).1
        };
        let list = &mut self.adj[b as usize];
        if let Ok(i) = list.binary_search_by_key(&a, |&(n, _)| n) {
            list.remove(i);
        }
        self.edges -= 1;
        Some(qos)
    }

    /// The neighbors of `v` with their link labels, sorted by index.
    pub fn neighbors(&self, v: u32) -> &[(u32, LinkQos)] {
        &self.adj[v as usize]
    }

    /// The degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// The label of edge `a—b`, if the edge exists.
    pub fn qos(&self, a: u32, b: u32) -> Option<LinkQos> {
        let list = &self.adj[a as usize];
        list.binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| list[i].1)
    }

    /// Returns `true` if the edge `a—b` exists.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.qos(a, b).is_some()
    }

    /// Iterates over every undirected edge once, as `(a, b, qos)` with
    /// `a < b`, in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, LinkQos)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            let a = a as u32;
            list.iter()
                .filter(move |&&(b, _)| a < b)
                .map(move |&(b, qos)| (a, b, qos))
        })
    }

    /// Iterates over node indices `0..n`.
    pub fn node_indices(&self) -> impl Iterator<Item = u32> {
        0..self.len() as u32
    }

    /// Converts a dense index into a [`NodeId`] (identity mapping; exists
    /// for call-site readability when the graph *is* a whole topology).
    pub fn node_id(&self, v: u32) -> NodeId {
        NodeId(v)
    }

    /// Average node degree `2|E|/|V|` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edges as f64 / self.adj.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qos(w: u64) -> LinkQos {
        LinkQos::uniform(w)
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 2, qos(5));
        g.add_undirected(2, 3, qos(1));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.qos(3, 2), Some(qos(1)));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut g = CompactGraph::with_nodes(5);
        g.add_undirected(2, 4, qos(1));
        g.add_undirected(2, 0, qos(2));
        g.add_undirected(2, 3, qos(3));
        let order: Vec<u32> = g.neighbors(2).iter().map(|&(n, _)| n).collect();
        assert_eq!(order, vec![0, 3, 4]);
    }

    #[test]
    fn duplicate_edge_updates_label() {
        let mut g = CompactGraph::with_nodes(2);
        g.add_undirected(0, 1, qos(5));
        g.add_undirected(1, 0, qos(9));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.qos(0, 1), Some(qos(9)));
    }

    #[test]
    fn remove_edge() {
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, qos(5));
        assert_eq!(g.remove_undirected(1, 0), Some(qos(5)));
        assert_eq!(g.remove_undirected(1, 0), None);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn edges_iterates_each_once() {
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, qos(1));
        g.add_undirected(1, 2, qos(2));
        g.add_undirected(0, 2, qos(3));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, qos(1)), (0, 2, qos(3)), (1, 2, qos(2))]);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let mut g = CompactGraph::with_nodes(2);
        g.add_undirected(1, 1, qos(1));
    }

    #[test]
    fn average_degree() {
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 1, qos(1));
        g.add_undirected(2, 3, qos(1));
        assert_eq!(g.average_degree(), 1.0);
        assert_eq!(CompactGraph::default().average_degree(), 0.0);
    }
}
