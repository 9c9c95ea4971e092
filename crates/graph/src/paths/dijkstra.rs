//! Single-source best-path Dijkstra, generic over additive and concave
//! metrics.
//!
//! The greedy settle-the-best-frontier-node argument holds for any
//! [`Metric`] whose `extend` never improves a path value (documented law):
//! for additive metrics this is textbook Dijkstra; for concave metrics it
//! is the classical *widest path* variant. One implementation serves both,
//! exactly as the paper treats bandwidth and delay symmetrically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use qolsr_metrics::Metric;

use crate::compact::CompactGraph;

/// Sentinel for "no parent".
const NO_PARENT: u32 = u32::MAX;

/// Result of a single-source best-path computation over a [`CompactGraph`].
///
/// # Examples
///
/// ```
/// use qolsr_graph::{paths, CompactGraph};
/// use qolsr_metrics::{Bandwidth, BandwidthMetric, LinkQos};
///
/// let mut g = CompactGraph::with_nodes(3);
/// g.add_undirected(0, 1, LinkQos::uniform(10));
/// g.add_undirected(1, 2, LinkQos::uniform(4));
/// g.add_undirected(0, 2, LinkQos::uniform(3));
///
/// let bp = paths::best_paths::<BandwidthMetric>(&g, 0);
/// // Widest path to node 2 goes through node 1: bottleneck 4 beats the
/// // direct link of 3.
/// assert_eq!(bp.value(2), Bandwidth(4));
/// assert_eq!(bp.path_to(2), Some(vec![0, 1, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct BestPaths<M: Metric> {
    src: u32,
    value: Vec<M::Value>,
    hops: Vec<u32>,
    parent: Vec<u32>,
    settled: Vec<bool>,
}

impl<M: Metric> BestPaths<M> {
    /// The source node of this computation.
    pub fn source(&self) -> u32 {
        self.src
    }

    /// Best path value from the source to `v` ([`Metric::no_path`] when
    /// unreachable). The source itself has value [`Metric::empty_path`].
    pub fn value(&self, v: u32) -> M::Value {
        self.value[v as usize]
    }

    /// Hop count of the reconstructed optimal path to `v` (`u32::MAX`
    /// when unreachable). Among equal-QoS paths the computation prefers
    /// fewer hops — QOLSR's *shortest-widest / shortest-fastest* rule —
    /// so routing does not wander onto needlessly long ties.
    pub fn hops(&self, v: u32) -> u32 {
        self.hops[v as usize]
    }

    /// Returns `true` if `v` is reachable from the source.
    pub fn reachable(&self, v: u32) -> bool {
        self.settled[v as usize]
    }

    /// Reconstructs *one* optimal path `source → v` (node index sequence,
    /// inclusive); `None` if `v` is unreachable.
    pub fn path_to(&self, v: u32) -> Option<Vec<u32>> {
        if !self.reachable(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.src {
            cur = self.parent[cur as usize];
            debug_assert_ne!(cur, NO_PARENT);
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The predecessor of `v` on the reconstructed optimal path (`None`
    /// for the source or unreachable nodes).
    pub fn parent(&self, v: u32) -> Option<u32> {
        let p = self.parent[v as usize];
        (p != NO_PARENT).then_some(p)
    }
}

/// Heap entry ordered so that the *best* (under `M`) value pops first;
/// QoS ties break towards fewer hops, then the smallest node index.
struct HeapEntry<M: Metric> {
    value: M::Value,
    hops: u32,
    node: u32,
}

impl<M: Metric> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<M: Metric> Eq for HeapEntry<M> {}

impl<M: Metric> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M: Metric> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: "greater" pops first.
        if M::better(self.value, other.value) {
            Ordering::Greater
        } else if M::better(other.value, self.value) {
            Ordering::Less
        } else {
            (other.hops, other.node).cmp(&(self.hops, self.node))
        }
    }
}

/// Computes best paths from `src` to every node of `g` under metric `M`.
pub fn best_paths<M: Metric>(g: &CompactGraph, src: u32) -> BestPaths<M> {
    best_paths_avoiding::<M>(g, src, None)
}

/// Computes best paths from `src` under metric `M`, treating `banned` (if
/// any) as removed from the graph.
///
/// Banning a node is how [`first_hop_table`](crate::paths::first_hop_table)
/// restricts attention to *simple* paths that leave the center exactly
/// once — required for concave metrics, where prefixes of optimal paths
/// need not be optimal.
///
/// # Panics
///
/// Panics if `src` is out of range or equals `banned`.
pub fn best_paths_avoiding<M: Metric>(
    g: &CompactGraph,
    src: u32,
    banned: Option<u32>,
) -> BestPaths<M> {
    assert!((src as usize) < g.len(), "source out of range");
    if let Some(b) = banned {
        assert_ne!(src, b, "source cannot be banned");
    }

    let n = g.len();
    let mut value = vec![M::no_path(); n];
    let mut hops = vec![u32::MAX; n];
    let mut parent = vec![NO_PARENT; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();

    value[src as usize] = M::empty_path();
    hops[src as usize] = 0;
    heap.push(HeapEntry::<M> {
        value: M::empty_path(),
        hops: 0,
        node: src,
    });

    // Dijkstra over the lexicographic cost (QoS value, hop count): both
    // components are monotone non-improving under extension, so the
    // greedy settle-best argument still applies.
    while let Some(HeapEntry {
        value: v,
        hops: h,
        node,
    }) = heap.pop()
    {
        if settled[node as usize] {
            continue; // stale lazy-deletion entry
        }
        settled[node as usize] = true;
        for &(next, qos) in g.neighbors(node) {
            if settled[next as usize] || Some(next) == banned {
                continue;
            }
            let cand = M::extend(v, M::link_value(&qos));
            if !M::is_reachable(cand) {
                continue;
            }
            let cand_hops = h + 1;
            let slot = &mut value[next as usize];
            let tie = !M::better(*slot, cand) && !M::better(cand, *slot);
            let better = M::better(cand, *slot)
                || (tie && (cand_hops, node) < (hops[next as usize], parent[next as usize]));
            if better {
                *slot = cand;
                hops[next as usize] = cand_hops;
                parent[next as usize] = node;
                heap.push(HeapEntry::<M> {
                    value: cand,
                    hops: cand_hops,
                    node: next,
                });
            }
        }
    }

    // The source has no parent and counts as settled even when isolated.
    BestPaths {
        src,
        value,
        hops,
        parent,
        settled,
    }
}

/// Computes one *shortest best path* from `src` to `dst`: optimal under
/// `M`, and among optimal paths one with the fewest hops (QOLSR's
/// shortest-widest / shortest-fastest routing rule). Returns the value
/// and the node sequence, or `None` if unreachable.
///
/// For additive metrics the lexicographic `(value, hops)` Dijkstra is
/// exact. For concave metrics prefix-optimality fails (the widest path to
/// an intermediate node may hijack reconstruction), so the hop count is
/// minimized by a BFS restricted to links that sustain the optimal
/// bottleneck.
pub fn best_route<M: Metric>(g: &CompactGraph, src: u32, dst: u32) -> Option<(M::Value, Vec<u32>)> {
    if src == dst {
        return Some((M::empty_path(), vec![src]));
    }
    let bp = best_paths::<M>(g, src);
    if !bp.reachable(dst) {
        return None;
    }
    let best = bp.value(dst);
    match M::kind() {
        qolsr_metrics::MetricKind::Additive => Some((best, bp.path_to(dst).expect("reachable"))),
        qolsr_metrics::MetricKind::Concave => {
            // Minimal hops over links that keep the bottleneck at `best`.
            let usable = |qos: &qolsr_metrics::LinkQos| !M::better(best, M::link_value(qos));
            let mut parent = vec![NO_PARENT; g.len()];
            let mut seen = vec![false; g.len()];
            seen[src as usize] = true;
            let mut queue = std::collections::VecDeque::from([src]);
            'bfs: while let Some(x) = queue.pop_front() {
                for &(y, qos) in g.neighbors(x) {
                    if seen[y as usize] || !usable(&qos) {
                        continue;
                    }
                    seen[y as usize] = true;
                    parent[y as usize] = x;
                    if y == dst {
                        break 'bfs;
                    }
                    queue.push_back(y);
                }
            }
            debug_assert!(seen[dst as usize], "optimal bottleneck must be attainable");
            let mut path = vec![dst];
            let mut cur = dst;
            while cur != src {
                cur = parent[cur as usize];
                path.push(cur);
            }
            path.reverse();
            Some((best, path))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_metrics::{Bandwidth, BandwidthMetric, Delay, DelayMetric, LinkQos};

    /// Line 0—1—2 plus a direct 0—2 shortcut.
    fn diamondish() -> CompactGraph {
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 1, LinkQos::new(Bandwidth(10), Delay(1)));
        g.add_undirected(1, 2, LinkQos::new(Bandwidth(4), Delay(1)));
        g.add_undirected(0, 2, LinkQos::new(Bandwidth(3), Delay(5)));
        // node 3 isolated
        g
    }

    #[test]
    fn widest_path_prefers_bottleneck() {
        let g = diamondish();
        let bp = best_paths::<BandwidthMetric>(&g, 0);
        assert_eq!(bp.value(2), Bandwidth(4));
        assert_eq!(bp.path_to(2), Some(vec![0, 1, 2]));
        assert_eq!(bp.value(0), Bandwidth::MAX); // empty path
    }

    #[test]
    fn min_delay_prefers_sum() {
        let g = diamondish();
        let bp = best_paths::<DelayMetric>(&g, 0);
        assert_eq!(bp.value(2), Delay(2));
        assert_eq!(bp.path_to(2), Some(vec![0, 1, 2]));
        assert_eq!(bp.value(1), Delay(1));
    }

    #[test]
    fn unreachable_nodes() {
        let g = diamondish();
        let bp = best_paths::<DelayMetric>(&g, 0);
        assert!(!bp.reachable(3));
        assert_eq!(bp.value(3), Delay::MAX);
        assert_eq!(bp.path_to(3), None);
        assert_eq!(bp.parent(3), None);
    }

    #[test]
    fn banned_node_is_avoided() {
        let g = diamondish();
        let bp = best_paths_avoiding::<BandwidthMetric>(&g, 0, Some(1));
        // Without node 1 the only path to 2 is the direct link.
        assert_eq!(bp.value(2), Bandwidth(3));
        assert_eq!(bp.path_to(2), Some(vec![0, 2]));
        assert!(!bp.reachable(1));
    }

    #[test]
    fn source_properties() {
        let g = diamondish();
        let bp = best_paths::<DelayMetric>(&g, 2);
        assert_eq!(bp.source(), 2);
        assert!(bp.reachable(2));
        assert_eq!(bp.path_to(2), Some(vec![2]));
        assert_eq!(bp.parent(2), None);
    }

    #[test]
    fn deterministic_tie_break_prefers_smaller_parent() {
        // Two equal-delay routes 0-1-3 and 0-2-3.
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 1, LinkQos::new(Bandwidth(5), Delay(1)));
        g.add_undirected(0, 2, LinkQos::new(Bandwidth(5), Delay(1)));
        g.add_undirected(1, 3, LinkQos::new(Bandwidth(5), Delay(1)));
        g.add_undirected(2, 3, LinkQos::new(Bandwidth(5), Delay(1)));
        let bp = best_paths::<DelayMetric>(&g, 0);
        assert_eq!(bp.path_to(3), Some(vec![0, 1, 3]));
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn source_out_of_range_panics() {
        let g = CompactGraph::with_nodes(1);
        let _ = best_paths::<DelayMetric>(&g, 5);
    }

    #[test]
    fn best_route_prefers_fewest_hops_among_widest() {
        // Two bandwidth-6 routes to node 2: direct-ish 0-1-2 (2 hops) and
        // 0-5-4-1-2 (4 hops, whose prefix to node 1 is *wider* than the
        // direct link). Naive reconstruction picks the long one; the
        // shortest-widest route must be the 2-hop path.
        let mut g = CompactGraph::with_nodes(6);
        let bw = |w| LinkQos::new(Bandwidth(w), Delay(1));
        g.add_undirected(0, 1, bw(7));
        g.add_undirected(1, 2, bw(6));
        g.add_undirected(0, 5, bw(10));
        g.add_undirected(5, 4, bw(10));
        g.add_undirected(4, 1, bw(10));
        let (value, path) = best_route::<BandwidthMetric>(&g, 0, 2).unwrap();
        assert_eq!(value, Bandwidth(6));
        assert_eq!(path, vec![0, 1, 2]);
    }

    #[test]
    fn best_route_additive_and_trivial_cases() {
        let g = diamondish();
        let (value, path) = best_route::<DelayMetric>(&g, 0, 2).unwrap();
        assert_eq!(value, Delay(2));
        assert_eq!(path, vec![0, 1, 2]);
        assert_eq!(
            best_route::<DelayMetric>(&g, 1, 1),
            Some((Delay::ZERO, vec![1]))
        );
        assert_eq!(best_route::<DelayMetric>(&g, 0, 3), None);
    }

    #[test]
    fn zero_bandwidth_link_is_unusable() {
        // A bandwidth-0 link equals BandwidthMetric::no_path and must not
        // create reachability.
        let mut g = CompactGraph::with_nodes(2);
        g.add_undirected(0, 1, LinkQos::new(Bandwidth(0), Delay(1)));
        let bp = best_paths::<BandwidthMetric>(&g, 0);
        assert!(!bp.reachable(1));
    }
}
