//! QoS-weighted relative neighborhood graph (RNG) reduction.
//!
//! The topology-filtering comparator of Moraru & Simplot-Ryl (\[7\] in
//! the paper) advertises neighbors selected on a *reduced* local view:
//! the relative neighborhood graph (Toussaint, \[10\]) with the QoS
//! metric as
//! weight function. Toussaint's witness rule — drop `(v, w)` iff some
//! common neighbor `z` satisfies `max(d(v,z), d(z,w)) < d(v,w)` — becomes,
//! with a general QoS order, "**both** witness links are strictly better
//! than the direct edge":
//!
//! * bandwidth: drop `(v, w)` iff ∃`z`:
//!   `bw(v,z) > bw(v,w)` **and** `bw(z,w) > bw(v,w)`
//!   (equivalently `min(bw(v,z), bw(z,w)) > bw(v,w)`);
//! * delay: drop `(v, w)` iff ∃`z`:
//!   `d(v,z) < d(v,w)` **and** `d(z,w) < d(v,w)`
//!   (equivalently `max(d(v,z), d(z,w)) < d(v,w)` — the classical rule;
//!   note this is *not* `d(v,z) + d(z,w) < d(v,w)`, which would barely
//!   ever fire and defeat the filtering).

use std::cmp::Ordering;

use qolsr_metrics::Metric;

use crate::compact::CompactGraph;

/// Computes the QoS-weighted RNG reduction of `g` under metric `M`.
///
/// The reduction is applied simultaneously (witness checks run against the
/// *original* graph, as in the classical RNG definition), so the result is
/// independent of edge processing order.
///
/// It is computed in one sweep over the edges, best first, in groups of
/// equal value (neither value [`better`](Metric::better) than the other).
/// Each node keeps a bitset of its neighbors over links strictly better
/// than the group being swept, so an edge has a witness iff its two ends'
/// bitsets intersect. A whole group is tested before any of it enters the
/// bitsets, so an equal-valued witness never drops an edge, as the strict
/// rule requires. The sweep is exact only if `M::better` is a strict weak
/// order, as [`Metric`] requires.
///
/// Scratch is two `n × ⌈n/64⌉` bitsets (`2·n·⌈n/64⌉` words for `n` nodes):
/// small on a local view, quadratic on a whole network, so it suits views
/// only.
///
/// # Examples
///
/// ```
/// use qolsr_graph::{reduction, CompactGraph};
/// use qolsr_metrics::{BandwidthMetric, LinkQos};
///
/// let mut g = CompactGraph::with_nodes(3);
/// g.add_undirected(0, 1, LinkQos::uniform(10));
/// g.add_undirected(1, 2, LinkQos::uniform(10));
/// g.add_undirected(0, 2, LinkQos::uniform(1)); // weak direct edge
///
/// let reduced = reduction::rng_reduce::<BandwidthMetric>(&g);
/// assert!(!reduced.has_edge(0, 2)); // filtered: detour via 1 is wider
/// assert!(reduced.has_edge(0, 1));
/// ```
pub fn rng_reduce<M: Metric>(g: &CompactGraph) -> CompactGraph {
    let words = g.len().div_ceil(64);
    let mut edges: Vec<(u32, u32, M::Value)> = g
        .edges()
        .map(|(a, b, qos)| (a, b, M::link_value(&qos)))
        .collect();
    edges.sort_unstable_by(|x, y| best_first::<M>(x.2, y.2));

    // `better` holds each node's neighbors over the links swept so far,
    // `dropped` the far end of each removed edge; both row `v` at
    // `v * words`.
    let mut scratch = vec![0u64; 2 * g.len() * words];
    let (better, dropped) = scratch.split_at_mut(g.len() * words);
    let set = |bits: &mut [u64], v: u32, w: u32| {
        bits[v as usize * words + w as usize / 64] |= 1 << (w % 64);
    };
    for group in edges.chunk_by(|x, y| best_first::<M>(x.2, y.2) == Ordering::Equal) {
        for &(a, b, _) in group {
            let row = |v: u32| &better[v as usize * words..][..words];
            if row(a).iter().zip(row(b)).any(|(x, y)| x & y != 0) {
                set(dropped, a, b);
                set(dropped, b, a);
            }
        }
        for &(a, b, _) in group {
            set(better, a, b);
            set(better, b, a);
        }
    }

    let rows = g
        .node_indices()
        .map(|v| {
            let gone = &dropped[v as usize * words..][..words];
            let mut row = g.neighbors(v).to_vec();
            row.retain(|&(w, _)| gone[w as usize / 64] & (1 << (w % 64)) == 0);
            row
        })
        .collect();
    CompactGraph::from_rows(rows)
}

/// Orders values best first; equal when neither is better than the other.
fn best_first<M: Metric>(a: M::Value, b: M::Value) -> Ordering {
    if M::better(a, b) {
        Ordering::Less
    } else if M::better(b, a) {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_metrics::{Bandwidth, BandwidthMetric, Delay, DelayMetric, LinkQos};

    fn link(bw: u64, d: u64) -> LinkQos {
        LinkQos::new(Bandwidth(bw), Delay(d))
    }

    #[test]
    fn keeps_edges_without_witness() {
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, link(5, 1));
        g.add_undirected(1, 2, link(5, 1));
        let r = rng_reduce::<BandwidthMetric>(&g);
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn bandwidth_drops_dominated_edge() {
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, link(10, 1));
        g.add_undirected(1, 2, link(10, 1));
        g.add_undirected(0, 2, link(2, 1));
        let r = rng_reduce::<BandwidthMetric>(&g);
        assert!(!r.has_edge(0, 2));
        assert!(r.has_edge(0, 1));
        assert!(r.has_edge(1, 2));
    }

    #[test]
    fn delay_drops_slow_edge() {
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, link(1, 2));
        g.add_undirected(1, 2, link(1, 2));
        g.add_undirected(0, 2, link(1, 10)); // 10 > 2 + 2: dropped
        let r = rng_reduce::<DelayMetric>(&g);
        assert!(!r.has_edge(0, 2));
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn ties_are_kept() {
        // A witness link exactly equal to the direct edge is not strictly
        // better: classical RNG keeps the edge.
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, link(5, 2));
        g.add_undirected(1, 2, link(5, 2));
        g.add_undirected(0, 2, link(5, 2));
        assert!(rng_reduce::<BandwidthMetric>(&g).has_edge(0, 2));
        assert!(rng_reduce::<DelayMetric>(&g).has_edge(0, 2));
    }

    #[test]
    fn delay_uses_max_not_sum_witness() {
        // Toussaint's rule: both witness links faster than the direct
        // edge drop it, even though their *sum* exceeds it.
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, link(1, 3));
        g.add_undirected(1, 2, link(1, 3));
        g.add_undirected(0, 2, link(1, 4)); // 3 + 3 > 4 but max(3,3) < 4
        assert!(!rng_reduce::<DelayMetric>(&g).has_edge(0, 2));
    }

    #[test]
    fn reduction_differs_per_metric() {
        // Edge weak in bandwidth but fast in delay: dropped under
        // bandwidth, kept under delay.
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, link(10, 5));
        g.add_undirected(1, 2, link(10, 5));
        g.add_undirected(0, 2, link(1, 1));
        assert!(!rng_reduce::<BandwidthMetric>(&g).has_edge(0, 2));
        assert!(rng_reduce::<DelayMetric>(&g).has_edge(0, 2));
    }

    #[test]
    fn simultaneous_removal_keeps_best_structure() {
        // A 4-cycle of strong edges with two weak chords: both chords are
        // dropped, the cycle survives.
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 1, link(10, 1));
        g.add_undirected(1, 2, link(10, 1));
        g.add_undirected(2, 3, link(10, 1));
        g.add_undirected(3, 0, link(10, 1));
        g.add_undirected(0, 2, link(1, 9));
        g.add_undirected(1, 3, link(1, 9));
        let r = rng_reduce::<BandwidthMetric>(&g);
        assert_eq!(r.edge_count(), 4);
        assert!(r.has_edge(0, 1) && r.has_edge(1, 2) && r.has_edge(2, 3) && r.has_edge(3, 0));
    }
}
