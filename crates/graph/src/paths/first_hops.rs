//! Exact first-hop sets — the paper's `fP_BW(u, v)` / `fP_D(u, v)`.
//!
//! For every target `v`, the first-hop set is the set of neighbors `w` of
//! the center `u` such that *some optimal simple path* from `u` to `v`
//! starts with the link `(u, w)`.
//!
//! Computing this correctly for concave metrics needs care: prefixes of
//! optimal bottleneck paths are not necessarily optimal, so propagating
//! predecessor sets along the Dijkstra DAG under-approximates the set. We
//! instead use the exact per-neighbor decomposition: every simple path
//! `u → v` is the link `(u, w)` followed by a simple `w → v` path that
//! avoids `u`, hence
//!
//! ```text
//! best(u, v)  = opt_w  extend( qos(u, w), best_{G − u}(w, v) )
//! fP(u, v)    = { w : extend( qos(u, w), best_{G − u}(w, v) ) = best(u, v) }
//! ```
//!
//! The metric kinds differ only in how they obtain `best_{G − u}(w, ·)` for
//! the `d` usable neighbors `w` of `u`, over the `n` nodes and `m` links of
//! the graph:
//!
//! * **Concave** metrics (bandwidth, residual energy) read it off one
//!   maximum spanning forest of `G − u`. Kruskal builds the forest from the
//!   usable links of `G − u`, sorted best first; `best_{G − u}(w, v)` is
//!   then the worst link on the forest path from `w` to `v` (the
//!   minimax-path property). That path is a path of `G − u`, and no other
//!   `w → v` path does better: removing its worst link cuts the tree in
//!   two, every `w → v` path crosses that cut, and Kruskal would have
//!   taken a crossing link strictly better than the worst one before it.
//!   Links that tie change which forest is built, never the values read
//!   from it, and only values are compared, so the sets are exact for
//!   every forest. The argument needs [`MetricKind::Concave`]'s law:
//!   `extend` keeps the worse of its two arguments. Cost: one sort of the
//!   links plus one `O(n)` walk per neighbor, `O(m log m + d·n)`.
//! * **Additive** metrics (delay) run one Dijkstra on `G − u` per
//!   neighbor, `O(d·m log n)`, which is exact for them. The forest
//!   argument fails here: a sum is worse than each of its links, so a path
//!   is not as good as its worst link and the best paths of different
//!   sources share no one tree.
//!
//! Both feed the same candidate fold, and the table stores every `fP` set
//! in one flat array. The tests check both paths against brute-force path
//! enumeration and, on paper-sized views, against the per-neighbor
//! Dijkstra decomposition.

use std::cmp::Ordering;

use qolsr_metrics::{Metric, MetricKind};

use crate::compact::CompactGraph;
use crate::paths::dijkstra::best_paths_avoiding;

/// First-hop sets and best values from a center node to every other node
/// of a [`CompactGraph`].
///
/// # Examples
///
/// ```
/// use qolsr_graph::{paths, CompactGraph};
/// use qolsr_metrics::{Bandwidth, BandwidthMetric, LinkQos};
///
/// // Triangle where the two-hop detour 0-1-2 (bottleneck 5) beats the
/// // direct link 0-2 (bandwidth 2).
/// let mut g = CompactGraph::with_nodes(3);
/// g.add_undirected(0, 1, LinkQos::uniform(5));
/// g.add_undirected(1, 2, LinkQos::uniform(5));
/// g.add_undirected(0, 2, LinkQos::uniform(2));
///
/// let t = paths::first_hop_table::<BandwidthMetric>(&g, 0);
/// assert_eq!(t.best_value(2), Bandwidth(5));
/// assert_eq!(t.first_hops(2), &[1]);
/// ```
#[derive(Debug, Clone)]
pub struct FirstHopTable<M: Metric> {
    center: u32,
    best: Vec<M::Value>,
    /// `fP(u, v)` is `hops[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    hops: Vec<u32>,
}

impl<M: Metric> FirstHopTable<M> {
    /// The center node `u` the table was computed for.
    pub fn center(&self) -> u32 {
        self.center
    }

    /// Best path value from the center to `v`; [`Metric::no_path`] when
    /// unreachable, [`Metric::empty_path`] for the center itself.
    pub fn best_value(&self, v: u32) -> M::Value {
        self.best[v as usize]
    }

    /// The first-hop set `fP(u, v)`, sorted ascending. Empty for the
    /// center itself and for unreachable targets.
    pub fn first_hops(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.hops[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Returns `true` if `v` is reachable from the center.
    pub fn reachable(&self, v: u32) -> bool {
        !self.first_hops(v).is_empty()
    }

    /// Returns `true` if the direct link `(u, v)` lies on an optimal path,
    /// i.e. `v ∈ fP(u, v)` — the paper's criterion for *not* selecting an
    /// extra advertised neighbor for a 1-hop neighbor.
    pub fn direct_link_is_optimal(&self, v: u32) -> bool {
        self.first_hops(v).binary_search(&v).is_ok()
    }
}

/// Computes the [`FirstHopTable`] of node `u` over graph `g` under metric
/// `M`.
///
/// # Panics
///
/// Panics if `u` is out of range.
pub fn first_hop_table<M: Metric>(g: &CompactGraph, u: u32) -> FirstHopTable<M> {
    assert!((u as usize) < g.len(), "center out of range");
    let n = g.len();
    // The usable links out of u, in ascending neighbor order.
    let firsts: Vec<(u32, M::Value)> = g
        .neighbors(u)
        .iter()
        .filter_map(|&(w, qos)| {
            let link = M::link_value(&qos);
            M::is_reachable(link).then_some((w, link))
        })
        .collect();
    let d = firsts.len();

    // cands[v * d + i] = extend(qos(u, w_i), best_{G − u}(w_i, v)), the
    // best value of a path to v through the first hop w_i = firsts[i];
    // no_path where w_i does not reach v. best[v] folds them as they come,
    // in ascending i for each v, so the first strictly best one sets it.
    let mut cands = vec![M::no_path(); n * d];
    let mut best = vec![M::no_path(); n];
    let mut offer = |i: usize, v: u32, sub: M::Value| {
        let cand = M::extend(firsts[i].1, sub);
        if M::is_reachable(cand) {
            cands[v as usize * d + i] = cand;
            best[v as usize] = M::best(best[v as usize], cand);
        }
    };
    match M::kind() {
        MetricKind::Concave => forest_walks::<M>(g, u, &firsts, &mut offer),
        MetricKind::Additive => {
            for (i, &(w, _)) in firsts.iter().enumerate() {
                let sub = best_paths_avoiding::<M>(g, w, Some(u));
                for v in (0..n as u32).filter(|&v| v != u && sub.reachable(v)) {
                    offer(i, v, sub.value(v));
                }
            }
        }
    }

    // fP(u, v): every first hop whose candidate ties a reachable best[v],
    // in ascending order. The center is never offered, so its row stays
    // no_path and its set empty.
    best[u as usize] = M::empty_path();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut hops = Vec::with_capacity(n);
    offsets.push(0);
    for (v, &top) in best.iter().enumerate() {
        if M::is_reachable(top) {
            let row = &cands[v * d..(v + 1) * d];
            let ties = firsts.iter().zip(row).filter(|&(_, &c)| !M::better(top, c));
            hops.extend(ties.map(|(&(w, _), _)| w));
        }
        offsets.push(u32::try_from(hops.len()).expect("first-hop entries fit in u32"));
    }

    FirstHopTable {
        center: u,
        best,
        offsets,
        hops,
    }
}

/// Calls `offer(i, v, best_{G − u}(w_i, v))` for every first hop
/// `w_i = firsts[i]` and every node `v` that `w_i` reaches in `G − u`,
/// reading each value as the worst link on the path from `w_i` to `v` in
/// one maximum spanning forest of `G − u`.
fn forest_walks<M: Metric>(
    g: &CompactGraph,
    u: u32,
    firsts: &[(u32, M::Value)],
    offer: &mut impl FnMut(usize, u32, M::Value),
) {
    let n = g.len();
    let mut links: Vec<(M::Value, u32, u32)> = Vec::new();
    for a in (0..n as u32).filter(|&a| a != u) {
        for &(b, qos) in g.neighbors(a) {
            let link = M::link_value(&qos);
            if a < b && b != u && M::is_reachable(link) {
                debug_assert!(
                    M::better_or_equal(M::empty_path(), link),
                    "concave law: the empty path is at least as good as every link"
                );
                links.push((link, a, b));
            }
        }
    }
    links.sort_unstable_by(|x, y| {
        if M::better(x.0, y.0) {
            Ordering::Less
        } else if M::better(y.0, x.0) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    });

    // Kruskal: keep a link iff it joins two trees (union-find with path
    // halving).
    fn find(root: &mut [u32], mut x: u32) -> u32 {
        while root[x as usize] != x {
            root[x as usize] = root[root[x as usize] as usize];
            x = root[x as usize];
        }
        x
    }
    let mut root: Vec<u32> = (0..n as u32).collect();
    links.retain(|&(_, a, b)| {
        let (ra, rb) = (find(&mut root, a), find(&mut root, b));
        root[ra as usize] = rb;
        ra != rb
    });

    // The forest as adjacency rows: row x is adj[start[x]..start[x + 1]].
    let mut start = vec![0u32; n + 1];
    for &(_, a, b) in &links {
        start[a as usize] += 1;
        start[b as usize] += 1;
    }
    for x in 1..=n {
        start[x] += start[x - 1];
    }
    let mut adj = vec![(0u32, M::no_path()); 2 * links.len()];
    for &(link, a, b) in &links {
        for (x, y) in [(a, b), (b, a)] {
            start[x as usize] -= 1;
            adj[start[x as usize] as usize] = (y, link);
        }
    }

    // One walk per first hop. The center has no forest links, so it
    // doubles as the "no parent" mark of each walk's root.
    let mut stack: Vec<(u32, u32, M::Value)> = Vec::new();
    for (i, &(w, _)) in firsts.iter().enumerate() {
        stack.push((w, u, M::empty_path()));
        while let Some((x, parent, value)) = stack.pop() {
            offer(i, x, value);
            let row = &adj[start[x as usize] as usize..start[x as usize + 1] as usize];
            for &(y, link) in row.iter().filter(|&&(y, _)| y != parent) {
                let next = M::extend(value, link);
                debug_assert!(
                    keeps_the_worse::<M>(value, link, next),
                    "concave law: extend keeps the worse of path and link"
                );
                stack.push((y, x, next));
            }
        }
    }
}

/// The law of [`MetricKind::Concave`] for one step: `extended` is one of
/// `path` and `link`, and better than neither.
fn keeps_the_worse<M: Metric>(path: M::Value, link: M::Value, extended: M::Value) -> bool {
    (extended == path || extended == link)
        && !M::better(extended, path)
        && !M::better(extended, link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_metrics::{Bandwidth, BandwidthMetric, Delay, DelayMetric, LinkQos};

    fn bw(w: u64) -> LinkQos {
        LinkQos::uniform(w)
    }

    /// The square 0-1-2-3-0 with a weak diagonal 0-2.
    fn square() -> CompactGraph {
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 1, bw(10));
        g.add_undirected(1, 2, bw(10));
        g.add_undirected(2, 3, bw(10));
        g.add_undirected(3, 0, bw(10));
        g.add_undirected(0, 2, bw(1));
        g
    }

    #[test]
    fn both_sides_of_a_tie_are_reported() {
        let g = square();
        let t = first_hop_table::<BandwidthMetric>(&g, 0);
        // Optimal bandwidth to node 2 is 10, via 1 or via 3.
        assert_eq!(t.best_value(2), Bandwidth(10));
        assert_eq!(t.first_hops(2), &[1, 3]);
        assert!(!t.direct_link_is_optimal(2));
    }

    #[test]
    fn direct_link_detection() {
        let g = square();
        let t = first_hop_table::<BandwidthMetric>(&g, 0);
        // The direct link to 1 is optimal, but so is the detour via 3
        // (equal bottleneck of 10): both are first hops.
        assert!(t.direct_link_is_optimal(1));
        assert_eq!(t.first_hops(1), &[1, 3]);
        assert!(t.direct_link_is_optimal(3));
    }

    #[test]
    fn additive_metric_first_hops() {
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 1, LinkQos::new(Bandwidth(1), Delay(1)));
        g.add_undirected(1, 3, LinkQos::new(Bandwidth(1), Delay(1)));
        g.add_undirected(0, 2, LinkQos::new(Bandwidth(1), Delay(1)));
        g.add_undirected(2, 3, LinkQos::new(Bandwidth(1), Delay(1)));
        let t = first_hop_table::<DelayMetric>(&g, 0);
        assert_eq!(t.best_value(3), Delay(2));
        assert_eq!(t.first_hops(3), &[1, 2]);
    }

    #[test]
    fn center_and_unreachable() {
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, bw(5));
        let t = first_hop_table::<BandwidthMetric>(&g, 0);
        assert_eq!(t.center(), 0);
        assert_eq!(t.first_hops(0), &[] as &[u32]);
        assert!(!t.reachable(2));
        assert_eq!(t.best_value(2), Bandwidth(0));
    }

    #[test]
    fn longer_detour_beats_direct_and_two_hop() {
        // Paper Fig. 2 situation in miniature: u(0)-v(3) direct has bw 3,
        // u-1-2-3 has bottleneck 5.
        let mut g = CompactGraph::with_nodes(4);
        g.add_undirected(0, 3, bw(3));
        g.add_undirected(0, 1, bw(5));
        g.add_undirected(1, 2, bw(5));
        g.add_undirected(2, 3, bw(5));
        let t = first_hop_table::<BandwidthMetric>(&g, 0);
        assert_eq!(t.best_value(3), Bandwidth(5));
        assert_eq!(t.first_hops(3), &[1]);
        assert!(!t.direct_link_is_optimal(3));
    }

    #[test]
    fn paths_may_not_revisit_center() {
        // Best w→v path must avoid u: 0-1 (bw 9), 0-2 (bw 9), 1-2 absent.
        // Without the ban, 1 would "reach" 2 through 0 and claim a path
        // u-1-u-2, which is not simple.
        let mut g = CompactGraph::with_nodes(3);
        g.add_undirected(0, 1, bw(9));
        g.add_undirected(0, 2, bw(9));
        let t = first_hop_table::<BandwidthMetric>(&g, 0);
        assert_eq!(t.first_hops(2), &[2]);
        assert_eq!(t.best_value(2), Bandwidth(9));
        assert_eq!(t.first_hops(1), &[1]);
    }
}
