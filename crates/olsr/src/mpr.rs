//! The classical RFC 3626 MPR selection heuristic.
//!
//! This is the link-quality-agnostic two-phase greedy the paper describes
//! in §II: first take the 1-hop neighbors that are the *only* cover of
//! some 2-hop neighbor, then repeatedly take the neighbor covering the
//! most still-uncovered 2-hop neighbors. It is kept by every QoS variant
//! as the *flooding* set; the QoS selectors in the `qolsr` core crate
//! replace only the *routing* (advertised) set. Both run on [`Coverage`].

use std::cmp::Reverse;
use std::collections::BTreeSet;

use qolsr_graph::{LocalView, NeighborClass, NodeId};

/// Computes the MPR set of the view's center using the RFC 3626 greedy
/// heuristic.
///
/// Determinism: ties on coverage are broken by total 2-hop reachability,
/// then by smallest node id (the RFC leaves this open; the paper's
/// analysis in \[3\] notes ~75% of MPRs come from the mandatory first
/// phase, so tie-breaking barely matters — but it must be stable for
/// reproducible experiments).
///
/// # Examples
///
/// ```
/// use qolsr_graph::{fixtures, LocalView};
/// use qolsr_proto::mpr::select_mprs;
///
/// let fig = fixtures::fig2();
/// let view = LocalView::extract(&fig.topo, fig.u);
/// let mprs = select_mprs(&view);
/// // Every 2-hop neighbor of u is covered by some selected MPR.
/// for w in view.two_hop_local() {
///     assert!(view.graph().neighbors(w).iter().any(|&(v, _)| {
///         mprs.contains(&view.global_id(v))
///     }));
/// }
/// ```
pub fn select_mprs(view: &LocalView) -> BTreeSet<NodeId> {
    let mut coverage = Coverage::new(view);
    coverage.take_sole_covers();

    // Phase 2: greedy by newly-covered count; ties by total reachability,
    // then smallest global id.
    while !coverage.all_covered() {
        let best = coverage
            .useful()
            .max_by_key(|&(v, newly)| (newly, coverage.covered(v), Reverse(view.global_id(v))));
        match best {
            Some((v, _)) => coverage.take(v),
            // Uncoverable 2-hop nodes cannot exist in well-formed views,
            // but learned views may transiently contain them.
            None => break,
        }
    }

    coverage
        .taken()
        .iter()
        .map(|&v| view.global_id(v))
        .collect()
}

/// The coverage relation of a view's MPR heuristics, with the state of a
/// greedy selection over it.
///
/// Each 1-hop neighbor `v` of the center `u` has a row
/// `N(v) ∩ N²(u)`: the 2-hop neighbors it covers, as a bitset over the
/// view's local indices. A 2-hop neighbor stays *uncovered* until some
/// *taken* neighbor covers it. Every method speaks local indices, and
/// every count is a popcount. [`select_mprs`] and the QOLSR heuristics of
/// the `qolsr` core crate all select on it.
///
/// # Examples
///
/// ```
/// use qolsr_graph::{fixtures, LocalView};
/// use qolsr_proto::mpr::Coverage;
///
/// let fig = fixtures::fig2();
/// let view = LocalView::extract(&fig.topo, fig.u);
/// let mut coverage = Coverage::new(&view);
/// coverage.take_sole_covers();
/// // Phase 2, taking the first useful neighbor each time.
/// loop {
///     let Some((v, _newly)) = coverage.useful().next() else { break };
///     coverage.take(v);
/// }
/// assert!(coverage.all_covered());
/// ```
#[derive(Debug, Clone)]
pub struct Coverage {
    /// Words per bitset: `⌈|V_u| / 64⌉`.
    words: usize,
    /// Local indices of `N(u)`, ascending; row `i` belongs to `one_hop[i]`.
    one_hop: Vec<u32>,
    rows: Vec<u64>,
    uncovered: Vec<u64>,
    taken: Vec<u32>,
}

impl Coverage {
    /// Builds every 1-hop neighbor's row, with all of `N²(u)` uncovered
    /// and nothing taken.
    pub fn new(view: &LocalView) -> Self {
        let words = view.len().div_ceil(64);
        let is_two_hop = |w: u32| view.class(w) == NeighborClass::TwoHop;
        let one_hop: Vec<u32> = view.one_hop_local().collect();
        let mut rows = vec![0; one_hop.len() * words];
        for (row, &v) in rows.chunks_exact_mut(words).zip(&one_hop) {
            for &(w, _) in view.graph().neighbors(v) {
                if is_two_hop(w) {
                    set(row, w);
                }
            }
        }
        let mut uncovered = vec![0; words];
        for w in view.two_hop_local() {
            set(&mut uncovered, w);
        }
        Self {
            words,
            one_hop,
            rows,
            uncovered,
            taken: Vec::new(),
        }
    }

    /// Takes every 1-hop neighbor that is the only cover of some 2-hop
    /// neighbor: the mandatory first phase of RFC 3626 and of QOLSR.
    pub fn take_sole_covers(&mut self) {
        let mut once = vec![0u64; self.words];
        let mut twice = vec![0u64; self.words];
        for row in self.rows.chunks_exact(self.words) {
            for ((o, t), &bits) in once.iter_mut().zip(&mut twice).zip(row) {
                *t |= *o & bits;
                *o |= bits;
            }
        }
        for i in 0..self.one_hop.len() {
            let sole = self
                .row(i)
                .iter()
                .zip(once.iter().zip(&twice))
                .any(|(&bits, (&o, &t))| bits & o & !t != 0);
            if sole {
                self.take(self.one_hop[i]);
            }
        }
    }

    /// The 1-hop neighbors that still cover some uncovered 2-hop
    /// neighbor, ascending by local index, each with how many it covers.
    pub fn useful(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.one_hop.iter().enumerate().filter_map(|(i, &v)| {
            let newly = (self.row(i).iter().zip(&self.uncovered))
                .map(|(&bits, &open)| (bits & open).count_ones())
                .sum::<u32>();
            (newly > 0).then_some((v, newly))
        })
    }

    /// How many 2-hop neighbors the 1-hop neighbor `v` covers in all.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a 1-hop neighbor.
    pub fn covered(&self, v: u32) -> u32 {
        self.row(self.position(v))
            .iter()
            .map(|bits| bits.count_ones())
            .sum()
    }

    /// Takes the 1-hop neighbor `v`: whatever it covers is covered.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a 1-hop neighbor.
    pub fn take(&mut self, v: u32) {
        let i = self.position(v);
        for (open, &bits) in self.uncovered.iter_mut().zip(&self.rows[i * self.words..]) {
            *open &= !bits;
        }
        self.taken.push(v);
    }

    /// Returns `true` once no 2-hop neighbor is uncovered.
    pub fn all_covered(&self) -> bool {
        self.uncovered.iter().all(|&open| open == 0)
    }

    /// The taken 1-hop neighbors, in the order they were taken.
    pub fn taken(&self) -> &[u32] {
        &self.taken
    }

    fn position(&self, v: u32) -> usize {
        self.one_hop
            .binary_search(&v)
            .expect("coverage rows exist for 1-hop neighbors only")
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..][..self.words]
    }
}

fn set(bits: &mut [u64], w: u32) {
    bits[w as usize / 64] |= 1 << (w % 64);
}

/// Checks the MPR coverage invariant: every 2-hop neighbor of the center
/// is adjacent to at least one selected MPR. Returns the uncovered 2-hop
/// neighbors (empty means the invariant holds).
pub fn uncovered_two_hop(view: &LocalView, mprs: &BTreeSet<NodeId>) -> Vec<NodeId> {
    let g = view.graph();
    view.two_hop_local()
        .filter(|&w| {
            !g.neighbors(w)
                .iter()
                .any(|&(v, _)| mprs.contains(&view.global_id(v)))
        })
        .map(|w| view.global_id(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_graph::{fixtures, TopologyBuilder};
    use qolsr_metrics::LinkQos;

    fn view_of(topo: &qolsr_graph::Topology, u: NodeId) -> LocalView {
        LocalView::extract(topo, u)
    }

    #[test]
    fn sole_cover_is_mandatory() {
        // 0 — 1 — 2: node 1 is the only cover of 2.
        let mut b = TopologyBuilder::abstract_nodes(3);
        b.link(NodeId(0), NodeId(1), LinkQos::uniform(1)).unwrap();
        b.link(NodeId(1), NodeId(2), LinkQos::uniform(1)).unwrap();
        let t = b.build();
        let mprs = select_mprs(&view_of(&t, NodeId(0)));
        assert_eq!(mprs.into_iter().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn greedy_prefers_bigger_cover() {
        // Center 0 with neighbors 1 and 2; 1 covers {3,4,5}, 2 covers {3}.
        let mut b = TopologyBuilder::abstract_nodes(6);
        for (x, y) in [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 3)] {
            b.link(NodeId(x), NodeId(y), LinkQos::uniform(1)).unwrap();
        }
        let t = b.build();
        let mprs = select_mprs(&view_of(&t, NodeId(0)));
        assert_eq!(mprs.into_iter().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn no_two_hop_means_no_mprs() {
        // A triangle: every neighbor's neighbor is already 1-hop.
        let mut b = TopologyBuilder::abstract_nodes(3);
        for (x, y) in [(0, 1), (0, 2), (1, 2)] {
            b.link(NodeId(x), NodeId(y), LinkQos::uniform(1)).unwrap();
        }
        let t = b.build();
        assert!(select_mprs(&view_of(&t, NodeId(0))).is_empty());
    }

    #[test]
    fn coverage_invariant_on_fig2() {
        let f = fixtures::fig2();
        let view = view_of(&f.topo, f.u);
        let mprs = select_mprs(&view);
        assert!(uncovered_two_hop(&view, &mprs).is_empty());
    }

    #[test]
    fn fig1_classic_mprs_cover_everything() {
        // The paper's "only v2 and v5" claim holds for the *QOLSR* QoS
        // heuristics (asserted in the core crate); the classic
        // link-quality-agnostic greedy may additionally pick v1 on a tie.
        // Here we assert the coverage invariant and that v5 carries the
        // network (selected by v3, v4 and v6).
        let f = fixtures::fig1();
        let mut all: BTreeSet<NodeId> = BTreeSet::new();
        for u in f.topo.nodes() {
            let view = view_of(&f.topo, u);
            let mprs = select_mprs(&view);
            assert!(uncovered_two_hop(&view, &mprs).is_empty(), "at {u}");
            all.extend(mprs);
        }
        assert!(all.contains(&f.v[4])); // v5
        assert!(all.contains(&f.v[1])); // v2
    }

    #[test]
    fn deterministic_tie_break() {
        // Neighbors 1 and 2 both cover exactly {3}: smallest id wins.
        let mut b = TopologyBuilder::abstract_nodes(4);
        for (x, y) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            b.link(NodeId(x), NodeId(y), LinkQos::uniform(1)).unwrap();
        }
        let t = b.build();
        let mprs = select_mprs(&view_of(&t, NodeId(0)));
        assert_eq!(mprs.into_iter().collect::<Vec<_>>(), vec![NodeId(1)]);
    }
}
