//! RFC 3626 §10-style routing-table calculation: hop-count shortest paths
//! over the node's symmetric links, 2-hop knowledge and TC-learned
//! topology links (treated bidirectionally, per the paper's link model).
//!
//! Two layers live here:
//!
//! * [`compute_routes`] / [`compute_routes_keys_into`] — the from-scratch
//!   BFS: ids are interned in arrival order through a hashed table, the
//!   undirected adjacency is laid out as CSR by counting sort, and only
//!   the root's row is ever sorted, all in reusable [`RouteScratch`]
//!   buffers. The table comes out in BFS order, not sorted by
//!   destination (the original `BTreeMap`-per-call formulation survives
//!   as [`reference_routes`], the oracle the differential suites compare
//!   against);
//! * [`RouteCache`] — the incremental layer [`OlsrNode`] owns: routes
//!   are recomputed only when the route-relevant table content actually
//!   changed (dirty flag from HELLO/TC integration, expiry horizon from
//!   the tables' min-expiry accessors, and, when the horizon passes, a
//!   comparison of the freshly interned input graph with the cached
//!   table's), otherwise served from the cached table. Every cache on a
//!   thread interns and recomputes through that thread's one scratch,
//!   reading the topology base's link keys straight into it.
//!
//! Determinism: equal-length routes resolve to the smallest-id next hop,
//! identical in every layer and proven by proptest. The BFS enqueues the
//! first hops in ascending id order and every deeper node inherits the
//! first hop of whichever parent reaches it first, so each BFS level is
//! queued in non-decreasing first-hop order and the first parent to reach
//! a node carries its smallest shortest-path first hop. No other row
//! order matters.
//!
//! [`OlsrNode`]: crate::node::OlsrNode

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use qolsr_graph::NodeId;
use qolsr_metrics::LinkQos;
use qolsr_sim::SimTime;

use crate::tables::{NeighborTables, TopologyLinks};

/// One routing-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Destination node.
    pub dest: NodeId,
    /// The symmetric neighbor to forward to.
    pub next_hop: NodeId,
    /// Hop count of the route.
    pub hops: u32,
}

/// Dense index marking a free slot of the interning table.
const FREE: u32 = u32::MAX;

/// BFS hop count of an unreached index.
const UNREACHED: u32 = u32::MAX;

/// Reusable buffers for [`compute_routes_keys_into`]: interning table,
/// the interned input graph, CSR adjacency and BFS state. One instance
/// amortizes every allocation of repeated route computations to zero.
#[derive(Debug, Default, Clone)]
pub struct RouteScratch {
    /// Open-addressing `(id, dense index)` table, linear probing, a power
    /// of two long; a slot whose index is [`FREE`] is empty.
    slots: Vec<(NodeId, u32)>,
    /// `64 - log2(slots.len())`: turns a 64-bit hash into a slot.
    shift: u32,
    /// The input graph: dense index → id in arrival order, and one
    /// dense index pair per input link.
    graph: InternedGraph,
    /// First id of the last pair pushed, with its dense index, so a run
    /// of pairs sharing a first id interns it once.
    run: (NodeId, u32),
    /// CSR row offsets into `adj` (len = ids.len() + 1).
    offsets: Vec<u32>,
    /// CSR adjacency. Rows are unordered and may repeat an index.
    adj: Vec<u32>,
    /// BFS hop count per index ([`UNREACHED`] until reached).
    dist: Vec<u32>,
    /// First hop per reached index.
    next: Vec<NodeId>,
    /// BFS queue of dense indices; ends up holding every reached index.
    queue: Vec<u32>,
}

/// The interned form of one route computation's input: the ids in
/// arrival order (`me` first) and one dense edge per input link, with
/// the symmetric section (one `(0, i)` edge per neighbor) first, the
/// reported pairs next and the topology pairs last. Mapping the edges
/// back through `ids`, and splitting them at the two section lengths,
/// recovers the three input lists exactly, and interning is
/// deterministic, so two graphs are equal exactly when their inputs are.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct InternedGraph {
    /// Edges from symmetric neighbors (compared first, being cheapest).
    sym: usize,
    /// Edges from reported pairs.
    reported: usize,
    ids: Vec<NodeId>,
    edges: Vec<(u32, u32)>,
}

impl InternedGraph {
    /// Makes `self` equal to `other`, reusing its buffers (a derived
    /// `clone_from` would allocate fresh ones).
    fn copy_from(&mut self, other: &Self) {
        self.sym = other.sym;
        self.reported = other.reported;
        self.ids.clone_from(&other.ids);
        self.edges.clone_from(&other.edges);
    }
}

impl RouteScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the interning table, sized so that `bound` (≥ 1)
    /// distinct ids would fill at most half of it.
    fn reset_ids(&mut self, bound: usize) {
        let len = (2 * bound).next_power_of_two();
        self.slots.clear();
        self.slots.resize(len, (NodeId(0), FREE));
        self.shift = 64 - len.trailing_zeros();
        self.graph.ids.clear();
    }

    /// The slot a probe for `id` starts at.
    fn home(&self, id: NodeId) -> usize {
        // The ids are assigned by the simulator's own deployment and
        // carried over the simulated radio, not taken from outside input,
        // so a fixed multiplicative hash is safe from crafted collisions;
        // linear probing at load ≤ 1/2 keeps the probe runs short.
        (u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Dense index of `id`, assigning the next one on first sight.
    fn intern(&mut self, id: NodeId) -> u32 {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(id);
        loop {
            let (held, dense) = self.slots[slot];
            if dense == FREE {
                let dense = self.graph.ids.len() as u32;
                self.slots[slot] = (id, dense);
                self.graph.ids.push(id);
                return dense;
            }
            if held == id {
                return dense;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Starts a new input graph rooted at `me` (dense index 0) holding
    /// the neighbor-table keys, its interning table sized for them plus
    /// `more_ids` distinct ids still to come through
    /// [`RouteScratch::push_pair`].
    fn begin(
        &mut self,
        me: NodeId,
        sym: &[NodeId],
        reported: &[(NodeId, NodeId)],
        more_ids: usize,
    ) {
        self.reset_ids(1 + sym.len() + 2 * reported.len() + more_ids);
        let root = self.intern(me);
        self.run = (me, root);
        self.graph.edges.clear();
        for &nbr in sym {
            let i = self.intern(nbr);
            self.graph.edges.push((root, i));
        }
        for &(a, b) in reported {
            self.push_pair(a, b);
        }
        self.graph.sym = sym.len();
        self.graph.reported = reported.len();
    }

    /// Adds the link `a — b`.
    fn push_pair(&mut self, a: NodeId, b: NodeId) {
        if self.run.0 != a {
            self.run = (a, self.intern(a));
        }
        let ib = self.intern(b);
        self.graph.edges.push((self.run.1, ib));
    }

    /// Hop-count BFS over the graph pushed since [`RouteScratch::begin`],
    /// writing the table to `out` in BFS order.
    fn routes_into(&mut self, out: &mut Vec<RouteEntry>) {
        let RouteScratch {
            graph: InternedGraph { ids, edges, .. },
            offsets,
            adj,
            dist,
            next,
            queue,
            ..
        } = self;
        let n = ids.len();
        let me = ids[0];

        // Undirected CSR by counting sort. Repeated links are left in:
        // the BFS skips an already-reached index anyway.
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &(a, b) in edges.iter() {
            offsets[a as usize] += 1;
            offsets[b as usize] += 1;
        }
        // Running sums make `offsets[i]` the end of row `i`; filling each
        // row backwards then leaves it at the row's start.
        let mut end = 0;
        for o in offsets.iter_mut() {
            end += *o;
            *o = end;
        }
        adj.clear();
        adj.resize(end as usize, 0);
        for &(a, b) in edges.iter() {
            offsets[a as usize] -= 1;
            adj[offsets[a as usize] as usize] = b;
            offsets[b as usize] -= 1;
            adj[offsets[b as usize] as usize] = a;
        }
        let offsets = &offsets[..];
        let row = |x: u32| offsets[x as usize] as usize..offsets[x as usize + 1] as usize;

        // BFS from `me`, first hops enqueued in ascending id order (see
        // the module docs for why no other row needs sorting).
        dist.clear();
        dist.resize(n, UNREACHED);
        next.clear();
        next.resize(n, me);
        queue.clear();
        dist[0] = 0;
        let first_hops = &mut adj[row(0)];
        first_hops.sort_unstable_by_key(|&y| ids[y as usize]);
        for &y in first_hops.iter() {
            if dist[y as usize] == UNREACHED {
                dist[y as usize] = 1;
                next[y as usize] = ids[y as usize];
                queue.push(y);
            }
        }
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            let (d, nh) = (dist[x as usize] + 1, next[x as usize]);
            for &y in &adj[row(x)] {
                if dist[y as usize] == UNREACHED {
                    dist[y as usize] = d;
                    next[y as usize] = nh;
                    queue.push(y);
                }
            }
        }

        out.clear();
        out.extend(queue.iter().map(|&x| RouteEntry {
            dest: ids[x as usize],
            next_hop: next[x as usize],
            hops: dist[x as usize],
        }));
    }
}

/// From-scratch hop-count BFS over the route-relevant *link pairs*
/// (QoS labels never influence hop-count routes), writing the resulting
/// table — in BFS order, so by non-decreasing hop count — into `out`
/// without allocating (steady state) thanks to `scratch`.
///
/// Inputs: `sym` are the symmetric neighbor ids, `reported` the
/// `(reporter, other end)` pairs from HELLOs, `advertised` the
/// `(originator, advertised)` pairs from TCs. All edges are treated
/// bidirectionally; order, repeats and self-loops are irrelevant.
pub fn compute_routes_keys_into(
    me: NodeId,
    sym: &[NodeId],
    reported: &[(NodeId, NodeId)],
    advertised: &[(NodeId, NodeId)],
    scratch: &mut RouteScratch,
    out: &mut Vec<RouteEntry>,
) {
    // Intern every mentioned id in arrival order (`me` is index 0) and
    // keep each link as a dense pair.
    scratch.begin(me, sym, reported, 2 * advertised.len());
    for &(a, b) in advertised {
        scratch.push_pair(a, b);
    }
    scratch.routes_into(out);
}

/// Computes hop-count routes from `me` given its symmetric neighbors, the
/// links its neighbors reported, and the advertised links learned from
/// TCs. Returns a map keyed by destination.
///
/// Determinism: equal-length routes resolve to the smallest-id next hop.
pub fn compute_routes(
    me: NodeId,
    sym_neighbors: &[(NodeId, LinkQos)],
    reported_links: &[(NodeId, NodeId, LinkQos)],
    advertised_links: &[(NodeId, NodeId, LinkQos)],
) -> BTreeMap<NodeId, RouteEntry> {
    let sym: Vec<NodeId> = sym_neighbors.iter().map(|&(n, _)| n).collect();
    let reported: Vec<(NodeId, NodeId)> = reported_links.iter().map(|&(a, b, _)| (a, b)).collect();
    let advertised: Vec<(NodeId, NodeId)> =
        advertised_links.iter().map(|&(a, b, _)| (a, b)).collect();
    let mut scratch = RouteScratch::new();
    let mut out = Vec::new();
    compute_routes_keys_into(me, &sym, &reported, &advertised, &mut scratch, &mut out);
    out.into_iter().map(|e| (e.dest, e)).collect()
}

/// The original `BTreeMap`-based formulation, kept verbatim as the
/// reference oracle for the differential suites: the interned
/// [`compute_routes_keys_into`] and the cached [`RouteCache`] path must
/// both reproduce it exactly.
pub fn reference_routes(
    me: NodeId,
    sym_neighbors: &[(NodeId, LinkQos)],
    reported_links: &[(NodeId, NodeId, LinkQos)],
    advertised_links: &[(NodeId, NodeId, LinkQos)],
) -> BTreeMap<NodeId, RouteEntry> {
    // Assemble the known graph.
    let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    let mut add = |a: NodeId, b: NodeId| {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    };
    for &(n, _) in sym_neighbors {
        add(me, n);
    }
    for &(a, b, _) in reported_links {
        add(a, b);
    }
    for &(a, b, _) in advertised_links {
        add(a, b);
    }
    for list in adj.values_mut() {
        list.sort_unstable();
        list.dedup();
    }

    // BFS from me, remembering the first hop.
    let mut routes: BTreeMap<NodeId, RouteEntry> = BTreeMap::new();
    let mut dist: BTreeMap<NodeId, (u32, NodeId)> = BTreeMap::new(); // (hops, next)
    dist.insert(me, (0, me));
    let mut queue = VecDeque::from([me]);
    while let Some(x) = queue.pop_front() {
        let (d, nh) = dist[&x];
        let Some(nbrs) = adj.get(&x) else { continue };
        for &y in nbrs {
            if dist.contains_key(&y) {
                continue;
            }
            let next_hop = if x == me { y } else { nh };
            dist.insert(y, (d + 1, next_hop));
            routes.insert(
                y,
                RouteEntry {
                    dest: y,
                    next_hop,
                    hops: d + 1,
                },
            );
            queue.push_back(y);
        }
    }
    routes
}

thread_local! {
    /// The interning and BFS buffers every [`RouteCache`] on this thread
    /// gathers and recomputes through. [`RouteScratch::begin`] clears
    /// whatever an earlier query left in them, so one copy per thread
    /// serves all of its nodes. The sharded engine's per-window
    /// worker threads each start from an empty copy, which costs a few
    /// allocations per window and shard.
    static SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::new());
}

/// The incremental routing layer: a cached route table plus the
/// bookkeeping deciding when the cache is still exact.
///
/// Freshness has three tiers, checked in order on every query:
///
/// 1. **window hit** — nothing route-relevant was integrated since the
///    last compute (`valid`), and `now` lies inside
///    `[cached_at, valid_until)`, the span in which no contributing
///    tuple can expire. Zero work.
/// 2. **revalidation hit** — the window lapsed, the dirty flag was set,
///    or time moved non-monotonically, but the live input *keys*,
///    interned into the thread's [`RouteScratch`], form the same graph
///    as the cached table's (lifetime refreshes and QoS drift don't
///    alter hop routes). Costs one interning pass and comparison, no
///    BFS.
/// 3. **recompute** — the interned graph differs from the cached
///    table's, or no table was ever computed: CSR and BFS over the
///    graph already interned, which the cache then copies as its
///    revalidation key.
///
/// The table is kept in BFS order (non-decreasing hop count), not
/// sorted by destination; [`RouteCache::lookup`] scans it.
#[derive(Debug, Default)]
pub struct RouteCache {
    /// No route-relevant table change was flagged since the last
    /// compute/revalidation.
    valid: bool,
    /// A table has ever been computed (so `key`/`routes` are a
    /// consistent pair and key equality implies route equality).
    computed: bool,
    cached_at: SimTime,
    valid_until: SimTime,
    /// Interned input graph of the cached table.
    key: InternedGraph,
    /// Gather buffers for the current query's neighbor-table keys.
    gather_sym: Vec<NodeId>,
    gather_reported: Vec<(NodeId, NodeId)>,
    routes: Vec<RouteEntry>,
    recomputes: u64,
    hits: u64,
}

impl RouteCache {
    /// Creates an empty, invalid cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the cached table stale (route-relevant table content
    /// changed).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// `(recomputes, cache_hits)` since construction.
    pub fn counters(&self) -> (u64, u64) {
        (self.recomputes, self.hits)
    }

    /// Brings the cached table up to date for a query at `now` against
    /// the given information bases. Generic over the topology-base
    /// formulation (per-node, shared-store, or the dispatching
    /// [`crate::tables::NodeTopology`]).
    pub fn ensure<T: TopologyLinks>(
        &mut self,
        me: NodeId,
        neighbors: &NeighborTables,
        topology: &T,
        now: SimTime,
    ) {
        if self.valid && self.cached_at <= now && now < self.valid_until {
            self.hits += 1;
            return;
        }
        // Intern the live input keys (and find the earliest instant any
        // of them can expire) without allocating in steady state. Keys
        // only: hop-count routing never reads the QoS labels, so QoS
        // drift neither enters the comparison nor gets decoded.
        let sym_exp = neighbors.symmetric_keys_into(now, &mut self.gather_sym);
        let rep_exp = neighbors.reported_keys_into(now, &mut self.gather_reported);
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.begin(
                me,
                &self.gather_sym,
                &self.gather_reported,
                topology.id_bound(),
            );
            let topo_exp = topology.for_each_link_key(now, |a, b| scratch.push_pair(a, b));
            self.cached_at = now;
            self.valid_until = sym_exp.min(rep_exp).min(topo_exp);
            self.valid = true;
            if self.computed && scratch.graph == self.key {
                // Same topology content as the cached table — whether
                // the window merely lapsed or a dirty flag turned out to
                // be a no-op — so the routes are already exact:
                // revalidate.
                self.hits += 1;
                return;
            }
            scratch.routes_into(&mut self.routes);
            // A copy, not a swap: swapping would hand the thread's
            // scratch this cache's cold buffers for the next recompute.
            self.key.copy_from(&scratch.graph);
            self.computed = true;
            self.recomputes += 1;
        });
    }

    /// The cached route table in BFS order (non-decreasing hop count).
    /// Only valid right after [`RouteCache::ensure`].
    pub fn entries(&self) -> &[RouteEntry] {
        &self.routes
    }

    /// Looks up the cached route to `dest` by a scan of the table.
    pub fn lookup(&self, dest: NodeId) -> Option<RouteEntry> {
        self.routes.iter().find(|e| e.dest == dest).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> LinkQos {
        LinkQos::uniform(1)
    }

    #[test]
    fn one_hop_routes() {
        let routes = compute_routes(NodeId(0), &[(NodeId(1), q()), (NodeId(2), q())], &[], &[]);
        assert_eq!(routes[&NodeId(1)].hops, 1);
        assert_eq!(routes[&NodeId(1)].next_hop, NodeId(1));
        assert_eq!(routes.len(), 2);
    }

    #[test]
    fn two_hop_via_reported_links() {
        let routes = compute_routes(
            NodeId(0),
            &[(NodeId(1), q())],
            &[(NodeId(1), NodeId(2), q())],
            &[],
        );
        let r = routes[&NodeId(2)];
        assert_eq!((r.hops, r.next_hop), (2, NodeId(1)));
    }

    #[test]
    fn multi_hop_via_advertised_links() {
        let routes = compute_routes(
            NodeId(0),
            &[(NodeId(1), q())],
            &[(NodeId(1), NodeId(2), q())],
            &[(NodeId(2), NodeId(3), q()), (NodeId(3), NodeId(4), q())],
        );
        assert_eq!(routes[&NodeId(4)].hops, 4);
        assert_eq!(routes[&NodeId(4)].next_hop, NodeId(1));
    }

    #[test]
    fn unknown_destination_absent() {
        let routes = compute_routes(NodeId(0), &[(NodeId(1), q())], &[], &[]);
        assert!(!routes.contains_key(&NodeId(9)));
    }

    #[test]
    fn tie_breaks_to_smallest_next_hop() {
        // Two equal 2-hop routes to 3: via 1 and via 2.
        let routes = compute_routes(
            NodeId(0),
            &[(NodeId(1), q()), (NodeId(2), q())],
            &[(NodeId(1), NodeId(3), q()), (NodeId(2), NodeId(3), q())],
            &[],
        );
        assert_eq!(routes[&NodeId(3)].next_hop, NodeId(1));
    }

    #[test]
    fn self_is_not_a_destination() {
        let routes = compute_routes(NodeId(0), &[(NodeId(1), q())], &[], &[]);
        assert!(!routes.contains_key(&NodeId(0)));
    }

    type Weighted = Vec<(NodeId, LinkQos)>;
    type Labeled = Vec<(NodeId, NodeId, LinkQos)>;
    type Case = (Weighted, Labeled, Labeled);

    #[test]
    fn interned_bfs_matches_reference_on_fixed_cases() {
        let cases: &[Case] = &[
            (vec![], vec![], vec![]),
            (
                vec![(NodeId(1), q()), (NodeId(2), q())],
                vec![(NodeId(1), NodeId(3), q()), (NodeId(2), NodeId(3), q())],
                vec![(NodeId(3), NodeId(4), q()), (NodeId(9), NodeId(8), q())],
            ),
            (
                // Duplicate edges and self-overlap between sources.
                vec![(NodeId(1), q())],
                vec![(NodeId(0), NodeId(1), q()), (NodeId(1), NodeId(0), q())],
                vec![(NodeId(1), NodeId(2), q()), (NodeId(1), NodeId(2), q())],
            ),
        ];
        for (sym, rep, adv) in cases {
            assert_eq!(
                compute_routes(NodeId(0), sym, rep, adv),
                reference_routes(NodeId(0), sym, rep, adv),
            );
        }
    }

    /// Drives one node's cache through a no-op invalidation, a QoS-only
    /// TC refresh and two real changes, over the topology base `tb`
    /// that `tc` integrates TCs into (`tc(base, seq, advertised, now)`
    /// for originator 1, with ANSN = seq).
    fn revalidates_unchanged_keys<T: TopologyLinks>(
        mut tb: T,
        tc: impl Fn(&mut T, u16, &[(NodeId, LinkQos)], SimTime) -> crate::tables::TcUpdate,
    ) {
        use crate::messages::{Hello, HelloNeighbor, LinkState};
        use qolsr_sim::SimDuration;

        let me = NodeId(0);
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let mut nt = NeighborTables::new();
        let hello = Hello {
            neighbors: vec![HelloNeighbor {
                id: me,
                state: LinkState::Symmetric,
                qos: q(),
            }],
        };
        nt.process_hello(me, NodeId(1), q(), &hello, t(0), t(6));
        assert!(tc(&mut tb, 1, &[(NodeId(3), q())], t(0)).links_changed);

        let mut cache = RouteCache::new();
        cache.ensure(me, &nt, &tb, t(1));
        assert_eq!(cache.counters(), (1, 0));
        assert_eq!(cache.entries().len(), 2);
        // A no-op invalidation (content unchanged) must downgrade to a
        // revalidation hit, not a recompute.
        cache.invalidate();
        cache.ensure(me, &nt, &tb, t(2));
        assert_eq!(cache.counters(), (1, 1));
        assert_eq!(cache.entries().len(), 2);
        // So must a TC that only changes QoS.
        let refresh = tc(&mut tb, 2, &[(NodeId(3), LinkQos::uniform(9))], t(2));
        assert!(refresh.applied && !refresh.links_changed);
        cache.invalidate();
        cache.ensure(me, &nt, &tb, t(2));
        assert_eq!(cache.counters(), (1, 2));
        // A real content change still recomputes: a new neighbor...
        nt.process_hello(me, NodeId(2), q(), &hello, t(2), t(8));
        cache.invalidate();
        cache.ensure(me, &nt, &tb, t(3));
        assert_eq!(cache.counters(), (2, 2));
        assert_eq!(cache.entries().len(), 3);
        // ...and a TC that advertises one more link.
        assert!(tc(&mut tb, 3, &[(NodeId(3), q()), (NodeId(4), q())], t(3)).links_changed);
        cache.invalidate();
        cache.ensure(me, &nt, &tb, t(3));
        assert_eq!(cache.counters(), (3, 2));
        assert_eq!(cache.lookup(NodeId(4)).map(|e| e.hops), Some(2));
        assert_eq!(cache.entries().len(), 4);
    }

    #[test]
    fn dirty_but_unchanged_keys_revalidate_without_recompute() {
        use crate::tables::TopologyBase;
        revalidates_unchanged_keys(TopologyBase::new(), |tb, seq, adv, now| {
            let hold = now + qolsr_sim::SimDuration::from_secs(20);
            tb.process_tc_tracked(NodeId(1), seq, adv, now, hold)
        });
    }

    #[test]
    fn dirty_but_unchanged_keys_revalidate_on_the_shared_store() {
        use crate::store::{SharedLinkStore, SharedTopology};
        let store = SharedLinkStore::new();
        revalidates_unchanged_keys(SharedTopology::new(store.clone()), |tb, seq, adv, now| {
            let hold = now + qolsr_sim::SimDuration::from_secs(20);
            tb.process_tc_tracked(NodeId(1), seq, seq, adv, now, hold)
        });
        assert_eq!(
            store.gauges().live_slots,
            0,
            "dropping the base releases its sets"
        );
    }

    #[test]
    fn a_link_moving_between_input_sections_recomputes() {
        use crate::messages::{Hello, HelloNeighbor, LinkState};
        use crate::tables::TopologyBase;
        use qolsr_sim::SimDuration;

        // The link 1 — 2 is first reported in a HELLO, then only
        // advertised in a TC: the interned ids and edges come out the
        // same, but the key lists differ, so the cache must recompute.
        let me = NodeId(0);
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let hello = |reports: &[u32]| Hello {
            neighbors: std::iter::once(me)
                .chain(reports.iter().map(|&r| NodeId(r)))
                .map(|id| HelloNeighbor {
                    id,
                    state: LinkState::Symmetric,
                    qos: q(),
                })
                .collect(),
        };
        let mut nt = NeighborTables::new();
        let mut tb = TopologyBase::new();
        nt.process_hello(me, NodeId(1), q(), &hello(&[2]), t(0), t(6));
        let mut cache = RouteCache::new();
        cache.ensure(me, &nt, &tb, t(1));
        assert_eq!(cache.counters(), (1, 0));
        // Keep 1 symmetric past t(6) without reporting 2 again.
        nt.process_hello(me, NodeId(1), q(), &hello(&[]), t(4), t(14));
        let update = tb.process_tc_tracked(NodeId(1), 1, &[(NodeId(2), q())], t(5), t(20));
        assert!(update.links_changed);
        cache.invalidate();
        // At t(7) the reported copy expired and the advertised one holds.
        cache.ensure(me, &nt, &tb, t(7));
        assert_eq!(cache.counters(), (2, 0));
        assert_eq!(cache.lookup(NodeId(2)).map(|e| e.hops), Some(2));
    }

    #[test]
    fn colliding_ids_probe_past_the_table_end() {
        // `me` plus three neighbors size the table at eight slots; all
        // four ids below start probing at the last one, so three wrap.
        let mut scratch = RouteScratch::new();
        scratch.reset_ids(4);
        let last = scratch.slots.len() - 1;
        let ids: Vec<NodeId> = (0u32..)
            .map(NodeId)
            .filter(|&id| scratch.home(id) == last)
            .take(4)
            .collect();
        let (me, sym) = (ids[0], &ids[1..]);
        let mut out = Vec::new();
        compute_routes_keys_into(me, sym, &[], &[], &mut scratch, &mut out);
        assert_eq!(scratch.slots.len(), last + 1);
        let sym_q: Vec<(NodeId, LinkQos)> = sym.iter().map(|&n| (n, q())).collect();
        let reference: Vec<RouteEntry> = reference_routes(me, &sym_q, &[], &[])
            .into_values()
            .collect();
        assert_eq!(out, reference);
    }

    #[test]
    fn scratch_reuse_across_different_graphs() {
        let mut scratch = RouteScratch::new();
        let mut out = Vec::new();
        compute_routes_keys_into(
            NodeId(0),
            &[NodeId(1)],
            &[(NodeId(1), NodeId(2))],
            &[],
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        // Smaller, unrelated graph afterwards: stale scratch state must
        // not leak.
        compute_routes_keys_into(NodeId(5), &[NodeId(7)], &[], &[], &mut scratch, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, NodeId(7));
        assert_eq!(out[0].hops, 1);
    }
}
