//! RFC 3626 §10-style routing-table calculation: hop-count shortest paths
//! over the node's symmetric links, 2-hop knowledge and TC-learned
//! topology links (treated bidirectionally, per the paper's link model).
//!
//! Two layers live here:
//!
//! * [`compute_routes_keys_into`] — the from-scratch BFS: ids are
//!   numbered the way the network's stores number originators, the
//!   undirected adjacency is laid out as CSR by counting sort, and only
//!   the root's row is ever sorted, all in reusable [`RouteScratch`]
//!   buffers. The table comes out in BFS order, not sorted by
//!   destination (the original `BTreeMap`-per-call formulation survives
//!   as [`reference_routes`], the oracle the differential suites compare
//!   against);
//! * [`RouteCache`] — the incremental layer [`OlsrNode`] owns: one dense
//!   table per node, indexed by the numbering, holding each index's hop
//!   count, first hop and BFS parent. The table is exact out to a
//!   radius, except below cut slots: a recompute makes it exact
//!   everywhere; a link pair a TC or a HELLO inserts narrows the radius
//!   by the rules on [`RouteCache`]; a pair a TC removes cuts the
//!   subtree under it when it was a cached tree edge; and a change to
//!   the symmetric-neighbor set narrows the radius to the root. A query
//!   is served from the table while no contributing tuple has expired,
//!   its answer lies within the radius, and no cut lies on its tree
//!   path; any other query recomputes. Every cache on a thread numbers
//!   and recomputes through that thread's one scratch, reading the
//!   topology base's link keys straight into it.
//!
//! # Numbering
//!
//! A network seeds each of its stores with its node count `n`
//! ([`SharedLinkStore::seeded`]), and the topology base reports it
//! ([`TopologyLinks::seeded`]). An id below `n` is its own dense index
//! in the CSR rows and in the route table, so numbering it is one
//! comparison and looking it up one index. An id at or past `n` — only
//! a corrupted frame that passes the checksum mints one — takes the next
//! of `n, n + 1, …` in arrival order through an [`InternTable`], which
//! each computation clears and which is filled only when such an id
//! appears.
//!
//! # Determinism
//!
//! Equal-length routes resolve to the smallest-id next hop,
//! identical in every layer and proven by proptest. The BFS enqueues the
//! first hops in ascending id order and every deeper node inherits the
//! first hop of whichever parent reaches it first, so each BFS level is
//! queued in non-decreasing first-hop order and the first parent to reach
//! a node carries its smallest shortest-path first hop. No other row
//! order matters, and no row order depends on the numbering: counting
//! sort fills each row in an order the input fixes, whatever the dense
//! indices.
//!
//! [`OlsrNode`]: crate::node::OlsrNode
//! [`SharedLinkStore::seeded`]: crate::store::SharedLinkStore::seeded

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use qolsr_graph::NodeId;
use qolsr_metrics::LinkQos;
use qolsr_sim::SimTime;

use crate::intern::InternTable;
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

/// BFS hop count of an unreached index.
const UNREACHED: u32 = u32::MAX;

/// What one BFS found for one dense index.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Hop count from the root: 0 at the root, [`UNREACHED`] where the
    /// BFS never arrived.
    hops: u32,
    /// First hop of the route (the root's own id at the root).
    next: NodeId,
    /// Dense index of the index whose row discovered this one (the root
    /// at the root), with [`CUT`] set on a [`RouteCache`]'s cut slots.
    parent: u32,
}

/// The slot of an index the BFS never reached, and of an id the
/// numbering does not know.
const UNKNOWN: Slot = Slot {
    hops: UNREACHED,
    next: NodeId(u32::MAX),
    parent: u32::MAX,
};

impl Slot {
    /// The route this slot holds to `dest`; `None` at the root and where
    /// unreached.
    fn route(self, dest: NodeId) -> Option<RouteEntry> {
        (self.hops != 0 && self.hops != UNREACHED).then_some(RouteEntry {
            dest,
            next_hop: self.next,
            hops: self.hops,
        })
    }
}

/// How one route computation numbers its ids (see the
/// [module docs](self)).
#[derive(Debug, Default, Clone)]
struct Numbering {
    /// Ids below this are their own dense index.
    seeded: u32,
    /// The ids at or past `seeded`, interned in arrival order: the id
    /// of past index `i` has dense index `seeded + i`. Empty unless a
    /// corrupted frame minted such an id.
    past: InternTable,
}

impl Numbering {
    /// Dense indices in use: every seeded id, then the past-seed ones.
    fn len(&self) -> usize {
        self.seeded as usize + self.past.len()
    }

    /// The id behind dense index `dense`.
    fn id(&self, dense: u32) -> NodeId {
        match dense.checked_sub(self.seeded) {
            None => NodeId(dense),
            Some(i) => self.past.resolve(i),
        }
    }

    /// The dense index of `id`, if numbered: its own value below the
    /// seed, a binary search of the (normally empty) past-seed ids beyond
    /// it.
    fn find(&self, id: NodeId) -> Option<u32> {
        if id.0 < self.seeded {
            Some(id.0)
        } else {
            Some(self.seeded + self.past.get(id)?)
        }
    }
}

/// Reusable buffers for [`compute_routes_keys_into`]: the numbered
/// input graph, CSR adjacency and BFS state (see the [module docs](self)
/// for the numbering). One instance amortizes every allocation of
/// repeated route computations to zero.
#[derive(Debug, Default, Clone)]
pub struct RouteScratch {
    /// The numbering of the input graph's ids.
    numbering: Numbering,
    /// Dense index of the root.
    root: u32,
    /// One dense index pair per input link.
    edges: Vec<(u32, u32)>,
    /// CSR row offsets into `adj` (len = dense indices + 1).
    offsets: Vec<u32>,
    /// CSR adjacency. Rows are unordered and may repeat an index.
    adj: Vec<u32>,
    /// BFS queue of dense indices; ends up holding every reached index
    /// but the root.
    queue: Vec<u32>,
    /// The table of a [`compute_routes_keys_into`] call; a
    /// [`RouteCache`] fills its own.
    table: Vec<Slot>,
}

impl RouteScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dense index of `id`: its own value below the seed.
    fn intern(&mut self, id: NodeId) -> u32 {
        if id.0 < self.numbering.seeded {
            id.0
        } else {
            self.intern_past(id)
        }
    }

    /// Dense index of an id at or past the seed, assigning the next one
    /// on first sight.
    #[cold]
    fn intern_past(&mut self, id: NodeId) -> u32 {
        self.numbering.seeded + self.numbering.past.intern(id)
    }

    /// Starts a new input graph rooted at `me` holding the neighbor-table
    /// keys, numbering the ids below `seeded` by their own value.
    fn begin(&mut self, me: NodeId, seeded: usize, sym: &[NodeId], reported: &[(NodeId, NodeId)]) {
        self.numbering.seeded = u32::try_from(seeded).expect("seeded count fits the id space");
        self.numbering.past.clear();
        self.edges.clear();
        let root = self.intern(me);
        self.root = root;
        for &nbr in sym {
            let i = self.intern(nbr);
            self.edges.push((root, i));
        }
        for &(a, b) in reported {
            self.push_pair(a, b);
        }
    }

    /// Adds the link `a — b`.
    fn push_pair(&mut self, a: NodeId, b: NodeId) {
        let ia = self.intern(a);
        let ib = self.intern(b);
        self.edges.push((ia, ib));
    }

    /// Hop-count BFS over the graph pushed since [`RouteScratch::begin`]:
    /// fills `table` with one slot per dense index and leaves every
    /// reached index but the root in `queue`, in BFS order.
    fn bfs(&mut self, table: &mut Vec<Slot>) {
        let RouteScratch {
            numbering,
            root,
            edges,
            offsets,
            adj,
            queue,
            ..
        } = self;
        let n = numbering.len();
        let root = *root;
        let me = numbering.id(root);

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
        table.clear();
        table.resize(n, UNKNOWN);
        queue.clear();
        table[root as usize] = Slot {
            hops: 0,
            next: me,
            parent: root,
        };
        let first_hops = &mut adj[row(root)];
        first_hops.sort_unstable_by_key(|&y| numbering.id(y));
        for &y in first_hops.iter() {
            let slot = &mut table[y as usize];
            if slot.hops == UNREACHED {
                *slot = Slot {
                    hops: 1,
                    next: numbering.id(y),
                    parent: root,
                };
                queue.push(y);
            }
        }
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            let Slot { hops, next, .. } = table[x as usize];
            for &y in &adj[row(x)] {
                let slot = &mut table[y as usize];
                if slot.hops == UNREACHED {
                    *slot = Slot {
                        hops: hops + 1,
                        next,
                        parent: x,
                    };
                    queue.push(y);
                }
            }
        }
    }
}

/// From-scratch hop-count BFS over the route-relevant *link pairs*
/// (QoS labels never influence hop-count routes), writing the resulting
/// table — in BFS order, so by non-decreasing hop count — into `out`
/// without allocating (steady state) thanks to `scratch`.
///
/// Inputs: `seeded` is the numbering's seed — ids below it are their
/// own dense index, as on a network's stores seeded with its node count
/// (see the [module docs](self)); any value yields the same table.
/// `sym` are the symmetric neighbor ids, `reported` the
/// `(reporter, other end)` pairs from HELLOs, `advertised` the
/// `(originator, advertised)` pairs from TCs. All edges are treated
/// bidirectionally; order, repeats and self-loops are irrelevant.
pub fn compute_routes_keys_into(
    me: NodeId,
    seeded: usize,
    sym: &[NodeId],
    reported: &[(NodeId, NodeId)],
    advertised: &[(NodeId, NodeId)],
    scratch: &mut RouteScratch,
    out: &mut Vec<RouteEntry>,
) {
    scratch.begin(me, seeded, sym, reported);
    for &(a, b) in advertised {
        scratch.push_pair(a, b);
    }
    let mut table = std::mem::take(&mut scratch.table);
    scratch.bfs(&mut table);
    out.clear();
    out.extend(scratch.queue.iter().filter_map(|&x| {
        let dest = scratch.numbering.id(x);
        table[x as usize].route(dest)
    }));
    scratch.table = table;
}

/// The original `BTreeMap`-based formulation, kept verbatim as the
/// reference oracle for the differential suites: the from-scratch
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
    /// The numbering and CSR buffers every [`RouteCache`] on this thread
    /// recomputes through. [`RouteScratch::begin`] starts each
    /// recompute's graph afresh, and the arrays it indexes by dense index
    /// are cleared and resized to the recompute's own numbering, so one
    /// copy per thread serves all of its nodes, whatever their stores'
    /// seeds; the BFS itself writes into the cache's own table. Nothing
    /// is cleared per recompute beyond those arrays: the past-seed table
    /// is reset only when a graph mints its first id past the seed. The
    /// sharded engine's per-window worker threads each start from an
    /// empty copy, which costs a few allocations per window and shard.
    static SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::new());
}

/// The exact radius of a table exact everywhere: no hop count exceeds
/// it, [`UNREACHED`] included.
const EXACT: u32 = UNREACHED;

/// The bit of [`Slot::parent`] that marks a cut slot: a TC removed the
/// link to its cached parent, so nothing on the tree below it is served
/// from the table. Dense indices stay below it.
const CUT: u32 = 1 << 31;

/// The incremental routing layer: a cached route table plus the
/// bookkeeping deciding which of its answers are still exact.
///
/// The table holds one slot per dense index of its computation's
/// numbering (see the [module docs](self)): the index's hop count d, its
/// first hop, and its parent — the index whose row discovered it in the
/// BFS. Three things decide what it may answer:
///
/// * the **validity window** `[cached_at, valid_until)`, the span in
///   which no tuple the computation read can expire;
/// * the **exact radius** r, set to ∞ by every recompute;
/// * the **cut** slots, none after a recompute. An index is *uncut* when
///   no slot on its cached tree path, its own included, is cut.
///
/// Invariant:
///
/// * (i) every live link a — b with d(a) ≤ d(b) and d(a) < r has
///   d(b) ≤ d(a) + 1, and, unless a is the root, a's first hop is not
///   below b's when d(b) = d(a) + 1;
/// * (ii) every cached parent edge on the tree path of an uncut index
///   within r is live, held by tuples that outlast the window.
///
/// Inside the window they give every uncut index within r its exact hop
/// count and smallest first hop: (ii) makes its tree path a live route,
/// and along any live path from the root, (i) caches no index farther
/// than its position on the path, nor, at that position, with a first
/// hop above the path's. At r = ∞ they make every unreached index
/// unreachable. Neither part asks anything of a cut index's own values,
/// so cuts need no other bookkeeping.
///
/// Each link pair a TC or a HELLO inserts into the route inputs, and
/// each one a TC removes ([`RouteCache::link_changed`]), keeps the
/// invariant by these rules, where u is the end with the smaller cached
/// d and w the other, and an id the numbering does not know counts as
/// unreached. They read the cached values whatever has been cut:
///
/// 1. d(u) = d(w), both unreached included: no effect — the link lies
///    on no shortest path and is no parent edge.
/// 2. The pair was inserted and u is the root: r = 0.
/// 3. The pair was inserted, d(w) = d(u) + 1, and u's first hop is not
///    below w's: no effect — w keeps its smallest first hop.
/// 4. The pair was removed: w's slot is cut if u is w's cached parent,
///    and nothing changes otherwise — (i) holds for one link fewer, and
///    (ii) only speaks of tree paths that avoid the cut.
/// 5. Otherwise r = min(r, d(u)): the new link moves no hop count or
///    first hop out to its nearer end.
///
/// A change to the symmetric-neighbor set, a reboot or a rehome sets
/// r = 0 ([`RouteCache::invalidate`]). Inside the window, a point query
/// ([`RouteCache::route_to`]) is a hit when its destination's cached hop
/// count is at most r and the destination is uncut — the walk up its
/// tree path runs only while a cut exists — and a full-table query
/// ([`RouteCache::ensure`]) only when r = ∞ and nothing is cut; every
/// other query recomputes. So every answer is the table a from-scratch
/// BFS over the live tables would give.
#[derive(Debug, Default)]
pub struct RouteCache {
    /// The exact radius r, [`EXACT`] for ∞; 0 until the first compute.
    radius: u32,
    /// Slots cut since the last recompute, each outside the parts cut
    /// off before it.
    cuts: u32,
    cached_at: SimTime,
    valid_until: SimTime,
    /// The numbering of the cached table's computation.
    numbering: Numbering,
    /// The cached table: one slot per index of `numbering`.
    table: Vec<Slot>,
    /// Destinations the cached table reaches.
    reached: usize,
    /// Gather buffers for a recompute's neighbor-table keys.
    gather_sym: Vec<NodeId>,
    gather_reported: Vec<(NodeId, NodeId)>,
    recomputes: u64,
    hits: u64,
}

impl RouteCache {
    /// Creates an empty cache; its first query recomputes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Narrows the exact radius to the root: the symmetric-neighbor set
    /// changed, or the tables were replaced.
    pub fn invalidate(&mut self) {
        self.radius = 0;
    }

    /// Keeps the invariant for the link pair `a — b` that a TC or a
    /// HELLO inserted into the route inputs (`inserted`) or a TC removed
    /// from them, by the rules in the [type docs](RouteCache).
    pub fn link_changed(&mut self, a: NodeId, b: NodeId, inserted: bool) {
        if self.radius == 0 {
            return; // nothing but the root is served until a recompute
        }
        let (x, y) = (self.indexed(a), self.indexed(b));
        let ((iu, u), (iw, w)) = if x.1.hops <= y.1.hops { (x, y) } else { (y, x) };
        if u.hops == w.hops {
            return; // rule 1, and no parent edge
        }
        if !inserted {
            // Rule 4. A cut slot's parent carries the cut bit, so this
            // never matches it.
            if w.parent == iu {
                self.cut(iw);
            }
            return;
        }
        if u.hops == 0 {
            self.radius = 0; // rule 2
        } else if !(w.hops == u.hops + 1 && u.next >= w.next) {
            self.radius = self.radius.min(u.hops); // rule 5, unless rule 3
        }
    }

    /// Cuts slot `i` unless it lies below a cut already.
    fn cut(&mut self, i: u32) {
        if !self.cut_above(self.table[i as usize]) {
            self.table[i as usize].parent |= CUT;
            self.cuts += 1;
        }
    }

    /// Whether a slot on `slot`'s cached tree path, `slot` included, is
    /// cut; `false` for an unreached slot, which has no path.
    fn cut_above(&self, mut slot: Slot) -> bool {
        if self.cuts == 0 || slot.hops == UNREACHED {
            return false;
        }
        while slot.hops != 0 {
            if slot.parent & CUT != 0 {
                return true;
            }
            slot = self.table[slot.parent as usize];
        }
        false
    }

    /// `(recomputes, cache_hits)` since construction.
    pub fn counters(&self) -> (u64, u64) {
        (self.recomputes, self.hits)
    }

    /// A full-table query at `now` against the given information bases:
    /// a hit inside the validity window at r = ∞ with nothing cut, a
    /// recompute otherwise.
    /// Generic over [`TopologyLinks`], so the test suites run it over
    /// their per-node reference tables as well as the node's
    /// shared-store base.
    pub fn ensure<T: TopologyLinks>(
        &mut self,
        me: NodeId,
        neighbors: &NeighborTables,
        topology: &T,
        now: SimTime,
    ) {
        if self.radius == EXACT && self.cuts == 0 && self.in_window(now) {
            self.hits += 1;
        } else {
            self.recompute(me, neighbors, topology, now);
        }
    }

    /// A point query at `now`: the route to `dest`, served from the
    /// cached table inside the validity window when `dest`'s cached hop
    /// count is within the exact radius and no slot on its cached tree
    /// path is cut, recomputed otherwise.
    pub fn route_to<T: TopologyLinks>(
        &mut self,
        me: NodeId,
        neighbors: &NeighborTables,
        topology: &T,
        dest: NodeId,
        now: SimTime,
    ) -> Option<RouteEntry> {
        let (_, slot) = self.indexed(dest);
        if slot.hops <= self.radius && self.in_window(now) && !self.cut_above(slot) {
            self.hits += 1;
            return slot.route(dest);
        }
        self.recompute(me, neighbors, topology, now);
        self.lookup(dest)
    }

    /// The cached routes, ascending by dense index (by destination on a
    /// seeded network's run). Exact right after [`RouteCache::ensure`].
    pub fn entries(&self) -> impl Iterator<Item = RouteEntry> + '_ {
        (0..)
            .zip(&self.table)
            .filter_map(|(i, slot)| slot.route(self.numbering.id(i)))
    }

    /// Destinations the cached table reaches. Exact right after
    /// [`RouteCache::ensure`].
    pub fn route_count(&self) -> usize {
        self.reached
    }

    /// The cached route to `dest`.
    fn lookup(&self, dest: NodeId) -> Option<RouteEntry> {
        self.indexed(dest).1.route(dest)
    }

    /// The dense index and cached slot of `id`; [`UNKNOWN`] for an id the
    /// numbering does not know.
    fn indexed(&self, id: NodeId) -> (u32, Slot) {
        self.numbering
            .find(id)
            .and_then(|i| Some((i, *self.table.get(i as usize)?)))
            .unwrap_or((UNKNOWN.parent, UNKNOWN))
    }

    fn in_window(&self, now: SimTime) -> bool {
        self.cached_at <= now && now < self.valid_until
    }

    /// Recomputes the whole table at `now`: numbers the live input keys
    /// into the thread's scratch, finding the earliest instant any of
    /// them can expire, and runs the BFS into the cache's own table,
    /// without allocating in steady state. Keys only: hop-count routing
    /// never reads the QoS labels.
    fn recompute<T: TopologyLinks>(
        &mut self,
        me: NodeId,
        neighbors: &NeighborTables,
        topology: &T,
        now: SimTime,
    ) {
        let sym_exp = neighbors.symmetric_keys_into(now, &mut self.gather_sym);
        let rep_exp = neighbors.reported_keys_into(now, &mut self.gather_reported);
        let topo_exp = SCRATCH.with_borrow_mut(|scratch| {
            scratch.begin(
                me,
                topology.seeded(),
                &self.gather_sym,
                &self.gather_reported,
            );
            let topo_exp = topology.for_each_link_key(now, |a, b| scratch.push_pair(a, b));
            scratch.bfs(&mut self.table);
            debug_assert!(
                self.table.len() <= CUT as usize,
                "dense indices fit below the cut bit"
            );
            self.reached = scratch.queue.len();
            self.numbering.seeded = scratch.numbering.seeded;
            self.numbering.past.clone_from(&scratch.numbering.past);
            topo_exp
        });
        self.radius = EXACT;
        self.cuts = 0;
        self.cached_at = now;
        self.valid_until = sym_exp.min(rep_exp).min(topo_exp);
        self.recomputes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SensingParams;
    use crate::messages::{Hello, HelloNeighbor, LinkState};
    use crate::store::{SharedLinkStore, SharedTopology};
    use qolsr_sim::SimDuration;

    /// Seeds the numbering with the ids 0 and 1, so the cases below
    /// mix ids on both sides of the seed.
    const SEED: usize = 2;

    fn q() -> LinkQos {
        LinkQos::uniform(1)
    }

    /// The from-scratch BFS from node 0 over the ids and pairs given,
    /// numbered from [`SEED`], keyed by destination.
    fn bfs(
        sym: &[u32],
        reported: &[(u32, u32)],
        advertised: &[(u32, u32)],
    ) -> BTreeMap<NodeId, RouteEntry> {
        let sym: Vec<NodeId> = sym.iter().map(|&n| NodeId(n)).collect();
        let pairs = |ps: &[(u32, u32)]| -> Vec<(NodeId, NodeId)> {
            ps.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
        };
        let mut out = Vec::new();
        compute_routes_keys_into(
            NodeId(0),
            SEED,
            &sym,
            &pairs(reported),
            &pairs(advertised),
            &mut RouteScratch::new(),
            &mut out,
        );
        out.into_iter().map(|e| (e.dest, e)).collect()
    }

    #[test]
    fn one_hop_routes() {
        let routes = bfs(&[1, 2], &[], &[]);
        assert_eq!(routes[&NodeId(1)].hops, 1);
        assert_eq!(routes[&NodeId(1)].next_hop, NodeId(1));
        assert_eq!(routes.len(), 2);
    }

    #[test]
    fn two_hop_via_reported_links() {
        let routes = bfs(&[1], &[(1, 2)], &[]);
        let r = routes[&NodeId(2)];
        assert_eq!((r.hops, r.next_hop), (2, NodeId(1)));
    }

    #[test]
    fn multi_hop_via_advertised_links() {
        let routes = bfs(&[1], &[(1, 2)], &[(2, 3), (3, 4)]);
        assert_eq!(routes[&NodeId(4)].hops, 4);
        assert_eq!(routes[&NodeId(4)].next_hop, NodeId(1));
    }

    #[test]
    fn unknown_destination_absent() {
        let routes = bfs(&[1], &[], &[]);
        assert!(!routes.contains_key(&NodeId(9)));
    }

    #[test]
    fn tie_breaks_to_smallest_next_hop() {
        // Two equal 2-hop routes to 3: via 1 and via 2.
        let routes = bfs(&[1, 2], &[(1, 3), (2, 3)], &[]);
        assert_eq!(routes[&NodeId(3)].next_hop, NodeId(1));
    }

    #[test]
    fn self_is_not_a_destination() {
        let routes = bfs(&[1], &[], &[]);
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
        let pairs = |links: &Labeled| -> Vec<(NodeId, NodeId)> {
            links.iter().map(|&(a, b, _)| (a, b)).collect()
        };
        let mut scratch = RouteScratch::new();
        let mut out = Vec::new();
        for (sym, rep, adv) in cases {
            let ids: Vec<NodeId> = sym.iter().map(|&(n, _)| n).collect();
            for seeded in 0..11 {
                compute_routes_keys_into(
                    NodeId(0),
                    seeded,
                    &ids,
                    &pairs(rep),
                    &pairs(adv),
                    &mut scratch,
                    &mut out,
                );
                let routes: BTreeMap<NodeId, RouteEntry> =
                    out.iter().map(|&e| (e.dest, e)).collect();
                assert_eq!(
                    routes,
                    reference_routes(NodeId(0), sym, rep, adv),
                    "seeded {seeded}"
                );
            }
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// A HELLO that lists `me` as a symmetric neighbor and reports
    /// `reports` as symmetric too.
    fn hello(me: NodeId, reports: &[u32]) -> Hello {
        Hello {
            neighbors: std::iter::once(me)
                .chain(reports.iter().map(|&r| NodeId(r)))
                .map(|id| HelloNeighbor {
                    id,
                    state: LinkState::Symmetric,
                    qos: q(),
                })
                .collect(),
        }
    }

    #[test]
    fn a_link_moving_between_input_sections_recomputes() {
        // The link 1 — 2 is first reported in a HELLO, then advertised
        // in a TC as well. The TC pair changes nothing the cache holds
        // (rule 3), but the reported copy's expiry ends the validity
        // window, so the next query still recomputes.
        let me = NodeId(0);
        let mut nt = NeighborTables::new();
        let mut tb = SharedTopology::new(SharedLinkStore::new());
        let sensing = SensingParams::default();
        nt.process_hello(
            me,
            NodeId(1),
            q(),
            &hello(me, &[2]),
            t(0),
            t(6),
            sensing,
            |_| {},
        );
        let mut cache = RouteCache::new();
        cache.ensure(me, &nt, &tb, t(1));
        assert_eq!(cache.counters(), (1, 0));
        // Keep 1 symmetric past t(6) without reporting 2 again.
        nt.process_hello(
            me,
            NodeId(1),
            q(),
            &hello(me, &[]),
            t(4),
            t(14),
            sensing,
            |_| {},
        );
        let mut changed = false;
        tb.process_tc(
            NodeId(1),
            1,
            1,
            &[(NodeId(2), q())],
            t(5),
            t(20),
            |adv, inserted| {
                changed = true;
                cache.link_changed(NodeId(1), adv, inserted)
            },
        );
        assert!(changed);
        assert_eq!(cache.radius, EXACT);
        // At t(7) the reported copy expired and the advertised one holds.
        cache.ensure(me, &nt, &tb, t(7));
        assert_eq!(cache.counters(), (2, 0));
        assert_eq!(cache.lookup(NodeId(2)).map(|e| e.hops), Some(2));
    }

    #[test]
    fn past_seed_table_grows_past_half_full() {
        // A chain 0 — 1 — … — 40 past a seed of 3: the 38 ids past it
        // grow the past-seed table while the chain is numbered.
        let chain: Vec<(NodeId, NodeId, LinkQos)> =
            (1..40).map(|i| (NodeId(i), NodeId(i + 1), q())).collect();
        let keys: Vec<(NodeId, NodeId)> = chain.iter().map(|&(a, b, _)| (a, b)).collect();
        let mut scratch = RouteScratch::new();
        let mut out = Vec::new();
        compute_routes_keys_into(
            NodeId(0),
            3,
            &[NodeId(1)],
            &[],
            &keys,
            &mut scratch,
            &mut out,
        );
        assert_eq!(scratch.numbering.past.len(), 38);
        let reference = reference_routes(NodeId(0), &[(NodeId(1), q())], &[], &chain);
        assert_eq!(out.len(), 40);
        for e in &out {
            assert_eq!(reference[&e.dest], *e);
        }
    }

    #[test]
    fn scratch_reuse_across_different_graphs() {
        let mut scratch = RouteScratch::new();
        let mut out = Vec::new();
        compute_routes_keys_into(
            NodeId(0),
            0,
            &[NodeId(1)],
            &[(NodeId(1), NodeId(2))],
            &[],
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.len(), 2);
        // A smaller graph afterwards, whose ids past the seed include one
        // the first graph numbered differently: stale scratch state must
        // not leak.
        compute_routes_keys_into(
            NodeId(5),
            0,
            &[NodeId(2), NodeId(7)],
            &[],
            &[],
            &mut scratch,
            &mut out,
        );
        let one_hop = |id| RouteEntry {
            dest: NodeId(id),
            next_hop: NodeId(id),
            hops: 1,
        };
        assert_eq!(out, [one_hop(2), one_hop(7)]);
        // Past the seed, ids are numbered in arrival order.
        let ids: Vec<NodeId> = (0..3).map(|i| scratch.numbering.id(i)).collect();
        assert_eq!(ids, [NodeId(5), NodeId(2), NodeId(7)]);
        // Then one seeded past every id it mentions.
        compute_routes_keys_into(NodeId(5), 8, &[NodeId(7)], &[], &[], &mut scratch, &mut out);
        assert_eq!(out, [one_hop(7)]);
    }

    const ME: NodeId = NodeId(0);

    /// Node 0 with symmetric neighbors 1 and 2, the TCs it integrated
    /// into a store seeded with the ids `0..8`, and its route cache. Each
    /// TC and HELLO reports its changed pairs to the cache, as
    /// [`OlsrNode`] does, and every query is checked against
    /// [`reference_routes`].
    ///
    /// [`OlsrNode`]: crate::node::OlsrNode
    struct Fixture {
        nt: NeighborTables,
        tb: SharedTopology,
        cache: RouteCache,
        ansn: u16,
    }

    /// 0 — {1, 2}, then 1 — 3, 2 — 4, 3 — 5 and 4 — 6: 3 and 4 lie two
    /// hops out, 5 three through first hop 1, 6 three through first hop
    /// 2; 7 is unreached.
    const TREE: &[(u32, &[u32])] = &[(1, &[3]), (2, &[4]), (3, &[5]), (4, &[6])];

    impl Fixture {
        /// The node after the TCs `tcs` (`(originator, advertised)`),
        /// its cache computed and so exact everywhere. Everything happens
        /// at t(1), inside every tuple's hold.
        fn new(tcs: &[(u32, &[u32])]) -> Self {
            let mut nt = NeighborTables::new();
            for n in [1, 2] {
                let sensing = SensingParams::default();
                nt.process_hello(
                    ME,
                    NodeId(n),
                    q(),
                    &hello(ME, &[]),
                    t(0),
                    t(100),
                    sensing,
                    |_| {},
                );
            }
            let mut f = Fixture {
                nt,
                tb: SharedTopology::new(SharedLinkStore::seeded(8)),
                cache: RouteCache::new(),
                ansn: 0,
            };
            for &(orig, adv) in tcs {
                f.tc(orig, adv);
            }
            assert!(!f.routes(), "the first query computes");
            assert_eq!(f.cache.radius, EXACT);
            f
        }

        /// Integrates a TC from `orig` advertising `adv` at t(1).
        fn tc(&mut self, orig: u32, adv: &[u32]) {
            self.tc_held(orig, adv, t(100));
        }

        /// [`Fixture::tc`] with the TC held until `hold`.
        fn tc_held(&mut self, orig: u32, adv: &[u32], hold: SimTime) {
            self.ansn += 1;
            let adv: Vec<(NodeId, LinkQos)> = adv.iter().map(|&n| (NodeId(n), q())).collect();
            let cache = &mut self.cache;
            self.tb.process_tc(
                NodeId(orig),
                self.ansn,
                self.ansn,
                &adv,
                t(1),
                hold,
                |id, inserted| cache.link_changed(NodeId(orig), id, inserted),
            );
        }

        /// Integrates a HELLO from `from` listing node 0 and reporting
        /// `reports` at t(1), held like the fixture's first ones.
        fn hello(&mut self, from: u32, reports: &[u32]) {
            let (from, cache) = (NodeId(from), &mut self.cache);
            if self.nt.process_hello(
                ME,
                from,
                q(),
                &hello(ME, reports),
                t(1),
                t(100),
                SensingParams::default(),
                |n| cache.link_changed(from, n, true),
            ) {
                cache.invalidate();
            }
        }

        fn reference(&self) -> BTreeMap<NodeId, RouteEntry> {
            self.reference_at(t(1))
        }

        fn reference_at(&self, now: SimTime) -> BTreeMap<NodeId, RouteEntry> {
            reference_routes(
                ME,
                &self.nt.symmetric_neighbors(now),
                &self.nt.reported_links(now),
                &self.tb.links(now),
            )
        }

        /// The full-table query at t(1); returns whether it was a hit.
        fn routes(&mut self) -> bool {
            let hits = self.cache.counters().1;
            self.cache.ensure(ME, &self.nt, &self.tb, t(1));
            let table: BTreeMap<NodeId, RouteEntry> =
                self.cache.entries().map(|e| (e.dest, e)).collect();
            assert_eq!(table, self.reference());
            assert_eq!(self.cache.route_count(), table.len());
            self.cache.counters().1 > hits
        }

        /// The point query for `dest` at t(1); returns whether it was a
        /// hit.
        fn route_to(&mut self, dest: u32) -> bool {
            self.route_to_at(dest, t(1))
        }

        /// The point query for `dest` at `now`; returns whether it was a
        /// hit.
        fn route_to_at(&mut self, dest: u32, now: SimTime) -> bool {
            let hits = self.cache.counters().1;
            let route = self
                .cache
                .route_to(ME, &self.nt, &self.tb, NodeId(dest), now);
            assert_eq!(route, self.reference_at(now).get(&NodeId(dest)).copied());
            self.cache.counters().1 > hits
        }
    }

    #[test]
    fn rule_1_a_pair_within_one_level_keeps_the_radius() {
        let mut f = Fixture::new(TREE);
        f.tc(3, &[4, 5]); // 3 — 4: both two hops out
        f.tc(7, &[9]); // 7 — 9: both unreached, 9 past the seed
        assert_eq!(f.cache.radius, EXACT);
        assert!(f.routes());
    }

    #[test]
    fn rule_2_a_pair_at_the_root_narrows_to_it() {
        let mut f = Fixture::new(TREE);
        f.tc(5, &[0]); // 5 — 0: 5 turns into a first hop
        assert_eq!(f.cache.radius, 0);
        assert!(f.route_to(0), "the root is never a destination");
        assert!(!f.route_to(1));
        assert_eq!(f.cache.lookup(NodeId(5)).map(|e| e.hops), Some(1));
    }

    #[test]
    fn rule_3_an_insert_keeps_the_radius_unless_it_lowers_a_first_hop() {
        let mut f = Fixture::new(TREE);
        f.tc(4, &[5, 6]); // 4 — 5: first hop 2, not below 5's 1
        assert_eq!(f.cache.radius, EXACT);
        assert!(f.routes());
        f.tc(3, &[5, 6]); // 3 — 6: first hop 1, below 6's 2
        assert_eq!(f.cache.radius, 2);
        assert!(f.route_to(4));
        assert!(!f.route_to(6));
        assert_eq!(
            f.cache.lookup(NodeId(6)).map(|e| e.next_hop),
            Some(NodeId(1))
        );
    }

    #[test]
    fn rule_4_a_removal_keeps_the_radius_unless_it_cuts_the_tree() {
        let mut f = Fixture::new(&[(1, &[3]), (2, &[4]), (3, &[5]), (4, &[5, 6])]);
        f.tc(4, &[6]); // 4 — 5 goes; 5's parent is 3
        assert_eq!((f.cache.radius, f.cache.cuts), (EXACT, 0));
        assert!(f.routes());
        f.tc(4, &[5, 6]); // and comes back (rule 3)
        f.tc(3, &[]); // 3 — 5 goes: 5's parent edge
        assert_eq!((f.cache.radius, f.cache.cuts), (EXACT, 1));
        assert!(f.route_to(6), "outside the cut subtree");
        assert!(f.route_to(3), "the removed edge's nearer end");
        assert!(!f.route_to(5), "inside the cut subtree");
        assert_eq!(
            f.cache.lookup(NodeId(5)).map(|e| e.next_hop),
            Some(NodeId(2))
        );
    }

    #[test]
    fn a_full_table_query_recomputes_while_a_cut_stands() {
        let mut f = Fixture::new(TREE);
        f.tc(3, &[]); // 3 — 5 goes: 5's parent edge, and its only link
        assert_eq!((f.cache.radius, f.cache.cuts), (EXACT, 1));
        assert!(!f.routes(), "the radius is ∞, but 5 is cut");
        assert_eq!(f.cache.cuts, 0, "a recompute clears every cut");
        assert!(f.routes());
    }

    #[test]
    fn a_second_cut_under_a_cut_slot_is_not_counted_twice() {
        // 3 — 5 is advertised from both ends, and 7 hangs below 5.
        let mut f = Fixture::new(&[(1, &[3]), (2, &[4]), (3, &[5]), (5, &[3, 7])]);
        f.tc(3, &[]); // one copy of 5's parent edge goes: 5 is cut
        f.tc(5, &[7]); // the other copy: 5 again
        f.tc(5, &[]); // 5 — 7 goes: 7's parent edge, below the cut
        assert_eq!(f.cache.cuts, 1);
        assert!(f.route_to(4), "outside the cut subtree");
        assert!(!f.route_to(7), "below the cut");
        assert_eq!(f.cache.lookup(NodeId(7)), None);
    }

    #[test]
    fn a_tc_that_shortens_a_hold_cuts_the_routes_resting_on_it() {
        let mut f = Fixture::new(TREE);
        f.tc_held(3, &[5], t(2)); // 3 — 5 stays, now held until t(2)
        assert_eq!((f.cache.radius, f.cache.cuts), (EXACT, 1));
        assert!(f.route_to(6));
        assert!(!f.route_to_at(5, t(3)), "3 — 5 lapsed at t(2)");
        assert_eq!(f.cache.lookup(NodeId(5)), None);
    }

    #[test]
    fn rule_5_linking_an_unreached_id_narrows_to_the_nearer_end() {
        let mut f = Fixture::new(TREE);
        f.tc(5, &[7, 9]); // 5 — 7, unreached; 5 — 9, past the seed
        assert_eq!(f.cache.radius, 3);
        assert!(f.route_to(6), "three hops out is still exact");
        assert!(!f.route_to(7));
        assert_eq!(f.cache.radius, EXACT);
        f.tc(6, &[8]); // 6 — 8, past the seed
        assert!(!f.routes(), "a full table needs the whole radius");
        assert_eq!(f.cache.lookup(NodeId(8)).map(|e| e.hops), Some(4));
    }

    #[test]
    fn a_hello_reported_link_on_no_shortest_path_keeps_the_radius() {
        let mut f = Fixture::new(TREE);
        f.hello(2, &[3]); // 2 — 3: first hop 2, not below 3's 1 (rule 3)
        assert_eq!(f.cache.radius, EXACT);
        assert!(f.route_to(3));
        assert!(f.routes());
    }

    #[test]
    fn a_hello_reporting_a_new_two_hop_neighbor_narrows_to_one_hop() {
        let mut f = Fixture::new(TREE);
        f.hello(1, &[7]); // 1 — 7: 7 was unreached (rule 5)
        assert_eq!(f.cache.radius, 1);
        assert!(f.route_to(2));
        assert!(!f.route_to(7));
        assert_eq!(f.cache.lookup(NodeId(7)).map(|e| e.hops), Some(2));
    }

    #[test]
    fn a_hello_change_narrows_to_the_root() {
        let mut f = Fixture::new(TREE);
        f.hello(5, &[]); // 5 turns into a symmetric neighbor
        assert_eq!(f.cache.radius, 0);
        assert!(!f.route_to(5));
        assert_eq!(f.cache.lookup(NodeId(5)).map(|e| e.hops), Some(1));
    }
}
