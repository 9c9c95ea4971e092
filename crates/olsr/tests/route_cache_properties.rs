//! Differential proofs of the incremental routing layer: after *any*
//! history of HELLO integrations, TC integrations, sweeps and time
//! advances, a [`RouteCache`] wired exactly like [`OlsrNode`] wires it
//! (invalidate on the tables' change flags, nothing else) must answer
//! every query identically to [`reference_routes`] — the original
//! `BTreeMap` BFS — recomputed from scratch on the live table contents.
//! Every history drives two caches: one over the per-node
//! [`TopologyBase`] and one over a [`SharedTopology`] on a
//! [`SharedLinkStore`], the production path. Both must also count the
//! hits and recomputes a model of the cache's freshness rules predicts.
//! The interned [`compute_routes`] is pinned to the reference on the
//! same inputs, and so are caches that share one thread's scratch, taking
//! turns on one thread and recomputing at once on two.
//!
//! [`OlsrNode`]: qolsr_proto::OlsrNode
//! [`RouteCache`]: qolsr_proto::RouteCache
//! [`SharedLinkStore`]: qolsr_proto::store::SharedLinkStore
//! [`SharedTopology`]: qolsr_proto::store::SharedTopology
//! [`TopologyBase`]: qolsr_proto::tables::TopologyBase
//! [`compute_routes`]: qolsr_proto::routing::compute_routes
//! [`reference_routes`]: qolsr_proto::routing::reference_routes

use std::collections::BTreeMap;
use std::sync::Barrier;

use proptest::prelude::*;
use qolsr_graph::NodeId;
use qolsr_metrics::LinkQos;
use qolsr_proto::messages::{Hello, HelloNeighbor, LinkState};
use qolsr_proto::routing::{compute_routes, reference_routes};
use qolsr_proto::store::{SharedLinkStore, SharedTopology};
use qolsr_proto::tables::{NeighborTables, TopologyBase};
use qolsr_proto::{RouteCache, RouteEntry};
use qolsr_sim::{SimDuration, SimTime};

const ME: NodeId = NodeId(0);

/// One step of a protocol history against node 0's tables.
#[derive(Debug, Clone)]
enum Op {
    /// HELLO from `from`: `lists_me` (with or without the MPR code)
    /// completes the symmetry handshake; `reports` are the neighbors the
    /// sender lists as symmetric. `hold_s` is the validity horizon.
    Hello {
        from: u32,
        lists_me: bool,
        mpr: bool,
        reports: Vec<u32>,
        hold_s: u64,
    },
    /// TC from `orig` advertising `advertised` under `ansn`, sent as
    /// message `seq`. Seqs come from a small range, so one `(orig, seq)`
    /// recurs with other content and the store repoints its key.
    Tc {
        orig: u32,
        seq: u16,
        ansn: u16,
        advertised: Vec<u32>,
        hold_s: u64,
    },
    /// Expire tuples out of all tables.
    Sweep,
    /// Let virtual time pass (seconds).
    Advance(u64),
    /// Query the routing table and compare cached vs from-scratch.
    Query,
}

fn op() -> impl Strategy<Value = Op> {
    let node = 1u32..8;
    prop_oneof![
        (
            node.clone(),
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec(0u32..8, 0..4),
            4u64..10,
        )
            .prop_map(|(from, lists_me, mpr, reports, hold_s)| Op::Hello {
                from,
                lists_me,
                mpr,
                reports,
                hold_s,
            }),
        (
            node,
            0u16..3,
            0u16..4,
            proptest::collection::vec(1u32..10, 0..4),
            4u64..12
        )
            .prop_map(|(orig, seq, ansn, advertised, hold_s)| Op::Tc {
                orig,
                seq,
                ansn,
                advertised,
                hold_s,
            }),
        Just(Op::Sweep),
        (1u64..5).prop_map(Op::Advance),
        Just(Op::Query),
        Just(Op::Query),
    ]
}

fn hello_message(lists_me: bool, mpr: bool, reports: &[u32]) -> Hello {
    let mut neighbors = Vec::new();
    if lists_me {
        neighbors.push(HelloNeighbor {
            id: ME,
            state: if mpr {
                LinkState::Mpr
            } else {
                LinkState::Symmetric
            },
            qos: LinkQos::uniform(2),
        });
    }
    for &r in reports {
        neighbors.push(HelloNeighbor {
            id: NodeId(r),
            state: LinkState::Symmetric,
            qos: LinkQos::uniform(3),
        });
    }
    Hello { neighbors }
}

fn from_scratch(
    nt: &NeighborTables,
    tb: &TopologyBase,
    now: SimTime,
) -> BTreeMap<NodeId, RouteEntry> {
    reference_routes(
        ME,
        &nt.symmetric_neighbors(now),
        &nt.reported_links(now),
        &tb.links(now),
    )
}

/// The live input keys a cache compares: symmetric neighbors, reported
/// pairs and topology pairs.
type Keys = (Vec<NodeId>, Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// What a [`RouteCache`] counts, predicted from its freshness rules
/// alone: a query inside the window of the last compute, with no
/// invalidation since, is a hit; otherwise the live key lists are
/// gathered, and the query is a hit when they equal the lists of the
/// last recompute and a recompute when they do not.
#[derive(Debug, Default)]
struct CounterModel {
    valid: bool,
    cached_at: SimTime,
    valid_until: SimTime,
    /// Keys of the last recompute (`None` before the first).
    keys: Option<Keys>,
    recomputes: u64,
    hits: u64,
}

impl CounterModel {
    fn invalidate(&mut self) {
        self.valid = false;
    }

    fn query(&mut self, nt: &NeighborTables, tb: &TopologyBase, now: SimTime) {
        if self.valid && self.cached_at <= now && now < self.valid_until {
            self.hits += 1;
            return;
        }
        let (mut sym, mut reported, mut topo) = (Vec::new(), Vec::new(), Vec::new());
        let horizon = nt
            .symmetric_into(now, &mut sym)
            .min(nt.reported_into(now, &mut reported))
            .min(tb.links_into(now, &mut topo));
        let keys: Keys = (
            sym.iter().map(|&(n, _)| n).collect(),
            reported.iter().map(|&(a, b, _)| (a, b)).collect(),
            topo.iter().map(|&(a, b, _)| (a, b)).collect(),
        );
        if self.keys.as_ref() == Some(&keys) {
            self.hits += 1;
        } else {
            self.recomputes += 1;
            self.keys = Some(keys);
        }
        self.valid = true;
        self.cached_at = now;
        self.valid_until = horizon;
    }

    fn counters(&self) -> (u64, u64) {
        (self.recomputes, self.hits)
    }
}

/// Both caches, queried at `now`, equal the reference table, answer
/// every point lookup like it, and count what `model` predicts.
fn check_query(
    caches: [&mut RouteCache; 2],
    model: &mut CounterModel,
    nt: &NeighborTables,
    tb: &TopologyBase,
    shared: &SharedTopology,
    now: SimTime,
) -> Result<(), TestCaseError> {
    let [cache, shared_cache] = caches;
    cache.ensure(ME, nt, tb, now);
    shared_cache.ensure(ME, nt, shared, now);
    model.query(nt, tb, now);
    let reference = from_scratch(nt, tb, now);
    for (name, c) in [("per-node", &*cache), ("shared-store", &*shared_cache)] {
        let cached: BTreeMap<NodeId, RouteEntry> =
            c.entries().iter().map(|&e| (e.dest, e)).collect();
        prop_assert_eq!(
            c.entries().len(),
            cached.len(),
            "{} cache repeats a destination",
            name
        );
        prop_assert_eq!(&cached, &reference, "{} cache diverged at {}", name, now);
        // Point lookups agree with the full table.
        for (&dest, entry) in &reference {
            prop_assert_eq!(c.lookup(dest), Some(*entry));
        }
        prop_assert_eq!(c.lookup(NodeId(99)), None);
        prop_assert_eq!(
            c.counters(),
            model.counters(),
            "{} cache counters at {}",
            name,
            now
        );
    }
    Ok(())
}

proptest! {
    /// Cached/incremental `routes()` ≡ from-scratch `compute_routes` ≡
    /// the original reference, after arbitrary HELLO/TC/sweep histories,
    /// over the per-node base and over the shared store alike.
    #[test]
    fn cache_equals_scratch_after_arbitrary_histories(
        ops in proptest::collection::vec(op(), 1..60)
    ) {
        let mut nt = NeighborTables::new();
        let mut tb = TopologyBase::new();
        let mut shared = SharedTopology::new(SharedLinkStore::new());
        let mut cache = RouteCache::new();
        let mut shared_cache = RouteCache::new();
        let mut model = CounterModel::default();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Hello { from, lists_me, mpr, reports, hold_s } => {
                    let hello = hello_message(lists_me, mpr, &reports);
                    let hold = now + SimDuration::from_secs(hold_s);
                    if nt.process_hello(ME, NodeId(from), LinkQos::uniform(5), &hello, now, hold) {
                        cache.invalidate();
                        shared_cache.invalidate();
                        model.invalidate();
                    }
                }
                Op::Tc { orig, seq, ansn, advertised, hold_s } => {
                    let advertised: Vec<(NodeId, LinkQos)> = advertised
                        .iter()
                        .map(|&n| (NodeId(n), LinkQos::uniform(1)))
                        .collect();
                    let hold = now + SimDuration::from_secs(hold_s);
                    let update = tb.process_tc_tracked(NodeId(orig), ansn, &advertised, now, hold);
                    let shared_update = shared
                        .process_tc_tracked(NodeId(orig), seq, ansn, &advertised, now, hold);
                    prop_assert_eq!(update, shared_update);
                    if update.links_changed {
                        cache.invalidate();
                        model.invalidate();
                    }
                    if shared_update.links_changed {
                        shared_cache.invalidate();
                    }
                }
                Op::Sweep => {
                    // Sweeps only drop already-expired tuples; the cache
                    // must stay exact *without* an invalidation here —
                    // exactly how `OlsrNode`'s sweep timer behaves.
                    nt.sweep(now);
                    tb.sweep(now);
                    shared.sweep(now);
                }
                Op::Advance(secs) => now += SimDuration::from_secs(secs),
                Op::Query => {
                    check_query([&mut cache, &mut shared_cache], &mut model, &nt, &tb, &shared, now)?;
                    let scratch = compute_routes(
                        ME,
                        &nt.symmetric_neighbors(now),
                        &nt.reported_links(now),
                        &tb.links(now),
                    );
                    prop_assert_eq!(&scratch, &from_scratch(&nt, &tb, now), "interned BFS diverged at {}", now);
                }
            }
        }
        // Final query so every history ends verified.
        check_query([&mut cache, &mut shared_cache], &mut model, &nt, &tb, &shared, now)?;
    }

    /// The hashed-interning BFS matches the reference formulation on raw
    /// input lists. Ids span the whole `u32` range and are drawn from a
    /// small pool, so they repeat: `me` (the pool's first id) shows up
    /// inside reported/advertised pairs and in `sym`, self-loops occur,
    /// and `sym` comes unsorted with duplicates.
    #[test]
    fn interned_bfs_equals_reference(
        pool in proptest::collection::vec(wide_id(), 1..16),
        sym in proptest::collection::vec(0usize..16, 0..8),
        reported in proptest::collection::vec((0usize..16, 0usize..16), 0..16),
        advertised in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        let id = |i: usize| NodeId(pool[i % pool.len()]);
        let me = id(0);
        let sym: Vec<(NodeId, LinkQos)> =
            sym.iter().map(|&i| (id(i), LinkQos::uniform(1))).collect();
        let pairs = |v: &[(usize, usize)]| -> Vec<(NodeId, NodeId, LinkQos)> {
            v.iter()
                .map(|&(a, b)| (id(a), id(b), LinkQos::uniform(1)))
                .collect()
        };
        let reported = pairs(&reported);
        let advertised = pairs(&advertised);
        prop_assert_eq!(
            compute_routes(me, &sym, &reported, &advertised),
            reference_routes(me, &sym, &reported, &advertised),
        );
    }
}

/// Ids over the whole `u32` range: arbitrary values, `u32::MAX`, and ids
/// that differ only in their high bits (`k << 20`), so that hashed slots
/// collide.
fn wide_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        Just(u32::MAX),
        (0u32..4096).prop_map(|k| k << 20),
    ]
}

/// A node's tables and route cache, driven through a fixed sequence of
/// TCs that each change its topology.
struct TcDriven {
    me: NodeId,
    nt: NeighborTables,
    tb: TopologyBase,
    cache: RouteCache,
    /// The neighbor whose TCs the node integrates.
    orig: NodeId,
    /// Ids the TCs advertise; TC `s` advertises the first `s + 1`.
    far: Vec<NodeId>,
}

impl TcDriven {
    /// `me` with symmetric neighbors `nbrs`, learning TCs from `nbrs[0]`.
    fn new(me: NodeId, nbrs: &[NodeId], far: Vec<NodeId>) -> Self {
        let mut nt = NeighborTables::new();
        let hello = Hello {
            neighbors: vec![HelloNeighbor {
                id: me,
                state: LinkState::Symmetric,
                qos: LinkQos::uniform(1),
            }],
        };
        let hold = SimTime::ZERO + SimDuration::from_secs(1000);
        for &n in nbrs {
            nt.process_hello(me, n, LinkQos::uniform(1), &hello, SimTime::ZERO, hold);
        }
        Self {
            me,
            nt,
            tb: TopologyBase::new(),
            cache: RouteCache::new(),
            orig: nbrs[0],
            far,
        }
    }

    /// Integrates TC `s`, then checks that the cache recomputed and that
    /// its table equals the reference on the live tables.
    fn step(&mut self, s: usize) {
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        let advertised: Vec<(NodeId, LinkQos)> = self.far[..=s]
            .iter()
            .map(|&n| (n, LinkQos::uniform(1)))
            .collect();
        let hold = now + SimDuration::from_secs(1000);
        let update = self
            .tb
            .process_tc_tracked(self.orig, s as u16, &advertised, now, hold);
        assert!(update.links_changed);
        self.cache.invalidate();
        self.cache.ensure(self.me, &self.nt, &self.tb, now);
        assert_eq!(self.cache.counters().0, s as u64 + 1, "TC {s} recomputed");
        let cached: BTreeMap<NodeId, RouteEntry> =
            self.cache.entries().iter().map(|&e| (e.dest, e)).collect();
        let reference = reference_routes(
            self.me,
            &self.nt.symmetric_neighbors(now),
            &self.nt.reported_links(now),
            &self.tb.links(now),
        );
        assert_eq!(cached, reference, "node {:?} after TC {s}", self.me);
    }
}

/// Two nodes with different tables: a small one with low ids and a
/// larger one with high-bit ids, including `u32::MAX` as its own id.
fn two_nodes() -> (TcDriven, TcDriven) {
    let small = TcDriven::new(
        NodeId(0),
        &[NodeId(1), NodeId(2)],
        (10..16).map(NodeId).collect(),
    );
    let large = TcDriven::new(
        NodeId(u32::MAX),
        &[NodeId(1 << 20), NodeId(2 << 20), NodeId(3 << 20)],
        (4..40).map(|k| NodeId(k << 20)).collect(),
    );
    (small, large)
}

/// Every route cache recomputes through its thread's one scratch, so
/// nodes taking turns on a thread, and nodes recomputing at the same
/// time on two threads, must each get exactly the reference table.
#[test]
fn route_caches_share_a_thread_scratch_without_carrying_state() {
    const STEPS: usize = 6;

    let (mut small, mut large) = two_nodes();
    for s in 0..STEPS {
        large.step(s);
        small.step(s);
    }

    let (mut small, mut large) = two_nodes();
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for node in [&mut small, &mut large] {
            let barrier = &barrier;
            scope.spawn(move || {
                for s in 0..STEPS {
                    barrier.wait();
                    node.step(s);
                }
            });
        }
    });
}
