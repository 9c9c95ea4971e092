//! Differential proofs of the incremental routing layer: after *any*
//! history of HELLO integrations, TC integrations, sweeps and time
//! advances, a [`RouteCache`] wired exactly like [`OlsrNode`] wires it
//! (told every link pair a TC changed and every one a HELLO brought in,
//! invalidated on the neighbor tables' change flag, nothing else) must
//! answer every query — full
//! tables, and point queries for reached and unreached ids, the root
//! and ids past the seed — identically to [`reference_routes`], the
//! original `BTreeMap` BFS, recomputed from scratch on the live table
//! contents. Every history drives two caches: one over the per-node
//! [`TopologyBase`] tables (a test-only oracle in `tests/support/`,
//! which seeds no numbering, so every id goes through the route
//! scratch's past-seed table) and one over a [`SharedTopology`] on a
//! [`SharedLinkStore`] seeded with a drawn prefix of the ids, the
//! production path, so its histories straddle the seed. The two bases
//! must report the same changed pairs, and the two caches count alike:
//! every query is a hit or a recompute, and a query inside the
//! validity window with no change reported since the last recompute is
//! a hit. A second generator keeps every HELLO hold past every TC hold
//! and refreshes live TC sets under earlier holds, so that a shortened
//! TC hold is what lapses first. The from-scratch
//! [`compute_routes_keys_into`] is pinned to the reference on the same
//! inputs and on raw lists numbered from a drawn seed, and so are caches
//! that share one thread's scratch, taking turns on one thread and
//! recomputing at once on two.
//!
//! [`OlsrNode`]: qolsr_proto::OlsrNode
//! [`RouteCache`]: qolsr_proto::RouteCache
//! [`SharedLinkStore`]: qolsr_proto::store::SharedLinkStore
//! [`SharedTopology`]: qolsr_proto::store::SharedTopology
//! [`compute_routes_keys_into`]: qolsr_proto::routing::compute_routes_keys_into
//! [`reference_routes`]: qolsr_proto::routing::reference_routes

mod support;

use std::collections::BTreeMap;
use std::sync::Barrier;

use proptest::prelude::*;
use qolsr_graph::NodeId;
use qolsr_metrics::LinkQos;
use qolsr_proto::messages::{Hello, HelloNeighbor, LinkState};
use qolsr_proto::routing::{compute_routes_keys_into, reference_routes};
use qolsr_proto::store::{SharedLinkStore, SharedTopology};
use qolsr_proto::tables::NeighborTables;
use qolsr_proto::{RouteCache, RouteEntry, RouteScratch, SensingParams};
use qolsr_sim::{SimDuration, SimTime};
use support::topology_base::TopologyBase;

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
    /// Query the whole routing table and compare cached vs
    /// from-scratch.
    Query,
    /// Query the route to one id: the root, ids the history mentions,
    /// reached or not, on both sides of any seed, and one it never does.
    PointQuery(u32),
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
        point_query(),
        point_query(),
        point_query(),
    ]
}

fn point_query() -> impl Strategy<Value = Op> {
    (0u32..13).prop_map(|d| Op::PointQuery(if d == 12 { 99 } else { d }))
}

/// A step of a history in which every HELLO hold outlasts every TC hold:
/// one of [`op`]'s steps with its HELLO hold 20 s longer (24–29 s, past
/// the longest TC hold), or a TC refresh. A refresh makes one of three
/// originators a symmetric neighbor, integrates its set under an 8–11 s
/// hold, queries the full table, integrates the same set again under a
/// 1–3 s hold, waits past that hold and queries again.
fn lapse_step() -> impl Strategy<Value = Vec<Op>> {
    prop_oneof![
        op().prop_map(|op| match op {
            Op::Hello {
                from,
                lists_me,
                mpr,
                reports,
                hold_s,
            } => vec![Op::Hello {
                from,
                lists_me,
                mpr,
                reports,
                hold_s: hold_s + 20,
            }],
            op => vec![op],
        }),
        (1u32..4, 0u16..3, 0u16..4, 8u64..12, 1u64..4, 0u64..2).prop_map(
            |(orig, seq, ansn, hold_s, short_s, extra_s)| {
                let advertised = vec![orig + 4, 9];
                vec![
                    Op::Hello {
                        from: orig,
                        lists_me: true,
                        mpr: false,
                        reports: Vec::new(),
                        hold_s: 25,
                    },
                    Op::Tc {
                        orig,
                        seq,
                        ansn,
                        advertised: advertised.clone(),
                        hold_s,
                    },
                    Op::Query,
                    Op::Tc {
                        orig,
                        seq: seq + 1,
                        ansn,
                        advertised,
                        hold_s: short_s,
                    },
                    Op::Advance(short_s + extra_s),
                    Op::Query,
                ]
            }
        ),
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

/// The from-scratch BFS over the same live tables' keys, numbered from
/// `seeded`, keyed by destination.
fn scratch_routes(
    nt: &NeighborTables,
    tb: &TopologyBase,
    seeded: usize,
    now: SimTime,
) -> BTreeMap<NodeId, RouteEntry> {
    let (mut sym, mut reported, mut advertised) = (Vec::new(), Vec::new(), Vec::new());
    nt.symmetric_keys_into(now, &mut sym);
    nt.reported_keys_into(now, &mut reported);
    tb.for_each_link_key(now, |a, b| advertised.push((a, b)));
    let mut out = Vec::new();
    let mut scratch = RouteScratch::new();
    compute_routes_keys_into(
        ME,
        seeded,
        &sym,
        &reported,
        &advertised,
        &mut scratch,
        &mut out,
    );
    out.into_iter().map(|e| (e.dest, e)).collect()
}

/// What a [`RouteCache`] must count, from its freshness rules alone:
/// every query is a hit or a recompute, and a query inside the validity
/// window of the last recompute, with no change reported to the cache
/// since, is a hit.
#[derive(Debug, Default)]
struct CounterModel {
    /// No change was reported since the last recompute.
    clean: bool,
    cached_at: SimTime,
    valid_until: SimTime,
    queries: u64,
}

impl CounterModel {
    /// A HELLO change or a changed pair was reported.
    fn changed(&mut self) {
        self.clean = false;
    }

    /// Checks the counters of one query at `now`, `before` and `after`
    /// it, and follows the cache's window when it recomputed.
    fn query(
        &mut self,
        before: (u64, u64),
        after: (u64, u64),
        nt: &NeighborTables,
        tb: &TopologyBase,
        now: SimTime,
    ) -> Result<(), TestCaseError> {
        self.queries += 1;
        prop_assert_eq!(
            after.0 + after.1,
            self.queries,
            "hits + recomputes = queries"
        );
        let recomputed = after.0 > before.0;
        let in_window = self.cached_at <= now && now < self.valid_until;
        prop_assert!(
            !(self.clean && in_window && recomputed),
            "a clean query inside the window recomputed at {}",
            now
        );
        if recomputed {
            self.valid_until = nt
                .symmetric_into(now, &mut Vec::new())
                .min(nt.reported_into(now, &mut Vec::new()))
                .min(tb.links_into(now, &mut Vec::new()));
            self.cached_at = now;
            self.clean = true;
        }
        Ok(())
    }
}

/// A full-table query (`dest` `None`) or a point query at `now` to both
/// caches: each answers like the reference, they count alike, and the
/// counts keep `model`'s rules.
fn check_query(
    caches: [&mut RouteCache; 2],
    model: &mut CounterModel,
    nt: &NeighborTables,
    tb: &TopologyBase,
    shared: &SharedTopology,
    dest: Option<NodeId>,
    now: SimTime,
) -> Result<(), TestCaseError> {
    let [cache, shared_cache] = caches;
    let before = cache.counters();
    let reference = from_scratch(nt, tb, now);
    match dest {
        None => {
            cache.ensure(ME, nt, tb, now);
            shared_cache.ensure(ME, nt, shared, now);
            for (name, c) in [("per-node", &*cache), ("shared-store", &*shared_cache)] {
                let cached: BTreeMap<NodeId, RouteEntry> =
                    c.entries().map(|e| (e.dest, e)).collect();
                prop_assert_eq!(
                    c.entries().count(),
                    cached.len(),
                    "{} cache repeats a destination",
                    name
                );
                prop_assert_eq!(c.route_count(), cached.len(), "{} cache miscounts", name);
                prop_assert_eq!(&cached, &reference, "{} cache diverged at {}", name, now);
            }
        }
        Some(dest) => {
            let want = reference.get(&dest).copied();
            let got = cache.route_to(ME, nt, tb, dest, now);
            prop_assert_eq!(got, want, "per-node route to {:?} at {}", dest, now);
            let got = shared_cache.route_to(ME, nt, shared, dest, now);
            prop_assert_eq!(got, want, "shared-store route to {:?} at {}", dest, now);
        }
    }
    prop_assert_eq!(
        cache.counters(),
        shared_cache.counters(),
        "the caches counted apart at {}",
        now
    );
    model.query(before, cache.counters(), nt, tb, now)
}

/// Drives node 0's tables and two route caches through `ops`, checking
/// every query against the reference and the counter model.
fn run_history(ops: Vec<Op>, seeded_len: usize) -> Result<(), TestCaseError> {
    let mut nt = NeighborTables::new();
    let mut tb = TopologyBase::new();
    // Seeds the ids `0..seeded_len`: none, some or all of the ids the
    // history mentions (0..10), so ids sit on both sides of the seed.
    let mut shared = SharedTopology::new(SharedLinkStore::seeded(seeded_len));
    let mut cache = RouteCache::new();
    let mut shared_cache = RouteCache::new();
    let mut model = CounterModel::default();
    let mut now = SimTime::ZERO;
    for op in ops {
        match op {
            Op::Hello {
                from,
                lists_me,
                mpr,
                reports,
                hold_s,
            } => {
                let hello = hello_message(lists_me, mpr, &reports);
                let hold = now + SimDuration::from_secs(hold_s);
                let from = NodeId(from);
                let mut entered = false;
                let sensing = SensingParams::default();
                let qos = LinkQos::uniform(5);
                let changed = nt.process_hello(ME, from, qos, &hello, now, hold, sensing, |n| {
                    cache.link_changed(from, n, true);
                    shared_cache.link_changed(from, n, true);
                    entered = true;
                });
                if changed {
                    cache.invalidate();
                    shared_cache.invalidate();
                }
                if changed || entered {
                    model.changed();
                }
            }
            Op::Tc {
                orig,
                seq,
                ansn,
                advertised,
                hold_s,
            } => {
                let advertised: Vec<(NodeId, LinkQos)> = advertised
                    .iter()
                    .map(|&n| (NodeId(n), LinkQos::uniform(1)))
                    .collect();
                let hold = now + SimDuration::from_secs(hold_s);
                let orig = NodeId(orig);
                let (mut report, mut shared_report) = (Vec::new(), Vec::new());
                let applied = tb.process_tc(orig, ansn, &advertised, now, hold, |id, inserted| {
                    cache.link_changed(orig, id, inserted);
                    report.push((id, inserted));
                });
                let shared_applied =
                    shared.process_tc(orig, seq, ansn, &advertised, now, hold, |id, inserted| {
                        shared_cache.link_changed(orig, id, inserted);
                        shared_report.push((id, inserted));
                    });
                prop_assert_eq!(applied, shared_applied);
                prop_assert_eq!(
                    &report,
                    &shared_report,
                    "the bases reported apart at {}",
                    now
                );
                if !report.is_empty() {
                    model.changed();
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
            Op::PointQuery(dest) => {
                let dest = Some(NodeId(dest));
                check_query(
                    [&mut cache, &mut shared_cache],
                    &mut model,
                    &nt,
                    &tb,
                    &shared,
                    dest,
                    now,
                )?;
            }
            Op::Query => {
                check_query(
                    [&mut cache, &mut shared_cache],
                    &mut model,
                    &nt,
                    &tb,
                    &shared,
                    None,
                    now,
                )?;
                let scratch = scratch_routes(&nt, &tb, seeded_len, now);
                prop_assert_eq!(
                    &scratch,
                    &from_scratch(&nt, &tb, now),
                    "interned BFS diverged at {}",
                    now
                );
            }
        }
    }
    // Final query so every history ends verified.
    check_query(
        [&mut cache, &mut shared_cache],
        &mut model,
        &nt,
        &tb,
        &shared,
        None,
        now,
    )?;
    Ok(())
}

proptest! {
    /// Cached/incremental `routes()` ≡ from-scratch
    /// `compute_routes_keys_into` ≡ the original reference, after
    /// arbitrary HELLO/TC/sweep histories, over the per-node base and over
    /// the shared store alike.
    #[test]
    fn cache_equals_scratch_after_arbitrary_histories(
        ops in proptest::collection::vec(op(), 1..60),
        seeded_len in 0usize..12,
    ) {
        run_history(ops, seeded_len)?;
    }

    /// The same, over histories in which every HELLO hold outlasts every
    /// TC hold and TCs refresh live sets with earlier holds: a
    /// recompute's window then ends at a TC tuple, so the shortened set
    /// is what lapses first, and a cache not told of it would answer from
    /// the expired set.
    #[test]
    fn cache_equals_scratch_when_tc_holds_lapse_first(
        steps in proptest::collection::vec(lapse_step(), 1..20),
        seeded_len in 0usize..12,
    ) {
        run_history(steps.into_iter().flatten().collect(), seeded_len)?;
    }

    /// The from-scratch BFS matches the reference formulation on raw
    /// input lists, numbered from a drawn seed. Ids fall on both sides
    /// of it: small ones around it, and ids over the whole `u32` range.
    /// They are drawn from a small pool, so they repeat: `me` (the
    /// pool's first id) shows up inside reported/advertised pairs and in
    /// `sym`, self-loops occur, and `sym` comes unsorted with
    /// duplicates. The table, BFS order included, is the same as with
    /// no id seeded.
    #[test]
    fn interned_bfs_equals_reference(
        seeded in 0usize..48,
        pool in proptest::collection::vec(any_id(), 1..16),
        sym in proptest::collection::vec(0usize..16, 0..8),
        reported in proptest::collection::vec((0usize..16, 0usize..16), 0..16),
        advertised in proptest::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        let id = |i: usize| NodeId(pool[i % pool.len()]);
        let me = id(0);
        let sym: Vec<NodeId> = sym.iter().map(|&i| id(i)).collect();
        let reported: Vec<(NodeId, NodeId)> = reported.iter().map(|&(a, b)| (id(a), id(b))).collect();
        let advertised: Vec<(NodeId, NodeId)> =
            advertised.iter().map(|&(a, b)| (id(a), id(b))).collect();
        let mut scratch = RouteScratch::new();
        let mut routes = |seeded: usize| {
            let mut out = Vec::new();
            compute_routes_keys_into(me, seeded, &sym, &reported, &advertised, &mut scratch, &mut out);
            out
        };
        let table = routes(seeded);
        let unseeded = routes(0);

        let qos = LinkQos::uniform(1);
        let labeled = |v: &[(NodeId, NodeId)]| -> Vec<(NodeId, NodeId, LinkQos)> {
            v.iter().map(|&(a, b)| (a, b, qos)).collect()
        };
        let sym_q: Vec<(NodeId, LinkQos)> = sym.iter().map(|&n| (n, qos)).collect();
        let reference = reference_routes(me, &sym_q, &labeled(&reported), &labeled(&advertised));
        let by_dest: BTreeMap<NodeId, RouteEntry> = table.iter().map(|&e| (e.dest, e)).collect();
        prop_assert_eq!(table.len(), by_dest.len(), "a destination repeats");
        prop_assert_eq!(by_dest, reference);
        prop_assert_eq!(table, unseeded, "the seed moved the table");
    }
}

/// Ids on both sides of a seed drawn below 48 — every small id up to
/// 64 — and over the whole `u32` range.
fn any_id() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..64, wide_id()]
}

/// Ids over the whole `u32` range: arbitrary values, `u32::MAX`, and ids
/// that differ only in their high bits (`k << 20`), which a numbering
/// that looked at the low bits alone would confuse.
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
            let sensing = SensingParams::default();
            nt.process_hello(
                me,
                n,
                LinkQos::uniform(1),
                &hello,
                SimTime::ZERO,
                hold,
                sensing,
                |_| {},
            );
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

    /// Integrates TC `s`, which links one more unreached id to the
    /// neighbor, then checks that the cache recomputed and that its
    /// table equals the reference on the live tables.
    fn step(&mut self, s: usize) {
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        let advertised: Vec<(NodeId, LinkQos)> = self.far[..=s]
            .iter()
            .map(|&n| (n, LinkQos::uniform(1)))
            .collect();
        let hold = now + SimDuration::from_secs(1000);
        let (cache, orig) = (&mut self.cache, self.orig);
        let mut changed = false;
        self.tb
            .process_tc(orig, s as u16, &advertised, now, hold, |id, inserted| {
                changed = true;
                cache.link_changed(orig, id, inserted)
            });
        assert!(changed);
        self.cache.ensure(self.me, &self.nt, &self.tb, now);
        assert_eq!(self.cache.counters().0, s as u64 + 1, "TC {s} recomputed");
        let cached: BTreeMap<NodeId, RouteEntry> =
            self.cache.entries().map(|e| (e.dest, e)).collect();
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
