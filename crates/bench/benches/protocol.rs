//! Criterion benchmarks for the live protocol substrate: full
//! discrete-event OLSR networks (HELLO/TC exchange, MPR flooding), the
//! wire codec, the routing-table hot path (from-scratch interned BFS vs
//! the `BTreeMap` reference vs the incremental cache, the latter also
//! over the shared store at one mobile node's scale), HELLO/TC table
//! integration throughput, the TC receive path's per-originator lookups
//! under a flood's cold caches, and the engine's timer wheel against a
//! plain binary heap, its bench-local baseline, under a HELLO/TC-like
//! timer mix and under the engine's window/barrier loop.
//!
//! Benches whose name promises a path assert, outside the timed loop,
//! that they took it: every `recompute*` query recomputed, every
//! cached, `radius_hit` or `cut_hit` query hit, and the wheel popped
//! what the heap pops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};
use qolsr::policy::SelectorPolicy;
use qolsr::selector::Fnbp;
use qolsr_bench::paper_topology;
use qolsr_graph::NodeId;
use qolsr_metrics::{BandwidthMetric, LinkQos};
use qolsr_proto::messages::{Hello, HelloNeighbor, LinkState, Message, Tc};
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::routing::{compute_routes_keys_into, reference_routes};
use qolsr_proto::store::{SharedLinkStore, SharedTopology};
use qolsr_proto::tables::NeighborTables;
use qolsr_proto::wire;
use qolsr_proto::{RouteCache, RouteScratch, SensingParams};
use qolsr_sim::queue::{QueueItem, TimerWheel};
use qolsr_sim::{SimDuration, SimRng, SimTime};
use std::hint::black_box;

fn bench_network_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("olsr_network");
    group.sample_size(10);
    for density in [6.0, 10.0] {
        let topo = paper_topology(density, 0x0150);
        group.bench_with_input(
            BenchmarkId::new("rfc_policy_10s", format!("n{}", topo.len())),
            &topo,
            |b, topo| {
                b.iter(|| {
                    let mut net = OlsrNetwork::with_defaults(topo.clone(), 1);
                    net.run_for(SimDuration::from_secs(10));
                    black_box(net.total_stats())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("fnbp_policy_10s", format!("n{}", topo.len())),
            &topo,
            |b, topo| {
                b.iter(|| {
                    let mut net = OlsrNetwork::new(
                        topo.clone(),
                        qolsr_proto::OlsrConfig::default(),
                        qolsr_sim::RadioConfig::default(),
                        1,
                        |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
                    );
                    net.run_for(SimDuration::from_secs(10));
                    black_box(net.total_stats())
                });
            },
        );
    }
    group.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let hello = Message::hello(
        NodeId(1),
        7,
        Hello {
            neighbors: (0..30)
                .map(|i| HelloNeighbor {
                    id: NodeId(i),
                    state: LinkState::Symmetric,
                    qos: LinkQos::uniform(u64::from(i) + 1),
                })
                .collect(),
        },
    );
    let tc = Message::tc(
        NodeId(1),
        9,
        Tc {
            ansn: 4,
            advertised: (0..10)
                .map(|i| (NodeId(i), LinkQos::uniform(u64::from(i) + 1)))
                .collect(),
        },
    );
    group.bench_function("encode_hello_30_neighbors", |b| {
        b.iter(|| black_box(wire::encode(&hello)));
    });
    group.bench_function("encode_tc_10_advertised", |b| {
        b.iter(|| black_box(wire::encode(&tc)));
    });
    let hello_bytes: Bytes = wire::encode(&hello);
    let tc_bytes: Bytes = wire::encode(&tc);
    group.bench_function("decode_hello_30_neighbors", |b| {
        b.iter(|| black_box(wire::decode(hello_bytes.clone()).unwrap()));
    });
    group.bench_function("decode_tc_10_advertised", |b| {
        b.iter(|| black_box(wire::decode(tc_bytes.clone()).unwrap()));
    });
    group.finish();
}

/// Synthetic route inputs shaped like a converged node's knowledge at
/// density ~10: `deg` symmetric neighbors, their reported 2-hop links,
/// and a TC-learned advertised topology spanning all `n` nodes.
#[allow(clippy::type_complexity)]
fn route_inputs(
    n: u32,
    deg: u32,
    seed: u64,
) -> (
    Vec<(NodeId, LinkQos)>,
    Vec<(NodeId, NodeId, LinkQos)>,
    Vec<(NodeId, NodeId, LinkQos)>,
) {
    let mut rng = SimRng::seed_from_u64(seed);
    let q = LinkQos::uniform(1);
    let sym: Vec<(NodeId, LinkQos)> = (1..=deg).map(|i| (NodeId(i), q)).collect();
    let mut reported = Vec::new();
    for &(v, _) in &sym {
        for _ in 0..deg {
            reported.push((v, NodeId(rng.next_below(u64::from(n)) as u32), q));
        }
    }
    // Advertised links: a connected ring over all nodes plus random
    // chords, approximating TC-learned topology at mean degree ~4.
    let mut advertised = Vec::new();
    for i in 0..n {
        advertised.push((NodeId(i), NodeId((i + 1) % n), q));
    }
    for _ in 0..n {
        let a = NodeId(rng.next_below(u64::from(n)) as u32);
        let b = NodeId(rng.next_below(u64::from(n)) as u32);
        advertised.push((a, b, q));
    }
    (sym, reported, advertised)
}

fn bench_compute_routes(c: &mut Criterion) {
    let mut group = c.benchmark_group("compute_routes");
    group.sample_size(10);
    for n in [1000u32, 4000] {
        let (sym, reported, advertised) = route_inputs(n, 10, 0x0150);
        let sym_keys: Vec<NodeId> = sym.iter().map(|&(v, _)| v).collect();
        let rep_keys: Vec<(NodeId, NodeId)> = reported.iter().map(|&(a, b, _)| (a, b)).collect();
        let adv_keys: Vec<(NodeId, NodeId)> = advertised.iter().map(|&(a, b, _)| (a, b)).collect();
        group.bench_with_input(BenchmarkId::new("reference_btreemap", n), &n, |b, _| {
            b.iter(|| black_box(reference_routes(NodeId(0), &sym, &reported, &advertised)));
        });
        group.bench_with_input(BenchmarkId::new("interned_scratch", n), &n, |b, _| {
            let mut scratch = RouteScratch::new();
            let mut out = Vec::new();
            b.iter(|| {
                compute_routes_keys_into(
                    NodeId(0),
                    n as usize,
                    &sym_keys,
                    &rep_keys,
                    &adv_keys,
                    &mut scratch,
                    &mut out,
                );
                black_box(out.len())
            });
        });
    }
    group.finish();
}

/// Tables primed with `n`-node knowledge for cache/process benches, on
/// a store seeded like an `n`-node network's.
fn primed_tables(n: u32, deg: u32) -> (NeighborTables, SharedTopology, SimTime) {
    let (sym, reported, advertised) = route_inputs(n, deg, 0x0151);
    let mut nt = NeighborTables::new();
    let now = SimTime::ZERO;
    let hold = now + SimDuration::from_secs(6);
    let sensing = SensingParams::default();
    for &(v, qos) in &sym {
        let mut neighbors = vec![HelloNeighbor {
            id: NodeId(0),
            state: LinkState::Symmetric,
            qos,
        }];
        neighbors.extend(
            reported
                .iter()
                .filter(|&&(via, _, _)| via == v)
                .map(|&(_, w, qos)| HelloNeighbor {
                    id: w,
                    state: LinkState::Symmetric,
                    qos,
                }),
        );
        let hello = Hello { neighbors };
        nt.process_hello(NodeId(0), v, qos, &hello, now, hold, sensing, |_| {});
    }
    let mut tb = SharedTopology::new(SharedLinkStore::seeded(n as usize));
    let t_hold = now + SimDuration::from_secs(15);
    for chunk in advertised.chunks(4) {
        let orig = chunk[0].0;
        let adv: Vec<(NodeId, LinkQos)> = chunk.iter().map(|&(_, b, q)| (b, q)).collect();
        tb.process_tc(orig, 1, 1, &adv, now, t_hold, |_, _| {});
    }
    (nt, tb, now)
}

/// The mobile node's tables mention the ids below this, on a store
/// seeded with 500.
const MOBILE_IDS: u64 = 480;

/// One node's tables shaped like a `mobile-traffic-500` node's, on a
/// shared store seeded like that network's: 10 symmetric neighbors
/// reporting ~107 pairs, and 440 originators advertising ~2.1 ids each,
/// over ~480 distinct ids.
fn mobile_node_tables() -> (NeighborTables, SharedTopology, SimTime) {
    let mut rng = SimRng::seed_from_u64(0x0152);
    let now = SimTime::ZERO;
    let hold = now + SimDuration::from_secs(6);
    let sensing = SensingParams::default();
    let q = LinkQos::uniform(3);
    let mut nt = NeighborTables::new();
    for v in 1..=10u32 {
        let mut neighbors = vec![HelloNeighbor {
            id: NodeId(0),
            state: LinkState::Symmetric,
            qos: q,
        }];
        // 107 reported pairs over the 10 reporters.
        for _ in 0..(if v <= 7 { 11 } else { 10 }) {
            neighbors.push(HelloNeighbor {
                id: NodeId(11 + rng.next_below(MOBILE_IDS - 11) as u32),
                state: LinkState::Symmetric,
                qos: q,
            });
        }
        let hello = Hello { neighbors };
        nt.process_hello(NodeId(0), NodeId(v), q, &hello, now, hold, sensing, |_| {});
    }
    let mut tb = SharedTopology::new(SharedLinkStore::seeded(500));
    let t_hold = now + SimDuration::from_secs(15);
    for orig in 1..=440u32 {
        let count = if rng.next_below(10) == 0 { 3 } else { 2 };
        let adv: Vec<(NodeId, LinkQos)> = (0..count)
            .map(|_| {
                let id = 1 + rng.next_below(MOBILE_IDS - 2) as u32;
                let id = if id >= orig { id + 1 } else { id };
                (NodeId(id), LinkQos::uniform(1 + rng.next_below(200)))
            })
            .collect();
        tb.process_tc(NodeId(orig), 1, 1, &adv, now, t_hold, |_, _| {});
    }
    (nt, tb, now)
}

fn bench_route_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_cache");
    group.sample_size(10);
    let (nt, mut tb, now) = mobile_node_tables();
    let query_at = now + SimDuration::from_secs(1);
    group.bench_function("shared_mobile_node/recompute", |b| {
        recompute_each_query(b, &nt, &tb, query_at)
    });
    group.bench_function("shared_mobile_node/window_hit", |b| {
        cached_query(b, &nt, &tb, query_at)
    });
    group.bench_function("shared_mobile_node/radius_hit", |b| {
        radius_hit(b, &nt, &mut tb, query_at)
    });
    group.bench_function("shared_mobile_node/cut_hit", |b| {
        cut_hit(b, &nt, &mut tb, query_at)
    });
    for n in [1000u32, 4000] {
        let (nt, tb, now) = primed_tables(n, 10);
        let query_at = now + SimDuration::from_secs(1);
        group.bench_with_input(BenchmarkId::new("recompute_every_query", n), &n, |b, _| {
            recompute_each_query(b, &nt, &tb, query_at)
        });
        group.bench_with_input(BenchmarkId::new("cached_query", n), &n, |b, _| {
            cached_query(b, &nt, &tb, query_at)
        });
    }
    group.finish();
}

/// Times route queries that each follow an invalidation, as after a
/// change to the symmetric-neighbor set: every one is a full recompute.
/// Asserts that every query did recompute.
fn recompute_each_query(
    b: &mut Bencher,
    nt: &NeighborTables,
    tb: &SharedTopology,
    query_at: SimTime,
) {
    let mut cache = RouteCache::new();
    let mut queries = 0;
    b.iter(|| {
        queries += 1;
        cache.invalidate();
        cache.ensure(NodeId(0), nt, tb, query_at);
        black_box(cache.route_count())
    });
    assert_eq!(cache.counters(), (queries, 0), "every query recomputes");
}

/// Times point queries for a neighbor after a TC far out changed the
/// topology: the farthest destination's originator starts advertising an
/// id nobody reached, which narrows the cache's exact radius to that
/// destination's hop count, and the near queries are served without a
/// BFS. Asserts that every timed query hit, and that the full table
/// then recomputes to the changed topology.
fn radius_hit(b: &mut Bencher, nt: &NeighborTables, tb: &mut SharedTopology, query_at: SimTime) {
    let mut cache = RouteCache::new();
    cache.ensure(NodeId(0), nt, tb, query_at);
    let far = cache
        .entries()
        .max_by_key(|e| e.hops)
        .expect("a reached destination");
    assert!(far.hops >= 3, "the change lies far out");
    let unreached = NodeId(MOBILE_IDS as u32 + 1);
    let mut adv = vec![(unreached, LinkQos::uniform(1))];
    adv.extend(
        tb.links(query_at)
            .iter()
            .filter(|l| l.0 == far.dest)
            .map(|l| (l.1, l.2)),
    );
    let hold = query_at + SimDuration::from_secs(15);
    tb.process_tc(far.dest, 9, 9, &adv, query_at, hold, |id, inserted| {
        cache.link_changed(far.dest, id, inserted)
    });
    let mut queries = 0;
    b.iter(|| {
        queries += 1;
        black_box(cache.route_to(NodeId(0), nt, tb, NodeId(1), query_at))
    });
    assert_eq!(cache.counters(), (1, queries), "every near query hits");
    cache.ensure(NodeId(0), nt, tb, query_at);
    assert_eq!(cache.counters(), (2, queries), "the full table recomputes");
    let reached = cache.entries().find(|e| e.dest == unreached);
    assert_eq!(reached.map(|e| e.hops), Some(far.hops + 1));
}

/// Times point queries after a TC far out removed a cached tree edge:
/// every TC link between the farthest destination and the level above it
/// goes, its parent edge among them, which cuts the subtree under it.
/// The timed queries ask for the deepest destination outside that
/// subtree, walking its whole tree path past the cut. Asserts that every
/// timed query hit, and that a query into the subtree recomputes.
fn cut_hit(b: &mut Bencher, nt: &NeighborTables, tb: &mut SharedTopology, query_at: SimTime) {
    let mut cache = RouteCache::new();
    cache.ensure(NodeId(0), nt, tb, query_at);
    let far = cache
        .entries()
        .max_by_key(|e| e.hops)
        .expect("a reached destination");
    assert!(far.hops >= 3, "the cut lies far out");
    // `far` is the deepest destination, so its subtree is `far` alone.
    let outside = cache
        .entries()
        .filter(|e| e.dest != far.dest)
        .max_by_key(|e| e.hops)
        .expect("another destination");
    let above = |id: NodeId| {
        cache
            .entries()
            .any(|e| e.dest == id && e.hops + 1 == far.hops)
    };
    let links = tb.links(query_at);
    let cut: Vec<bool> = links
        .iter()
        .map(|&(a, b, _)| (b == far.dest && above(a)) || (a == far.dest && above(b)))
        .collect();
    let mut origs: Vec<NodeId> = (0..links.len())
        .filter(|&i| cut[i])
        .map(|i| links[i].0)
        .collect();
    origs.dedup();
    let hold = query_at + SimDuration::from_secs(15);
    for orig in origs {
        let adv: Vec<(NodeId, LinkQos)> = (0..links.len())
            .filter(|&i| links[i].0 == orig && !cut[i])
            .map(|i| (links[i].1, links[i].2))
            .collect();
        tb.process_tc(orig, 10, 10, &adv, query_at, hold, |id, inserted| {
            cache.link_changed(orig, id, inserted)
        });
    }
    let mut queries = 0;
    b.iter(|| {
        queries += 1;
        black_box(cache.route_to(NodeId(0), nt, tb, outside.dest, query_at))
    });
    assert_eq!(
        cache.counters(),
        (1, queries),
        "every query outside the cut hits"
    );
    let moved = cache.route_to(NodeId(0), nt, tb, far.dest, query_at);
    assert_eq!(
        cache.counters(),
        (2, queries),
        "a query into the cut recomputes"
    );
    assert_ne!(moved, Some(far), "the cut route moved");
}

/// Times route queries inside the cached table's validity window.
/// Asserts that every timed query was a hit.
fn cached_query(b: &mut Bencher, nt: &NeighborTables, tb: &SharedTopology, query_at: SimTime) {
    let mut cache = RouteCache::new();
    cache.ensure(NodeId(0), nt, tb, query_at);
    let mut queries = 0;
    b.iter(|| {
        queries += 1;
        cache.ensure(NodeId(0), nt, tb, query_at);
        black_box(cache.route_count())
    });
    assert_eq!(cache.counters(), (1, queries), "every query hits");
}

fn bench_table_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_integration");
    // HELLO integration: steady-state refresh from a 30-neighbor sender.
    let hello = Hello {
        neighbors: (0..30)
            .map(|i| HelloNeighbor {
                id: NodeId(i),
                state: LinkState::Symmetric,
                qos: LinkQos::uniform(u64::from(i) + 1),
            })
            .collect(),
    };
    group.bench_function("process_hello_30_neighbors", |b| {
        let mut nt = NeighborTables::new();
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_micros(10);
            black_box(nt.process_hello(
                NodeId(0),
                NodeId(31),
                LinkQos::uniform(5),
                &hello,
                now,
                now + SimDuration::from_secs(6),
                SensingParams::default(),
                |_| {},
            ))
        });
    });
    // TC integration: steady-state refresh of a 10-link advertised set.
    let advertised: Vec<(NodeId, LinkQos)> = (0..10)
        .map(|i| (NodeId(i), LinkQos::uniform(u64::from(i) + 1)))
        .collect();
    group.bench_function("process_tc_10_advertised", |b| {
        let mut tb = SharedTopology::new(SharedLinkStore::new());
        let mut now = SimTime::ZERO;
        let mut ansn = 0u16;
        b.iter(|| {
            now += SimDuration::from_micros(10);
            ansn = ansn.wrapping_add(1);
            black_box(tb.process_tc(
                NodeId(42),
                ansn,
                ansn,
                &advertised,
                now,
                now + SimDuration::from_secs(15),
                |_, _| {},
            ))
        });
    });
    group.finish();
}

/// The TC receive path's per-originator lookups at `flood-1000`'s
/// scale: 1000 bases on one seeded store, each holding all 1000
/// originators. Each iteration visits every base once, round-robin,
/// asking each about another originator, so every lookup starts on
/// cache lines the other bases' lookups evicted — as on the live
/// receive path, where consecutive deliveries go to different nodes.
/// Times are per 1000 lookups.
fn bench_topology_lookup(c: &mut Criterion) {
    const N: u32 = 1000;
    let mut group = c.benchmark_group("topology_lookup");
    group.sample_size(10);
    let now = SimTime::ZERO;
    let hold = now + SimDuration::from_secs(15);
    let store = SharedLinkStore::seeded(N as usize);
    let sets: Vec<Vec<(NodeId, LinkQos)>> = (0..N)
        .map(|o| {
            vec![
                (NodeId((o + 1) % N), LinkQos::uniform(3)),
                (NodeId((o + 2) % N), LinkQos::uniform(5)),
            ]
        })
        .collect();
    let mut bases: Vec<SharedTopology> =
        (0..N).map(|_| SharedTopology::new(store.clone())).collect();
    for base in &mut bases {
        for (o, set) in sets.iter().enumerate() {
            base.process_tc(NodeId(o as u32), 1, 1, set, now, hold, |_, _| {});
        }
    }
    // The originator base `i` is asked about in round `round`: 617 is
    // coprime to N, so one round asks every base about another one.
    let orig = |i: usize, round: u32| (i as u32 * 617 + round) % N;
    group.bench_function("accepts_ansn_1000_bases_round_robin", |b| {
        let mut round = 0;
        b.iter(|| {
            round += 1;
            bases
                .iter()
                .enumerate()
                .filter(|&(i, base)| base.accepts_ansn(NodeId(orig(i, round)), 1, now))
                .count()
        });
    });
    group.bench_function("process_tc_refresh_1000_bases_round_robin", |b| {
        let mut round = 0;
        b.iter(|| {
            round += 1;
            bases
                .iter_mut()
                .enumerate()
                .map(|(i, base)| {
                    let o = orig(i, round);
                    let set = &sets[o as usize];
                    usize::from(base.process_tc(NodeId(o), 1, 1, set, now, hold, |_, _| {}))
                })
                .sum::<usize>()
        });
    });
    group.finish();
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
struct BenchEvent {
    time: u64,
    seq: u64,
}

impl QueueItem for BenchEvent {
    fn due_micros(&self) -> u64 {
        self.time
    }
}

/// An event as wide as the engine's `Scheduled<Bytes>` (64 bytes), so
/// the queues move as many bytes per push and pop as the engine's do.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
struct WideEvent {
    time: u64,
    seq: u64,
    payload: [u64; 6],
}

impl WideEvent {
    fn new(time: u64, seq: u64) -> Self {
        Self {
            time,
            seq,
            payload: [seq; 6],
        }
    }
}

impl QueueItem for WideEvent {
    fn due_micros(&self) -> u64 {
        self.time
    }
}

/// A queue the scheduler bench can time: the engine's [`TimerWheel`],
/// or a plain binary heap — the baseline the wheel replaced, kept here
/// so the wheel's advantage stays measurable.
trait BenchQueue<T>: Default {
    fn push(&mut self, ev: T);
    fn pop(&mut self) -> Option<T>;
    /// Pops the smallest event if it is due at or before `last`.
    fn pop_due_by(&mut self, last: u64) -> Option<T>;
}

impl<T: QueueItem> BenchQueue<T> for TimerWheel<T> {
    fn push(&mut self, ev: T) {
        TimerWheel::push(self, ev);
    }

    fn pop(&mut self) -> Option<T> {
        TimerWheel::pop(self)
    }

    fn pop_due_by(&mut self, last: u64) -> Option<T> {
        TimerWheel::pop_due_by(self, last)
    }
}

impl<T: QueueItem> BenchQueue<T> for BinaryHeap<Reverse<T>> {
    fn push(&mut self, ev: T) {
        BinaryHeap::push(self, Reverse(ev));
    }

    fn pop(&mut self) -> Option<T> {
        BinaryHeap::pop(self).map(|Reverse(ev)| ev)
    }

    fn pop_due_by(&mut self, last: u64) -> Option<T> {
        match self.peek() {
            Some(Reverse(ev)) if ev.due_micros() <= last => BenchQueue::pop(self),
            _ => None,
        }
    }
}

/// A HELLO/TC-like mix: per pop, re-arm a periodic timer (2 s or 5 s
/// ahead) and push a burst of deliveries (1 ms ahead), mirroring the
/// engine's event profile during a live-protocol run. Returns the pops.
fn hello_tc_mix<Q: BenchQueue<BenchEvent>>() -> u64 {
    let mut q = Q::default();
    let mut seq = 0u64;
    for i in 0..1000u64 {
        q.push(BenchEvent {
            time: i * 2_000,
            seq,
        });
        seq += 1;
    }
    let mut popped = 0u64;
    for _ in 0..20_000 {
        let ev = q.pop().expect("queue stays loaded");
        popped += 1;
        // Re-arm: alternate HELLO (2 s) / TC (5 s).
        let period = if ev.seq.is_multiple_of(5) {
            5_000_000
        } else {
            2_000_000
        };
        q.push(BenchEvent {
            time: ev.time + period,
            seq,
        });
        seq += 1;
        // Delivery fan-out: three frames 1 ms out.
        for k in 0..3 {
            q.push(BenchEvent {
                time: ev.time + 1_000 + k,
                seq,
            });
            seq += 1;
        }
        // Drain the deliveries to keep the queue bounded.
        for _ in 0..3 {
            q.pop();
            popped += 1;
        }
    }
    popped
}

/// The engine's window/barrier loop on a 1 ms radio: each window pops
/// every event due within 1 ms of its first, then the barrier pushes
/// the deliveries of every tenth event (by sequence number), 10 each,
/// 1 ms after their sender's event, in the ascending `(time, seq)`
/// order the barrier commits in. One delivery in each burst sends
/// again, so each window carries about as many events as the first
/// (1000). Returns the pop count and a hash of the pop sequence.
fn window_barrier<Q: BenchQueue<WideEvent>>() -> (u64, u64) {
    const LATENCY: u64 = 1_000;
    const FANOUT: u64 = 10;
    let mut q = Q::default();
    let mut seq = 0u64;
    for i in 0..1_000u64 {
        q.push(WideEvent::new(i, seq));
        seq += 1;
    }
    let mut window = Vec::new();
    let (mut pops, mut hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..100 {
        let Some(first) = q.pop() else { break };
        let last = first.time + LATENCY - 1;
        window.push(first);
        while let Some(ev) = q.pop_due_by(last) {
            window.push(ev);
        }
        for ev in window.drain(..) {
            pops += 1;
            hash = (hash ^ ev.time ^ ev.seq.rotate_left(32)).wrapping_mul(0x100_0000_01b3);
            if ev.seq.is_multiple_of(FANOUT) {
                for _ in 0..FANOUT {
                    q.push(WideEvent::new(ev.time + LATENCY, seq));
                    seq += 1;
                }
            }
        }
    }
    (pops, hash)
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.bench_function(BenchmarkId::new("hello_tc_mix_n1000", "wheel"), |b| {
        b.iter(|| black_box(hello_tc_mix::<TimerWheel<BenchEvent>>()))
    });
    group.bench_function(BenchmarkId::new("hello_tc_mix_n1000", "heap"), |b| {
        b.iter(|| black_box(hello_tc_mix::<BinaryHeap<Reverse<BenchEvent>>>()))
    });
    let wheel = window_barrier::<TimerWheel<WideEvent>>();
    let heap = window_barrier::<BinaryHeap<Reverse<WideEvent>>>();
    assert_eq!(wheel, heap, "the wheel pops the heap's sequence");
    group.bench_function(BenchmarkId::new("window_barrier_n1000", "wheel"), |b| {
        b.iter(|| black_box(window_barrier::<TimerWheel<WideEvent>>()))
    });
    group.bench_function(BenchmarkId::new("window_barrier_n1000", "heap"), |b| {
        b.iter(|| black_box(window_barrier::<BinaryHeap<Reverse<WideEvent>>>()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_network_convergence,
    bench_wire_codec,
    bench_compute_routes,
    bench_route_cache,
    bench_table_integration,
    bench_topology_lookup,
    bench_scheduler
);
criterion_main!(benches);
