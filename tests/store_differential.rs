//! Differential suite for the shared interned link-state store: a full
//! protocol run under the default `TopologyStore::Shared` must be
//! observably indistinguishable from the per-node reference
//! formulation (`TopologyStore::PerNode`, the PR 4 tables) — identical
//! engine statistics, dispatched-event traces, protocol counters and
//! routing tables — while actually sharing sets (store dedup hits) and
//! holding strictly less resident table memory. The scripted scenario
//! includes a node power cycle, so the ANSN reboot fix is exercised at
//! network level in both formulations.

mod common;

use std::collections::BTreeMap;

use qolsr_graph::{NodeId, WorldEvent};
use qolsr_metrics::LinkQos;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{NodeStats, OlsrConfig, RouteEntry, StoreGauges, TableFootprint, TopologyStore};
use qolsr_sim::trace::TraceEvent;
use qolsr_sim::{RadioConfig, SimDuration, SimStats, SimTime};

/// Scripted churn including a power cycle of node 3 (Leave + Join), the
/// scenario the ANSN-expiry regression cares about: the rebooted node
/// re-floods from ANSN 0 and everyone must re-learn it immediately.
fn world_events() -> Vec<(SimTime, WorldEvent)> {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    vec![
        (
            at(6),
            WorldEvent::LinkDown {
                a: NodeId(1),
                b: NodeId(2),
            },
        ),
        (at(12), WorldEvent::Leave { node: NodeId(3) }),
        (at(20), WorldEvent::Join { node: NodeId(3) }),
        (
            at(22),
            WorldEvent::LinkUp {
                a: NodeId(2),
                b: NodeId(3),
                qos: LinkQos::uniform(6),
            },
        ),
    ]
}

struct RunOutcome {
    node_stats: NodeStats,
    engine: SimStats,
    trace: Vec<TraceEvent>,
    routes: Vec<BTreeMap<NodeId, RouteEntry>>,
    gauges: StoreGauges,
    footprint: TableFootprint,
    resident_entries: u64,
    resident_bytes: u64,
}

fn run_protocol(store: TopologyStore, seed: u64) -> RunOutcome {
    let topo = common::small_random_topology(17);
    let config = OlsrConfig {
        topology_store: store,
        ..OlsrConfig::default()
    };
    let mut net = OlsrNetwork::new(
        topo,
        config,
        RadioConfig {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(2),
            ..RadioConfig::default()
        },
        seed,
        |_| qolsr_proto::MprSelectorPolicy,
    );
    net.sim_mut().enable_trace(4096);
    for (t, ev) in world_events() {
        net.sim_mut().schedule_world(t, ev);
    }
    net.run_for(SimDuration::from_secs(30));
    let trace: Vec<TraceEvent> = net
        .sim()
        .trace()
        .expect("trace enabled")
        .iter()
        .copied()
        .collect();
    let routes: Vec<BTreeMap<NodeId, RouteEntry>> = net
        .world()
        .nodes()
        .map(|n| net.node(n).routes(net.now()))
        .collect();
    let (resident_entries, resident_bytes) = net.resident_memory();
    RunOutcome {
        node_stats: net.total_stats(),
        engine: net.sim().stats(),
        trace,
        routes,
        gauges: net.store_gauges(),
        footprint: net.total_footprint(),
        resident_entries,
        resident_bytes,
    }
}

/// The shared store may not change protocol behaviour at all: engine
/// stats, event traces, every node's routing table and every protocol
/// counter byte-identical to the per-node reference, across seeds.
#[test]
fn shared_store_replays_per_node_exactly() {
    for seed in [1, 7, 0x51C0_2010] {
        let shared = run_protocol(TopologyStore::Shared, seed);
        let per_node = run_protocol(TopologyStore::PerNode, seed);
        assert_eq!(
            shared.engine, per_node.engine,
            "engine stats diverge (seed {seed})"
        );
        assert_eq!(
            shared.trace, per_node.trace,
            "event traces diverge (seed {seed})"
        );
        assert_eq!(
            shared.routes, per_node.routes,
            "routing tables diverge (seed {seed})"
        );
        assert_eq!(
            shared.node_stats, per_node.node_stats,
            "protocol counters diverge (seed {seed})"
        );
        // The store must actually be doing its job: sets interned once
        // and shared across receivers...
        assert!(
            shared.gauges.dedup_hits > shared.gauges.slots_interned,
            "most acquires should hit an existing slot (seed {seed}): {:?}",
            shared.gauges
        );
        assert_eq!(
            per_node.gauges,
            StoreGauges::default(),
            "per-node runs must not touch a store (seed {seed})"
        );
        // ...for strictly less resident table memory, with a bounded
        // entry population (overlays instead of per-receiver tuples).
        assert!(
            shared.resident_bytes < per_node.resident_bytes,
            "shared store must shrink resident bytes (seed {seed}): {} vs {}",
            shared.resident_bytes,
            per_node.resident_bytes
        );
        assert!(
            shared.resident_entries < per_node.resident_entries,
            "shared store must shrink resident entries (seed {seed}): {} vs {}",
            shared.resident_entries,
            per_node.resident_entries
        );
    }
}

/// A node that rejoins inside its home shard keeps its shared topology
/// base (and the capacity it retains): the one-shard run's per-node
/// footprint and store gauges equal the values recorded from the
/// single-queue engine, which never re-bound a rejoining node. The
/// duplicate bytes are those of the flat duplicate table. The scenario
/// power-cycles node 3.
#[test]
fn one_shard_churn_keeps_the_single_queue_footprint() {
    let footprint =
        |topology_entries, topology_bytes, duplicate_entries, duplicate_bytes| TableFootprint {
            topology_entries,
            topology_bytes,
            duplicate_entries,
            duplicate_bytes,
        };
    let gauges =
        |live_slots, resident_links, resident_bytes, dedup_hits, slots_interned| StoreGauges {
            live_slots,
            resident_links,
            resident_bytes,
            dedup_hits,
            slots_interned,
        };
    let golden = [
        (
            1,
            footprint(823, 38_416, 4292, 68_004),
            gauges(36, 65, 6308, 4087, 211),
        ),
        (
            7,
            footprint(830, 38_064, 4458, 69_768),
            gauges(36, 62, 6296, 4247, 217),
        ),
        (
            0x51C0_2010,
            footprint(825, 35_008, 4413, 68_352),
            gauges(37, 68, 6304, 4204, 217),
        ),
    ];
    for (seed, want_footprint, want_gauges) in golden {
        let run = run_protocol(TopologyStore::Shared, seed);
        assert_eq!(run.footprint, want_footprint, "seed {seed}");
        assert_eq!(run.gauges, want_gauges, "seed {seed}");
    }
}

/// Leaving nodes must not cost memory forever: with 6 of 17 nodes gone
/// for good, the end-of-run resident entries of both formulations stay
/// bounded by the live population's working set (the churn-leak fix —
/// departed originators used to pin topology rows, ANSN records and
/// duplicate lists indefinitely in every surviving node).
#[test]
fn departed_nodes_are_reclaimed_network_wide() {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    for store in [TopologyStore::Shared, TopologyStore::PerNode] {
        let run = |events: &[(SimTime, WorldEvent)]| {
            let config = OlsrConfig {
                topology_store: store,
                ..OlsrConfig::default()
            };
            let mut net = OlsrNetwork::new(
                common::small_random_topology(17),
                config,
                RadioConfig::default(),
                9,
                |_| qolsr_proto::MprSelectorPolicy,
            );
            for (t, ev) in events {
                net.sim_mut().schedule_world(*t, *ev);
            }
            net.run_for(SimDuration::from_secs(120));
            net.resident_memory()
        };
        let stable = run(&[]);
        let departures: Vec<(SimTime, WorldEvent)> = (0..6)
            .map(|i| {
                (
                    at(30 + 2 * i),
                    WorldEvent::Leave {
                        node: NodeId(i as u32),
                    },
                )
            })
            .collect();
        let churned = run(&departures);
        // 6/17 of the population left an hour (of hold times) ago; the
        // survivors' tables must have swept them out, so the churned
        // network ends *smaller* than the stable one, not larger.
        assert!(
            churned.0 < stable.0,
            "{store:?}: departed originators still resident: {} entries vs {} stable",
            churned.0,
            stable.0
        );
    }
}
