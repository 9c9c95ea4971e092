//! Differential suite for the shared interned link-state store: a full
//! protocol run must replay the run recorded from the per-node topology
//! tables the store replaced — identical engine statistics,
//! dispatched-event traces, protocol counters but the route cache's own,
//! and routing tables at the end and after every simulated second —
//! while actually sharing sets
//! (store dedup hits) and holding strictly less resident table memory
//! than the per-node tables did. The
//! scripted scenario includes a node power cycle, so the ANSN reboot
//! fix is exercised at network level.

mod common;

use std::fmt::Write as _;

use qolsr_graph::{NodeId, WorldEvent};
use qolsr_metrics::LinkQos;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{OlsrConfig, StoreGauges, TableFootprint};
use qolsr_sim::{RadioConfig, SimDuration, SimTime};

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
    /// `common::behaviour_hash` of the finished run.
    behaviour: u64,
    /// `common::fnv1a` of every node's routing table, sampled after each
    /// simulated second: a route cache that misses an invalidation
    /// serves a stale table at some sample.
    route_samples: u64,
    gauges: StoreGauges,
    footprint: TableFootprint,
    resident_entries: u64,
    resident_bytes: u64,
}

fn run_protocol(seed: u64) -> RunOutcome {
    let topo = common::small_random_topology(17);
    let mut net = OlsrNetwork::new(
        topo,
        OlsrConfig::default(),
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
    let mut samples = String::new();
    for _ in 0..30 {
        net.run_for(SimDuration::from_secs(1));
        for n in net.world().nodes() {
            write!(samples, "{:?};", net.node(n).routes(net.now())).unwrap();
        }
    }
    let (resident_entries, resident_bytes) = net.resident_memory();
    RunOutcome {
        behaviour: common::behaviour_hash(&net),
        route_samples: common::fnv1a(samples.as_bytes()),
        gauges: net.store_gauges(),
        footprint: net.total_footprint(),
        resident_entries,
        resident_bytes,
    }
}

/// `(seed, behaviour hash, route samples, resident entries, resident
/// bytes)` of [`run_protocol`] over the per-node topology tables, where
/// every node kept every originator's advertised set privately.
/// Recorded at f0b9e42, the last commit with those tables, where this
/// test still ran both formulations live and found them equal; the
/// behaviour hashes at acb1f24, whose unmasked fingerprints still
/// equalled f0b9e42's, so that route-cache efficiency counters may move.
const PER_NODE_GOLDENS: [(u64, u64, u64, u64, u64); 3] = [
    (
        1,
        0x7fb2_fdf8_9ce8_e1ac,
        0x2336_ad0c_7acc_f519,
        6006,
        211_668,
    ),
    (
        7,
        0x1685_a159_6220_adc0,
        0x1e47_4a37_7ccd_bbb2,
        6116,
        218_568,
    ),
    (
        0x51C0_2010,
        0xde57_fe6f_ccd5_137b,
        0xe26f_58fe_8e02_c0e1,
        6033,
        204_368,
    ),
];

/// The shared store may not change protocol behaviour at all: engine
/// stats, event traces, every node's routing table — at the end and
/// after every simulated second — and every protocol counter but the
/// route cache's hit and recompute counts replay the per-node tables'
/// recorded run, across seeds.
#[test]
fn shared_store_replays_per_node_exactly() {
    for (seed, per_node, per_node_samples, per_node_entries, per_node_bytes) in PER_NODE_GOLDENS {
        let shared = run_protocol(seed);
        assert_eq!(
            shared.behaviour, per_node,
            "shared run diverges from the recorded per-node run (seed {seed})"
        );
        assert_eq!(
            shared.route_samples, per_node_samples,
            "mid-run routing tables diverge from the recorded per-node run (seed {seed})"
        );
        // The store must actually be doing its job: sets interned once
        // and shared across receivers...
        assert!(
            shared.gauges.dedup_hits > shared.gauges.slots_interned,
            "most acquires should hit an existing slot (seed {seed}): {:?}",
            shared.gauges
        );
        // ...for strictly less resident table memory, with a bounded
        // entry population (overlays instead of per-receiver tuples).
        assert!(
            shared.resident_bytes < per_node_bytes,
            "shared store must shrink resident bytes (seed {seed}): {} vs {per_node_bytes}",
            shared.resident_bytes,
        );
        assert!(
            shared.resident_entries < per_node_entries,
            "shared store must shrink resident entries (seed {seed}): {} vs {per_node_entries}",
            shared.resident_entries,
        );
    }
}

/// A node that rejoins inside its home shard keeps its shared topology
/// base (and the capacity it retains): the one-shard run's per-node
/// footprint and store gauges equal the values recorded from the
/// single-queue engine, which never re-bound a rejoining node. The
/// duplicate bytes are those of the flat duplicate table, the topology
/// bytes those of the overlay arrays indexed by the store's seeded
/// originator numbering, and the store's resident bytes those of its
/// seeded numbering. The scenario power-cycles node 3.
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
            footprint(823, 35_264, 4292, 68_004),
            gauges(36, 65, 5636, 4087, 211),
        ),
        (
            7,
            footprint(830, 34_880, 4458, 69_768),
            gauges(36, 62, 5624, 4247, 217),
        ),
        (
            0x51C0_2010,
            footprint(825, 30_976, 4413, 68_352),
            gauges(37, 68, 5632, 4204, 217),
        ),
    ];
    for (seed, want_footprint, want_gauges) in golden {
        let run = run_protocol(seed);
        assert_eq!(run.footprint, want_footprint, "seed {seed}");
        assert_eq!(run.gauges, want_gauges, "seed {seed}");
    }
}

/// Leaving nodes must not cost memory forever: with 6 of 17 nodes gone
/// for good, the end-of-run resident entries stay bounded by the live
/// population's working set (the churn-leak fix — departed originators
/// used to pin topology rows, ANSN records and duplicate lists
/// indefinitely in every surviving node).
#[test]
fn departed_nodes_are_reclaimed_network_wide() {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let run = |events: &[(SimTime, WorldEvent)]| {
        let mut net = OlsrNetwork::new(
            common::small_random_topology(17),
            OlsrConfig::default(),
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
        "departed originators still resident: {} entries vs {} stable",
        churned.0,
        stable.0
    );
}
