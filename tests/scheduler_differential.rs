//! Cross-crate differential suites for the allocation-lean hot path:
//!
//! * **timer wheel ≡ binary heap** — a full OLSR protocol run (HELLO/TC
//!   exchange, MPR flooding, scheduled world events, rejoin resets) on
//!   the timer wheel must replay the end state recorded from the
//!   binary-heap scheduler: engine statistics, event traces, protocol
//!   counters and routing tables;
//! * **route cache ≡ from-scratch recompute** — during a live dynamic
//!   run, every node's cached `routes()` must equal the reference
//!   recomputation at every sampled instant.

mod common;

use qolsr_graph::{NodeId, WorldEvent};
use qolsr_metrics::LinkQos;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{MprSelectorPolicy, OlsrConfig};
use qolsr_sim::{RadioConfig, SimDuration, SimTime};

/// Scripted world events exercising link churn, QoS drift and a node
/// power cycle, all within and beyond the wheel's ring horizon.
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
        (
            at(9),
            WorldEvent::QosChange {
                a: NodeId(0),
                b: NodeId(1),
                qos: LinkQos::uniform(9),
            },
        ),
        (at(12), WorldEvent::Leave { node: NodeId(3) }),
        (
            at(14),
            WorldEvent::LinkUp {
                a: NodeId(1),
                b: NodeId(2),
                qos: LinkQos::uniform(4),
            },
        ),
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

fn run_protocol(seed: u64) -> OlsrNetwork<MprSelectorPolicy> {
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
        |_| MprSelectorPolicy,
    );
    net.sim_mut().enable_trace(4096);
    for (t, ev) in world_events() {
        net.sim_mut().schedule_world(t, ev);
    }
    net.run_for(SimDuration::from_secs(35));
    net
}

/// `(seed, fingerprint)` of [`run_protocol`] under the binary-heap
/// scheduler, rendered by `common::render_golden`. Recorded at
/// f0b9e42, the last commit with a binary-heap scheduler, where this
/// test still ran both schedulers live and found them equal.
const HEAP_GOLDENS: [(u64, u64); 3] = [
    (1, 0xfc49_e8f0_3dc3_54ac),
    (7, 0x63ef_e891_6f94_bf4d),
    (0x51C0_2010, 0x634a_2e13_f3d9_e851),
];

/// The wheel must replay the heap byte for byte: engine statistics, the
/// dispatched-event trace, every node's routing table and the protocol
/// counters (including route-cache activity).
#[test]
fn timer_wheel_replays_binary_heap_exactly() {
    for (seed, heap) in HEAP_GOLDENS {
        let wheel = run_protocol(seed);
        assert_eq!(
            common::golden_hash(&wheel),
            heap,
            "wheel run diverges from the recorded heap run (seed {seed})"
        );
    }
}

/// During a live dynamic run, cached `routes()` must equal the reference
/// from-scratch recomputation at every sampled instant, on every node —
/// and repeated queries must be served from the cache.
#[test]
fn cached_routes_match_reference_during_dynamic_run() {
    let topo = common::small_random_topology(29);
    let mut net = OlsrNetwork::with_defaults(topo, 5);
    for (t, ev) in world_events() {
        net.sim_mut().schedule_world(t, ev);
    }
    for _ in 0..12 {
        net.run_for(SimDuration::from_secs(3));
        let now = net.now();
        for n in net.world().nodes() {
            let node = net.node(n);
            assert_eq!(
                node.routes(now),
                node.routes_uncached(now),
                "node {n} cache diverged at {now}"
            );
        }
    }
    let stats = net.total_stats();
    let queries = stats.routes_recomputed + stats.route_cache_hits;
    assert!(queries > 0);
    assert!(
        stats.route_cache_hits > 0,
        "quiet stretches must serve routes from cache \
         (recomputed {} of {queries})",
        stats.routes_recomputed
    );
    assert!(
        stats.routes_recomputed < queries,
        "not every query may recompute"
    );
}
