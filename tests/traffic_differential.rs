//! Differential acceptance suite of the data-plane traffic engine.
//!
//! Three contracts, mirroring `fault_differential.rs`:
//!
//! 1. **Golden safety** — with no flows installed, the engine replays
//!    the pre-data-plane build byte-for-byte: the same golden
//!    fingerprints `fault_differential.rs` pins must keep matching.
//! 2. **Shard invariance** — flow arrivals, queue service draws and
//!    per-hop forwarding all commute with the barrier merge: shards
//!    ∈ {1, 2, 4} replay identically,
//!    including the traffic counters, the per-flow delivery records and
//!    the event trace, under traffic + churn + loss at once.
//! 3. **Replay exactness** — equal seeds reproduce the full data-plane
//!    ledger (injected / delivered / every drop cause) bit-for-bit.

mod common;

use std::collections::BTreeMap;

use common::{build_net, fnv1a, golden_fingerprint, Policy};
use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::{NodeId, Topology};
use qolsr_proto::network::OlsrNetwork;
use qolsr_sim::scenario::{
    GaussMarkovDrift, PoissonChurn, RandomWaypoint, Scenario, ScenarioBuilder,
};
use qolsr_sim::{FlowModel, FlowSpec, LossyPhy, PhyModel, RadioConfig, SimDuration, SimTime};

/// A harsh-but-livable lossy channel so loss draws interleave with the
/// data-plane's arrival and service draws in the differential worlds.
fn lossy_radio() -> RadioConfig {
    RadioConfig {
        phy: PhyModel::Lossy(LossyPhy {
            edge_drop_ppm: 300_000,
            exponent: 2,
            capture_window: SimDuration::from_micros(150),
        }),
        ..RadioConfig::default()
    }
}

/// Motion + churn + weight drift — the same dynamic world the golden
/// suite pins, so data frames cross a network whose links keep moving.
fn dynamic_scenario(topo: &Topology, seed: u64) -> Scenario {
    let weights = UniformWeights::new(1, 100);
    ScenarioBuilder::new(topo, seed)
        .with(RandomWaypoint::new(
            (500.0, 500.0),
            SimDuration::from_secs(1),
            (2.0, 10.0),
            SimDuration::from_secs(3),
            weights,
        ))
        .with(PoissonChurn::new(0.15, SimDuration::from_secs(6), weights))
        .with(GaussMarkovDrift::new(
            SimDuration::from_secs(2),
            0.8,
            (1, 100),
            6.0,
        ))
        .generate(SimDuration::from_secs(30))
}

/// A mixed CBR + bursty-video flow set between fixed endpoints of the
/// 41-node differential field, starting after the control plane has had
/// time to converge.
fn differential_flows(topo: &Topology) -> Vec<FlowSpec> {
    let n = topo.len() as u32;
    let start = SimTime::ZERO + SimDuration::from_secs(8);
    (0..10u16)
        .map(|i| FlowSpec {
            id: i,
            src: NodeId(u32::from(i) % n),
            dst: NodeId(n - 1 - (u32::from(i) % n)),
            model: if i % 2 == 0 {
                FlowModel::Cbr {
                    interval: SimDuration::from_millis(150),
                }
            } else {
                FlowModel::BurstyVideo {
                    frame_interval: SimDuration::from_millis(400),
                    min_burst: 2,
                    max_burst: 5,
                }
            },
            payload: 256,
            start,
        })
        .collect()
}

/// Renders every observable quantity of a finished run — the
/// `fault_differential.rs` renderer extended with the data-plane ledger:
/// engine data counters, the aggregate [`TrafficStats`], residual queue
/// occupancy, the per-flow delivery records (delay sums, jitter, hop
/// counts, delay histogram) and the event trace. Any divergence in any
/// of them across shard counts changes the fingerprint.
fn render_state(net: &OlsrNetwork<Policy>) -> String {
    let routes: Vec<BTreeMap<NodeId, qolsr_proto::RouteEntry>> = net
        .world()
        .nodes()
        .map(|n| net.node(n).routes(net.now()))
        .collect();
    let e = net.engine_stats();
    let n = net.total_stats();
    let t = net.total_traffic();
    let mut s = String::new();
    use std::fmt::Write as _;
    write!(
        s,
        "engine:{} {} {} {} {} {} {} {} {} {}|",
        e.events,
        e.broadcasts,
        e.unicasts,
        e.deliveries,
        e.dropped_unicasts,
        e.timers,
        e.world_changes,
        e.stale_dropped,
        e.phy_drops,
        e.collisions,
    )
    .unwrap();
    write!(
        s,
        "data:{} {} {} {} {} {} {} {}|",
        e.data_unicasts,
        e.data_deliveries,
        e.data_no_link_drops,
        e.data_phy_drops,
        e.data_fcs_drops,
        e.data_partition_drops,
        e.data_collisions,
        e.data_stale_drops,
    )
    .unwrap();
    write!(
        s,
        "traffic:{} {} {} {} {} {} {} {} {} {}|",
        t.injected,
        t.delivered,
        t.forwarded,
        t.data_tx,
        t.data_rx,
        t.data_bytes_sent,
        t.drop_no_route,
        t.drop_queue_full,
        t.drop_ttl_expired,
        t.drop_queue_wiped,
    )
    .unwrap();
    write!(s, "queued:{}|", net.queued_data()).unwrap();
    write!(s, "flows:").unwrap();
    for (id, rec) in net.flow_records() {
        write!(
            s,
            "{}={{{} {} {} {} {} {} {} {:?}}};",
            id,
            rec.delivered,
            rec.delay_sum_us,
            rec.delay_max_us,
            rec.last_delay_us,
            rec.jitter_sum_us,
            rec.jitter_samples,
            rec.hops_sum,
            rec.delay_hist,
        )
        .unwrap();
    }
    write!(s, "|").unwrap();
    write!(
        s,
        "nodes:{} {} {} {} {} {} {} {} {} {} {}|",
        n.hello_sent,
        n.tc_sent,
        n.tc_forwarded,
        n.hello_received,
        n.tc_received,
        n.bytes_sent,
        n.decode_errors,
        n.routes_recomputed,
        n.route_cache_hits,
        n.dup_peek_hits,
        n.bytes_decoded,
    )
    .unwrap();
    write!(
        s,
        "world:{} {} {}|",
        net.world().epoch(),
        net.world().link_count(),
        net.world().active_count()
    )
    .unwrap();
    write!(s, "adv:{:?}|", net.advertised_topology()).unwrap();
    write!(s, "routes:{routes:?}|").unwrap();
    if let Some(trace) = net.trace() {
        write!(s, "trace:{}:", trace.total_recorded()).unwrap();
        for te in trace.iter() {
            write!(s, "{te:?};").unwrap();
        }
    }
    s
}

/// One full differential run: traffic + churn + loss over 40 s, with the
/// event trace recording so reordered deliveries cannot hide.
fn traffic_fingerprint(topo: &Topology, seed: u64, shards: u32) -> u64 {
    let mut net = build_net(topo, lossy_radio(), seed, shards);
    net.enable_trace(1 << 16);
    let scenario = dynamic_scenario(topo, seed);
    net.install_scenario(&scenario);
    net.install_flows(&differential_flows(topo), seed ^ 0xF10A_5EED);
    net.run_for(SimDuration::from_secs(40));
    fnv1a(render_state(&net).as_bytes())
}

// ---------------------------------------------------------------------
// 1. Golden safety
// ---------------------------------------------------------------------

fn golden_dynamic_scenario(topo: &Topology, seed: u64) -> Scenario {
    dynamic_scenario(topo, seed)
}

/// The same `(seed, static, dynamic)` goldens `fault_differential.rs`
/// pins — captured before the PHY landed and still binding: with no
/// flows installed, nothing may shift by a byte.
const GOLDENS: [(u64, u64, u64); 3] = [
    (3, 0xf161_27a6_8fa4_ac19, 0x9fa5_e66f_ce86_3805),
    (17, 0x860f_0f95_2ccc_d9bb, 0x8094_16c2_a3f6_6667),
    (0x51C0_2010, 0x6f99_c56a_cf2a_ccdb, 0x3708_6223_6872_fd9c),
];

#[test]
fn zero_flow_runs_match_pre_data_plane_goldens() {
    let topo = common::medium_topology(41, 7.0);
    for (seed, want_static, want_dynamic) in GOLDENS {
        assert_eq!(
            golden_fingerprint(&topo, seed, None),
            want_static,
            "static world diverged from the pre-data-plane build (seed {seed})"
        );
        let scenario = golden_dynamic_scenario(&topo, seed);
        assert_eq!(
            golden_fingerprint(&topo, seed, Some(&scenario)),
            want_dynamic,
            "dynamic world diverged from the pre-data-plane build (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------
// 2. Shard invariance
// ---------------------------------------------------------------------

/// Seeded flows, bounded queues and per-hop forwarding — stacked on
/// motion, churn, drift and a lossy channel — commute with the barrier
/// merge: the extended fingerprint (traffic ledger, per-flow records and
/// event trace included) is identical across shards {1, 2, 4} on three
/// seeds.
#[test]
fn traffic_runs_are_shard_count_invariant() {
    let topo = common::medium_topology(41, 7.0);
    for seed in [3_u64, 17, 0x51C0_2010] {
        let reference = traffic_fingerprint(&topo, seed, 1);
        for shards in [2_u32, 4] {
            assert_eq!(
                traffic_fingerprint(&topo, seed, shards),
                reference,
                "traffic run diverged at {shards} shards (seed {seed})"
            );
        }
    }
}

/// The data plane must actually exercise every interesting path in the
/// invariance worlds — otherwise the test above proves nothing.
#[test]
fn traffic_actually_flows_in_the_differential_world() {
    let topo = common::medium_topology(41, 7.0);
    let mut net = build_net(&topo, lossy_radio(), 3, 1);
    let scenario = dynamic_scenario(&topo, 3);
    net.install_scenario(&scenario);
    net.install_flows(&differential_flows(&topo), 3 ^ 0xF10A_5EED);
    net.run_for(SimDuration::from_secs(40));
    let t = net.total_traffic();
    let e = net.engine_stats();
    assert!(t.injected > 0, "flows must inject packets");
    assert!(t.delivered > 0, "some packets must reach their destination");
    assert!(t.forwarded > 0, "some deliveries must cross a relay");
    assert!(
        t.drops() > 0 || e.data_phy_drops > 0,
        "the lossy dynamic world must cost the data plane something"
    );
    assert!(e.data_unicasts > 0, "data frames must hit the radio path");
    let records = net.flow_records();
    assert!(
        records.values().any(|r| r.delivered > 0),
        "per-flow records must register deliveries"
    );
}

// ---------------------------------------------------------------------
// 3. Replay exactness
// ---------------------------------------------------------------------

/// The full data-plane ledger replays exactly: equal seeds reproduce the
/// same injected/delivered/drop-cause counts and per-flow delay sums on
/// either engine — no hidden nondeterminism in arrival or service draws.
#[test]
fn traffic_ledger_replays_exactly() {
    let topo = common::medium_topology(41, 7.0);
    let ledger = |shards: u32| {
        let mut net = build_net(&topo, lossy_radio(), 17, shards);
        let scenario = dynamic_scenario(&topo, 17);
        net.install_scenario(&scenario);
        net.install_flows(&differential_flows(&topo), 17 ^ 0xF10A_5EED);
        net.run_for(SimDuration::from_secs(40));
        let t = net.total_traffic();
        let delay_sums: Vec<(u16, u64, u64)> = net
            .flow_records()
            .iter()
            .map(|(id, r)| (*id, r.delivered, r.delay_sum_us))
            .collect();
        (
            t.injected,
            t.delivered,
            t.drop_no_route,
            t.drop_queue_full,
            t.drop_ttl_expired,
            t.drop_queue_wiped,
            net.queued_data(),
            delay_sums,
        )
    };
    let reference = ledger(1);
    assert!(reference.0 > 0, "the replay world must carry traffic");
    assert_eq!(ledger(1), reference, "same-seed replay");
    assert_eq!(ledger(2), reference, "sharded replay");
    assert_eq!(ledger(4), reference, "4-shard replay");
}
