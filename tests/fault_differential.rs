//! Differential acceptance suite of the fault-injection subsystem.
//!
//! Three contracts, mirroring `phy_differential.rs`:
//!
//! 1. **Golden safety** — with every fault knob at its default
//!    (`FrameCorruption::Off`, no partitions, no crashes), the engine
//!    replays the pre-fault-subsystem build byte-for-byte: the same
//!    golden fingerprints `phy_differential.rs` pins must keep matching.
//! 2. **Shard invariance** — partitions, crash storms and frame
//!    corruption all commute with the barrier merge: shards ∈ {1, 2, 4}
//!    replay identically, including the new fault counters.
//! 3. **Recovery semantics** — a `Join` landing while a partition is
//!    active re-links correctly on heal, and corruption counters replay
//!    exactly across runs and engines.

mod common;

use std::collections::BTreeMap;

use common::{build_net, fnv1a, golden_fingerprint, Policy};
use qolsr::eval::churn::{probe_route, ProbeOutcome};
use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::{NodeId, Topology, WorldEvent};
use qolsr_metrics::LinkQos;
use qolsr_proto::network::OlsrNetwork;
use qolsr_sim::scenario::{
    CrashStorm, GaussMarkovDrift, PartitionWindow, PoissonChurn, RandomWaypoint, Scenario,
    ScenarioBuilder,
};
use qolsr_sim::{
    CorruptionParams, FrameCorruption, LossyPhy, PhyModel, RadioConfig, SimDuration, SimTime,
};

/// Renders every observable quantity of a finished run — the
/// `phy_differential.rs` renderer extended with the fault counters
/// (`partition_drops`, `corrupted_frames`, `malformed_frames`), which
/// only exist on this side of the change and therefore must stay out of
/// the shared golden renderer, `common::render_golden`.
fn render_state(net: &OlsrNetwork<Policy>) -> String {
    let routes: Vec<BTreeMap<NodeId, qolsr_proto::RouteEntry>> = net
        .world()
        .nodes()
        .map(|n| net.node(n).routes(net.now()))
        .collect();
    let e = net.engine_stats();
    let n = net.total_stats();
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
        "faults:{} {} {} {}|",
        e.partition_drops, e.corrupted_frames, e.fcs_drops, n.malformed_frames
    )
    .unwrap();
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
    s
}

fn fault_fingerprint(
    topo: &Topology,
    radio: RadioConfig,
    seed: u64,
    shards: u32,
    scenario: Option<&Scenario>,
) -> u64 {
    let mut net = build_net(topo, radio, seed, shards);
    if let Some(s) = scenario {
        net.install_scenario(s);
    }
    net.run_for(SimDuration::from_secs(40));
    fnv1a(render_state(&net).as_bytes())
}

/// The full fault battery riding on the usual dynamic world: motion,
/// churn and weight drift, plus a 10 s mid-field partition window and a
/// crash-reboot storm — everything that has to commute with the barrier
/// merge at once.
fn fault_scenario(topo: &Topology, seed: u64) -> Scenario {
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
        .with(PartitionWindow::new(
            SimDuration::from_secs(5),
            250.0,
            SimDuration::from_secs(10),
        ))
        .with(CrashStorm::new(0.8, 100_000))
        .generate(SimDuration::from_secs(30))
}

/// A radio that corrupts aggressively enough to fire on every seed: 15%
/// of delivered frames damaged, 30% of those truncations, up to 6 bit
/// flips, 5% of damaged frames slipping past the frame check — on top of
/// a harsh lossy channel so corruption draws interleave with loss draws.
/// The evasion rate is deliberately a few points above the default:
/// plenty of mangled frames still reach the receive path, but the flood
/// of freshly-minted (originator, seq) identities that decodable bit
/// flips mint stays subcritical.
fn corrupting_lossy_radio() -> RadioConfig {
    RadioConfig {
        phy: PhyModel::Lossy(LossyPhy {
            edge_drop_ppm: 600_000,
            exponent: 2,
            capture_window: SimDuration::from_micros(150),
        }),
        corruption: FrameCorruption::On(CorruptionParams {
            corrupt_ppm: 150_000,
            truncate_ppm: 300_000,
            max_bit_flips: 6,
            fcs_evade_ppm: 50_000,
        }),
        ..RadioConfig::default()
    }
}

fn corrupting_radio() -> RadioConfig {
    RadioConfig {
        corruption: FrameCorruption::On(CorruptionParams {
            corrupt_ppm: 150_000,
            truncate_ppm: 300_000,
            max_bit_flips: 6,
            fcs_evade_ppm: 50_000,
        }),
        ..RadioConfig::default()
    }
}

// ---------------------------------------------------------------------
// 1. Golden safety
// ---------------------------------------------------------------------

fn golden_dynamic_scenario(topo: &Topology, seed: u64) -> Scenario {
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

/// The same `(seed, static, dynamic)` goldens `phy_differential.rs`
/// pins — captured before the PHY landed and still binding: with the
/// fault subsystem off (the default), nothing may shift by a byte.
const GOLDENS: [(u64, u64, u64); 3] = [
    (3, 0xf161_27a6_8fa4_ac19, 0x9fa5_e66f_ce86_3805),
    (17, 0x860f_0f95_2ccc_d9bb, 0x8094_16c2_a3f6_6667),
    (0x51C0_2010, 0x6f99_c56a_cf2a_ccdb, 0x3708_6223_6872_fd9c),
];

#[test]
fn fault_free_defaults_match_pre_fault_goldens() {
    let topo = common::medium_topology(41, 7.0);
    for (seed, want_static, want_dynamic) in GOLDENS {
        assert_eq!(
            golden_fingerprint(&topo, seed, None),
            want_static,
            "static world diverged from the pre-fault-subsystem build (seed {seed})"
        );
        let scenario = golden_dynamic_scenario(&topo, seed);
        assert_eq!(
            golden_fingerprint(&topo, seed, Some(&scenario)),
            want_dynamic,
            "dynamic world diverged from the pre-fault-subsystem build (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------
// 2. Shard invariance
// ---------------------------------------------------------------------

/// Partition drops, crash reboots and frame corruption — stacked on
/// motion, churn, drift and a lossy channel — commute with the barrier
/// merge: the extended fingerprint (fault counters included) is
/// identical across shards {1, 2, 4} on three seeds.
#[test]
fn faults_and_corruption_are_shard_count_invariant() {
    let topo = common::medium_topology(41, 7.0);
    for seed in [3_u64, 17, 0x51C0_2010] {
        let scenario = fault_scenario(&topo, seed);
        let reference =
            fault_fingerprint(&topo, corrupting_lossy_radio(), seed, 1, Some(&scenario));
        for shards in [2_u32, 4] {
            assert_eq!(
                fault_fingerprint(
                    &topo,
                    corrupting_lossy_radio(),
                    seed,
                    shards,
                    Some(&scenario)
                ),
                reference,
                "fault run diverged at {shards} shards (seed {seed})"
            );
        }
    }
}

/// The fault battery must actually fire in the invariance worlds —
/// otherwise the test above proves nothing.
#[test]
fn fault_battery_fires_in_the_differential_world() {
    let topo = common::medium_topology(41, 7.0);
    let scenario = fault_scenario(&topo, 3);
    let summary = scenario.summary();
    assert!(summary.partitions == 1 && summary.heals == 1, "{summary:?}");
    assert!(summary.crashes > 0, "{summary:?}");
    let mut net = build_net(&topo, corrupting_lossy_radio(), 3, 1);
    net.install_scenario(&scenario);
    net.run_for(SimDuration::from_secs(40));
    let e = net.engine_stats();
    assert!(e.partition_drops > 0, "the partition must drop frames");
    assert!(e.corrupted_frames > 0, "the injector must corrupt frames");
    assert!(
        net.total_stats().malformed_frames > 0,
        "some corrupted frames must fail to decode"
    );
    assert!(e.deliveries > 0, "and the network must still function");
}

// ---------------------------------------------------------------------
// 3. Recovery semantics
// ---------------------------------------------------------------------

/// Runs the join-during-partition schedule on a 10-node line (cut
/// between x = 40 and x = 50): partition at 5 s, node 2 leaves at 6 s,
/// rejoins — with its radio-range links — at 8 s *while the cut is
/// active*, heal at 18 s.
fn join_during_partition_net(shards: u32) -> OlsrNetwork<Policy> {
    let topo = common::line_topology(10, 5);
    let mut net = build_net(&topo, RadioConfig::default(), 7, shards);
    let at = |secs: u64| SimTime::ZERO + SimDuration::from_secs(secs);
    let n2 = NodeId(2);
    net.schedule_world(at(5), WorldEvent::Partition { cut: 45.0 });
    net.schedule_world(at(6), WorldEvent::Leave { node: n2 });
    net.schedule_world(at(8), WorldEvent::Join { node: n2 });
    net.schedule_world(
        at(8),
        WorldEvent::LinkUp {
            a: NodeId(1),
            b: n2,
            qos: LinkQos::uniform(5),
        },
    );
    net.schedule_world(
        at(8),
        WorldEvent::LinkUp {
            a: n2,
            b: NodeId(3),
            qos: LinkQos::uniform(5),
        },
    );
    net.schedule_world(at(18), WorldEvent::Heal);
    net
}

/// A node that leaves and rejoins *during* a partition must be fully
/// re-linked on its own side while the cut is active, and end-to-end
/// routes across the healed cut must come back afterwards — identically
/// at one and at several shards.
#[test]
fn join_during_partition_relinks_on_heal() {
    let mut states = Vec::new();
    for shards in [1_u32, 2] {
        let mut net = join_during_partition_net(shards);
        // Mid-partition, after the rejoin converged: the west side routes
        // through the rejoined node, the cut still blocks cross routes.
        net.run_until(SimTime::ZERO + SimDuration::from_secs(16));
        assert_eq!(
            probe_route(&net, NodeId(0), NodeId(3)),
            ProbeOutcome::Delivered(3),
            "west side must route through the rejoined node mid-partition \
             (shards={shards})"
        );
        assert_eq!(
            probe_route(&net, NodeId(0), NodeId(9)),
            ProbeOutcome::Dropped,
            "the active cut must block cross-partition routes (shards={shards})"
        );
        // Well after the heal: the full line is routable again.
        net.run_until(SimTime::ZERO + SimDuration::from_secs(45));
        assert_eq!(
            probe_route(&net, NodeId(0), NodeId(9)),
            ProbeOutcome::Delivered(9),
            "the healed network must recover end-to-end routes (shards={shards})"
        );
        assert!(
            net.engine_stats().partition_drops > 0,
            "the cut must have dropped frames (shards={shards})"
        );
        states.push(render_state(&net));
    }
    assert_eq!(
        states[0], states[1],
        "join-during-partition recovery diverged between engines"
    );
}

/// Corruption bookkeeping replays exactly: equal seeds produce equal
/// `corrupted_frames` / `malformed_frames` counts, on either engine.
#[test]
fn corruption_counters_replay_exactly() {
    let topo = common::medium_topology(41, 7.0);
    let counters = |shards: u32| {
        let mut net = build_net(&topo, corrupting_radio(), 17, shards);
        net.run_for(SimDuration::from_secs(40));
        (
            net.engine_stats().corrupted_frames,
            net.total_stats().malformed_frames,
        )
    };
    let (corrupted, malformed) = counters(1);
    assert!(corrupted > 0, "the injector must fire at 15% corrupt rate");
    assert!(malformed > 0, "some damaged frames must fail to decode");
    assert_eq!(counters(1), (corrupted, malformed), "same-seed replay");
    assert_eq!(counters(2), (corrupted, malformed), "sharded replay");
    assert_eq!(counters(4), (corrupted, malformed), "4-shard replay");
}
