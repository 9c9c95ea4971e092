//! Differential suites for the fisheye-scoped TC dissemination and the
//! duplicate-peek decode path:
//!
//! * **uniform scoping ≡ PR 4** — the default configuration
//!   (`TcScoping::Uniform`) must replay the *golden* seeded end state
//!   captured from the pre-scoping implementation, byte for byte, at
//!   every engine shard count. The literals below were recorded from
//!   that pre-scoping build; any drift in RNG draw order (the 2 ms
//!   radio jitter included), emission cadence or table semantics trips
//!   this pin.
//! * **peek decode ≡ full decode** — for both scoping policies, a full
//!   protocol run on the header-peek receive path must replay the
//!   engine statistics, event traces, routing tables and protocol
//!   counters (minus the peek metrics, which differ by design) recorded
//!   from the full-decode receive path it replaced.
//! * **fisheye semantics** — scoped TCs really are TTL-bounded, really
//!   reduce flood traffic, and still converge network-wide routes.

mod common;

use qolsr_graph::{NodeId, Topology, WorldEvent};
use qolsr_metrics::LinkQos;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{FisheyeRing, FisheyeRings, NodeStats, OlsrConfig, TcScoping};
use qolsr_sim::{ExecMode, RadioConfig, SchedulerKind, SimDuration, SimStats, SimTime};

/// Scripted world events of the golden scenario: link churn and a node
/// power cycle, identical to what the PR 4 capture ran.
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
    route_sum: usize,
    /// `common::render_golden` of the run with the peek metrics masked
    /// (see [`mask_peek_metrics`]), hashed.
    semantic_fingerprint: u64,
}

fn run_protocol(scoping: TcScoping, seed: u64, exec: ExecMode) -> RunOutcome {
    let topo = common::small_random_topology(17);
    let config = OlsrConfig {
        tc_scoping: scoping,
        ..OlsrConfig::default()
    };
    let mut net = OlsrNetwork::with_exec(
        topo,
        config,
        RadioConfig {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(2),
            ..RadioConfig::default()
        },
        seed,
        SchedulerKind::default(),
        exec,
        |_| qolsr_proto::MprSelectorPolicy,
    );
    net.sim_mut().enable_trace(4096);
    for (t, ev) in world_events() {
        net.sim_mut().schedule_world(t, ev);
    }
    net.run_for(SimDuration::from_secs(30));
    let node_stats = net.total_stats();
    let semantic = common::render_golden(&net, mask_peek_metrics);
    let route_sum = net
        .world()
        .nodes()
        .map(|n| net.node(n).route_count(net.now()))
        .sum();
    RunOutcome {
        node_stats,
        engine: net.sim().stats(),
        route_sum,
        semantic_fingerprint: common::fnv1a(semantic.as_bytes()),
    }
}

/// Zeroes the counters that depend on the receive path *by design* (the
/// peek path's whole point is decoding less), leaving every
/// protocol-semantic counter in place for exact comparison.
fn mask_peek_metrics(s: &mut NodeStats) {
    s.dup_peek_hits = 0;
    s.bytes_decoded = 0;
}

/// Golden end states captured from the PR 4 build (pre-scoping,
/// pre-peek). Row layout: `[seed, hello_sent, tc_sent, tc_forwarded,
/// hello_received, tc_received, bytes_sent, events, broadcasts,
/// deliveries, timers, world_changes, stale_dropped, route_sum]`.
const GOLDEN: [[u64; 14]; 3] = [
    [
        1, 606, 223, 1618, 3291, 12_790, 218_260, 18_025, 2447, 16_081, 1900, 3, 3, 826,
    ],
    [
        7, 610, 229, 1733, 3291, 13_726, 224_361, 18_971, 2572, 17_017, 1910, 3, 3, 830,
    ],
    [
        0x51C0_2010,
        612,
        226,
        1616,
        3295,
        12_850,
        214_705,
        18_098,
        2454,
        16_145,
        1909,
        3,
        3,
        830,
    ],
];

/// The default configuration must replay the PR 4 golden traces byte
/// for byte at every shard count, since the engine draws the radio
/// jitter in the same global order at every shard count.
#[test]
fn uniform_scoping_replays_pr4_golden_traces() {
    let execs = [
        ExecMode::SingleShard,
        ExecMode::Sharded { shards: 1 },
        ExecMode::Sharded { shards: 2 },
        ExecMode::Sharded { shards: 4 },
    ];
    for want in &GOLDEN {
        let seed = want[0];
        for exec in execs {
            let r = run_protocol(TcScoping::Uniform, seed, exec);
            let s = r.node_stats;
            let e = r.engine;
            let got = [
                seed,
                s.hello_sent,
                s.tc_sent,
                s.tc_forwarded,
                s.hello_received,
                s.tc_received,
                s.bytes_sent,
                e.events,
                e.broadcasts,
                e.deliveries,
                e.timers,
                e.world_changes,
                e.stale_dropped,
                r.route_sum as u64,
            ];
            assert_eq!(&got, want, "golden drift (seed {seed}, {exec:?})");
            assert_eq!(s.decode_errors, 0);
            assert_eq!(
                s.tc_sent_ring, [0; 4],
                "uniform scoping uses no rings (seed {seed})"
            );
        }
    }
}

/// Per seed, `[seed, semantic fingerprint, bytes_decoded]` of the
/// full-decode receive path and `[dup_peek_hits, bytes_decoded]` of the
/// peek path, for [`run_protocol`] on one shard under uniform scoping
/// (first array) and default fisheye scoping (second). Recorded at
/// f0b9e42, the last commit with the full-decode path, where this test
/// still ran both paths live and found them equal.
const DECODE_GOLDENS: [[[u64; 5]; 3]; 2] = [
    [
        [1, 0x738e_1193_77c1_f625, 1_493_330, 7968, 935_102],
        [7, 0x049c_e740_397a_de97, 1_539_453, 8702, 940_415],
        [0x51C0_2010, 0xc055_225e_46a1_ee79, 1_469_234, 7900, 934_645],
    ],
    [
        [1, 0x8b85_95b5_e11d_6eb0, 1_223_991, 4875, 874_631],
        [7, 0xe6b2_46e8_d29d_036f, 1_247_725, 5320, 878_578],
        [0x51C0_2010, 0xee16_e086_31a6_c6e3, 1_212_991, 5029, 874_633],
    ],
];

/// Under either scoping policy, the peek path must be observably
/// indistinguishable from the full-decode path it replaced: engine
/// stats, dispatched-event traces, every node's routing table and the
/// semantic protocol counters replay the recorded full-decode run, while
/// the peek metrics show duplicates resolved from the header and fewer
/// bytes parsed than the full decode did.
#[test]
fn peek_decode_replays_full_decode_exactly() {
    let policies = [
        TcScoping::Uniform,
        TcScoping::Fisheye(FisheyeRings::default()),
    ];
    for (scoping, goldens) in policies.into_iter().zip(DECODE_GOLDENS) {
        for [seed, full_fingerprint, full_decoded, dup_peek_hits, bytes_decoded] in goldens {
            let peek = run_protocol(scoping, seed, ExecMode::SingleShard);
            assert_eq!(
                peek.semantic_fingerprint, full_fingerprint,
                "peek run diverges from the recorded full-decode run ({scoping:?}, seed {seed})"
            );
            let s = peek.node_stats;
            assert_eq!(
                (s.dup_peek_hits, s.bytes_decoded),
                (dup_peek_hits, bytes_decoded),
                "peek metrics drift ({scoping:?}, seed {seed})"
            );
            assert!(
                s.dup_peek_hits > 0,
                "peek path saw no duplicates ({scoping:?}, seed {seed})"
            );
            assert!(
                s.bytes_decoded < full_decoded,
                "peek path must decode fewer bytes than the full decode ({scoping:?}, seed {seed})"
            );
        }
    }
}

/// An `n`-node line with uniform QoS (hop diameter `n - 1`).
fn line(n: usize) -> Topology {
    common::line_topology(n, 3)
}

fn run_line(
    n: usize,
    scoping: TcScoping,
    secs: u64,
    seed: u64,
) -> (OlsrNetwork<qolsr_proto::MprSelectorPolicy>, NodeStats) {
    let config = OlsrConfig {
        tc_scoping: scoping,
        ..OlsrConfig::default()
    };
    let mut net = OlsrNetwork::new(line(n), config, RadioConfig::default(), seed, |_| {
        qolsr_proto::MprSelectorPolicy
    });
    net.run_for(SimDuration::from_secs(secs));
    let stats = net.total_stats();
    (net, stats)
}

/// Fisheye scoping must cut TC flood traffic on a multi-hop topology
/// while full-radius refreshes keep network-wide routes converged.
#[test]
fn fisheye_reduces_tc_floods_and_keeps_far_routes() {
    let n = 12;
    let (uni_net, uniform) = run_line(n, TcScoping::Uniform, 90, 5);
    let (fe_net, fisheye) = run_line(n, TcScoping::Fisheye(FisheyeRings::default()), 90, 5);

    assert!(
        (fisheye.tc_received as f64) < 0.75 * uniform.tc_received as f64,
        "fisheye should cut TC deliveries meaningfully: {} vs {}",
        fisheye.tc_received,
        uniform.tc_received
    );
    assert!(
        fisheye.bytes_sent < uniform.bytes_sent,
        "control bytes must shrink too"
    );

    // Per-ring accounting: every default ring fired, totals add up, and
    // expensive full-radius floods are a strict minority of emissions
    // (the outermost ring only fires every 3rd tick).
    let rings = fisheye.tc_sent_ring;
    assert!(
        rings[..3].iter().all(|&r| r > 0),
        "all rings fire: {rings:?}"
    );
    assert_eq!(rings[3], 0, "default table has three rings");
    assert_eq!(rings.iter().sum::<u64>(), fisheye.tc_sent);
    assert!(
        rings[2] * 2 < fisheye.tc_sent,
        "full floods must be a minority: {rings:?}"
    );

    // Both ends still route to each other across the full diameter.
    for net in [&uni_net, &fe_net] {
        let now = net.now();
        let far = NodeId(n as u32 - 1);
        let r = net
            .node(NodeId(0))
            .route_to(far, now)
            .expect("route across the whole line");
        assert_eq!(r.hops, n as u32 - 1);
        assert_eq!(r.next_hop, NodeId(1));
    }
}

/// A near-only ring table really bounds dissemination: with a 2-hop
/// scope and no full-radius ring, far ends of a long line never learn
/// routes to each other, while the local neighborhood still converges.
#[test]
fn scoped_ttl_bounds_dissemination() {
    let n = 10;
    let near_only = TcScoping::Fisheye(
        FisheyeRings::new(&[FisheyeRing { ttl: 2, every: 1 }]).expect("valid single ring"),
    );
    let (net, stats) = run_line(n, near_only, 60, 11);
    let now = net.now();
    let node0 = net.node(NodeId(0));
    assert!(
        node0.route_to(NodeId(n as u32 - 1), now).is_none(),
        "2-hop-scoped TCs must not reach the far end of a {n}-line"
    );
    // HELLO sensing plus 2-hop TCs still cover the local neighborhood.
    let near = node0
        .route_to(NodeId(3), now)
        .expect("3-hop route from HELLO-reported + near-TC knowledge");
    assert_eq!(near.hops, 3);
    assert_eq!(stats.tc_sent_ring[0], stats.tc_sent);
    assert_eq!(stats.decode_errors, 0);
}

/// Seeded fisheye runs replay identically — scoping changes what is
/// sent, never determinism.
#[test]
fn fisheye_runs_are_deterministic() {
    let run = |seed| {
        let (_, stats) = run_line(9, TcScoping::Fisheye(FisheyeRings::default()), 45, seed);
        stats
    };
    assert_eq!(run(23), run(23));
}
