//! Shared testkit for the root integration suites: seeded paper-default
//! deployments, fixture views, scaled-down experiment configs and the
//! one golden renderer, so the suites agree on one topology vocabulary
//! and one fingerprint instead of each rolling its own.
//!
//! Not every suite uses every helper; that is the point of a shared kit.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use qolsr::eval::EvalConfig;
use qolsr::policy::SelectorPolicy;
use qolsr::selector::Fnbp;
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::{fixtures, LocalView, NodeId, Point2, Topology, TopologyBuilder};
use qolsr_metrics::{BandwidthMetric, LinkQos};
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{AdvertisePolicy, NodeStats, OlsrConfig, RouteEntry};
use qolsr_sim::{ExecMode, RadioConfig, Scenario, SchedulerKind, SimDuration, SimRng};

/// The semantic oracle of the scenario models' radius re-sync, shared
/// with the `qolsr-sim` unit tests.
#[path = "../../crates/sim/tests/support/radius_oracle.rs"]
pub mod radius_oracle;

/// Deploys a seeded Poisson field with the paper's radius (`R = 100`) in
/// a `side × side` square at the given mean degree, link weights drawn
/// from `weights`.
pub fn seeded_topology(
    seed: u64,
    side: f64,
    mean_degree: f64,
    weights: UniformWeights,
) -> Topology {
    let mut rng = SimRng::seed_from_u64(seed);
    let cfg = Deployment {
        width: side,
        height: side,
        radius: 100.0,
        mean_degree,
    };
    deploy(&cfg, &weights, &mut rng)
}

/// A small (`400 × 400`, `δ = 8`) field with the paper's `[1, 10]`
/// weights — compact enough for full protocol convergence runs.
pub fn small_random_topology(seed: u64) -> Topology {
    seeded_topology(seed, 400.0, 8.0, UniformWeights::paper_defaults())
}

/// A medium (`500 × 500`) field with wide-spread `[1, 100]` weights —
/// enough weight diversity for routing-quality comparisons.
pub fn medium_topology(seed: u64, mean_degree: f64) -> Topology {
    seeded_topology(seed, 500.0, mean_degree, UniformWeights::new(1, 100))
}

/// An `n`-node line with uniform link QoS — guarantees a connected,
/// fully-predictable route structure.
pub fn line_topology(n: usize, qos: u64) -> Topology {
    let mut b = TopologyBuilder::new(15.0);
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(Point2::new(10.0 * i as f64, 0.0)))
        .collect();
    for w in ids.windows(2) {
        b.link(w[0], w[1], LinkQos::uniform(qos)).unwrap();
    }
    b.build()
}

/// Scales an experiment config down to CI size: 6 runs over three
/// densities on a small field with two worker threads.
pub fn smoke_config(mut cfg: EvalConfig) -> EvalConfig {
    cfg.runs = 6;
    cfg.densities = vec![10.0, 20.0, 30.0];
    cfg.field = (600.0, 600.0);
    cfg.threads = 2;
    cfg
}

/// The paper's Fig. 2 worked example together with `u`'s extracted local
/// view (the object every Fig. 2 claim is stated over).
pub fn fig2_view() -> (fixtures::Fig2, LocalView) {
    let f = fixtures::fig2();
    let view = LocalView::extract(&f.topo, f.u);
    (f, view)
}

/// The advertise policy of the whole-network golden suites: FNBP over
/// bandwidth.
pub type Policy = SelectorPolicy<Fnbp<BandwidthMetric>>;

/// FNV-1a over rendered observable state: the hash every golden
/// fingerprint of the root suites is recorded in.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An FNBP network over `topo` under `cfg` and `radio`, stepped by
/// `shards` engine shards (one or fewer is [`ExecMode::SingleShard`]).
pub fn build_net_with(
    topo: &Topology,
    cfg: OlsrConfig,
    radio: RadioConfig,
    seed: u64,
    shards: u32,
) -> OlsrNetwork<Policy> {
    let exec = if shards <= 1 {
        ExecMode::SingleShard
    } else {
        ExecMode::Sharded { shards }
    };
    OlsrNetwork::with_exec(
        topo.clone(),
        cfg,
        radio,
        seed,
        SchedulerKind::default(),
        exec,
        |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
    )
}

/// [`build_net_with`] under the default protocol configuration.
pub fn build_net(
    topo: &Topology,
    radio: RadioConfig,
    seed: u64,
    shards: u32,
) -> OlsrNetwork<Policy> {
    build_net_with(topo, OlsrConfig::default(), radio, seed, shards)
}

/// The golden renderer: engine counters, protocol counters, world
/// state, advertised topology, every node's routing table and the event
/// trace of a finished run. It renders counter *fields* rather than
/// whole structs, so goldens recorded before a counter was added stay
/// comparable. The protocol counters are read after the routing tables
/// (the route queries count as cache activity) and pass through `mask`,
/// so a replay can zero counters that differ from its reference by
/// design.
///
/// # Panics
///
/// Panics if the run did not enable the event trace.
pub fn render_golden<P: AdvertisePolicy>(
    net: &OlsrNetwork<P>,
    mask: impl FnOnce(&mut NodeStats),
) -> String {
    let routes: Vec<BTreeMap<NodeId, RouteEntry>> = net
        .world()
        .nodes()
        .map(|n| net.node(n).routes(net.now()))
        .collect();
    let e = net.engine_stats();
    let mut n = net.total_stats();
    mask(&mut n);
    let mut s = String::new();
    write!(
        s,
        "engine:{} {} {} {} {} {} {} {}|",
        e.events,
        e.broadcasts,
        e.unicasts,
        e.deliveries,
        e.dropped_unicasts,
        e.timers,
        e.world_changes,
        e.stale_dropped
    )
    .unwrap();
    write!(
        s,
        "nodes:{} {} {} {} {} {} {} {} {} {:?} {} {}|",
        n.hello_sent,
        n.tc_sent,
        n.tc_forwarded,
        n.hello_received,
        n.tc_received,
        n.bytes_sent,
        n.decode_errors,
        n.routes_recomputed,
        n.route_cache_hits,
        n.tc_sent_ring,
        n.dup_peek_hits,
        n.bytes_decoded
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
    let trace = net.trace().expect("trace enabled");
    write!(s, "trace:{}:", trace.total_recorded()).unwrap();
    for te in trace.iter() {
        write!(s, "{te:?};").unwrap();
    }
    s
}

/// [`render_golden`] of a run with all of its protocol counters,
/// hashed.
pub fn golden_hash<P: AdvertisePolicy>(net: &OlsrNetwork<P>) -> u64 {
    fnv1a(render_golden(net, |_| {}).as_bytes())
}

/// [`render_golden`] of a run with its route-cache efficiency counters
/// (`routes_recomputed`, `route_cache_hits`) masked, hashed: what the
/// run did, whichever queries its route caches answered without a
/// recompute.
pub fn behaviour_hash<P: AdvertisePolicy>(net: &OlsrNetwork<P>) -> u64 {
    let masked = render_golden(net, |n| {
        n.routes_recomputed = 0;
        n.route_cache_hits = 0;
    });
    fnv1a(masked.as_bytes())
}

/// Runs an FNBP network for 40 s with the trace on, under `scenario`
/// when given, and fingerprints its end state through
/// [`render_golden`].
pub fn fingerprint_with(
    topo: &Topology,
    cfg: OlsrConfig,
    radio: RadioConfig,
    seed: u64,
    shards: u32,
    scenario: Option<&Scenario>,
) -> u64 {
    let mut net = build_net_with(topo, cfg, radio, seed, shards);
    net.enable_trace(1 << 16);
    if let Some(s) = scenario {
        net.install_scenario(s);
    }
    net.run_for(SimDuration::from_secs(40));
    golden_hash(&net)
}

/// [`fingerprint_with`] on one shard under the default protocol
/// configuration and the ideal radio: the run the phy, fault and
/// traffic suites pin their shared `GOLDENS` on.
pub fn golden_fingerprint(topo: &Topology, seed: u64, scenario: Option<&Scenario>) -> u64 {
    fingerprint_with(
        topo,
        OlsrConfig::default(),
        RadioConfig::default(),
        seed,
        1,
        scenario,
    )
}
