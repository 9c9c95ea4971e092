//! Differential acceptance suite of the engine's shard count: a full
//! OLSR run on several shards must be **observably identical** to the
//! one-shard run — same engine statistics, same protocol counters, same
//! event trace, same routing tables at every node — for every shard
//! count, across seeds, and under churn. The shard count is a
//! performance knob, never a semantics knob.
//!
//! The only quantities excluded from comparison are the shared-store
//! residency *gauges* (`store_gauges`, `resident_*`): the network
//! interns into one arena per shard, so dedup ratios and resident byte
//! totals legitimately depend on the shard count.

mod common;

use std::collections::BTreeMap;

use qolsr::policy::SelectorPolicy;
use qolsr::selector::Fnbp;
use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::{NodeId, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{OlsrConfig, RouteEntry};
use qolsr_sim::scenario::{PoissonChurn, RandomWaypoint, Scenario, ScenarioBuilder};
use qolsr_sim::trace::TraceEvent;
use qolsr_sim::{ExecMode, RadioConfig, SchedulerKind, SimDuration, SimStats};

type Policy = SelectorPolicy<Fnbp<BandwidthMetric>>;

/// Everything observable about a finished run, minus the residency
/// gauges (see module docs).
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    engine: SimStats,
    nodes: qolsr_proto::node::NodeStats,
    advertised: Vec<(NodeId, NodeId, qolsr_metrics::LinkQos)>,
    routes: Vec<BTreeMap<NodeId, RouteEntry>>,
    world_epoch: u64,
    world_links: usize,
    world_active: usize,
    trace: Vec<TraceEvent>,
    trace_total: u64,
}

fn run(topo: &Topology, seed: u64, shards: u32, scenario: Option<&Scenario>) -> RunFingerprint {
    let exec = if shards <= 1 {
        ExecMode::SingleShard
    } else {
        ExecMode::Sharded { shards }
    };
    let mut net: OlsrNetwork<Policy> = OlsrNetwork::with_exec(
        topo.clone(),
        OlsrConfig::default(),
        RadioConfig::default(),
        seed,
        SchedulerKind::default(),
        exec,
        |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
    );
    net.enable_trace(1 << 16);
    if let Some(s) = scenario {
        net.install_scenario(s);
    }
    net.run_for(SimDuration::from_secs(40));
    let routes = net
        .world()
        .nodes()
        .map(|n| net.node(n).routes(net.now()))
        .collect();
    RunFingerprint {
        engine: net.engine_stats(),
        nodes: net.total_stats(),
        advertised: net.advertised_topology(),
        routes,
        world_epoch: net.world().epoch(),
        world_links: net.world().link_count(),
        world_active: net.world().active_count(),
        trace: net
            .trace()
            .expect("trace enabled")
            .iter()
            .copied()
            .collect(),
        trace_total: net.trace().expect("trace enabled").total_recorded(),
    }
}

fn churn_scenario(topo: &Topology, seed: u64) -> Scenario {
    let weights = UniformWeights::paper_defaults();
    ScenarioBuilder::new(topo, seed)
        .with(RandomWaypoint::new(
            (400.0, 400.0),
            SimDuration::from_secs(1),
            (2.0, 10.0),
            SimDuration::from_secs(3),
            weights,
        ))
        .with(PoissonChurn::new(0.2, SimDuration::from_secs(5), weights))
        .generate(SimDuration::from_secs(30))
}

/// Static topology: every shard count replays the one-shard run
/// byte-for-byte, across seeds and densities.
#[test]
fn static_runs_are_shard_count_invariant() {
    for (topo_seed, density) in [(41, 7.0), (7, 4.0)] {
        let topo = common::medium_topology(topo_seed, density);
        for seed in [0, 9, 0x51C0_2010] {
            let reference = run(&topo, seed, 1, None);
            for shards in [2, 4] {
                let sharded = run(&topo, seed, shards, None);
                assert_eq!(
                    reference, sharded,
                    "shards={shards} diverges (topo {topo_seed}, seed {seed})"
                );
            }
        }
    }
}

/// Under random-waypoint motion + Poisson churn — node leaves, rejoins
/// and shard re-homing in flight — the sharded runs must still replay
/// the one-shard run exactly.
#[test]
fn churn_runs_are_shard_count_invariant() {
    let topo = common::medium_topology(41, 7.0);
    for seed in [3, 17, 0x51C0_2010] {
        let scenario = churn_scenario(&topo, seed);
        let reference = run(&topo, seed, 1, Some(&scenario));
        for shards in [2, 4] {
            let sharded = run(&topo, seed, shards, Some(&scenario));
            assert_eq!(
                reference, sharded,
                "shards={shards} diverges under churn (seed {seed})"
            );
        }
    }
    // Sanity: the scenario actually exercised the world.
    let s = churn_scenario(&topo, 3);
    assert!(s.summary().link_ups > 0 || s.summary().link_downs > 0);
}

/// Degenerate shard requests must clamp, not crash: more shards than
/// nodes, and a single-node world.
#[test]
fn shard_counts_clamp_to_node_count() {
    let topo = common::small_random_topology(5);
    let n = topo.len() as u32;
    let reference = run(&topo, 1, 1, None);
    let oversharded = run(&topo, 1, n + 13, None);
    assert_eq!(reference, oversharded, "overshard clamp diverges");
}
