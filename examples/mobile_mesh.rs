//! Mobile mesh tour of the scenario engine: a Poisson deployment under
//! all three dynamics models at once — random-waypoint motion (links
//! follow the radio radius through the world's `SpatialGrid` index),
//! Poisson node churn (power cycles), and Gauss–Markov link-weight drift
//! — driving a live OLSR network.
//!
//! Shows the world evolving mid-simulation, the protocol re-converging
//! after each disturbance, and the exact reproducibility of the whole
//! run from its seed.
//!
//! ```sh
//! cargo run --release --example mobile_mesh
//! ```

use qolsr::policy::SelectorPolicy;
use qolsr::selector::Fnbp;
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::NodeId;
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{AdvertisePolicy, OlsrConfig};
use qolsr_sim::scenario::{GaussMarkovDrift, PoissonChurn, RandomWaypoint, ScenarioBuilder};
use qolsr_sim::{RadioConfig, Scenario, SimDuration, SimRng};

const SEED: u64 = 77;
const FIELD: (f64, f64) = (400.0, 400.0);
const WARMUP: SimDuration = SimDuration::from_secs(20);
const DYNAMIC: SimDuration = SimDuration::from_secs(40);

fn build_world() -> (qolsr_graph::Topology, Scenario) {
    let weights = UniformWeights::new(1, 100);
    let mut rng = SimRng::seed_from_u64(SEED);
    let topo = deploy(
        &Deployment {
            width: FIELD.0,
            height: FIELD.1,
            radius: 100.0,
            mean_degree: 8.0,
        },
        &weights,
        &mut rng,
    );
    let scenario = ScenarioBuilder::new(&topo, SEED)
        .with(RandomWaypoint::new(
            FIELD,
            SimDuration::from_secs(1),
            (3.0, 12.0),
            SimDuration::from_secs(3),
            weights,
        ))
        .with(PoissonChurn::new(0.15, SimDuration::from_secs(6), weights))
        .with(GaussMarkovDrift::new(
            SimDuration::from_secs(2),
            0.9,
            (1, 100),
            2.0,
        ))
        .generate(DYNAMIC);
    (topo, scenario)
}

fn run() -> (Vec<String>, u64) {
    let (topo, scenario) = build_world();
    let n = topo.len();
    let summary = scenario.summary();
    println!(
        "mesh: {} nodes, {} links; scenario: {} events \
         (moves {}, links +{} −{}, qos drifts {}, leaves {}, joins {})",
        n,
        topo.link_count(),
        scenario.len(),
        summary.moves,
        summary.link_ups,
        summary.link_downs,
        summary.qos_changes,
        summary.leaves,
        summary.joins,
    );

    let mut net = OlsrNetwork::new(
        topo,
        OlsrConfig::default(),
        RadioConfig::default(),
        SEED,
        |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
    );
    net.install_scenario_at(&scenario, qolsr_sim::SimTime::ZERO + WARMUP);

    let mut lines = Vec::new();
    net.run_for(WARMUP);
    println!("\n  t(s)  links  active  reachable-pairs  mean-ANS");
    for _ in 0..9 {
        let line = sample_line(&net);
        println!("{line}");
        lines.push(line);
        net.run_for(SimDuration::from_secs(5));
    }
    let stats = net.sim().stats();
    println!(
        "\nengine: {} events, {} world changes, {} stale dropped, {} deliveries",
        stats.events, stats.world_changes, stats.stale_dropped, stats.deliveries
    );
    (lines, stats.events)
}

/// One sample row: world shape plus how much of it the protocol can
/// currently route across.
fn sample_line<P: AdvertisePolicy>(net: &OlsrNetwork<P>) -> String {
    let world = net.world();
    let now = net.now();
    let active: Vec<NodeId> = world.nodes().filter(|&u| world.is_active(u)).collect();

    // Fraction of active ordered pairs with a known routing-table entry.
    let mut known = 0usize;
    let mut total = 0usize;
    for &s in &active {
        let routes = net.node(s).routes(now);
        for &t in &active {
            if s != t {
                total += 1;
                known += usize::from(routes.contains_key(&t));
            }
        }
    }
    let reach = if total == 0 {
        0.0
    } else {
        known as f64 / total as f64
    };

    let mean_ans = active
        .iter()
        .map(|&u| net.node(u).advertised().len())
        .sum::<usize>() as f64
        / active.len().max(1) as f64;

    format!(
        "  {:>4.0}  {:>5}  {:>6}  {:>15.3}  {:>8.2}",
        now.as_secs_f64(),
        world.link_count(),
        active.len(),
        reach,
        mean_ans,
    )
}

fn main() {
    let (first, events_a) = run();
    // The whole run — world evolution, protocol reaction, every sample —
    // replays identically from the seed.
    let (second, events_b) = run();
    assert_eq!(first, second, "samples must replay identically");
    assert_eq!(events_a, events_b, "event counts must replay identically");
    println!("\nreplayed identically from seed {SEED} ✓");
}
