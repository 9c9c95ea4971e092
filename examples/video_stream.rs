//! Bandwidth-constrained streaming scenario: a camera streams video
//! across a mesh to an uplink gateway. The stream needs the widest
//! available path; the delay metric matters for the control channel.
//!
//! The first half selects the same network under bandwidth, delay and
//! residual energy — the paper's static analytics. The second half puts
//! the mesh in motion on the scenario engine: a random-waypoint corridor
//! with node churn rewrites the topology while the live OLSR protocol
//! (FNBP policy) keeps running, and the stream's hop-by-hop
//! deliverability is probed over time.
//!
//! ```sh
//! cargo run --release --example video_stream
//! ```

use qolsr::advertised::build_advertised;
use qolsr::eval::churn::{probe_route, ProbeOutcome};
use qolsr::policy::SelectorPolicy;
use qolsr::routing::{optimal_value, route, RouteStrategy};
use qolsr::selector::Fnbp;
use qolsr_graph::connectivity::Components;
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_metrics::{BandwidthMetric, DelayMetric, ResidualEnergyMetric};
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::OlsrConfig;
use qolsr_sim::scenario::{PoissonChurn, RandomWaypoint, ScenarioBuilder};
use qolsr_sim::{RadioConfig, SimDuration, SimRng, SimTime};

// The paper's deployment: 1000 × 1000 field, R = 100 (same world as
// before the example grew its dynamic half, so the static planes below
// reproduce unchanged).
const FIELD: (f64, f64) = (1000.0, 1000.0);

fn main() {
    let mut rng = SimRng::seed_from_u64(4242);
    let weights = UniformWeights::new(1, 100);
    let topo = deploy(&Deployment::paper_defaults(14.0), &weights, &mut rng);
    let components = Components::compute(&topo);
    let members = components.members(components.largest().unwrap());
    let camera = members[members.len() / 2];
    let gateway = *members.last().unwrap();
    println!(
        "mesh: {} nodes; camera {} -> gateway {}\n",
        topo.len(),
        camera,
        gateway
    );

    // Video plane: widest path via the bandwidth-metric FNBP QANS.
    let adv_bw = build_advertised(&topo, &Fnbp::<BandwidthMetric>::new(), 1);
    let stream = route::<BandwidthMetric>(
        &topo,
        adv_bw.graph(),
        camera,
        gateway,
        RouteStrategy::AdvertisedOnly,
    )
    .expect("stream route");
    println!(
        "video stream : {} hops, bandwidth {} (optimum {}), ANS/node {:.2}",
        stream.hops(),
        stream.qos::<BandwidthMetric>(&topo),
        optimal_value::<BandwidthMetric>(&topo, camera, gateway).unwrap(),
        adv_bw.mean_size(),
    );

    // Control plane: fastest path via the delay-metric FNBP QANS
    // (Algorithm 2).
    let adv_d = build_advertised(&topo, &Fnbp::<DelayMetric>::new(), 1);
    let control = route::<DelayMetric>(
        &topo,
        adv_d.graph(),
        camera,
        gateway,
        RouteStrategy::AdvertisedOnly,
    )
    .expect("control route");
    println!(
        "control plane: {} hops, delay {} (optimum {}), ANS/node {:.2}",
        control.hops(),
        control.qos::<DelayMetric>(&topo),
        optimal_value::<DelayMetric>(&topo, camera, gateway).unwrap(),
        adv_d.mean_size(),
    );

    // Eco plane: the path whose weakest battery is strongest, via the
    // residual-energy FNBP QANS (a concave metric, like bandwidth).
    let adv_e = build_advertised(&topo, &Fnbp::<ResidualEnergyMetric>::new(), 1);
    let eco = route::<ResidualEnergyMetric>(
        &topo,
        adv_e.graph(),
        camera,
        gateway,
        RouteStrategy::AdvertisedOnly,
    )
    .expect("energy-aware route");
    println!(
        "eco stream   : {} hops, min residual energy {} (optimum {}), bandwidth {}, ANS/node {:.2}\n",
        eco.hops(),
        eco.qos::<ResidualEnergyMetric>(&topo),
        optimal_value::<ResidualEnergyMetric>(&topo, camera, gateway).unwrap(),
        eco.qos::<BandwidthMetric>(&topo),
        adv_e.mean_size(),
    );

    // ── The mesh in motion ──────────────────────────────────────────────
    // Scenario: everyone strolls the field at pedestrian speeds and
    // relays occasionally power-cycle; links follow the radio radius.
    let scenario = ScenarioBuilder::new(&topo, 4242)
        .with(RandomWaypoint::new(
            FIELD,
            SimDuration::from_secs(2),
            (1.0, 4.0),
            SimDuration::from_secs(10),
            weights,
        ))
        .with(PoissonChurn::new(0.05, SimDuration::from_secs(8), weights))
        .generate(SimDuration::from_secs(30));
    let summary = scenario.summary();
    println!(
        "scenario: {} events over 30 s (links +{} −{}, churn {} leaves / {} rejoins)",
        scenario.len(),
        summary.link_ups,
        summary.link_downs,
        summary.leaves,
        summary.joins,
    );

    let warmup = SimDuration::from_secs(20);
    let mut net = OlsrNetwork::new(
        topo,
        OlsrConfig::default(),
        RadioConfig::default(),
        4242,
        |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
    );
    net.install_scenario_at(&scenario, SimTime::ZERO + warmup);

    // Probe through the dynamic phase (t = 20..50) and past it, so the
    // tables' recovery after the world settles is visible too.
    net.run_for(warmup);
    println!("\n  t(s)  links  active  stream");
    for _ in 0..11 {
        let outcome = probe_route(&net, camera, gateway);
        println!(
            "  {:>4.0}  {:>5}  {:>6}  {}",
            net.now().as_secs_f64(),
            net.world().link_count(),
            net.world().active_count(),
            match outcome {
                ProbeOutcome::Delivered(hops) => format!("delivered in {hops} hops"),
                ProbeOutcome::Dropped => "BLACKOUT (re-converging)".to_owned(),
                ProbeOutcome::EndpointDown => "endpoint powered off".to_owned(),
            }
        );
        net.run_for(SimDuration::from_secs(5));
    }
    let stats = net.sim().stats();
    println!(
        "\nengine: {} world changes, {} deliveries, {} stale events dropped",
        stats.world_changes, stats.deliveries, stats.stale_dropped
    );
}
