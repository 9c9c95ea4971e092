//! The two live-protocol workloads: `flood-1000` (static MPR flooding) and
//! `mobile-traffic-500` (mobility, lossy PHY and data-plane flows).
//!
//! A run sets the network up several times and keeps the last copy, warms
//! it up to convergence, then measures a window of simulated seconds. Each
//! second is one chunk: the engine runs for one simulated second and a set
//! of source/destination pairs is routed hop by hop over the nodes' served
//! routes. The pairs are fixed on a static world and drawn afresh every
//! second on a moving one. Ground-truth connectivity of those pairs (the
//! validity sampling) is checked outside the timed chunk.
//!
//! The engine runs in quarter-second steps with a host reference sample
//! ([`calib`]) between every two, in the warm-up as in the window; each
//! step's wall time is read at the nominal host speed of the samples on
//! either side of it. On `flood-1000` the window is one full-radius TC
//! cycle of the default fisheye rings (15 s, every third 5 s TC tick), so
//! it holds about one full flood per node.
//!
//! Mobility and flows start `lead_s` before the window: route recomputes
//! climb for about five simulated seconds after the world starts moving,
//! and a window that began with the motion would time that ramp.

use std::time::Instant;

use qolsr::eval::churn::{probe_route, ChurnScenario, ProbeOutcome};
use qolsr::eval::traffic::DropBreakdown;
use qolsr::policy::SelectorPolicy;
use qolsr::Fnbp;
use qolsr_graph::connectivity::Components;
use qolsr_graph::deploy::{deploy_at, Deployment, UniformWeights};
use qolsr_graph::{NodeId, Point2, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{NodeStats, OlsrConfig};
use qolsr_sim::scenario::{GaussMarkovDrift, PoissonChurn, RandomWaypoint, ScenarioBuilder};
use qolsr_sim::{
    ExecMode, FlowModel, FlowSpec, LossyPhy, PhyModel, RadioConfig, Scenario, SchedulerKind,
    SimDuration, SimRng, SimStats, SimTime, TrafficStats,
};

use crate::calib::{self, Reference};
use crate::metrics::{median, mib, ratio, Values};
use crate::run::{check, derive_seed, Check, Fingerprint, Outcome};
use crate::trace::Tracer;

type Net = OlsrNetwork<SelectorPolicy<Fnbp<BandwidthMetric>>>;

/// Parts a measured second runs in.
const PARTS: u64 = 4;
const PART: SimDuration = SimDuration::from_millis(1000 / PARTS);

/// Configuration of a live workload.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    /// Nodes deployed.
    pub nodes: usize,
    /// Mean node degree δ (the field grows with `nodes`).
    pub density: f64,
    /// Communication radius R.
    pub radius: f64,
    /// Lossy-PHY drop probability at the range edge, ppm (0 = ideal radio).
    pub edge_drop_ppm: u32,
    /// Mobility and churn from the lead start on (`None` = static world).
    pub mobility: Option<ChurnScenario>,
    /// Data-plane flows; odd-indexed ones are bursty video, the rest CBR.
    pub flows: usize,
    /// CBR packet spacing.
    pub cbr_interval: SimDuration,
    /// Video frame spacing.
    pub frame_interval: SimDuration,
    /// Video packets per frame, inclusive range.
    pub burst: (u8, u8),
    /// Payload bytes per data packet.
    pub payload: u16,
    /// Simulated seconds of warm-up before the window.
    pub warmup_s: u64,
    /// Simulated seconds before the window at which the flows and the
    /// mobility scenario start, so the window measures their steady state.
    pub lead_s: u64,
    /// Simulated seconds measured.
    pub window_s: u64,
    /// Source/destination pairs routed every simulated second.
    pub probes: usize,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
    /// Rerun the workload on the two-shard engine in traced runs.
    pub shard_check: bool,
}

impl LiveSpec {
    /// `flood-1000`: static n=1000 field, ideal radio, FNBP.
    pub fn flood(window_s: u64) -> Self {
        Self {
            nodes: 1000,
            density: 10.0,
            radius: 100.0,
            edge_drop_ppm: 0,
            mobility: None,
            flows: 0,
            cbr_interval: SimDuration::from_millis(200),
            frame_interval: SimDuration::from_millis(500),
            burst: (2, 6),
            payload: 256,
            warmup_s: 8,
            lead_s: 5,
            window_s,
            probes: 64,
            setups: 5,
            shard_check: true,
        }
    }

    /// `mobile-traffic-500`: n=500 under waypoint motion, churn and drift,
    /// lossy PHY at 20% edge drop, CBR and bursty-video flows.
    pub fn mobile(window_s: u64) -> Self {
        Self {
            nodes: 500,
            edge_drop_ppm: 200_000,
            mobility: Some(ChurnScenario::default()),
            flows: 320,
            cbr_interval: SimDuration::from_millis(16),
            frame_interval: SimDuration::from_millis(64),
            warmup_s: 10,
            shard_check: false,
            ..Self::flood(window_s)
        }
    }

    fn side(&self) -> f64 {
        (self.nodes as f64 * std::f64::consts::PI * self.radius * self.radius / self.density).sqrt()
    }

    /// When the flows and the scenario start.
    fn lead_start(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(self.warmup_s.saturating_sub(self.lead_s))
    }

    fn radio(&self) -> RadioConfig {
        RadioConfig {
            phy: if self.edge_drop_ppm == 0 {
                PhyModel::Ideal
            } else {
                PhyModel::Lossy(LossyPhy::with_edge_drop_ppm(self.edge_drop_ppm))
            },
            ..RadioConfig::default()
        }
    }

    fn flow_specs(&self, pairs: &[(NodeId, NodeId)]) -> Vec<FlowSpec> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| FlowSpec {
                id: i as u16,
                src,
                dst,
                model: if i % 2 == 1 {
                    FlowModel::BurstyVideo {
                        frame_interval: self.frame_interval,
                        min_burst: self.burst.0,
                        max_burst: self.burst.1,
                    }
                } else {
                    FlowModel::Cbr {
                        interval: self.cbr_interval,
                    }
                },
                payload: self.payload,
                start: self.lead_start(),
            })
            .collect()
    }

    fn scenario(&self, topo: &Topology, weights: UniformWeights, seed: u64) -> Option<Scenario> {
        let sc = self.mobility?;
        let side = self.side();
        let mut builder = ScenarioBuilder::new(topo, seed).with(RandomWaypoint::new(
            (side, side),
            sc.tick,
            sc.speed,
            sc.pause,
            weights,
        ));
        if sc.leave_rate > 0.0 {
            builder = builder.with(PoissonChurn::new(sc.leave_rate, sc.mean_downtime, weights));
        }
        if let Some((alpha, sigma)) = sc.drift {
            builder = builder.with(GaussMarkovDrift::new(
                sc.tick,
                alpha,
                (weights.min, weights.max),
                sigma,
            ));
        }
        Some(builder.generate(SimDuration::from_secs(self.lead_s + self.window_s)))
    }
}

/// Uniform node positions in a `side × side` field, linked within R.
fn deploy_field(spec: &LiveSpec, weights: &UniformWeights, seed: u64) -> Topology {
    let side = spec.side();
    let mut rng = SimRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..spec.nodes)
        .map(|_| Point2::new(rng.next_f64() * side, rng.next_f64() * side))
        .collect();
    let deployment = Deployment {
        width: side,
        height: side,
        radius: spec.radius,
        mean_degree: spec.density,
    };
    deploy_at(&deployment, weights, positions, &mut rng)
}

/// Distinct connected pairs of `topo`, uniformly sampled.
fn connected_pairs(topo: &Topology, count: usize, rng: &mut SimRng) -> Vec<(NodeId, NodeId)> {
    let components = Components::compute(topo);
    let n = topo.len() as u64;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..64 * count.max(1) {
        if pairs.len() == count {
            break;
        }
        let s = NodeId(rng.next_below(n) as u32);
        let t = NodeId(rng.next_below(n) as u32);
        if s != t && components.connected(s, t) {
            pairs.push((s, t));
        }
    }
    pairs
}

/// A network ready to warm up, plus the pairs it is probed on.
struct Setup {
    net: Net,
    probes: Vec<(NodeId, NodeId)>,
    /// Draws fresh probe pairs each second when the world moves.
    probe_rng: SimRng,
}

impl Setup {
    /// Replaces the probe pairs by as many uniform pairs of distinct nodes.
    fn redraw_probes(&mut self) {
        let n = self.net.world().len() as u64;
        let rng = &mut self.probe_rng;
        for pair in &mut self.probes {
            let s = rng.next_below(n);
            let t = (s + 1 + rng.next_below(n - 1)) % n;
            *pair = (NodeId(s as u32), NodeId(t as u32));
        }
    }
}

/// Deploys, generates the scenario, builds the network and installs the
/// scenario and flows. Every input is derived from `seed`.
fn set_up(spec: &LiveSpec, seed: u64, exec: ExecMode, tr: &mut Tracer) -> Setup {
    let weights = UniformWeights::new(1, 100);
    let (topo, probes, flows) = tr.time("deploy", || {
        let topo = deploy_field(spec, &weights, derive_seed(seed, 1));
        let mut rng = SimRng::seed_from_u64(derive_seed(seed, 2));
        let probes = connected_pairs(&topo, spec.probes, &mut rng);
        let flows = spec.flow_specs(&connected_pairs(&topo, spec.flows, &mut rng));
        (topo, probes, flows)
    });
    let scenario = tr.time("scenario_gen", || {
        spec.scenario(&topo, weights, derive_seed(seed, 3))
    });
    let mut net = tr.time("network_build", || {
        OlsrNetwork::with_exec(
            topo,
            OlsrConfig::default(),
            spec.radio(),
            derive_seed(seed, 4),
            SchedulerKind::default(),
            exec,
            |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
        )
    });
    tr.time("install", || {
        if let Some(sc) = &scenario {
            net.install_scenario_at(sc, spec.lead_start());
        }
        if !flows.is_empty() {
            net.install_flows(&flows, derive_seed(seed, 5));
        }
    });
    Setup {
        net,
        probes,
        probe_rng: SimRng::seed_from_u64(derive_seed(seed, 6)),
    }
}

/// Probe outcomes checked against ground truth: pairs whose endpoints are
/// up and connected count, the rest are skipped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Validity {
    valid: u64,
    reachable: u64,
    skipped: u64,
}

/// Ground-truth components, recomputed only when the world changed.
#[derive(Default)]
struct Truth {
    world_changes: Option<u64>,
    components: Option<Components>,
}

impl Truth {
    fn sample(
        &mut self,
        net: &Net,
        probes: &[(NodeId, NodeId)],
        outcomes: &[ProbeOutcome],
        v: &mut Validity,
    ) {
        let changes = net.engine_stats().world_changes;
        if self.world_changes != Some(changes) || self.components.is_none() {
            self.components = Some(Components::compute(&net.world().snapshot()));
            self.world_changes = Some(changes);
        }
        let components = self.components.as_ref().expect("computed above");
        let world = net.world();
        for (&(s, t), outcome) in probes.iter().zip(outcomes) {
            if !world.is_active(s) || !world.is_active(t) || !components.connected(s, t) {
                v.skipped += 1;
                continue;
            }
            v.reachable += 1;
            if matches!(outcome, ProbeOutcome::Delivered(_)) {
                v.valid += 1;
            }
        }
    }
}

/// The window of one network: its chunks in order, and the validity
/// tally.
struct Window {
    chunks: Vec<Chunk>,
    validity: Validity,
}

/// Engine time run in steps, each bracketed by host reference samples.
#[derive(Debug, Clone, Copy)]
struct Sampled {
    /// Wall ms of the steps.
    ms: f64,
    /// The same at the nominal host speed: each step scaled by the mean
    /// of the samples on either side of it.
    adjusted_ms: f64,
    /// Mean wall ms of the samples.
    mean_ref_ms: f64,
    /// Wall ms of the last sample, taken after the last step.
    last_ref_ms: f64,
}

/// Runs the engine for `steps` steps of [`PART`], each in a span named
/// `span`, with a reference sample before the first step and after every
/// step.
fn run_sampled(
    net: &mut Net,
    steps: u64,
    reference: &mut Reference,
    tr: &mut Tracer,
    span: &'static str,
) -> Sampled {
    let mut before = reference.sample_ms();
    let mut out = Sampled {
        ms: 0.0,
        adjusted_ms: 0.0,
        mean_ref_ms: before,
        last_ref_ms: before,
    };
    for _ in 0..steps {
        let started = Instant::now();
        tr.time(span, || net.run_for(PART));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let after = reference.sample_ms();
        out.ms += ms;
        out.adjusted_ms += calib::adjust(ms, (before + after) / 2.0);
        out.mean_ref_ms += after;
        before = after;
    }
    out.mean_ref_ms /= (steps + 1) as f64;
    out.last_ref_ms = before;
    out
}

/// One measured simulated second.
#[derive(Clone, Copy)]
struct Chunk {
    traced: bool,
    /// Wall ms of the engine steps and the route probes.
    ms: f64,
    /// The same at the nominal host speed.
    adjusted_ms: f64,
    events: u64,
    /// Mean wall ms of the host reference samples taken during the chunk.
    ref_ms: f64,
}

impl Chunk {
    fn ns_per_event(&self) -> f64 {
        self.ms * 1e6 / self.events.max(1) as f64
    }
}

impl Window {
    fn total_ms(&self) -> f64 {
        self.chunks.iter().map(|c| c.ms).sum()
    }

    fn of(&self, traced: bool) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter().filter(move |c| c.traced == traced)
    }

    /// Nominal-speed wall ms per untraced chunk: their sum over their
    /// number, so every chunk weighs by the work it did, the seconds with
    /// full-radius TC floods included.
    fn adjusted_ms_per_chunk(&self) -> f64 {
        let (sum, count) = self
            .of(false)
            .fold((0.0, 0u32), |(s, n), c| (s + c.adjusted_ms, n + 1));
        sum / f64::from(count.max(1))
    }

    /// Tracing overhead in %: each untraced chunk against the mean of its
    /// traced neighbours, per event, so a cost that drifts over the
    /// window cancels out.
    fn overhead_pct(&self) -> f64 {
        let ratios: Vec<f64> = self
            .chunks
            .windows(3)
            .filter(|w| !w[1].traced && w[0].traced && w[2].traced)
            .map(|w| (w[0].ns_per_event() + w[2].ns_per_event()) / 2.0 / w[1].ns_per_event())
            .collect();
        (median(&ratios) - 1.0) * 100.0
    }
}

/// Runs `window_s` chunks. In a traced run even chunks are traced and odd
/// ones are not, so the same run prices the tracing.
fn measure(
    spec: &LiveSpec,
    setup: &mut Setup,
    reference: &mut Reference,
    tr: &mut Tracer,
) -> Window {
    let traced = tr.is_on();
    let mut w = Window {
        chunks: Vec::with_capacity(spec.window_s as usize),
        validity: Validity::default(),
    };
    let mut truth = Truth::default();
    let mut outcomes = Vec::with_capacity(setup.probes.len());
    let window = tr.enter("window");
    for c in 0..spec.window_s {
        let traced_chunk = traced && c % 2 == 0;
        if spec.mobility.is_some() {
            setup.redraw_probes();
        }
        tr.set_on(traced_chunk);
        let events0 = setup.net.engine_stats().events;
        let chunk = tr.enter("chunk");
        let run = run_sampled(&mut setup.net, PARTS, reference, tr, "run");
        let started = Instant::now();
        tr.time("route_probe", || {
            outcomes.clear();
            outcomes.extend(
                setup
                    .probes
                    .iter()
                    .map(|&(s, t)| probe_route(&setup.net, s, t)),
            );
        });
        let probe_ms = started.elapsed().as_secs_f64() * 1e3;
        tr.exit(chunk);
        w.chunks.push(Chunk {
            traced: traced_chunk,
            ms: run.ms + probe_ms,
            adjusted_ms: run.adjusted_ms + calib::adjust(probe_ms, run.last_ref_ms),
            events: setup.net.engine_stats().events - events0,
            ref_ms: run.mean_ref_ms,
        });
        tr.time("validity", || {
            truth.sample(&setup.net, &setup.probes, &outcomes, &mut w.validity)
        });
    }
    tr.set_on(traced);
    tr.exit(window);
    w
}

/// Packet fates of the data plane from a network's end-of-run counters.
/// Every injected packet is delivered, dropped at a node, lost in flight,
/// still queued, or still in the air.
fn drop_breakdown(
    traffic: &TrafficStats,
    engine: &SimStats,
    queued: u64,
) -> Result<DropBreakdown, String> {
    let in_flight = engine.data_in_flight_drops();
    let in_air = engine
        .data_unicasts
        .checked_sub(engine.data_deliveries + in_flight)
        .ok_or_else(|| {
            format!(
                "more data frames received or lost ({} + {in_flight}) than sent ({})",
                engine.data_deliveries, engine.data_unicasts
            )
        })?;
    Ok(DropBreakdown {
        injected: traffic.injected,
        delivered: traffic.delivered,
        no_route: traffic.drop_no_route,
        queue_full: traffic.drop_queue_full,
        ttl_expired: traffic.drop_ttl_expired,
        queue_wiped: traffic.drop_queue_wiped,
        in_flight,
        queued,
        in_air,
    })
}

/// Checks that the ledger closes: delivered plus every loss is injected.
fn ledger_closes(d: &DropBreakdown) -> Result<(), String> {
    let accounted = d.delivered + d.accounted_losses();
    if accounted == d.injected {
        Ok(())
    } else {
        Err(format!(
            "injected {} but {accounted} accounted for: {d:?}",
            d.injected
        ))
    }
}

/// Counters of a whole network at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    engine: SimStats,
    nodes: NodeStats,
    traffic: TrafficStats,
}

impl Counters {
    fn of(net: &Net) -> Self {
        Self {
            engine: net.engine_stats(),
            nodes: net.total_stats(),
            traffic: net.total_traffic(),
        }
    }
}

/// Runs one live workload.
pub fn run(
    name: &str,
    spec: &LiveSpec,
    seed: u64,
    reference: &mut Reference,
    mut tr: Tracer,
) -> Outcome {
    let traced = tr.is_on();
    let root = tr.enter("workload");

    let mut setup_ms = Vec::with_capacity(spec.setups);
    let mut setup = None;
    for _ in 0..spec.setups.max(1) {
        drop(setup.take());
        let span = tr.enter("setup");
        let started = Instant::now();
        setup = Some(set_up(spec, seed, ExecMode::SingleShard, &mut tr));
        setup_ms.push(started.elapsed().as_secs_f64() * 1e3);
        tr.exit(span);
    }
    let mut setup = setup.expect("at least one set-up");
    let warmup = run_sampled(
        &mut setup.net,
        spec.warmup_s * PARTS,
        reference,
        &mut tr,
        "warmup",
    );

    let before = Counters::of(&setup.net);
    let window = measure(spec, &mut setup, reference, &mut tr);
    let (after, queued, footprint, gauges) = tr.time("stats", || {
        (
            Counters::of(&setup.net),
            setup.net.queued_data(),
            setup.net.total_footprint(),
            setup.net.store_gauges(),
        )
    });
    for &name in &[
        "view_extract",
        "select.fnbp",
        "select.tf",
        "select.qolsr",
        "route",
        "optimal",
    ] {
        tr.time(name, || ());
    }
    tr.exit(root);
    let heap_peak = crate::alloc::peak_bytes();

    let mut checks: Vec<Check> = Vec::new();
    let mut fp = Fingerprint::default();
    fp.feed_debug(&after);
    fp.feed_debug(&window.validity);
    fp.feed_debug(&(queued, footprint, gauges));

    if spec.flows == 0 {
        check(
            &mut checks,
            "decode_errors_zero",
            after.nodes.decode_errors == 0,
            format!("decode_errors = {}", after.nodes.decode_errors),
        );
        check(
            &mut checks,
            "malformed_frames_zero",
            after.nodes.malformed_frames == 0,
            format!("malformed_frames = {}", after.nodes.malformed_frames),
        );
    } else {
        let ledger = drop_breakdown(&after.traffic, &after.engine, queued)
            .and_then(|d| ledger_closes(&d).map(|()| d));
        check(
            &mut checks,
            "drop_ledger_closes",
            ledger.is_ok(),
            match ledger {
                Ok(l) => format!("{l:?}"),
                Err(e) => e,
            },
        );
    }
    check(
        &mut checks,
        "probes_reachable",
        window.validity.reachable > 0,
        format!("{:?}", window.validity),
    );

    let units = spec.window_s;
    let per = |x: u64| x as f64 / units as f64;
    let (e0, e1) = (&before.engine, &after.engine);
    let (n0, n1) = (&before.nodes, &after.nodes);
    let (t0, t1) = (&before.traffic, &after.traffic);
    let mut v = Values::default();

    v.set("setup_s", (median(&setup_ms) + warmup.adjusted_ms) / 1e3);
    let plain_ms: Vec<f64> = window.of(false).map(|c| c.ms).collect();
    let events = e1.events - e0.events;
    v.set("wall_ms_per_unit", window.adjusted_ms_per_chunk());
    v.set(
        "eval.route_validity",
        ratio(window.validity.valid, window.validity.reachable),
    );

    v.set("sim.events", per(events));
    v.set("sim.timers", per(e1.timers - e0.timers));
    v.set("sim.radio.broadcasts", per(e1.broadcasts - e0.broadcasts));
    v.set("sim.radio.deliveries", per(e1.deliveries - e0.deliveries));
    v.set("sim.radio.phy_drops", per(e1.phy_drops - e0.phy_drops));
    v.set("sim.radio.collisions", per(e1.collisions - e0.collisions));
    v.set(
        "sim.stale_dropped",
        per(e1.stale_dropped - e0.stale_dropped),
    );
    v.set(
        "sim.world_changes",
        per(e1.world_changes - e0.world_changes),
    );

    let data_tx = e1.data_unicasts - e0.data_unicasts;
    v.set("sim.traffic.injected", per(t1.injected - t0.injected));
    v.set("sim.traffic.data_tx", per(data_tx));
    v.set("sim.traffic.forwarded", per(t1.forwarded - t0.forwarded));
    v.set(
        "sim.traffic.drop_no_route",
        per(t1.drop_no_route - t0.drop_no_route),
    );
    v.set(
        "sim.traffic.drop_queue_full",
        per(t1.drop_queue_full - t0.drop_queue_full),
    );
    v.set(
        "sim.traffic.drop_ttl",
        per(t1.drop_ttl_expired - t0.drop_ttl_expired),
    );
    v.set(
        "sim.traffic.drop_wiped",
        per(t1.drop_queue_wiped - t0.drop_queue_wiped),
    );
    v.set(
        "sim.traffic.in_flight",
        per(e1.data_in_flight_drops() - e0.data_in_flight_drops()),
    );
    v.set("sim.traffic.event_share", ratio(data_tx, events));
    v.set(
        "sim.traffic.delivery_ratio",
        ratio(t1.delivered - t0.delivered, t1.injected - t0.injected),
    );

    let tc_received = n1.tc_received - n0.tc_received;
    let peek_hits = n1.dup_peek_hits - n0.dup_peek_hits;
    v.set(
        "proto.wire.bytes_decoded",
        per(n1.bytes_decoded - n0.bytes_decoded),
    );
    v.set("proto.wire.dup_peek_hits", per(peek_hits));
    v.set("proto.wire.peek_ratio", ratio(peek_hits, tc_received));
    v.set(
        "proto.wire.malformed",
        per(n1.malformed_frames - n0.malformed_frames),
    );
    v.set(
        "proto.hello_received",
        per(n1.hello_received - n0.hello_received),
    );
    v.set("proto.tc_received", per(tc_received));
    v.set("proto.tc_forwarded", per(n1.tc_forwarded - n0.tc_forwarded));
    v.set("proto.control_bytes", per(n1.bytes_sent - n0.bytes_sent));
    let recomputes = n1.routes_recomputed - n0.routes_recomputed;
    let hits = n1.route_cache_hits - n0.route_cache_hits;
    v.set("proto.routing.recomputes", per(recomputes));
    v.set("proto.routing.cache_hits", per(hits));
    v.set("proto.routing.hit_rate", ratio(hits, hits + recomputes));

    v.set(
        "proto.store.dedup_ratio",
        ratio(gauges.dedup_hits, gauges.dedup_hits + gauges.slots_interned),
    );
    v.set("proto.store.resident_mib", mib(gauges.resident_bytes));
    v.set(
        "proto.tables.resident_mib",
        mib(footprint.topology_bytes + footprint.duplicate_bytes),
    );
    v.set(
        "proto.tables.entries",
        (footprint.topology_entries + footprint.duplicate_entries) as f64,
    );

    if traced {
        let traced_units = window.of(true).count() as f64;
        let traced_events: u64 = window.of(true).map(|c| c.events).sum();
        let by_name = tr.self_ms_by_name();
        let window_span = |n: &str| by_name.get(n).copied().unwrap_or(0.0) / traced_units;
        for (span, metric) in [
            ("run", "span.run_ms"),
            ("route_probe", "span.route_probe_ms"),
            ("validity", "span.validity_ms"),
        ] {
            v.set(metric, window_span(span));
        }
        for (span, metric) in [
            ("deploy", "span.deploy_ms"),
            ("scenario_gen", "span.scenario_gen_ms"),
            ("network_build", "span.network_build_ms"),
            ("install", "span.install_ms"),
        ] {
            v.set(metric, median(&tr.self_ms_of(span)));
        }
        for (span, metric) in crate::metrics::PHASE_SPANS {
            if v.get(metric).is_none() {
                v.set(metric, by_name.get(span).copied().unwrap_or(0.0));
            }
        }
        let run_ns = by_name.get("run").copied().unwrap_or(0.0) * 1e6;
        v.set("sim.ns_per_event", run_ns / traced_events.max(1) as f64);
        v.set(
            "heap.allocs_per_event",
            ratio(tr.allocs_of("run"), traced_events),
        );
        v.set("heap.peak_mib", mib(heap_peak));
        v.set("trace.overhead_pct", window.overhead_pct());
        if spec.shard_check {
            let (equal, k2_ms) = shard_rerun(spec, seed, &after, reference, &mut tr);
            check(
                &mut checks,
                "shard_k2_counters_equal",
                equal,
                "two-shard engine replays the single-queue counters".to_owned(),
            );
            v.set("sim.shard.k2_wall_ratio", k2_ms / window.total_ms());
        }
    }

    Outcome {
        units,
        unit_ms: plain_ms,
        unit_work: window.of(false).map(|c| c.events).collect(),
        unit_ref_ms: window.of(false).map(|c| c.ref_ms).collect(),
        values: v,
        checks,
        fingerprint: fp.value(),
        config: format!("{name} {spec:?}"),
        tracer: tr,
    }
}

/// Replays the run on the two-shard engine, untraced, and compares its
/// final counters with the single-queue run's. Returns whether they match
/// and the window's wall time in ms.
fn shard_rerun(
    spec: &LiveSpec,
    seed: u64,
    single: &Counters,
    reference: &mut Reference,
    tr: &mut Tracer,
) -> (bool, f64) {
    let traced = tr.is_on();
    tr.set_on(false);
    let mut setup = set_up(spec, seed, ExecMode::Sharded { shards: 2 }, tr);
    run_sampled(
        &mut setup.net,
        spec.warmup_s * PARTS,
        reference,
        tr,
        "warmup",
    );
    let window = measure(spec, &mut setup, reference, tr);
    let sharded = Counters::of(&setup.net);
    tr.set_on(traced);
    (sharded == *single, window.total_ms())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_rejects_a_tampered_breakdown() {
        let spec = LiveSpec {
            nodes: 60,
            flows: 8,
            warmup_s: 6,
            window_s: 4,
            probes: 8,
            setups: 1,
            ..LiveSpec::mobile(4)
        };
        let mut setup = set_up(&spec, 7, ExecMode::SingleShard, &mut Tracer::new(false, 0));
        setup
            .net
            .run_until(SimTime::ZERO + SimDuration::from_secs(spec.warmup_s + spec.window_s));
        let c = Counters::of(&setup.net);
        let ledger = drop_breakdown(&c.traffic, &c.engine, setup.net.queued_data())
            .expect("frames sent cover frames received");
        assert!(ledger.injected > 0, "the flows must inject packets");
        assert_eq!(ledger_closes(&ledger), Ok(()));

        let mut tampered = ledger;
        tampered.delivered += 1;
        assert!(ledger_closes(&tampered).is_err());
        let mut tampered = ledger;
        tampered.in_flight = tampered.in_flight.wrapping_sub(1);
        assert!(ledger_closes(&tampered).is_err());

        let mut engine = c.engine;
        engine.data_deliveries = engine.data_unicasts + 1;
        assert!(drop_breakdown(&c.traffic, &engine, 0).is_err());
    }
}
