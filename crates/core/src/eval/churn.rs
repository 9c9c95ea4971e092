//! Churn-robustness experiment: live OLSR protocol under mobility and
//! node churn, per selector.
//!
//! Where [`robustness`](crate::eval::robustness) studies a single
//! stale-snapshot instant analytically, this experiment runs the *full
//! discrete-event protocol* against a dynamic world: after a static
//! warm-up, a seeded scenario (random-waypoint motion + Poisson node
//! churn + optional Gauss–Markov weight drift) rewrites the topology
//! while HELLO/TC exchange keeps running. At fixed sample instants two
//! time curves are measured per selector:
//!
//! * **route validity** — the fraction of probe pairs whose packets reach
//!   the destination when forwarded hop by hop over the nodes' *current*
//!   routing tables across the *current* ground truth (dead next-hop
//!   links drop the packet);
//! * **advertised staleness** — the fraction of links in nodes' last
//!   advertised sets (TC content) that no longer exist in ground truth;
//! * **selection drift** — how far each node's advertised set has
//!   diverged from what its selector would choose on the *current*
//!   ground-truth view (Jaccard distance), each view extracted afresh
//!   from the world's graph at every sample.
//!
//! Every selector replays the *same* deployments and the same world
//! evolution (scenario generation is independent of the protocol), so
//! curves differ only by selection policy. Runs shard over the
//! [`sweep`](crate::eval) driver's worker threads; per-run aggregation is
//! ordered, making results independent of thread count.

use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::{LocalView, NodeId, Topology};
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::{AdvertisePolicy, OlsrConfig};
use qolsr_sim::scenario::{GaussMarkovDrift, PoissonChurn, RandomWaypoint, ScenarioBuilder};
use qolsr_sim::stats::OnlineStats;
use qolsr_sim::{RadioConfig, Scenario, SimDuration, SimRng, SimTime};

use crate::advertised::select_on_views;
use crate::eval::{
    connected_pairs, derive_seed, live_network, sample_times, sweep, LiveNetwork, Merge, QosMetric,
    SelectorKind, ShardInvariant, Skip, SkippedWorlds,
};
use crate::report::Figure;

/// Scenario intensity knobs of the churn experiment.
#[derive(Debug, Clone, Copy)]
pub struct ChurnScenario {
    /// Node speed range (distance units per second).
    pub speed: (f64, f64),
    /// Pause at each waypoint.
    pub pause: SimDuration,
    /// Motion / link-recomputation tick.
    pub tick: SimDuration,
    /// Network-wide node departures per second.
    pub leave_rate: f64,
    /// Mean downtime of a departed node.
    pub mean_downtime: SimDuration,
    /// Optional Gauss–Markov weight drift `(alpha, sigma)`.
    pub drift: Option<(f64, f64)>,
}

impl Default for ChurnScenario {
    fn default() -> Self {
        Self {
            // Pedestrian-to-vehicle speeds relative to R = 100.
            speed: (2.0, 10.0),
            pause: SimDuration::from_secs(4),
            tick: SimDuration::from_secs(1),
            leave_rate: 0.1,
            mean_downtime: SimDuration::from_secs(10),
            drift: Some((0.9, 1.0)),
        }
    }
}

impl ChurnScenario {
    /// The seeded waypoint + churn + drift schedule of this intensity
    /// over a `field`, `horizon` long — the dynamic world of the churn
    /// and traffic experiments.
    pub(crate) fn build(
        &self,
        topo: &Topology,
        field: (f64, f64),
        weights: UniformWeights,
        horizon: SimDuration,
        seed: u64,
    ) -> Scenario {
        let waypoint = RandomWaypoint::new(field, self.tick, self.speed, self.pause, weights);
        let mut builder = ScenarioBuilder::new(topo, seed).with(waypoint);
        // Rate zero means "no churn at all" (the leave-rate sweep's
        // baseline point); [`PoissonChurn`] itself rejects it.
        if self.leave_rate > 0.0 {
            builder = builder.with(PoissonChurn::new(
                self.leave_rate,
                self.mean_downtime,
                weights,
            ));
        }
        if let Some((alpha, sigma)) = self.drift {
            let clamp = (weights.min, weights.max);
            builder = builder.with(GaussMarkovDrift::new(self.tick, alpha, clamp, sigma));
        }
        builder.generate(horizon)
    }
}

/// Configuration of the churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Mean node degree of the deployment.
    pub density: f64,
    /// Independent worlds.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Link-weight interval (initial labels, rejoin labels, drift clamp).
    pub weights: UniformWeights,
    /// Field width and height.
    pub field: (f64, f64),
    /// Communication radius `R`.
    pub radius: f64,
    /// Static warm-up before the scenario starts (protocol convergence).
    pub warmup: SimDuration,
    /// Dynamic phase length (scenario horizon).
    pub dynamic: SimDuration,
    /// Interval between measurement samples.
    pub sample_every: SimDuration,
    /// Probe source/destination pairs per world.
    pub probes: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Scenario intensity.
    pub scenario: ChurnScenario,
    /// Protocol configuration of every node — the hook for running the
    /// churn experiment under non-default timing or TC scoping
    /// ([`qolsr_proto::TcScoping`]).
    pub olsr: OlsrConfig,
    /// Engine shard count (identical counters at any count — see
    /// [`crate::eval::exec_mode`]).
    pub shards: u32,
    /// The QoS metric the selectors select under.
    pub metric: QosMetric,
}

impl ChurnConfig {
    /// Defaults: a `500 × 500` field at density 10 (≈ 80 nodes), 30 s
    /// warm-up, 60 s of dynamics sampled every 5 s.
    pub fn new(runs: u32) -> Self {
        Self {
            density: 10.0,
            runs,
            seed: 0x51C0_2010,
            weights: UniformWeights::new(1, 100),
            field: (500.0, 500.0),
            radius: 100.0,
            warmup: SimDuration::from_secs(30),
            dynamic: SimDuration::from_secs(60),
            sample_every: SimDuration::from_secs(5),
            probes: 8,
            threads: 0,
            scenario: ChurnScenario::default(),
            olsr: OlsrConfig::default(),
            shards: 1,
            metric: QosMetric::Bandwidth,
        }
    }
}

/// Aggregates of one sample instant.
#[derive(Debug, Clone)]
pub struct ChurnSample {
    /// Seconds since simulation start.
    pub at_secs: f64,
    /// Route validity over the probe pairs.
    pub validity: OnlineStats,
    /// Stale advertised-link fraction over the nodes.
    pub staleness: OnlineStats,
    /// Selection drift: Jaccard distance between each node's advertised
    /// set and its selector's choice on current ground truth.
    pub drift: OnlineStats,
}

impl Merge for ChurnSample {
    fn merge(&mut self, other: &Self) {
        self.validity.merge(&other.validity);
        self.staleness.merge(&other.staleness);
        self.drift.merge(&other.drift);
    }
}

/// Time curves of one selector.
#[derive(Debug, Clone)]
pub struct ChurnMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// One aggregate per sample instant.
    pub per_sample: Vec<ChurnSample>,
    /// Worlds of the sweep no selector was measured on (the same for
    /// every selector: they share the worlds).
    pub skipped: SkippedWorlds,
}

impl Merge for ChurnMeasures {
    fn merge(&mut self, other: &Self) {
        self.per_sample.merge(&other.per_sample);
    }
}

impl ShardInvariant for ChurnMeasures {}

/// Runs the churn experiment for the given selectors.
///
/// Per run: one Poisson deployment, one scenario (identical for every
/// selector), one live OLSR network per selector, probed at the sample
/// instants. Runs shard over worker threads; per-run results merge in run
/// order, so output is independent of thread count.
pub fn churn_experiment(cfg: &ChurnConfig, kinds: &[SelectorKind]) -> Vec<ChurnMeasures> {
    // Sample instants (absolute virtual time), warm-up end included.
    let start = SimTime::ZERO + cfg.warmup;
    let times = sample_times(start, start + cfg.dynamic, cfg.sample_every);
    let empty = || {
        let sample = |t: &SimTime| ChurnSample {
            at_secs: t.as_secs_f64(),
            validity: OnlineStats::new(),
            staleness: OnlineStats::new(),
            drift: OnlineStats::new(),
        };
        let per_sample: Vec<ChurnSample> = times.iter().map(sample).collect();
        let measures = |&kind: &SelectorKind| ChurnMeasures {
            kind,
            per_sample: per_sample.clone(),
            skipped: SkippedWorlds::default(),
        };
        kinds.iter().map(measures).collect::<Vec<_>>()
    };
    let (mut measures, skipped) = sweep(cfg.threads, cfg.runs, empty, |run, inner, accum| {
        single_churn_run(
            cfg,
            derive_seed(cfg.seed, 0, run),
            kinds,
            &times,
            inner,
            accum,
        )
    });
    measures.iter_mut().for_each(|m| m.skipped = skipped);
    measures
}

fn single_churn_run(
    cfg: &ChurnConfig,
    seed: u64,
    kinds: &[SelectorKind],
    times: &[SimTime],
    inner_threads: usize,
    accum: &mut [ChurnMeasures],
) -> Result<(), Skip> {
    let mut rng = SimRng::seed_from_u64(seed);
    let deployment = Deployment {
        width: cfg.field.0,
        height: cfg.field.1,
        radius: cfg.radius,
        mean_degree: cfg.density,
    };
    let topo = deploy(&deployment, &cfg.weights, &mut rng);
    if topo.len() < 4 {
        return Err(Skip::TooSmall);
    }
    // One scenario per world, shared verbatim by every selector.
    let scenario = cfg.scenario.build(
        &topo,
        cfg.field,
        cfg.weights,
        cfg.dynamic,
        seed ^ 0xD1A5_0CE2,
    );
    let probes = connected_pairs(&topo, cfg.probes, 4096, false, &mut rng);
    if probes.is_empty() {
        return Err(Skip::NoProbes);
    }

    for (si, &kind) in kinds.iter().enumerate() {
        let radio = RadioConfig::default();
        let mut net = live_network(&topo, cfg.olsr, radio, seed, cfg.shards, kind, cfg.metric);
        // The world stays static through warm-up; dynamics start after.
        net.install_scenario_at(&scenario, SimTime::ZERO + cfg.warmup);

        for (ti, &at) in times.iter().enumerate() {
            net.run_until(at);
            sample_network(&net, &probes, inner_threads, &mut accum[si].per_sample[ti]);
        }
    }
    Ok(())
}

/// Probes and aggregates one network at the current instant.
///
/// The selection-drift measurement — one selector run per active node —
/// is the sample's hot loop; it fans out over `inner_threads` workers
/// when run-level sharding leaves threads to spare (few large worlds).
/// Aggregation walks nodes in ascending order either way, so results are
/// independent of the fan-out.
fn sample_network(
    net: &LiveNetwork,
    probes: &[(NodeId, NodeId)],
    inner_threads: usize,
    sample: &mut ChurnSample,
) {
    let world = net.world();
    for &(s, t) in probes {
        match probe_route(net, s, t) {
            ProbeOutcome::Delivered(_) => sample.validity.push(1.0),
            ProbeOutcome::Dropped => sample.validity.push(0.0),
            // An endpoint is powered off: not a routing failure.
            ProbeOutcome::EndpointDown => {}
        }
    }

    // Ground-truth views, extracted from the world's current graph;
    // waypoint motion changes the world between any two samples, so no
    // view outlives its sample. The per-node selector runs fan out over
    // the views.
    let active: Vec<NodeId> = world.nodes().filter(|&u| world.is_active(u)).collect();
    let views: Vec<LocalView> = active
        .iter()
        .map(|&u| LocalView::extract_graph(world.graph(), u))
        .collect();
    // Selectors are pure functions of the view and every node of a churn
    // network is built with the same kind, so one node's instance stands
    // in for all of them.
    let selector = net
        .node(*active.first().unwrap_or(&NodeId(0)))
        .policy()
        .selector();
    let ideals = select_on_views(selector.as_ref(), &views, inner_threads);

    for (&u, ideal) in active.iter().zip(&ideals) {
        let advertised = net.node(u).advertised();
        if !advertised.is_empty() {
            let stale = advertised
                .iter()
                .filter(|&&(w, _)| !world.has_link(u, w))
                .count();
            sample
                .staleness
                .push(stale as f64 / advertised.len() as f64);
        }
        // Selection drift: what the selector would advertise on current
        // ground truth vs what the node last advertised.
        let current: std::collections::BTreeSet<NodeId> =
            advertised.iter().map(|&(w, _)| w).collect();
        let union = ideal.union(&current).count();
        if union > 0 {
            let common = ideal.intersection(&current).count();
            sample.drift.push((union - common) as f64 / union as f64);
        }
    }
}

/// Outcome of forwarding one packet hop by hop over the nodes' current
/// routing tables across the current ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Reached the destination in this many hops.
    Delivered(u32),
    /// Dropped: a node had no route, its next-hop link is dead, or
    /// forwarding looped.
    Dropped,
    /// Source or destination is currently powered off.
    EndpointDown,
}

/// Forwards one packet `s → t` hop by hop: each traversed node consults
/// its *own* current routing table, and every hop must exist in ground
/// truth. This is the route-validity semantics shared by the churn
/// experiment and the examples.
///
/// Per-hop lookups go through each node's incremental route cache
/// ([`qolsr_proto::OlsrNode::route_to`]), so probing many pairs over the
/// same quiet network costs one table compute per traversed node, total,
/// with no per-probe allocation.
pub fn probe_route<P: AdvertisePolicy>(net: &OlsrNetwork<P>, s: NodeId, t: NodeId) -> ProbeOutcome {
    let world = net.world();
    if !world.is_active(s) || !world.is_active(t) {
        return ProbeOutcome::EndpointDown;
    }
    let now = net.now();
    let mut cur = s;
    let mut hops = 0u32;
    while cur != t {
        hops += 1;
        if hops as usize > world.len() {
            return ProbeOutcome::Dropped; // forwarding loop
        }
        let Some(entry) = net.node(cur).route_to(t, now) else {
            return ProbeOutcome::Dropped; // no route known
        };
        if !world.has_link(cur, entry.next_hop) {
            return ProbeOutcome::Dropped; // next hop died under the table
        }
        if world.partitioned(cur, entry.next_hop) {
            return ProbeOutcome::Dropped; // hop crosses an active partition
        }
        cur = entry.next_hop;
    }
    ProbeOutcome::Delivered(hops)
}

/// The churn-over-time figures — route validity, advertised staleness and
/// selection drift — each with its CSV slug.
pub fn figures(cfg: &ChurnConfig, results: &[ChurnMeasures]) -> Vec<(String, Figure)> {
    let m = cfg.metric.name();
    let d = cfg.density;
    let figure =
        |slug: &str, title: String, ylabel: &str, stat: fn(&ChurnSample) -> &OnlineStats| {
            let series = results.iter().map(|r| {
                let points = r.per_sample.iter().map(move |s| (s.at_secs, stat(s)));
                (r.kind.label(), points)
            });
            let fig = Figure::from_stats(&title, "time (s)", ylabel, series);
            (format!("churn_{slug}_{m}"), fig)
        };
    vec![
        figure(
            "route_validity",
            format!(
                "Churn — route validity over time (waypoint + churn + drift, δ={d}, {m} metric)"
            ),
            "route validity (hop-by-hop delivery)",
            |s| &s.validity,
        ),
        figure(
            "advertised_staleness",
            format!("Churn — advertised-set staleness over time (δ={d}, {m} metric)"),
            "stale advertised-link fraction",
            |s| &s.staleness,
        ),
        figure(
            "selection_drift",
            format!("Churn — selection drift vs current ground truth (δ={d}, {m} metric)"),
            "selection drift vs current ground truth (Jaccard)",
            |s| &s.drift,
        ),
    ]
}

/// One x-axis point of the leave-rate sweep: every sample instant of
/// every run at that rate, pooled.
#[derive(Debug, Clone)]
pub struct LeaveRatePoint {
    /// Network-wide node departures per second.
    pub leave_rate: f64,
    /// Route validity pooled over the dynamic phase.
    pub validity: OnlineStats,
    /// Stale advertised-link fraction pooled over the dynamic phase.
    pub staleness: OnlineStats,
    /// Selection drift pooled over the dynamic phase.
    pub drift: OnlineStats,
}

/// Leave-rate curves of one selector.
#[derive(Debug, Clone)]
pub struct LeaveRateMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// One pooled aggregate per swept leave rate.
    pub per_rate: Vec<LeaveRatePoint>,
    /// Worlds no selector was measured on (every rate runs the same
    /// worlds).
    pub skipped: SkippedWorlds,
}

impl ShardInvariant for LeaveRateMeasures {}

/// Sweeps the churn experiment over departure rates: the x-axis becomes
/// churn *intensity* instead of time. Each rate runs the full experiment
/// (same seeds, same worlds — only the scenario's leave rate differs)
/// and pools every sample instant of every run into one aggregate, so a
/// point answers "how does this selector hold up, on average, while the
/// network churns at this rate".
pub fn leave_rate_sweep(
    cfg: &ChurnConfig,
    rates: &[f64],
    kinds: &[SelectorKind],
) -> Vec<LeaveRateMeasures> {
    let mut out: Vec<LeaveRateMeasures> = kinds
        .iter()
        .map(|&kind| LeaveRateMeasures {
            kind,
            per_rate: Vec::with_capacity(rates.len()),
            skipped: SkippedWorlds::default(),
        })
        .collect();
    for &leave_rate in rates {
        let mut swept = cfg.clone();
        swept.scenario.leave_rate = leave_rate;
        for (m, r) in out.iter_mut().zip(churn_experiment(&swept, kinds)) {
            let mut point = LeaveRatePoint {
                leave_rate,
                validity: OnlineStats::new(),
                staleness: OnlineStats::new(),
                drift: OnlineStats::new(),
            };
            for sample in &r.per_sample {
                point.validity.merge(&sample.validity);
                point.staleness.merge(&sample.staleness);
                point.drift.merge(&sample.drift);
            }
            m.per_rate.push(point);
            m.skipped = r.skipped;
        }
    }
    out
}

/// The leave-rate figures — route validity and advertised staleness
/// against departures per second — each with its CSV slug.
pub fn leave_rate_figures(
    cfg: &ChurnConfig,
    results: &[LeaveRateMeasures],
) -> Vec<(String, Figure)> {
    let m = cfg.metric.name();
    let d = cfg.density;
    let figure =
        |slug: &str, title: String, ylabel: &str, stat: fn(&LeaveRatePoint) -> &OnlineStats| {
            let series = results.iter().map(|r| {
                let points = r.per_rate.iter().map(move |p| (p.leave_rate, stat(p)));
                (r.kind.label(), points)
            });
            let fig = Figure::from_stats(&title, "departures per second", ylabel, series);
            (format!("churn_leave_rate_{slug}_{m}"), fig)
        };
    vec![
        figure(
            "validity",
            format!(
                "Churn — route validity vs departure rate (waypoint + churn + drift, δ={d}, \
                 {m} metric)"
            ),
            "route validity (hop-by-hop delivery)",
            |s| &s.validity,
        ),
        figure(
            "staleness",
            format!("Churn — advertised-set staleness vs departure rate (δ={d}, {m} metric)"),
            "stale advertised-link fraction",
            |s| &s.staleness,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ChurnConfig {
        ChurnConfig {
            density: 8.0,
            field: (300.0, 300.0),
            warmup: SimDuration::from_secs(15),
            dynamic: SimDuration::from_secs(20),
            sample_every: SimDuration::from_secs(5),
            probes: 4,
            threads: 2,
            seed: 3,
            ..ChurnConfig::new(2)
        }
    }

    #[test]
    fn produces_curves_for_every_selector_and_sample() {
        let cfg = tiny_cfg();
        let kinds = [SelectorKind::Fnbp, SelectorKind::QolsrMpr2];
        let results = churn_experiment(&cfg, &kinds);
        assert_eq!(results.len(), 2);
        // t = 15, 20, ..., 35 s.
        let expected_samples = 5;
        for r in &results {
            assert_eq!(r.per_sample.len(), expected_samples);
            let first = &r.per_sample[0];
            assert_eq!(first.at_secs, cfg.warmup.as_secs_f64());
            assert!(first.validity.count() > 0, "{:?} sampled no probes", r.kind);
            assert!(first.drift.count() > 0, "{:?} sampled no drift", r.kind);
        }
    }

    #[test]
    fn warmup_sample_is_converged_and_valid() {
        let cfg = tiny_cfg();
        let results = churn_experiment(&cfg, &[SelectorKind::Fnbp]);
        let first = &results[0].per_sample[0];
        // Before any world change, routes must deliver and nothing is
        // stale.
        assert!(
            first.validity.mean() > 0.95,
            "warm-up validity {} too low",
            first.validity.mean()
        );
        assert!(
            first.staleness.mean() < 0.05,
            "warm-up staleness {} too high",
            first.staleness.mean()
        );
        assert!(
            first.drift.mean() < 0.1,
            "warm-up selection drift {} too high",
            first.drift.mean()
        );
    }

    #[test]
    fn fisheye_scoping_plumbs_through_churn() {
        use qolsr_proto::{FisheyeRing, FisheyeRings, TcScoping};
        let mut cfg = tiny_cfg();
        cfg.olsr = OlsrConfig {
            tc_scoping: TcScoping::Fisheye(FisheyeRings::default()),
            ..OlsrConfig::default()
        };
        let scoped = churn_experiment(&cfg, &[SelectorKind::Fnbp]);
        let first = &scoped[0].per_sample[0];
        // A converged (warm-up) world still routes: the full-radius ring
        // fires on every node's first TC tick, so bootstrap convergence
        // is not delayed by scoping (and this tiny world fits inside the
        // default mid ring anyway).
        assert!(
            first.validity.mean() > 0.9,
            "scoped warm-up validity {}",
            first.validity.mean()
        );
        // The knob really reaches the nodes: a near-only ring table
        // (2-hop scope, no full-radius ring, past-2-hop knowledge only
        // from HELLO reports) must visibly degrade long-pair validity
        // relative to the uniform run of the same worlds.
        let mut near_cfg = tiny_cfg();
        near_cfg.olsr = OlsrConfig {
            tc_scoping: TcScoping::Fisheye(
                FisheyeRings::new(&[FisheyeRing { ttl: 2, every: 1 }]).unwrap(),
            ),
            ..OlsrConfig::default()
        };
        let near = churn_experiment(&near_cfg, &[SelectorKind::Fnbp]);
        let uniform = churn_experiment(&tiny_cfg(), &[SelectorKind::Fnbp]);
        let render = |rs: &[ChurnMeasures]| figures(&cfg, rs)[0].1.render_csv();
        assert_ne!(
            render(&near),
            render(&uniform),
            "near-only scoping must change the validity curves"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut one = tiny_cfg();
        one.threads = 1;
        let mut many = tiny_cfg();
        many.threads = 3;
        let a = churn_experiment(&one, &[SelectorKind::Fnbp]);
        let b = churn_experiment(&many, &[SelectorKind::Fnbp]);
        for (x, y) in a[0].per_sample.iter().zip(&b[0].per_sample) {
            assert_eq!(x.validity.count(), y.validity.count());
            assert_eq!(x.validity.mean(), y.validity.mean());
            assert_eq!(x.staleness.mean(), y.staleness.mean());
            assert_eq!(x.drift.mean(), y.drift.mean());
        }
    }

    #[test]
    fn leave_rate_sweep_pools_samples_per_rate() {
        let cfg = tiny_cfg();
        let rates = [0.0, 0.4];
        let results = leave_rate_sweep(&cfg, &rates, &[SelectorKind::Fnbp]);
        assert_eq!(results.len(), 1);
        let per_rate = &results[0].per_rate;
        assert_eq!(per_rate.len(), rates.len());
        for (point, &rate) in per_rate.iter().zip(&rates) {
            assert_eq!(point.leave_rate, rate);
            // Pooled over every sample instant of every run.
            assert!(point.validity.count() >= 5);
        }
        // The rate really reaches the scenario generator: distinct rates
        // must produce distinct pooled curves on the same worlds.
        let (slug, fig) = &leave_rate_figures(&cfg, &results)[0];
        assert_eq!(slug, "churn_leave_rate_validity_bandwidth");
        assert_eq!(fig.series[0].points.len(), 2);
        assert_ne!(
            (per_rate[0].validity.mean(), per_rate[0].staleness.mean()),
            (per_rate[1].validity.mean(), per_rate[1].staleness.mean()),
            "leave rate 0.0 and 0.4 produced identical aggregates"
        );
    }

    #[test]
    fn figures_render() {
        let cfg = tiny_cfg();
        let results = churn_experiment(&cfg, &[SelectorKind::Fnbp]);
        let figs = figures(&cfg, &results);
        let slugs: Vec<&str> = figs.iter().map(|(slug, _)| slug.as_str()).collect();
        assert_eq!(
            slugs,
            [
                "churn_route_validity_bandwidth",
                "churn_advertised_staleness_bandwidth",
                "churn_selection_drift_bandwidth"
            ]
        );
        let (v, s) = (&figs[0].1, &figs[1].1);
        assert_eq!(v.series.len(), 1);
        assert!(v.render_text().contains("route validity over time"));
        assert!(s.render_csv().lines().count() >= 2);
    }
}
