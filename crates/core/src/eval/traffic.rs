//! End-to-end data-plane experiment: seeded application flows forwarded
//! hop by hop over the live route caches, per selector, as radio loss
//! rises — optionally under mobility and churn.
//!
//! The control-plane experiments ([`loss`](crate::eval::loss),
//! [`churn`](crate::eval::churn)) measure whether routes *exist*; this
//! one measures whether they *serve*. Each run deploys one world, starts
//! [`FlowModel::Cbr`] and [`FlowModel::BurstyVideo`] flows between
//! connected pairs (the QoSIP workload mix), and lets every packet live
//! the full lifecycle: bounded transmit queues, per-hop route lookup,
//! the lossy PHY, TTL, and — when mobility is on — moving nodes and
//! reboots that wipe queues mid-flight. Per (loss level, selector) the
//! sweep reports:
//!
//! * **delivery ratio** — packets delivered end-to-end over packets
//!   injected;
//! * **mean and p99 delay** — end-to-end, from the per-flow log₂ delay
//!   histograms;
//! * **jitter** — RFC 3550-style mean inter-arrival delay variation;
//! * **drop-cause breakdown** — exact counts of every way a packet can
//!   die: no route, queue overflow, TTL expiry, reboot-wiped queues, and
//!   the in-flight radio causes (PHY loss, FCS, partition, collision,
//!   stale delivery).
//!
//! Every selector replays the *same* deployments, the same flow set and
//! the same mobility schedule at every loss level, so curves differ only
//! by selection policy and channel. The whole experiment runs unchanged
//! at any engine shard count; [`traffic_experiment_verified`] pins a
//! sharded run against the one-shard run.

use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::{NodeId, Topology};
use qolsr_metrics::{BandwidthMetric, DelayMetric};
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::OlsrConfig;
use qolsr_sim::scenario::{GaussMarkovDrift, PoissonChurn, RandomWaypoint, ScenarioBuilder};
use qolsr_sim::stats::OnlineStats;
use qolsr_sim::{
    FlowModel, FlowRecord, FlowSpec, LossyPhy, PhyModel, RadioConfig, Scenario, SchedulerKind,
    SimDuration, SimRng, SimTime,
};

use crate::eval::churn::{ChurnMetric, ChurnScenario};
use crate::eval::scale::{deploy_field, field_side};
use crate::eval::{derive_seed, exec_mode, sharded_runs, EvalMetric, SelectorKind, ShardPlan};
use crate::policy::SelectorPolicy;
use crate::report::{Figure, Point, Series};

/// Configuration of the data-plane traffic sweep.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Edge drop probabilities to sweep, in parts per million (the
    /// figures' x-axis, as a fraction).
    pub levels: Vec<u32>,
    /// Distance falloff exponent of the drop curve.
    pub exponent: u32,
    /// Collision capture window (zero disables collisions).
    pub capture_window: SimDuration,
    /// Nodes per world (the field grows to hold them at `density`).
    pub nodes: usize,
    /// Independent worlds per level.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Mean node degree.
    pub density: f64,
    /// Communication radius `R`.
    pub radius: f64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// Unmeasured control-plane warm-up; flows (and mobility) start at
    /// its end, so routes exist before the first packet.
    pub warmup: SimDuration,
    /// Measured traffic window.
    pub measure: SimDuration,
    /// Concurrent flows per world; endpoints are connected pairs of the
    /// initial deployment. Odd-indexed flows are bursty video, the rest
    /// CBR.
    pub flows: usize,
    /// Application payload bytes per packet.
    pub payload: u16,
    /// CBR packet spacing.
    pub cbr_interval: SimDuration,
    /// Bursty-video frame spacing.
    pub frame_interval: SimDuration,
    /// Bursty-video packets per frame, `(min, max)` inclusive.
    pub burst: (u8, u8),
    /// Mobility/churn running through the measured window (`None` keeps
    /// the world static — the pure channel sweep).
    pub mobility: Option<ChurnScenario>,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Protocol configuration of every node (queue capacity, service
    /// rate and data TTL live in [`OlsrConfig::traffic`]).
    pub olsr: OlsrConfig,
    /// Engine shard count (identical results at any count; see
    /// [`traffic_experiment_verified`]).
    pub shards: u32,
}

impl TrafficConfig {
    /// Defaults: 250 nodes at the paper's density 10 and radius 100,
    /// edge drop 0 → 40 %, 30 s warm-up then 30 s of traffic from
    /// 16 flows (CBR every 200 ms interleaved with 2–6-packet video
    /// bursts every 500 ms), under the default mobility/churn scenario.
    pub fn new(runs: u32) -> Self {
        Self {
            levels: vec![0, 200_000, 400_000],
            exponent: 2,
            capture_window: SimDuration::ZERO,
            nodes: 250,
            runs,
            seed: 0x51C0_2010,
            density: 10.0,
            radius: 100.0,
            weights: UniformWeights::new(1, 100),
            warmup: SimDuration::from_secs(30),
            measure: SimDuration::from_secs(30),
            flows: 16,
            payload: 256,
            cbr_interval: SimDuration::from_millis(200),
            frame_interval: SimDuration::from_millis(500),
            burst: (2, 6),
            mobility: Some(ChurnScenario::default()),
            threads: 0,
            olsr: OlsrConfig::default(),
            shards: 1,
        }
    }

    fn radio(&self, edge_drop_ppm: u32) -> RadioConfig {
        RadioConfig {
            phy: PhyModel::Lossy(LossyPhy {
                edge_drop_ppm,
                exponent: self.exponent,
                capture_window: self.capture_window,
            }),
            ..RadioConfig::default()
        }
    }

    /// The instant flows (and mobility) start.
    fn traffic_at(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    /// The end of the measured window.
    fn end_at(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.measure
    }

    /// The flow set over sampled connected endpoint pairs: odd indices
    /// bursty video, even CBR, all starting at warm-up end.
    fn build_flows(&self, pairs: &[(NodeId, NodeId)]) -> Vec<FlowSpec> {
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
                start: self.traffic_at(),
            })
            .collect()
    }

    /// The mobility schedule (when enabled), relative to the traffic
    /// start; the same build as the churn experiment's.
    fn build_scenario(&self, topo: &Topology, side: f64, seed: u64) -> Option<Scenario> {
        let sc = self.mobility?;
        let mut builder = ScenarioBuilder::new(topo, seed).with(RandomWaypoint::new(
            (side, side),
            sc.tick,
            sc.speed,
            sc.pause,
            self.weights,
        ));
        if sc.leave_rate > 0.0 {
            builder = builder.with(PoissonChurn::new(
                sc.leave_rate,
                sc.mean_downtime,
                self.weights,
            ));
        }
        if let Some((alpha, sigma)) = sc.drift {
            builder = builder.with(GaussMarkovDrift::new(
                sc.tick,
                alpha,
                (self.weights.min, self.weights.max),
                sigma,
            ));
        }
        Some(builder.generate(self.measure))
    }
}

/// Exact packet-fate totals of one selector at one loss level, summed
/// over the runs. Every injected packet lands in exactly one bucket
/// (delivery, a node-level drop, an in-flight radio drop, still queued,
/// or still in the air when the window closed), so rows audit against
/// `injected`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DropBreakdown {
    /// Packets injected at sources.
    pub injected: u64,
    /// Packets delivered end-to-end.
    pub delivered: u64,
    /// Dropped: no route to the destination at service time.
    pub no_route: u64,
    /// Dropped: transmit queue at capacity (source or relay).
    pub queue_full: u64,
    /// Dropped: TTL expired at a relay.
    pub ttl_expired: u64,
    /// Dropped: queued packets wiped by a reboot.
    pub queue_wiped: u64,
    /// Dropped in flight by the radio path: PHY loss, FCS, partition,
    /// collision, or stale delivery to a dead/rehomed node.
    pub in_flight: u64,
    /// Still sitting in transmit queues when the window closed.
    pub queued: u64,
    /// Transmitted frames whose radio delivery was still pending when
    /// the window closed.
    pub in_air: u64,
}

impl DropBreakdown {
    fn add(&mut self, other: &DropBreakdown) {
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.no_route += other.no_route;
        self.queue_full += other.queue_full;
        self.ttl_expired += other.ttl_expired;
        self.queue_wiped += other.queue_wiped;
        self.in_flight += other.in_flight;
        self.queued += other.queued;
        self.in_air += other.in_air;
    }

    /// Sum over every non-delivery fate — with [`Self::delivered`] this
    /// must equal [`Self::injected`] (packet conservation).
    pub fn accounted_losses(&self) -> u64 {
        self.no_route
            + self.queue_full
            + self.ttl_expired
            + self.queue_wiped
            + self.in_flight
            + self.queued
            + self.in_air
    }
}

/// Aggregates of one selector at one loss level.
#[derive(Debug, Clone)]
pub struct TrafficLevelMeasures {
    /// The swept edge drop probability, ppm.
    pub edge_drop_ppm: u32,
    /// End-to-end delivery ratio (one sample per run).
    pub delivery: OnlineStats,
    /// Mean end-to-end delay over delivered packets, ms (per run).
    pub delay_ms: OnlineStats,
    /// p99 end-to-end delay bound from the merged delay histogram, ms
    /// (per run).
    pub p99_delay_ms: OnlineStats,
    /// Mean inter-arrival jitter, ms (per run).
    pub jitter_ms: OnlineStats,
    /// Mean hops per delivered packet (per run).
    pub hops: OnlineStats,
    /// Exact drop-cause totals across the runs.
    pub drops: DropBreakdown,
}

/// All measurements of one selector across the sweep.
#[derive(Debug, Clone)]
pub struct TrafficMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// One aggregate per swept level, in sweep order.
    pub per_level: Vec<TrafficLevelMeasures>,
}

impl TrafficMeasures {
    fn empty(kind: SelectorKind, levels: &[u32]) -> Self {
        Self {
            kind,
            per_level: levels
                .iter()
                .map(|&edge_drop_ppm| TrafficLevelMeasures {
                    edge_drop_ppm,
                    delivery: OnlineStats::new(),
                    delay_ms: OnlineStats::new(),
                    p99_delay_ms: OnlineStats::new(),
                    jitter_ms: OnlineStats::new(),
                    hops: OnlineStats::new(),
                    drops: DropBreakdown::default(),
                })
                .collect(),
        }
    }

    fn merge(&mut self, other: &TrafficMeasures) {
        for (mine, theirs) in self.per_level.iter_mut().zip(&other.per_level) {
            mine.delivery.merge(&theirs.delivery);
            mine.delay_ms.merge(&theirs.delay_ms);
            mine.p99_delay_ms.merge(&theirs.p99_delay_ms);
            mine.jitter_ms.merge(&theirs.jitter_ms);
            mine.hops.merge(&theirs.hops);
            mine.drops.add(&theirs.drops);
        }
    }
}

/// Runs the traffic sweep under metric `M` for the given selectors.
///
/// Per run one deployment, one flow set and one mobility schedule are
/// generated (identical across levels and selectors — their seeds depend
/// only on the run index), then every (level, selector) pair runs a live
/// network with the data plane on. Runs shard over worker threads;
/// per-run results merge in run order, so output is independent of
/// thread count.
pub fn traffic_experiment<M: EvalMetric>(
    cfg: &TrafficConfig,
    kinds: &[SelectorKind],
) -> Vec<TrafficMeasures> {
    let plan = ShardPlan::new(cfg.threads, cfg.runs);
    let per_run = sharded_runs(cfg.runs, plan.workers, |run| {
        let mut local: Vec<TrafficMeasures> = kinds
            .iter()
            .map(|&k| TrafficMeasures::empty(k, &cfg.levels))
            .collect();
        single_traffic_run::<M>(cfg, run, kinds, &mut local);
        local
    });
    let mut totals: Vec<TrafficMeasures> = kinds
        .iter()
        .map(|&k| TrafficMeasures::empty(k, &cfg.levels))
        .collect();
    for run_measures in per_run {
        for (total, m) in totals.iter_mut().zip(&run_measures) {
            total.merge(m);
        }
    }
    totals
}

/// Runs the traffic sweep with the metric chosen at runtime — the
/// dispatch point behind the `figures traffic --metric` flag.
pub fn traffic_experiment_with(
    metric: ChurnMetric,
    cfg: &TrafficConfig,
    kinds: &[SelectorKind],
) -> Vec<TrafficMeasures> {
    match metric {
        ChurnMetric::Bandwidth => traffic_experiment::<BandwidthMetric>(cfg, kinds),
        ChurnMetric::Delay => traffic_experiment::<DelayMetric>(cfg, kinds),
    }
}

/// Runs the sweep on the configured shard count *and* on one shard, and
/// asserts every aggregate — QoS
/// curves and the exact drop-cause totals — is identical before
/// returning the sharded result. Data frames ride the same radio path
/// as control frames, so the barrier merge must commute with queues,
/// flows and per-hop forwarding too.
///
/// # Panics
///
/// Panics if the two runs diverge anywhere.
pub fn traffic_experiment_verified<M: EvalMetric>(
    cfg: &TrafficConfig,
    kinds: &[SelectorKind],
) -> Vec<TrafficMeasures> {
    let sharded = traffic_experiment::<M>(cfg, kinds);
    let reference = traffic_experiment::<M>(
        &TrafficConfig {
            shards: 1,
            ..cfg.clone()
        },
        kinds,
    );
    let stats = |s: &OnlineStats| (s.count(), s.mean().to_bits());
    for (s, r) in sharded.iter().zip(&reference) {
        for (a, b) in s.per_level.iter().zip(&r.per_level) {
            assert_eq!(
                (
                    stats(&a.delivery),
                    stats(&a.delay_ms),
                    stats(&a.p99_delay_ms),
                    stats(&a.jitter_ms),
                    stats(&a.hops),
                ),
                (
                    stats(&b.delivery),
                    stats(&b.delay_ms),
                    stats(&b.p99_delay_ms),
                    stats(&b.jitter_ms),
                    stats(&b.hops),
                ),
                "{} level={}ppm: the engine at shards={} diverged from the one-shard run",
                s.kind.label(),
                a.edge_drop_ppm,
                cfg.shards,
            );
            assert_eq!(
                a.drops,
                b.drops,
                "{} level={}ppm: drop-cause breakdown diverged",
                s.kind.label(),
                a.edge_drop_ppm,
            );
        }
    }
    sharded
}

/// Runtime-metric dispatch of [`traffic_experiment_verified`].
pub fn traffic_experiment_verified_with(
    metric: ChurnMetric,
    cfg: &TrafficConfig,
    kinds: &[SelectorKind],
) -> Vec<TrafficMeasures> {
    match metric {
        ChurnMetric::Bandwidth => traffic_experiment_verified::<BandwidthMetric>(cfg, kinds),
        ChurnMetric::Delay => traffic_experiment_verified::<DelayMetric>(cfg, kinds),
    }
}

fn single_traffic_run<M: EvalMetric>(
    cfg: &TrafficConfig,
    run: u32,
    kinds: &[SelectorKind],
    accum: &mut [TrafficMeasures],
) {
    let deploy_seed = derive_seed(cfg.seed, 0, run);
    let side = field_side(cfg.nodes, cfg.radius, cfg.density);
    let topo = deploy_field(
        cfg.nodes,
        side,
        cfg.radius,
        cfg.density,
        &cfg.weights,
        deploy_seed,
    );
    if topo.len() < 4 {
        return;
    }
    let mut rng = SimRng::seed_from_u64(deploy_seed ^ 0xF10A_5EED);
    let pairs = flow_pairs(&topo, cfg.flows, &mut rng);
    if pairs.is_empty() {
        return;
    }
    let flows = cfg.build_flows(&pairs);
    let scenario = cfg.build_scenario(&topo, side, deploy_seed ^ 0x5CE2_AB1E);

    for (li, &level) in cfg.levels.iter().enumerate() {
        for (si, &kind) in kinds.iter().enumerate() {
            let mut net = OlsrNetwork::with_exec(
                topo.clone(),
                cfg.olsr,
                cfg.radio(level),
                derive_seed(cfg.seed, 1 + li, run),
                SchedulerKind::default(),
                exec_mode(cfg.shards),
                |_| SelectorPolicy::new(kind.instantiate::<M>()),
            );
            if let Some(sc) = &scenario {
                net.install_scenario_at(sc, cfg.traffic_at());
            }
            // The flow-arrival/service streams are salted off this seed;
            // level-independent so the same workload hits every channel.
            net.install_flows(&flows, derive_seed(cfg.seed, 0, run));
            net.run_until(cfg.end_at());

            let traffic = net.total_traffic();
            let engine = net.engine_stats();
            let queued = net.queued_data();
            let out = &mut accum[si].per_level[li];
            out.drops.add(&DropBreakdown {
                injected: traffic.injected,
                delivered: traffic.delivered,
                no_route: traffic.drop_no_route,
                queue_full: traffic.drop_queue_full,
                ttl_expired: traffic.drop_ttl_expired,
                queue_wiped: traffic.drop_queue_wiped,
                in_flight: engine.data_in_flight_drops(),
                queued,
                in_air: engine
                    .data_unicasts
                    .saturating_sub(engine.data_deliveries + engine.data_in_flight_drops()),
            });
            if traffic.injected > 0 {
                out.delivery
                    .push(traffic.delivered as f64 / traffic.injected as f64);
            }
            let mut merged = FlowRecord::default();
            for record in net.flow_records().values() {
                merged.merge(record);
            }
            if merged.delivered > 0 {
                out.delay_ms.push(merged.mean_delay_us() / 1_000.0);
                out.jitter_ms.push(merged.mean_jitter_us() / 1_000.0);
                out.hops.push(merged.mean_hops());
                if let Some(p99) = merged.delay_quantile_us(0.99) {
                    out.p99_delay_ms.push(p99 as f64 / 1_000.0);
                }
            }
        }
    }
}

/// Uniform distinct connected endpoint pairs of the initial deployment
/// (mobility may later disconnect them — that loss is the measurand).
fn flow_pairs(topo: &Topology, count: usize, rng: &mut SimRng) -> Vec<(NodeId, NodeId)> {
    use qolsr_graph::connectivity::Components;
    let components = Components::compute(topo);
    let n = topo.len() as u64;
    let mut pairs = Vec::with_capacity(count);
    let mut attempts = 0;
    while pairs.len() < count && attempts < 4096 {
        attempts += 1;
        let s = NodeId(rng.next_below(n) as u32);
        let t = NodeId(rng.next_below(n) as u32);
        if s != t && components.connected(s, t) {
            pairs.push((s, t));
        }
    }
    pairs
}

fn curve_figure(
    results: &[TrafficMeasures],
    title: &str,
    ylabel: &str,
    extract: impl Fn(&TrafficLevelMeasures) -> &OnlineStats,
) -> Figure {
    Figure {
        title: title.to_owned(),
        xlabel: "edge drop probability".to_owned(),
        ylabel: ylabel.to_owned(),
        series: results
            .iter()
            .map(|r| Series {
                label: r.kind.label().to_owned(),
                points: r
                    .per_level
                    .iter()
                    .map(|level| {
                        let s = extract(level);
                        Point {
                            x: f64::from(level.edge_drop_ppm) / 1e6,
                            mean: s.mean(),
                            ci95: s.ci95_half_width(),
                            n: s.count(),
                        }
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// End-to-end delivery-ratio figure.
pub fn traffic_delivery_figure(results: &[TrafficMeasures], title: &str) -> Figure {
    curve_figure(results, title, "end-to-end delivery ratio", |l| &l.delivery)
}

/// Mean end-to-end delay figure.
pub fn traffic_delay_figure(results: &[TrafficMeasures], title: &str) -> Figure {
    curve_figure(results, title, "mean end-to-end delay (ms)", |l| {
        &l.delay_ms
    })
}

/// p99 end-to-end delay figure.
pub fn traffic_p99_figure(results: &[TrafficMeasures], title: &str) -> Figure {
    curve_figure(results, title, "p99 end-to-end delay (ms)", |l| {
        &l.p99_delay_ms
    })
}

/// Mean inter-arrival jitter figure.
pub fn traffic_jitter_figure(results: &[TrafficMeasures], title: &str) -> Figure {
    curve_figure(results, title, "mean jitter (ms)", |l| &l.jitter_ms)
}

/// Plain-text drop-cause table (one row per selector per level) for
/// reports; every row audits `delivered + losses == injected`.
pub fn drop_report(results: &[TrafficMeasures]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>10} {:>10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>7} {:>7}",
        "selector",
        "loss",
        "injected",
        "delivered",
        "no-route",
        "q-full",
        "ttl",
        "wiped",
        "in-flight",
        "queued",
        "in-air",
    );
    for r in results {
        for l in &r.per_level {
            let d = &l.drops;
            let _ = writeln!(
                out,
                "{:<22} {:>8.2} {:>10} {:>10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>7} {:>7}",
                r.kind.label(),
                f64::from(l.edge_drop_ppm) / 1e6,
                d.injected,
                d.delivered,
                d.no_route,
                d.queue_full,
                d.ttl_expired,
                d.queue_wiped,
                d.in_flight,
                d.queued,
                d.in_air,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> TrafficConfig {
        TrafficConfig {
            levels: vec![0, 400_000],
            nodes: 40,
            warmup: SimDuration::from_secs(15),
            measure: SimDuration::from_secs(10),
            flows: 6,
            threads: 2,
            seed: 3,
            mobility: None,
            ..TrafficConfig::new(2)
        }
    }

    #[test]
    fn static_world_delivers_and_loss_degrades_it() {
        let cfg = tiny_cfg();
        let kinds = [SelectorKind::Fnbp, SelectorKind::QolsrMpr2];
        let results = traffic_experiment::<BandwidthMetric>(&cfg, &kinds);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.per_level.len(), 2);
            let clean = &r.per_level[0];
            let lossy = &r.per_level[1];
            assert!(clean.drops.injected > 0, "{:?} injected nothing", r.kind);
            assert!(
                clean.delivery.mean() > 0.9,
                "{:?}: a static lossless world must deliver, got {}",
                r.kind,
                clean.delivery.mean()
            );
            assert!(
                lossy.delivery.mean() < clean.delivery.mean(),
                "{:?}: radio loss must reduce end-to-end delivery",
                r.kind
            );
            assert!(clean.delay_ms.mean() > 0.0, "delivery takes nonzero time");
            assert!(
                clean.p99_delay_ms.mean() >= clean.delay_ms.mean(),
                "p99 cannot undercut the mean"
            );
        }
    }

    #[test]
    fn every_packet_fate_is_accounted() {
        let cfg = tiny_cfg();
        let results = traffic_experiment::<BandwidthMetric>(&cfg, &[SelectorKind::Fnbp]);
        for l in &results[0].per_level {
            assert_eq!(
                l.drops.delivered + l.drops.accounted_losses(),
                l.drops.injected,
                "conservation must hold at level {}",
                l.edge_drop_ppm
            );
        }
    }

    #[test]
    fn mobility_runs_are_deterministic_and_conservative() {
        let cfg = TrafficConfig {
            levels: vec![200_000],
            mobility: Some(ChurnScenario::default()),
            ..tiny_cfg()
        };
        let kinds = [SelectorKind::TopologyFiltering];
        let a = traffic_experiment::<BandwidthMetric>(&cfg, &kinds);
        let b = traffic_experiment::<BandwidthMetric>(&cfg, &kinds);
        let render = |rs: &[TrafficMeasures]| {
            rs.iter()
                .flat_map(|r| {
                    r.per_level.iter().map(|l| {
                        (
                            l.delivery.mean().to_bits(),
                            l.delay_ms.mean().to_bits(),
                            l.drops,
                        )
                    })
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b), "same seed must replay exactly");
        let l = &a[0].per_level[0];
        assert_eq!(
            l.drops.delivered + l.drops.accounted_losses(),
            l.drops.injected,
            "conservation must hold under mobility and churn too"
        );
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut one = tiny_cfg();
        one.threads = 1;
        let mut many = tiny_cfg();
        many.threads = 3;
        let a = traffic_experiment::<BandwidthMetric>(&one, &[SelectorKind::Fnbp]);
        let b = traffic_experiment::<BandwidthMetric>(&many, &[SelectorKind::Fnbp]);
        for (x, y) in a[0].per_level.iter().zip(&b[0].per_level) {
            assert_eq!(x.delivery.mean(), y.delivery.mean());
            assert_eq!(x.delay_ms.mean(), y.delay_ms.mean());
            assert_eq!(x.drops, y.drops);
        }
    }

    #[test]
    fn figures_and_report_render() {
        let cfg = tiny_cfg();
        let results = traffic_experiment::<BandwidthMetric>(&cfg, &[SelectorKind::Fnbp]);
        let d = traffic_delivery_figure(&results, "traffic delivery");
        assert_eq!(d.series.len(), 1);
        assert!(d.render_text().contains("traffic delivery"));
        assert!(
            traffic_delay_figure(&results, "d")
                .render_csv()
                .lines()
                .count()
                >= 2
        );
        assert!(
            traffic_p99_figure(&results, "p")
                .render_csv()
                .lines()
                .count()
                >= 2
        );
        assert!(
            traffic_jitter_figure(&results, "j")
                .render_csv()
                .lines()
                .count()
                >= 2
        );
        let report = drop_report(&results);
        assert!(report.contains("no-route"));
        assert!(report.lines().count() >= 3);
    }
}
