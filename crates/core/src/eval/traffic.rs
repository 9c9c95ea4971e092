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
//! at any engine shard count;
//! [`verify_shards`](crate::eval::verify_shards) pins a sharded run
//! against the one-shard run.

use std::fmt::Write as _;

use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::NodeId;
use qolsr_proto::OlsrConfig;
use qolsr_sim::stats::OnlineStats;
use qolsr_sim::{FlowModel, FlowRecord, FlowSpec, SimDuration, SimRng, SimTime};

use crate::eval::churn::ChurnScenario;
use crate::eval::scale::{deploy_field, field_side};
use crate::eval::{
    connected_pairs, derive_seed, live_network, lossy_radio, sweep, Merge, QosMetric, SelectorKind,
    ShardInvariant, Skip, SkippedWorlds,
};
use crate::report::Figure;

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
    /// [`verify_shards`](crate::eval::verify_shards)).
    pub shards: u32,
    /// The QoS metric the selectors select under.
    pub metric: QosMetric,
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
            metric: QosMetric::Bandwidth,
        }
    }

    /// The instant flows (and mobility) start.
    fn traffic_at(&self) -> SimTime {
        SimTime::ZERO + self.warmup
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

impl Merge for TrafficLevelMeasures {
    fn merge(&mut self, other: &Self) {
        self.delivery.merge(&other.delivery);
        self.delay_ms.merge(&other.delay_ms);
        self.p99_delay_ms.merge(&other.p99_delay_ms);
        self.jitter_ms.merge(&other.jitter_ms);
        self.hops.merge(&other.hops);
        self.drops.add(&other.drops);
    }
}

/// All measurements of one selector across the sweep.
#[derive(Debug, Clone)]
pub struct TrafficMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// One aggregate per swept level, in sweep order.
    pub per_level: Vec<TrafficLevelMeasures>,
    /// Worlds of the sweep no selector was measured on (the same for
    /// every selector: they share the worlds).
    pub skipped: SkippedWorlds,
}

impl Merge for TrafficMeasures {
    fn merge(&mut self, other: &Self) {
        self.per_level.merge(&other.per_level);
    }
}

impl ShardInvariant for TrafficMeasures {}

/// Runs the traffic sweep for the given selectors.
///
/// Per run one deployment, one flow set and one mobility schedule are
/// generated (identical across levels and selectors — their seeds depend
/// only on the run index), then every (level, selector) pair runs a live
/// network with the data plane on. Runs shard over worker threads;
/// per-run results merge in run order, so output is independent of
/// thread count.
pub fn traffic_experiment(cfg: &TrafficConfig, kinds: &[SelectorKind]) -> Vec<TrafficMeasures> {
    let empty = || {
        let level = |&edge_drop_ppm: &u32| TrafficLevelMeasures {
            edge_drop_ppm,
            delivery: OnlineStats::new(),
            delay_ms: OnlineStats::new(),
            p99_delay_ms: OnlineStats::new(),
            jitter_ms: OnlineStats::new(),
            hops: OnlineStats::new(),
            drops: DropBreakdown::default(),
        };
        let measures = |&kind: &SelectorKind| TrafficMeasures {
            kind,
            per_level: cfg.levels.iter().map(level).collect(),
            skipped: SkippedWorlds::default(),
        };
        kinds.iter().map(measures).collect::<Vec<_>>()
    };
    let (mut measures, skipped) = sweep(cfg.threads, cfg.runs, empty, |run, _, accum| {
        single_traffic_run(cfg, run, kinds, accum)
    });
    measures.iter_mut().for_each(|m| m.skipped = skipped);
    measures
}

fn single_traffic_run(
    cfg: &TrafficConfig,
    run: u32,
    kinds: &[SelectorKind],
    accum: &mut [TrafficMeasures],
) -> Result<(), Skip> {
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
        return Err(Skip::TooSmall);
    }
    // Endpoints are connected in the initial deployment; mobility may
    // later disconnect them, and that loss is the measurand.
    let mut rng = SimRng::seed_from_u64(deploy_seed ^ 0xF10A_5EED);
    let pairs = connected_pairs(&topo, cfg.flows, 4096, false, &mut rng);
    if pairs.is_empty() {
        return Err(Skip::NoProbes);
    }
    let flows = cfg.build_flows(&pairs);
    // The mobility schedule (when enabled) runs from the traffic start.
    let scenario = cfg.mobility.map(|sc| {
        let seed = deploy_seed ^ 0x5CE2_AB1E;
        sc.build(&topo, (side, side), cfg.weights, cfg.measure, seed)
    });

    for (li, &level) in cfg.levels.iter().enumerate() {
        for (si, &kind) in kinds.iter().enumerate() {
            let radio = lossy_radio(level, cfg.exponent, cfg.capture_window);
            let seed = derive_seed(cfg.seed, 1 + li, run);
            let mut net = live_network(&topo, cfg.olsr, radio, seed, cfg.shards, kind, cfg.metric);
            if let Some(sc) = &scenario {
                net.install_scenario_at(sc, cfg.traffic_at());
            }
            // The flow-arrival/service streams are salted off this seed;
            // level-independent so the same workload hits every channel.
            net.install_flows(&flows, derive_seed(cfg.seed, 0, run));
            net.run_until(cfg.traffic_at() + cfg.measure);

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
    Ok(())
}

/// The text report printed before the figures: the workload, one QoS
/// row per (selector, level), then the drop-cause table, whose every
/// row audits `delivered + losses == injected`.
pub fn report(cfg: &TrafficConfig, results: &[TrafficMeasures]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# data plane: n={}, {} flows/world ({} B payload, CBR every {} ms interleaved with \
         {}-{}-packet bursts every {} ms), mobility={}, {} s warm-up + {} s measured",
        cfg.nodes,
        cfg.flows,
        cfg.payload,
        cfg.cbr_interval.as_micros() / 1_000,
        cfg.burst.0,
        cfg.burst.1,
        cfg.frame_interval.as_micros() / 1_000,
        cfg.mobility.is_some(),
        cfg.warmup.as_secs_f64(),
        cfg.measure.as_secs_f64(),
    );
    if let Some(r) = results.first() {
        out.push_str(&r.skipped.report_line(cfg.runs));
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "# {:>9}  {:>32}  {:>9}  {:>10}  {:>10}  {:>10}",
        "edge-drop", "selector", "delivery", "delay(ms)", "p99(ms)", "jitter(ms)"
    );
    for r in results {
        for level in &r.per_level {
            let _ = writeln!(
                out,
                "# {:>8.2}%  {:>32}  {:>9.3}  {:>10.2}  {:>10.2}  {:>10.2}",
                f64::from(level.edge_drop_ppm) / 1e4,
                r.kind.label(),
                level.delivery.mean(),
                level.delay_ms.mean(),
                level.p99_delay_ms.mean(),
                level.jitter_ms.mean(),
            );
        }
    }
    let _ = writeln!(
        out,
        "\n# {:<22} {:>8} {:>10} {:>10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>7} {:>7}",
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
                "# {:<22} {:>8.2} {:>10} {:>10} {:>9} {:>9} {:>7} {:>7} {:>9} {:>7} {:>7}",
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
    out.push('\n');
    out
}

/// The traffic figures — end-to-end delivery ratio, mean and p99 delay
/// and jitter against the edge drop probability — each with its CSV
/// slug.
pub fn figures(cfg: &TrafficConfig, results: &[TrafficMeasures]) -> Vec<(String, Figure)> {
    let m = cfg.metric.name();
    let figure =
        |slug: &str, what: &str, ylabel: &str, stat: fn(&TrafficLevelMeasures) -> &OnlineStats| {
            let series = results.iter().map(|r| {
                let points = r
                    .per_level
                    .iter()
                    .map(move |l| (f64::from(l.edge_drop_ppm) / 1e6, stat(l)));
                (r.kind.label(), points)
            });
            let title = format!("Traffic — {what} vs edge drop probability ({m} metric)");
            let fig = Figure::from_stats(&title, "edge drop probability", ylabel, series);
            (format!("traffic_{slug}_{m}"), fig)
        };
    vec![
        figure(
            "delivery",
            "end-to-end delivery ratio",
            "end-to-end delivery ratio",
            |l| &l.delivery,
        ),
        figure(
            "delay",
            "mean end-to-end delay",
            "mean end-to-end delay (ms)",
            |l| &l.delay_ms,
        ),
        figure(
            "p99_delay",
            "p99 end-to-end delay",
            "p99 end-to-end delay (ms)",
            |l| &l.p99_delay_ms,
        ),
        figure("jitter", "mean jitter", "mean jitter (ms)", |l| {
            &l.jitter_ms
        }),
    ]
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
        let results = traffic_experiment(&cfg, &kinds);
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
        let results = traffic_experiment(&cfg, &[SelectorKind::Fnbp]);
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
        let a = traffic_experiment(&cfg, &kinds);
        let b = traffic_experiment(&cfg, &kinds);
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
        let a = traffic_experiment(&one, &[SelectorKind::Fnbp]);
        let b = traffic_experiment(&many, &[SelectorKind::Fnbp]);
        for (x, y) in a[0].per_level.iter().zip(&b[0].per_level) {
            assert_eq!(x.delivery.mean(), y.delivery.mean());
            assert_eq!(x.delay_ms.mean(), y.delay_ms.mean());
            assert_eq!(x.drops, y.drops);
        }
    }

    #[test]
    fn figures_and_report_render() {
        let cfg = tiny_cfg();
        let results = traffic_experiment(&cfg, &[SelectorKind::Fnbp]);
        let figs = figures(&cfg, &results);
        let slugs: Vec<&str> = figs.iter().map(|(slug, _)| slug.as_str()).collect();
        assert_eq!(
            slugs,
            [
                "traffic_delivery_bandwidth",
                "traffic_delay_bandwidth",
                "traffic_p99_delay_bandwidth",
                "traffic_jitter_bandwidth"
            ]
        );
        let d = &figs[0].1;
        assert_eq!(d.series.len(), 1);
        assert!(d
            .render_text()
            .contains("end-to-end delivery ratio vs edge drop"));
        for (_, fig) in &figs {
            assert!(fig.render_csv().lines().count() >= 2);
        }
        let report = report(&cfg, &results);
        assert!(report.contains("no-route"));
        assert!(report.lines().count() >= 3);
    }
}
