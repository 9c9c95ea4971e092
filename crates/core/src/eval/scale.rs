//! Scale sweep: wall-clock cost of the single-world hot paths —
//! waypoint link recomputation (per tick), whole-network advertised
//! selection (per world), and the **live protocol** (full HELLO/TC
//! traffic through the engine, [`live_sweep`]) — as the node count
//! grows.
//!
//! The sweep holds the paper's density and radius fixed and grows the
//! field with `n`, so per-node work is constant and any super-linear
//! growth in the totals is pure algorithmic overhead. With the
//! [`SpatialGrid`] neighbor index a waypoint tick is O(moved · k); the
//! acceptance gate of the grid PR is that per-tick cost grows
//! sub-quadratically (n=4000 under 4× the n=1000 cost).
//!
//! Unlike the figure experiments, runs execute *sequentially* — timing is
//! the measurand, and concurrent runs would contend for cores. The
//! configured thread budget instead fans out per-node selection inside
//! each world, which is exactly the single-large-world regime the
//! [`ShardPlan`](crate::eval) split was built for.
//!
//! [`SpatialGrid`]: qolsr_graph::SpatialGrid

use std::f64::consts::PI;
use std::time::Instant;

use qolsr_graph::deploy::{deploy_at, Deployment, UniformWeights};
use qolsr_graph::{NodeId, Point2, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::network::OlsrNetwork;
use qolsr_proto::OlsrConfig;
use qolsr_sim::scenario::{RandomWaypoint, ScenarioBuilder};
use qolsr_sim::stats::{HotPathCounters, OnlineStats};
use qolsr_sim::{PhyModel, RadioConfig, SchedulerKind, SimDuration, SimRng};

use crate::advertised::build_advertised;
use crate::eval::{derive_seed, exec_mode, resolve_workers};
use crate::policy::SelectorPolicy;
use crate::report::{Figure, Point, Series};
use crate::selector::Fnbp;

/// Configuration of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Node counts to sweep.
    pub sizes: Vec<usize>,
    /// Timed repetitions per size.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Mean node degree, held constant across sizes (the field grows).
    pub density: f64,
    /// Communication radius `R`.
    pub radius: f64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// Simulated seconds of waypoint motion per run (= ticks at the 1 s
    /// tick).
    pub sim_seconds: u64,
    /// Threads for the per-world selection fan-out (0 = all cores).
    pub threads: usize,
}

impl ScaleConfig {
    /// The acceptance sweep: n ∈ {250, 1000, 4000} at the paper's
    /// density 10 and radius 100.
    pub fn new(runs: u32) -> Self {
        Self {
            sizes: vec![250, 1000, 4000],
            runs,
            seed: 0x51C0_2010,
            density: 10.0,
            radius: 100.0,
            weights: UniformWeights::new(1, 100),
            sim_seconds: 10,
            threads: 0,
        }
    }

    /// Field side holding `n` nodes at the configured density:
    /// `area = n · πR²/δ`.
    pub fn side_for(&self, n: usize) -> f64 {
        field_side(n, self.radius, self.density)
    }
}

/// Field side holding `n` nodes at mean degree `density` with
/// communication radius `radius`: `area = n · πR²/δ`. Shared by the
/// sweep phases and the overhead experiment so the paper's field model
/// has one definition.
pub(crate) fn field_side(n: usize, radius: f64, density: f64) -> f64 {
    (n as f64 * PI * radius * radius / density).sqrt()
}

/// Seed-deterministic uniform deployment in a `side × side` field —
/// the shared topology construction of the sweep phases and the
/// overhead experiment.
pub(crate) fn deploy_field(
    n: usize,
    side: f64,
    radius: f64,
    density: f64,
    weights: &UniformWeights,
    seed: u64,
) -> Topology {
    let mut rng = SimRng::seed_from_u64(seed);
    let positions: Vec<Point2> = (0..n)
        .map(|_| Point2::new(rng.next_f64() * side, rng.next_f64() * side))
        .collect();
    let deployment = Deployment {
        width: side,
        height: side,
        radius,
        mean_degree: density,
    };
    deploy_at(&deployment, weights, positions, &mut rng)
}

/// Measurements of one sweep size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Node count.
    pub nodes: usize,
    /// Field side used.
    pub side: f64,
    /// Wall-clock milliseconds per waypoint tick (scenario generation
    /// time / ticks), across runs.
    pub tick_ms: OnlineStats,
    /// Wall-clock milliseconds for one whole-network advertised-set
    /// selection (FNBP, bandwidth metric), across runs.
    pub select_ms: OnlineStats,
    /// World events generated per run (sanity: the worlds really move).
    pub events: OnlineStats,
}

/// Runs the sweep; points come back in `sizes` order.
pub fn scale_sweep(cfg: &ScaleConfig) -> Vec<ScalePoint> {
    let threads = resolve_workers(cfg.threads);
    let selector = Fnbp::<BandwidthMetric>::new();
    cfg.sizes
        .iter()
        .enumerate()
        .map(|(si, &n)| {
            let side = cfg.side_for(n);
            let mut point = ScalePoint {
                nodes: n,
                side,
                tick_ms: OnlineStats::new(),
                select_ms: OnlineStats::new(),
                events: OnlineStats::new(),
            };
            for run in 0..cfg.runs {
                let topo = deploy_field(
                    n,
                    side,
                    cfg.radius,
                    cfg.density,
                    &cfg.weights,
                    derive_seed(cfg.seed, si, run),
                );

                let started = Instant::now();
                let scenario = ScenarioBuilder::new(&topo, cfg.seed ^ run as u64)
                    .with(RandomWaypoint::new(
                        (side, side),
                        SimDuration::from_secs(1),
                        (2.0, 10.0),
                        SimDuration::from_secs(2),
                        cfg.weights,
                    ))
                    .generate(SimDuration::from_secs(cfg.sim_seconds));
                let gen_ms = started.elapsed().as_secs_f64() * 1e3;
                point.tick_ms.push(gen_ms / cfg.sim_seconds as f64);
                point.events.push(scenario.len() as f64);

                let started = Instant::now();
                let adv = build_advertised(&topo, &selector, threads);
                let select_ms = started.elapsed().as_secs_f64() * 1e3;
                assert_eq!(adv.sizes().len(), n);
                point.select_ms.push(select_ms);
            }
            point
        })
        .collect()
}

/// Renders the sweep as a two-series figure (x = node count).
pub fn scale_figure(points: &[ScalePoint], title: &str) -> Figure {
    let series = |label: &str, extract: fn(&ScalePoint) -> &OnlineStats| Series {
        label: label.to_owned(),
        points: points
            .iter()
            .map(|p| {
                let s = extract(p);
                Point {
                    x: p.nodes as f64,
                    mean: s.mean(),
                    ci95: s.ci95_half_width(),
                    n: s.count(),
                }
            })
            .collect(),
    };
    Figure {
        title: title.to_owned(),
        xlabel: "nodes".to_owned(),
        ylabel: "wall-clock ms".to_owned(),
        series: vec![
            series("waypoint ms per simulated second", |p| &p.tick_ms),
            series("full-network selection ms (FNBP)", |p| &p.select_ms),
        ],
    }
}

/// Configuration of the live-protocol scale sweep: full HELLO/TC
/// traffic (FNBP advertise policy, MPR flooding, routing) on a static
/// deployment, timed per simulated second.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Node counts to sweep.
    pub sizes: Vec<usize>,
    /// Timed repetitions per size.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Mean node degree, held constant across sizes (the field grows).
    pub density: f64,
    /// Communication radius `R`.
    pub radius: f64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// Unmeasured protocol warm-up (convergence) before timing starts.
    pub warmup_seconds: u64,
    /// Measured simulated seconds of live traffic.
    pub sim_seconds: u64,
    /// Nodes whose routing tables are queried after every simulated
    /// second (exercises the incremental route cache under load).
    pub probes: usize,
    /// Engine shard count (identical counters at any count — see
    /// [`crate::eval::exec_mode`]).
    pub shards: u32,
    /// PHY model of the radio ([`PhyModel::Ideal`] by default;
    /// [`PhyModel::Lossy`] exercises the drop/collision paths — loss
    /// sampling is shard-count-invariant, so `--verify-shards` holds
    /// under it too).
    pub phy: PhyModel,
}

impl LiveConfig {
    /// The acceptance sweep: n ∈ {250, 1000, 4000} at the paper's
    /// density 10 and radius 100, 15 s warm-up (past HELLO/TC
    /// convergence, so the measured window shows steady-state cache
    /// behaviour) + 10 s measured.
    pub fn new(runs: u32) -> Self {
        Self {
            sizes: vec![250, 1000, 4000],
            runs,
            seed: 0x51C0_2010,
            density: 10.0,
            radius: 100.0,
            weights: UniformWeights::new(1, 100),
            warmup_seconds: 15,
            sim_seconds: 10,
            probes: 64,
            shards: 1,
            phy: PhyModel::Ideal,
        }
    }

    /// Field side holding `n` nodes at the configured density.
    pub fn side_for(&self, n: usize) -> f64 {
        field_side(n, self.radius, self.density)
    }
}

/// Measurements of one live-protocol sweep size.
#[derive(Debug, Clone)]
pub struct LivePoint {
    /// Node count.
    pub nodes: usize,
    /// Field side used.
    pub side: f64,
    /// Wall-clock milliseconds per simulated second of live protocol
    /// (HELLO/TC exchange, flooding, per-second route sampling).
    pub wall_ms_per_sim_s: OnlineStats,
    /// Engine events dispatched per measured run.
    pub events: OnlineStats,
    /// Timer firings per measured run.
    pub timers: OnlineStats,
    /// Radio deliveries per measured run.
    pub deliveries: OnlineStats,
    /// Routing tables recomputed per measured run (probed nodes).
    pub routes_recomputed: OnlineStats,
    /// Route queries served from cache per measured run.
    pub route_cache_hits: OnlineStats,
    /// Resident protocol-table entries (per-node tables plus shared
    /// store) at the end of each run — the deterministic memory gauge.
    pub resident_entries: OnlineStats,
    /// Approximate resident heap bytes of the protocol tables plus the
    /// shared store at the end of each run.
    pub resident_bytes: OnlineStats,
    /// Process RSS (VmRSS) in bytes after each run, when the platform
    /// exposes it. **Cumulative across everything the process ran
    /// before** — comparable between configurations only via separate
    /// process invocations.
    pub rss_bytes: OnlineStats,
    /// Counter totals over all runs of this size (the resident gauge
    /// fields accumulate per-run end gauges; divide by `runs` for the
    /// mean).
    pub totals: HotPathCounters,
}

/// Current process resident set size in bytes (`VmRSS` from
/// `/proc/self/status`); `None` where procfs is unavailable. RSS is
/// process-cumulative — allocator high-water marks from earlier work in
/// the same process inflate it — so cross-configuration comparisons
/// need one process per configuration.
pub fn process_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Runs the live-protocol sweep; points come back in `sizes` order.
///
/// Runs execute sequentially (timing is the measurand). Each run warms
/// the protocol up unmeasured, then times `sim_seconds` of live traffic;
/// after every simulated second the routing tables of the first
/// `probes` nodes are queried, so the reported cache counters show how
/// many of those queries the incremental cache absorbed between
/// topology changes.
pub fn live_sweep(cfg: &LiveConfig) -> Vec<LivePoint> {
    cfg.sizes
        .iter()
        .enumerate()
        .map(|(si, &n)| {
            let side = cfg.side_for(n);
            let mut point = LivePoint {
                nodes: n,
                side,
                wall_ms_per_sim_s: OnlineStats::new(),
                events: OnlineStats::new(),
                timers: OnlineStats::new(),
                deliveries: OnlineStats::new(),
                routes_recomputed: OnlineStats::new(),
                route_cache_hits: OnlineStats::new(),
                resident_entries: OnlineStats::new(),
                resident_bytes: OnlineStats::new(),
                rss_bytes: OnlineStats::new(),
                totals: HotPathCounters::default(),
            };
            for run in 0..cfg.runs {
                let seed = derive_seed(cfg.seed ^ 0x11FE, si, run);
                let topo = deploy_field(n, side, cfg.radius, cfg.density, &cfg.weights, seed);
                let mut net = OlsrNetwork::with_exec(
                    topo,
                    OlsrConfig::default(),
                    RadioConfig {
                        phy: cfg.phy,
                        ..RadioConfig::default()
                    },
                    seed,
                    SchedulerKind::default(),
                    exec_mode(cfg.shards),
                    |_| SelectorPolicy::new(Fnbp::<BandwidthMetric>::new()),
                );
                net.run_for(SimDuration::from_secs(cfg.warmup_seconds));
                let engine0 = net.engine_stats();
                let nodes0 = net.total_stats();

                let started = Instant::now();
                for _ in 0..cfg.sim_seconds {
                    net.run_for(SimDuration::from_secs(1));
                    let now = net.now();
                    for p in 0..cfg.probes.min(n) {
                        net.node(NodeId(p as u32)).route_count(now);
                    }
                }
                let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                point
                    .wall_ms_per_sim_s
                    .push(elapsed_ms / cfg.sim_seconds as f64);

                let engine = net.engine_stats();
                let nodes = net.total_stats();
                let mut tc_ring_emissions = [0u64; 4];
                for (delta, (after, before)) in tc_ring_emissions
                    .iter_mut()
                    .zip(nodes.tc_sent_ring.iter().zip(nodes0.tc_sent_ring))
                {
                    *delta = after - before;
                }
                let (res_entries, res_bytes) = net.resident_memory();
                let counters = HotPathCounters {
                    events_popped: engine.events - engine0.events,
                    timers_fired: engine.timers - engine0.timers,
                    routes_recomputed: nodes.routes_recomputed - nodes0.routes_recomputed,
                    route_cache_hits: nodes.route_cache_hits - nodes0.route_cache_hits,
                    tc_ring_emissions,
                    dup_peek_hits: nodes.dup_peek_hits - nodes0.dup_peek_hits,
                    bytes_decoded: nodes.bytes_decoded - nodes0.bytes_decoded,
                    resident_entries: res_entries,
                    resident_bytes: res_bytes,
                    malformed_frames: nodes.malformed_frames - nodes0.malformed_frames,
                };
                point.events.push(counters.events_popped as f64);
                point.timers.push(counters.timers_fired as f64);
                point
                    .deliveries
                    .push((engine.deliveries - engine0.deliveries) as f64);
                point
                    .routes_recomputed
                    .push(counters.routes_recomputed as f64);
                point
                    .route_cache_hits
                    .push(counters.route_cache_hits as f64);
                point.resident_entries.push(res_entries as f64);
                point.resident_bytes.push(res_bytes as f64);
                if let Some(rss) = process_rss_bytes() {
                    point.rss_bytes.push(rss as f64);
                }
                point.totals.merge(&counters);
            }
            point
        })
        .collect()
}

/// Runs the live sweep on the configured shard count **and** on one
/// shard, asserting that every protocol and engine
/// counter matches exactly — the shard-invariance smoke CI runs with
/// `--shards 2 --verify-shards`. The resident-memory gauges are the
/// one legitimate difference (per-shard intern arenas aggregate
/// differently), so they are excluded from the comparison. Returns the
/// configured run's points.
///
/// # Panics
///
/// Panics if any compared counter differs between the two runs.
pub fn live_sweep_verified(cfg: &LiveConfig) -> Vec<LivePoint> {
    let sharded = live_sweep(cfg);
    let reference = live_sweep(&LiveConfig {
        shards: 1,
        ..cfg.clone()
    });
    // Everything except the store-dependent residency gauges.
    let comparable = |c: &HotPathCounters| {
        (
            c.events_popped,
            c.timers_fired,
            c.routes_recomputed,
            c.route_cache_hits,
            c.tc_ring_emissions,
            c.dup_peek_hits,
            c.bytes_decoded,
            c.malformed_frames,
        )
    };
    for (s, r) in sharded.iter().zip(&reference) {
        assert_eq!(
            comparable(&s.totals),
            comparable(&r.totals),
            "n={}: the engine at shards={} diverged from the one-shard run",
            s.nodes,
            cfg.shards,
        );
        assert_eq!(
            s.deliveries.mean(),
            r.deliveries.mean(),
            "n={}: delivery counts diverged",
            s.nodes
        );
    }
    sharded
}

/// Renders the live sweep as a figure (x = node count).
pub fn live_figure(points: &[LivePoint], title: &str) -> Figure {
    Figure {
        title: title.to_owned(),
        xlabel: "nodes".to_owned(),
        ylabel: "wall-clock ms per simulated second".to_owned(),
        series: vec![Series {
            label: "live protocol ms per simulated second".to_owned(),
            points: points
                .iter()
                .map(|p| Point {
                    x: p.nodes as f64,
                    mean: p.wall_ms_per_sim_s.mean(),
                    ci95: p.wall_ms_per_sim_s.ci95_half_width(),
                    n: p.wall_ms_per_sim_s.count(),
                })
                .collect(),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_a_point_per_size() {
        let cfg = ScaleConfig {
            sizes: vec![60, 120],
            sim_seconds: 3,
            threads: 2,
            ..ScaleConfig::new(1)
        };
        let points = scale_sweep(&cfg);
        assert_eq!(points.len(), 2);
        for (p, &n) in points.iter().zip(&cfg.sizes) {
            assert_eq!(p.nodes, n);
            assert_eq!(p.tick_ms.count(), 1);
            assert!(p.tick_ms.mean() >= 0.0);
            assert!(p.events.mean() > 0.0, "world must move at n={n}");
        }
        let fig = scale_figure(&points, "scale");
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 2);
        assert!(fig.render_text().contains("scale"));
    }

    #[test]
    fn live_sweep_runs_protocol_and_hits_route_cache() {
        let cfg = LiveConfig {
            sizes: vec![40, 80],
            // Past convergence: knowledge stops changing, so repeated
            // samples must be absorbed by the route cache.
            warmup_seconds: 15,
            sim_seconds: 4,
            probes: 8,
            ..LiveConfig::new(1)
        };
        let points = live_sweep(&cfg);
        assert_eq!(points.len(), 2);
        for (p, &n) in points.iter().zip(&cfg.sizes) {
            assert_eq!(p.nodes, n);
            assert!(p.wall_ms_per_sim_s.mean() >= 0.0);
            assert!(p.events.mean() > 0.0, "protocol must generate events");
            assert!(p.timers.mean() > 0.0);
            let totals = p.totals;
            let queries = totals.routes_recomputed + totals.route_cache_hits;
            assert_eq!(
                queries,
                (cfg.sim_seconds * cfg.probes.min(n) as u64),
                "every probe query is counted"
            );
            assert!(
                totals.route_cache_hits > 0,
                "static world: repeated samples must hit the cache (n={n})"
            );
        }
        let fig = live_figure(&points, "live");
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.series[0].points.len(), 2);
    }

    #[test]
    fn live_sweep_is_deterministic_in_counters() {
        let cfg = LiveConfig {
            sizes: vec![30],
            warmup_seconds: 2,
            sim_seconds: 2,
            probes: 4,
            ..LiveConfig::new(1)
        };
        let a = live_sweep(&cfg);
        let b = live_sweep(&cfg);
        assert_eq!(a[0].totals, b[0].totals);
        assert_eq!(a[0].events.mean(), b[0].events.mean());
        assert_eq!(a[0].deliveries.mean(), b[0].deliveries.mean());
    }

    #[test]
    fn sharded_live_sweep_matches_single_queue() {
        let cfg = LiveConfig {
            sizes: vec![40],
            warmup_seconds: 3,
            sim_seconds: 2,
            probes: 4,
            shards: 2,
            ..LiveConfig::new(1)
        };
        // `live_sweep_verified` asserts counter parity internally.
        let points = live_sweep_verified(&cfg);
        assert_eq!(points.len(), 1);
        assert!(points[0].totals.events_popped > 0);
    }

    #[test]
    fn lossy_live_sweep_stays_shard_invariant() {
        use qolsr_sim::LossyPhy;
        let cfg = LiveConfig {
            sizes: vec![40],
            warmup_seconds: 3,
            sim_seconds: 2,
            probes: 4,
            shards: 2,
            phy: PhyModel::Lossy(LossyPhy::with_edge_drop_ppm(400_000)),
            ..LiveConfig::new(1)
        };
        // `live_sweep_verified` asserts counter parity internally — the
        // lossy channel must commute with the barrier merge.
        let points = live_sweep_verified(&cfg);
        assert!(points[0].totals.events_popped > 0);
    }

    #[test]
    fn field_grows_with_sqrt_n() {
        let cfg = ScaleConfig::new(1);
        let s1 = cfg.side_for(1000);
        let s4 = cfg.side_for(4000);
        assert!((s4 / s1 - 2.0).abs() < 1e-9, "4× nodes → 2× side");
        // δ = 10, R = 100 ⇒ ~560 m side at n = 100.
        assert!((cfg.side_for(100) - 560.5).abs() < 1.0);
    }
}
