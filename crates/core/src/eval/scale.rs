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
use std::fmt::Write as _;
use std::time::Instant;

use qolsr_graph::deploy::{deploy_at, Deployment, UniformWeights};
use qolsr_graph::{NodeId, Point2, Topology};
use qolsr_metrics::BandwidthMetric;
use qolsr_proto::OlsrConfig;
use qolsr_sim::scenario::{RandomWaypoint, ScenarioBuilder};
use qolsr_sim::stats::{HotPathCounters, OnlineStats};
use qolsr_sim::{PhyModel, RadioConfig, SimDuration, SimRng};

use crate::advertised::build_advertised;
use crate::eval::{
    derive_seed, live_network, measured_window, resolve_workers, QosMetric, SelectorKind,
    ShardInvariant,
};
use crate::report::Figure;
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
/// communication radius `radius`: `area = n · πR²/δ`. Shared by every
/// experiment that sizes its field by node count, so the paper's field
/// model has one definition.
pub(crate) fn field_side(n: usize, radius: f64, density: f64) -> f64 {
    (n as f64 * PI * radius * radius / density).sqrt()
}

/// Seed-deterministic uniform deployment in a `side × side` field —
/// the shared topology construction of the sweep phases and the
/// overhead, loss and traffic experiments.
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

/// The text report printed before the sweep's figure: one timing row
/// per size, then each size's tick-cost growth over the smallest.
pub fn report(points: &[ScalePoint]) -> String {
    let mut out = String::new();
    for p in points {
        let _ = writeln!(
            out,
            "# n={:5}  side={:7.1}  waypoint {:8.3} ms/simulated-second  selection {:8.3} \
             ms/world  events/run {:9.0}",
            p.nodes,
            p.side,
            p.tick_ms.mean(),
            p.select_ms.mean(),
            p.events.mean(),
        );
    }
    if let Some((base, rest)) = points.split_first() {
        for p in rest {
            let node_ratio = p.nodes as f64 / base.nodes as f64;
            let time_ratio = p.tick_ms.mean() / base.tick_ms.mean().max(1e-9);
            let _ = writeln!(
                out,
                "# n×{node_ratio:.1}: waypoint tick cost ×{time_ratio:.2} (quadratic would be \
                 ×{:.1})",
                node_ratio * node_ratio
            );
        }
    }
    out.push('\n');
    out
}

/// The sweep's figure — waypoint and selection wall-clock against the
/// node count — with its CSV slug.
pub fn figures(points: &[ScalePoint]) -> Vec<(String, Figure)> {
    let curve = |stat: fn(&ScalePoint) -> &OnlineStats| {
        points.iter().map(move |p| (p.nodes as f64, stat(p)))
    };
    let series = [
        ("waypoint ms per simulated second", curve(|p| &p.tick_ms)),
        ("full-network selection ms (FNBP)", curve(|p| &p.select_ms)),
    ];
    let title = "Scale sweep — wall-clock per simulated second vs node count";
    let fig = Figure::from_stats(title, "nodes", "wall-clock ms", series);
    vec![("scale_sweep".to_owned(), fig)]
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

impl ShardInvariant for LivePoint {
    fn mask(&mut self) {
        self.wall_ms_per_sim_s = OnlineStats::new();
        self.rss_bytes = OnlineStats::new();
        self.resident_entries = OnlineStats::new();
        self.resident_bytes = OnlineStats::new();
        self.totals.resident_entries = 0;
        self.totals.resident_bytes = 0;
    }
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
                let radio = RadioConfig {
                    phy: cfg.phy,
                    ..RadioConfig::default()
                };
                let (olsr, fnbp) = (OlsrConfig::default(), SelectorKind::Fnbp);
                let mut net = live_network(
                    &topo,
                    olsr,
                    radio,
                    seed,
                    cfg.shards,
                    fnbp,
                    QosMetric::Bandwidth,
                );
                net.run_for(SimDuration::from_secs(cfg.warmup_seconds));
                let deliveries0 = net.engine_stats().deliveries;
                let (ms_per_sim_s, counters) = measured_window(&mut net, cfg.sim_seconds, |net| {
                    let now = net.now();
                    for p in 0..cfg.probes.min(n) {
                        net.node(NodeId(p as u32)).route_count(now);
                    }
                });
                point.wall_ms_per_sim_s.push(ms_per_sim_s);
                point.events.push(counters.events_popped as f64);
                point.timers.push(counters.timers_fired as f64);
                point
                    .deliveries
                    .push((net.engine_stats().deliveries - deliveries0) as f64);
                point
                    .routes_recomputed
                    .push(counters.routes_recomputed as f64);
                point
                    .route_cache_hits
                    .push(counters.route_cache_hits as f64);
                point
                    .resident_entries
                    .push(counters.resident_entries as f64);
                point.resident_bytes.push(counters.resident_bytes as f64);
                if let Some(rss) = process_rss_bytes() {
                    point.rss_bytes.push(rss as f64);
                }
                point.totals.merge(&counters);
            }
            point
        })
        .collect()
}

/// The text report printed before the live sweep's figure: the run
/// settings and one counter row per size.
pub fn live_report(cfg: &LiveConfig, points: &[LivePoint]) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# live protocol ({} shard(s), {} radio): {} s warm-up (unmeasured) + {} s measured, \
         {} probe nodes sampled per simulated second\n",
        cfg.shards,
        if matches!(cfg.phy, PhyModel::Lossy(_)) {
            "lossy"
        } else {
            "ideal"
        },
        cfg.warmup_seconds,
        cfg.sim_seconds,
        cfg.probes
    );
    let _ = writeln!(
        out,
        "# {:>5}  {:>10}  {:>12}  {:>12}  {:>12}  {:>10}  {:>10}  {:>8}  {:>12}  {:>10}  {:>9}",
        "n",
        "ms/sim-s",
        "events",
        "timers",
        "deliveries",
        "recomputes",
        "cache-hits",
        "hit-rate",
        "res-entries",
        "res-MiB",
        "rss-MiB"
    );
    for p in points {
        let rss = if p.rss_bytes.count() == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}", p.rss_bytes.mean() / MIB)
        };
        let _ = writeln!(
            out,
            "# {:>5}  {:>10.1}  {:>12.0}  {:>12.0}  {:>12.0}  {:>10.1}  {:>10.1}  {:>7.1}%  \
             {:>12.0}  {:>10.2}  {:>9}",
            p.nodes,
            p.wall_ms_per_sim_s.mean(),
            p.events.mean(),
            p.timers.mean(),
            p.deliveries.mean(),
            p.routes_recomputed.mean(),
            p.route_cache_hits.mean(),
            p.totals.route_cache_hit_rate() * 100.0,
            p.resident_entries.mean(),
            p.resident_bytes.mean() / MIB,
            rss,
        );
    }
    out.push('\n');
    out
}

/// The live sweep's figure — wall-clock per simulated second against
/// the node count — with its CSV slug.
pub fn live_figures(points: &[LivePoint]) -> Vec<(String, Figure)> {
    let points = points
        .iter()
        .map(|p| (p.nodes as f64, &p.wall_ms_per_sim_s));
    let fig = Figure::from_stats(
        "Scale sweep (live) — full-protocol wall-clock per simulated second",
        "nodes",
        "wall-clock ms per simulated second",
        [("live protocol ms per simulated second", points)],
    );
    vec![("scale_live".to_owned(), fig)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::verify_shards;

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
        let (slug, fig) = &figures(&points)[0];
        assert_eq!(slug, "scale_sweep");
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 2);
        assert!(fig.render_text().contains("Scale sweep"));
        assert_eq!(
            report(&points).lines().count(),
            4,
            "two sizes, one ratio, a blank"
        );
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
        let (slug, fig) = &live_figures(&points)[0];
        assert_eq!(slug, "scale_live");
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.series[0].points.len(), 2);
        assert!(live_report(&cfg, &points).contains("ideal radio"));
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
        // `verify_shards` asserts counter parity internally.
        let points = verify_shards(cfg.shards, |shards| {
            live_sweep(&LiveConfig {
                shards,
                ..cfg.clone()
            })
        });
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
        // `verify_shards` asserts counter parity internally — the lossy
        // channel must commute with the barrier merge.
        let points = verify_shards(cfg.shards, |shards| {
            live_sweep(&LiveConfig {
                shards,
                ..cfg.clone()
            })
        });
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
