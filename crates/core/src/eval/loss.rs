//! Loss-sweep experiment: the live OLSR protocol over the lossy PHY,
//! per selector, as the radio loss level rises.
//!
//! Where [`churn`](crate::eval::churn) stresses the protocol with a
//! *moving world*, this experiment keeps the world static and turns the
//! only remaining knob: the channel. Each sweep level runs the full
//! HELLO/TC protocol under [`PhyModel::Lossy`](qolsr_sim::PhyModel) with
//! a given edge drop probability (distance-quadratic falloff, optional
//! capture-window collisions), and measures per selector:
//!
//! * **delivery ratio** — frames delivered over frames attempted
//!   (`deliveries / (deliveries + phy_drops + collisions)`) in the
//!   measured window — the channel actually experienced;
//! * **route validity** — the fraction of probe pairs whose packets
//!   reach the destination hop by hop over the nodes' current tables
//!   (the shared [`probe_route`] semantics);
//! * **MPR-set churn** — the mean Jaccard distance between consecutive
//!   samples of each node's advertised (MPR-selected) set: lost HELLOs
//!   flap link tuples, which flap MPR selection, which churns TC
//!   content. Selectors differ in how much tie-breaking stability they
//!   have, so this is a per-selector property.
//!
//! Every selector replays the *same* deployments at every loss level
//! (deployment seeds are level-independent), so curves differ only by
//! selection policy and loss. The protocol configuration is a hook: the
//! same sweep runs with RFC §14 link hysteresis and/or the ETX metric
//! enabled ([`qolsr_proto::LinkHysteresis`], [`qolsr_proto::LinkMetric`])
//! to measure how quality-aware sensing changes the curves.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::NodeId;
use qolsr_proto::{LinkHysteresis, LinkMetric, OlsrConfig};
use qolsr_sim::stats::OnlineStats;
use qolsr_sim::{SimDuration, SimRng, SimTime};

use crate::eval::churn::{probe_route, ProbeOutcome};
use crate::eval::scale::{deploy_field, field_side};
use crate::eval::{
    connected_pairs, derive_seed, live_network, lossy_radio, sample_times, sweep, LiveNetwork,
    Merge, QosMetric, SelectorKind, ShardInvariant, Skip, SkippedWorlds,
};
use crate::report::Figure;

/// Configuration of the loss sweep.
#[derive(Debug, Clone)]
pub struct LossConfig {
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
    /// Unmeasured protocol warm-up (convergence) before sampling.
    pub warmup: SimDuration,
    /// Measured window length.
    pub measure: SimDuration,
    /// Interval between measurement samples.
    pub sample_every: SimDuration,
    /// Probe source/destination pairs per world.
    pub probes: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Protocol configuration of every node — the hook for sweeping
    /// under link hysteresis and/or the ETX metric.
    pub olsr: OlsrConfig,
    /// Engine shard count (loss sampling is shard-count-invariant,
    /// pinned by `tests/phy_differential.rs`).
    pub shards: u32,
    /// The QoS metric the selectors select under.
    pub metric: QosMetric,
}

impl LossConfig {
    /// Defaults: 250 nodes at the paper's density 10 and radius 100,
    /// edge drop 0 → 80 %, quadratic falloff, 30 s warm-up + 30 s
    /// measured sampled every 5 s. The capture window defaults to zero
    /// (collisions off) so the x = 0 baseline is genuinely lossless and
    /// the sweep isolates the drop axis; a non-zero window adds a
    /// level-independent collision floor on top.
    pub fn new(runs: u32) -> Self {
        Self {
            levels: vec![0, 100_000, 200_000, 400_000, 600_000, 800_000],
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
            sample_every: SimDuration::from_secs(5),
            probes: 16,
            threads: 0,
            olsr: OlsrConfig::default(),
            shards: 1,
            metric: QosMetric::Bandwidth,
        }
    }
}

/// Aggregates of one selector at one loss level.
#[derive(Debug, Clone)]
pub struct LossLevelMeasures {
    /// The swept edge drop probability, ppm.
    pub edge_drop_ppm: u32,
    /// Frame delivery ratio over the measured window (one sample per
    /// run).
    pub delivery: OnlineStats,
    /// Route validity over the probe pairs at the sample instants.
    pub validity: OnlineStats,
    /// Jaccard distance between consecutive advertised (MPR-selected)
    /// sets, per node per sample interval.
    pub mpr_churn: OnlineStats,
}

impl Merge for LossLevelMeasures {
    fn merge(&mut self, other: &Self) {
        self.delivery.merge(&other.delivery);
        self.validity.merge(&other.validity);
        self.mpr_churn.merge(&other.mpr_churn);
    }
}

/// All measurements of one selector across the loss sweep.
#[derive(Debug, Clone)]
pub struct LossMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// One aggregate per swept level, in sweep order.
    pub per_level: Vec<LossLevelMeasures>,
    /// Worlds of the sweep no selector was measured on (the same for
    /// every selector: they share the worlds).
    pub skipped: SkippedWorlds,
}

impl Merge for LossMeasures {
    fn merge(&mut self, other: &Self) {
        self.per_level.merge(&other.per_level);
    }
}

impl ShardInvariant for LossMeasures {}

/// Runs the loss sweep for the given selectors.
///
/// Per run one deployment is generated (identical across levels and
/// selectors — the deployment seed depends only on the run index), then
/// every (level, selector) pair runs a live network on it. Runs shard
/// over worker threads; per-run results merge in run order, so output
/// is independent of thread count.
pub fn loss_experiment(cfg: &LossConfig, kinds: &[SelectorKind]) -> Vec<LossMeasures> {
    let empty = || {
        let level = |&edge_drop_ppm: &u32| LossLevelMeasures {
            edge_drop_ppm,
            delivery: OnlineStats::new(),
            validity: OnlineStats::new(),
            mpr_churn: OnlineStats::new(),
        };
        let measures = |&kind: &SelectorKind| LossMeasures {
            kind,
            per_level: cfg.levels.iter().map(level).collect(),
            skipped: SkippedWorlds::default(),
        };
        kinds.iter().map(measures).collect::<Vec<_>>()
    };
    let (mut measures, skipped) = sweep(cfg.threads, cfg.runs, empty, |run, _, accum| {
        single_loss_run(cfg, run, kinds, accum)
    });
    measures.iter_mut().for_each(|m| m.skipped = skipped);
    measures
}

fn single_loss_run(
    cfg: &LossConfig,
    run: u32,
    kinds: &[SelectorKind],
    accum: &mut [LossMeasures],
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
    // Loss worlds stay static: a pair that cannot route shows up as
    // validity 0 at *every* level, and the difference across levels is
    // the measurand.
    let mut rng = SimRng::seed_from_u64(deploy_seed ^ 0x4c05_5e3d);
    let probes = connected_pairs(&topo, cfg.probes, 4096, false, &mut rng);
    if probes.is_empty() {
        return Err(Skip::NoProbes);
    }
    // Warm-up end, then every `sample_every` through the measured window.
    let start = SimTime::ZERO + cfg.warmup;
    let times = sample_times(start, start + cfg.measure, cfg.sample_every);

    for (li, &level) in cfg.levels.iter().enumerate() {
        for (si, &kind) in kinds.iter().enumerate() {
            let radio = lossy_radio(level, cfg.exponent, cfg.capture_window);
            let seed = derive_seed(cfg.seed, 1 + li, run);
            let mut net = live_network(&topo, cfg.olsr, radio, seed, cfg.shards, kind, cfg.metric);
            let out = &mut accum[si].per_level[li];

            net.run_until(times[0]);
            let engine0 = net.engine_stats();
            let mut prev_adv: Vec<BTreeSet<NodeId>> = advertised_sets(&net);
            for &at in &times {
                net.run_until(at);
                for &(s, t) in &probes {
                    match probe_route(&net, s, t) {
                        ProbeOutcome::Delivered(_) => out.validity.push(1.0),
                        ProbeOutcome::Dropped => out.validity.push(0.0),
                        ProbeOutcome::EndpointDown => {}
                    }
                }
                if at > times[0] {
                    let cur = advertised_sets(&net);
                    for (p, c) in prev_adv.iter().zip(&cur) {
                        let union = p.union(c).count();
                        if union > 0 {
                            let common = p.intersection(c).count();
                            out.mpr_churn.push((union - common) as f64 / union as f64);
                        }
                    }
                    prev_adv = cur;
                }
            }
            let engine = net.engine_stats();
            let delivered = engine.deliveries - engine0.deliveries;
            let lost =
                (engine.phy_drops - engine0.phy_drops) + (engine.collisions - engine0.collisions);
            let attempted = delivered + lost;
            if attempted > 0 {
                out.delivery.push(delivered as f64 / attempted as f64);
            }
        }
    }
    Ok(())
}

fn advertised_sets(net: &LiveNetwork) -> Vec<BTreeSet<NodeId>> {
    net.world()
        .nodes()
        .map(|u| net.node(u).advertised().iter().map(|&(w, _)| w).collect())
        .collect()
}

/// The text report printed before the figures: the sweep settings and
/// one row per (selector, level).
pub fn report(cfg: &LossConfig, results: &[LossMeasures]) -> String {
    let mut out = String::new();
    let falloff = match cfg.exponent {
        2 => "quadratic falloff".to_owned(),
        e => format!("falloff exponent {e}"),
    };
    let _ = writeln!(
        out,
        "# lossy radio: n={}, {falloff}, {} µs capture window, hysteresis={}, \
         etx={}; {} probe pairs sampled every {} s over {} s measured",
        cfg.nodes,
        cfg.capture_window.as_micros(),
        matches!(cfg.olsr.link_hysteresis, LinkHysteresis::On(_)),
        matches!(cfg.olsr.link_metric, LinkMetric::Etx(_)),
        cfg.probes,
        cfg.sample_every.as_secs_f64(),
        cfg.measure.as_secs_f64(),
    );
    if let Some(r) = results.first() {
        out.push_str(&r.skipped.report_line(cfg.runs));
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "# {:>9}  {:>32}  {:>9}  {:>9}  {:>10}",
        "edge-drop", "selector", "delivery", "validity", "MPR-churn"
    );
    for r in results {
        for level in &r.per_level {
            let _ = writeln!(
                out,
                "# {:>8.2}%  {:>32}  {:>9.3}  {:>9.3}  {:>10.3}",
                f64::from(level.edge_drop_ppm) / 1e4,
                r.kind.label(),
                level.delivery.mean(),
                level.validity.mean(),
                level.mpr_churn.mean(),
            );
        }
    }
    out.push('\n');
    out
}

/// The loss figures — frame delivery ratio, route validity and MPR-set
/// churn against the edge drop probability — each with its CSV slug.
pub fn figures(cfg: &LossConfig, results: &[LossMeasures]) -> Vec<(String, Figure)> {
    let m = cfg.metric.name();
    let figure =
        |slug: &str, what: &str, ylabel: &str, stat: fn(&LossLevelMeasures) -> &OnlineStats| {
            let series = results.iter().map(|r| {
                let points = r
                    .per_level
                    .iter()
                    .map(move |l| (f64::from(l.edge_drop_ppm) / 1e6, stat(l)));
                (r.kind.label(), points)
            });
            let title = format!("Loss — {what} vs edge drop probability ({m} metric)");
            let fig = Figure::from_stats(&title, "edge drop probability", ylabel, series);
            (format!("loss_{slug}_{m}"), fig)
        };
    vec![
        figure(
            "delivery",
            "frame delivery ratio",
            "frame delivery ratio",
            |l| &l.delivery,
        ),
        figure(
            "route_validity",
            "route validity",
            "route validity (hop-by-hop delivery)",
            |l| &l.validity,
        ),
        figure(
            "mpr_churn",
            "MPR-set churn",
            "MPR-set churn (Jaccard per sample interval)",
            |l| &l.mpr_churn,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use qolsr_proto::{HysteresisParams, LinkHysteresis};

    fn tiny_cfg() -> LossConfig {
        LossConfig {
            levels: vec![0, 600_000],
            nodes: 40,
            warmup: SimDuration::from_secs(15),
            measure: SimDuration::from_secs(10),
            sample_every: SimDuration::from_secs(5),
            probes: 4,
            threads: 2,
            seed: 3,
            ..LossConfig::new(2)
        }
    }

    #[test]
    fn produces_curves_and_loss_degrades_delivery() {
        let cfg = tiny_cfg();
        let kinds = [SelectorKind::Fnbp, SelectorKind::QolsrMpr2];
        let results = loss_experiment(&cfg, &kinds);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.per_level.len(), 2);
            let clean = &r.per_level[0];
            let lossy = &r.per_level[1];
            assert!(clean.delivery.count() > 0);
            assert!(
                clean.delivery.mean() > 0.999,
                "{:?}: zero edge drop must deliver everything, got {}",
                r.kind,
                clean.delivery.mean()
            );
            assert!(
                lossy.delivery.mean() < clean.delivery.mean(),
                "{:?}: loss must reduce the delivery ratio",
                r.kind
            );
            assert!(clean.validity.count() > 0, "{:?} sampled no probes", r.kind);
            assert!(lossy.mpr_churn.count() > 0);
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut one = tiny_cfg();
        one.threads = 1;
        let mut many = tiny_cfg();
        many.threads = 3;
        let a = loss_experiment(&one, &[SelectorKind::Fnbp]);
        let b = loss_experiment(&many, &[SelectorKind::Fnbp]);
        for (x, y) in a[0].per_level.iter().zip(&b[0].per_level) {
            assert_eq!(x.delivery.mean(), y.delivery.mean());
            assert_eq!(x.validity.mean(), y.validity.mean());
            assert_eq!(x.mpr_churn.mean(), y.mpr_churn.mean());
        }
    }

    #[test]
    fn hysteresis_config_plumbs_through() {
        let mut cfg = tiny_cfg();
        cfg.levels = vec![600_000];
        cfg.olsr = OlsrConfig {
            link_hysteresis: LinkHysteresis::On(HysteresisParams::default()),
            ..OlsrConfig::default()
        };
        let gated = loss_experiment(&cfg, &[SelectorKind::Fnbp]);
        let mut plain_cfg = tiny_cfg();
        plain_cfg.levels = vec![600_000];
        let plain = loss_experiment(&plain_cfg, &[SelectorKind::Fnbp]);
        // The knob must actually reach the nodes: quality gating changes
        // which links are admitted, hence the measured curves.
        let render = |rs: &[LossMeasures]| figures(&cfg, rs)[2].1.render_csv();
        assert_ne!(render(&gated), render(&plain));
    }

    #[test]
    fn figures_render() {
        let cfg = tiny_cfg();
        let results = loss_experiment(&cfg, &[SelectorKind::Fnbp]);
        let figs = figures(&cfg, &results);
        assert_eq!(figs.len(), 3);
        let (slug, d) = &figs[0];
        assert_eq!(slug, "loss_delivery_bandwidth");
        assert_eq!(d.series.len(), 1);
        assert!(d
            .render_text()
            .contains("frame delivery ratio vs edge drop"));
        for (_, fig) in &figs {
            assert!(fig.render_csv().lines().count() >= 2);
        }
        assert!(report(&cfg, &results).contains("MPR-churn"));
    }

    /// A deployment too small to probe (`< 4` nodes) is skipped outright
    /// by `single_loss_run`: the sweep still returns one measure row per
    /// level, but with zero samples everywhere — no fabricated curves.
    /// The test re-derives the experiment's own deployments to prove the
    /// crafted config really produces degenerate worlds.
    #[test]
    fn degenerate_deployments_are_skipped() {
        let cfg = LossConfig {
            nodes: 2,
            ..tiny_cfg()
        };
        for run in 0..cfg.runs {
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
            assert!(
                topo.len() < 4,
                "the crafted field must actually deploy degenerate (run {run})"
            );
        }
        let results = loss_experiment(&cfg, &[SelectorKind::Fnbp]);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].per_level.len(), cfg.levels.len());
        for level in &results[0].per_level {
            assert_eq!(level.delivery.count(), 0, "no delivery samples may appear");
            assert_eq!(level.validity.count(), 0);
            assert_eq!(level.mpr_churn.count(), 0);
        }
    }
}
