//! Route-recovery experiment under injected faults: partition windows,
//! regional blackouts and crash-reboot storms.
//!
//! The churn experiment ([`crate::eval::churn`]) measures selectors under
//! *continuous* stress; this module measures them under *acute* stress.
//! One fault is injected at a known instant `t₀` into an otherwise static,
//! converged network, removed (or exhausted) at `t₁`, and the network is
//! then sampled densely while it re-converges. Three recovery figures of
//! merit come out per selector:
//!
//! - **Time to reconvergence** — seconds from the heal instant to the
//!   first sample at which hop-by-hop route validity over the probe set
//!   stays at or above [`FaultConfig::threshold`] for
//!   [`FaultConfig::sustain`] consecutive samples. Runs that never get
//!   there within the observation window are reported as *censored*, not
//!   silently dropped.
//! - **Residual stale exposure** — the mean stale advertised-link
//!   fraction over every post-heal sample: how long invalidated topology
//!   keeps circulating after the fault is gone.
//! - **Control-byte recovery cost** — the network-wide `bytes_sent`
//!   delta between the heal sample and the reconvergence sample: what the
//!   repair itself costs in control traffic.
//!
//! Faults are injected through the seed-deterministic scenario models in
//! [`qolsr_sim::scenario`] ([`PartitionWindow`], [`RegionalBlackout`],
//! [`CrashStorm`]), optionally on top of a corrupting radio
//! ([`FrameCorruption`]), and the whole experiment runs unchanged at any
//! engine shard count — [`verify_shards`](crate::eval::verify_shards)
//! pins a sharded run against the one-shard run.

use std::fmt::Write as _;

use qolsr_graph::connectivity::Components;
use qolsr_graph::deploy::{deploy, Deployment, UniformWeights};
use qolsr_graph::NodeId;
use qolsr_proto::OlsrConfig;
use qolsr_sim::scenario::{CrashStorm, PartitionWindow, RegionalBlackout, ScenarioBuilder};
use qolsr_sim::stats::OnlineStats;
use qolsr_sim::{FrameCorruption, RadioConfig, Scenario, SimDuration, SimRng, SimTime};

use crate::eval::churn::{probe_route, ProbeOutcome};
use crate::eval::scale::field_side;
use crate::eval::{
    connected_pairs, derive_seed, live_network, sample_times, sweep, LiveNetwork, Merge, QosMetric,
    SelectorKind, ShardInvariant, Skip, SkippedWorlds,
};
use crate::report::Figure;

/// Which fault the experiment injects at `t₀`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// A clean bisection: nodes west and east of the field's vertical
    /// midline cannot exchange frames for [`FaultConfig::outage`], then
    /// the cut heals atomically ([`PartitionWindow`]).
    #[default]
    Partition,
    /// Every node west of the midline crash-reboots at `t₀` with wiped
    /// protocol state and sequence numbers ([`RegionalBlackout`]). The
    /// "heal" instant coincides with the fault: recovery starts
    /// immediately.
    Blackout,
    /// A Poisson storm of correlated crash-reboots raging for
    /// [`FaultConfig::outage`] ([`CrashStorm`]); the heal instant is the
    /// end of the storm window.
    CrashStorm,
}

impl FaultKind {
    /// Lower-case name used in figure slugs and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Partition => "partition",
            FaultKind::Blackout => "blackout",
            FaultKind::CrashStorm => "crash-storm",
        }
    }
}

impl std::str::FromStr for FaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "partition" => Ok(FaultKind::Partition),
            "blackout" => Ok(FaultKind::Blackout),
            "crash-storm" | "crashstorm" | "storm" => Ok(FaultKind::CrashStorm),
            other => Err(format!(
                "unknown fault: {other} (partition|blackout|crash-storm)"
            )),
        }
    }
}

/// Configuration of the fault-recovery experiment.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Mean node degree of the deployment.
    pub density: f64,
    /// Independent worlds.
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// Field width and height. The partition/blackout cut runs at
    /// `field.0 / 2`.
    pub field: (f64, f64),
    /// Communication radius `R`.
    pub radius: f64,
    /// Static warm-up before sampling starts (protocol convergence).
    pub warmup: SimDuration,
    /// Pre-fault baseline sampling: the fault lands at `warmup + lead`.
    pub lead: SimDuration,
    /// Fault duration — partition width, or crash-storm window. Ignored
    /// by [`FaultKind::Blackout`] (a one-shot fault).
    pub outage: SimDuration,
    /// Post-heal observation window.
    pub observe: SimDuration,
    /// Interval between measurement samples (dense: the recovery-time
    /// resolution).
    pub sample_every: SimDuration,
    /// Probe source/destination pairs per world.
    pub probes: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Which fault to inject.
    pub kind: FaultKind,
    /// Crash-storm arrival rate (storms per second).
    pub storm_rate: f64,
    /// Per-node crash probability per storm, in parts per million.
    pub crash_ppm: u32,
    /// Radio-path frame corruption riding along with the fault.
    pub corruption: FrameCorruption,
    /// Route validity a sample must reach to count toward reconvergence.
    pub threshold: f64,
    /// Consecutive samples at or above [`Self::threshold`] required to
    /// declare reconvergence (guards against transient flaps).
    pub sustain: usize,
    /// Protocol configuration of every node.
    pub olsr: OlsrConfig,
    /// Engine shard count (identical results at any count — see
    /// [`verify_shards`](crate::eval::verify_shards)).
    pub shards: u32,
    /// The QoS metric the selectors select under.
    pub metric: QosMetric,
}

impl FaultConfig {
    /// Defaults: a `500 × 500` field at density 10, 30 s warm-up, 5 s
    /// baseline, a 20 s partition, 60 s of post-heal observation sampled
    /// every second, reconvergence at validity ≥ 0.99 sustained for 3
    /// samples.
    pub fn new(runs: u32) -> Self {
        Self {
            density: 10.0,
            runs,
            seed: 0xFA01_2026,
            weights: UniformWeights::new(1, 100),
            field: (500.0, 500.0),
            radius: 100.0,
            warmup: SimDuration::from_secs(30),
            lead: SimDuration::from_secs(5),
            outage: SimDuration::from_secs(20),
            observe: SimDuration::from_secs(60),
            sample_every: SimDuration::from_secs(1),
            probes: 8,
            threads: 0,
            kind: FaultKind::Partition,
            storm_rate: 0.5,
            crash_ppm: 80_000,
            corruption: FrameCorruption::Off,
            threshold: 0.99,
            sustain: 3,
            olsr: OlsrConfig::default(),
            shards: 1,
            metric: QosMetric::Bandwidth,
        }
    }

    /// Sizes the (square) field so a density-`δ` Poisson deployment hits
    /// ~`n` nodes — the scale sweep's sizing rule `side = sqrt(n · π R² / δ)`.
    /// The hook behind `figures faults --nodes`.
    pub fn with_nodes(mut self, n: usize) -> Self {
        let side = field_side(n, self.radius, self.density);
        self.field = (side, side);
        self
    }

    /// The instant the fault lands.
    pub fn fault_at(&self) -> SimTime {
        SimTime::ZERO + self.warmup + self.lead
    }

    /// The instant the fault is gone and recovery officially begins:
    /// the heal for a partition, the end of the storm window for a
    /// crash-storm, the fault instant itself for a one-shot blackout.
    pub fn heal_at(&self) -> SimTime {
        match self.kind {
            FaultKind::Partition | FaultKind::CrashStorm => self.fault_at() + self.outage,
            FaultKind::Blackout => self.fault_at(),
        }
    }

    /// The fault schedule, relative to the fault instant (the caller
    /// installs it at [`Self::fault_at`]). Only the crash-storm draws
    /// randomness; all three are pure functions of `seed`.
    fn build_scenario(&self, topo: &qolsr_graph::Topology, seed: u64) -> Scenario {
        let cut = self.field.0 / 2.0;
        let builder = ScenarioBuilder::new(topo, seed);
        match self.kind {
            FaultKind::Partition => builder
                .with(PartitionWindow::new(SimDuration::ZERO, cut, self.outage))
                .generate(self.outage),
            FaultKind::Blackout => builder
                .with(RegionalBlackout::new(SimDuration::ZERO, cut))
                .generate(SimDuration::ZERO),
            FaultKind::CrashStorm => builder
                .with(CrashStorm::new(self.storm_rate, self.crash_ppm))
                .generate(self.outage),
        }
    }
}

/// Aggregates of one sample instant.
#[derive(Debug, Clone)]
pub struct FaultSample {
    /// Seconds since simulation start.
    pub at_secs: f64,
    /// Route validity over the probe pairs.
    pub validity: OnlineStats,
    /// Stale advertised-link fraction over the nodes.
    pub staleness: OnlineStats,
}

impl Merge for FaultSample {
    fn merge(&mut self, other: &Self) {
        self.validity.merge(&other.validity);
        self.staleness.merge(&other.staleness);
    }
}

/// Recovery measures of one selector.
#[derive(Debug, Clone)]
pub struct FaultMeasures {
    /// Which selector.
    pub kind: SelectorKind,
    /// One aggregate per sample instant.
    pub per_sample: Vec<FaultSample>,
    /// Seconds from heal to sustained reconvergence, over the runs that
    /// reconverged.
    pub recovery_secs: OnlineStats,
    /// Network-wide control bytes sent between the heal sample and the
    /// reconvergence sample, over the runs that reconverged.
    pub recovery_bytes: OnlineStats,
    /// Mean stale advertised-link fraction over the post-heal samples,
    /// one value per run.
    pub residual_staleness: OnlineStats,
    /// Runs that reached sustained validity within the window.
    pub recovered_runs: u64,
    /// Runs that did not — their recovery time is right-censored at the
    /// observation window, not averaged in.
    pub censored_runs: u64,
    /// Worlds of the sweep no selector was measured on (the same for
    /// every selector: they share the worlds).
    pub skipped: SkippedWorlds,
}

impl Merge for FaultMeasures {
    fn merge(&mut self, other: &Self) {
        self.per_sample.merge(&other.per_sample);
        self.recovery_secs.merge(&other.recovery_secs);
        self.recovery_bytes.merge(&other.recovery_bytes);
        self.residual_staleness.merge(&other.residual_staleness);
        self.recovered_runs += other.recovered_runs;
        self.censored_runs += other.censored_runs;
    }
}

impl ShardInvariant for FaultMeasures {}

/// Runs the fault-recovery experiment for the given selectors.
///
/// Per run: one Poisson deployment, one fault schedule (identical for
/// every selector), one live OLSR network per selector, sampled densely
/// across baseline → fault → heal → recovery. Runs shard over worker
/// threads; per-run results merge in run order, so output is independent
/// of thread count.
pub fn fault_experiment(cfg: &FaultConfig, kinds: &[SelectorKind]) -> Vec<FaultMeasures> {
    // Sample instants (absolute virtual time), warm-up end included.
    let times = sample_times(
        SimTime::ZERO + cfg.warmup,
        cfg.heal_at() + cfg.observe,
        cfg.sample_every,
    );
    let empty = || {
        let sample = |t: &SimTime| FaultSample {
            at_secs: t.as_secs_f64(),
            validity: OnlineStats::new(),
            staleness: OnlineStats::new(),
        };
        let measures = |&kind: &SelectorKind| FaultMeasures {
            kind,
            per_sample: times.iter().map(sample).collect(),
            recovery_secs: OnlineStats::new(),
            recovery_bytes: OnlineStats::new(),
            residual_staleness: OnlineStats::new(),
            recovered_runs: 0,
            censored_runs: 0,
            skipped: SkippedWorlds::default(),
        };
        kinds.iter().map(measures).collect::<Vec<_>>()
    };
    let (mut measures, skipped) = sweep(cfg.threads, cfg.runs, empty, |run, _, accum| {
        single_fault_run(cfg, derive_seed(cfg.seed, 0, run), kinds, &times, accum)
    });
    measures.iter_mut().for_each(|m| m.skipped = skipped);
    measures
}

fn single_fault_run(
    cfg: &FaultConfig,
    seed: u64,
    kinds: &[SelectorKind],
    times: &[SimTime],
    accum: &mut [FaultMeasures],
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
    // The fault experiment probes recovery of routes that *can* recover:
    // only pairs connected in the (static) ground truth qualify.
    if Components::compute(&topo).count() != 1 {
        // A world that is partitioned before the fault would censor every
        // selector identically; skip it rather than pollute the curves.
        return Err(Skip::Disconnected);
    }
    // One fault schedule per world, shared verbatim by every selector.
    let scenario = cfg.build_scenario(&topo, seed ^ 0xFA17_0CE2);
    let probes = connected_pairs(&topo, cfg.probes, 4096, false, &mut rng);
    if probes.is_empty() {
        return Err(Skip::NoProbes);
    }
    let heal_idx = times
        .iter()
        .position(|&t| t >= cfg.heal_at())
        .unwrap_or(times.len().saturating_sub(1));

    let radio = RadioConfig {
        corruption: cfg.corruption,
        ..RadioConfig::default()
    };
    for (si, &kind) in kinds.iter().enumerate() {
        let mut net = live_network(&topo, cfg.olsr, radio, seed, cfg.shards, kind, cfg.metric);
        // The world stays static through warm-up and baseline; the fault
        // schedule starts at the fault instant.
        net.install_scenario_at(&scenario, cfg.fault_at());

        let mut validity = Vec::with_capacity(times.len());
        let mut staleness = Vec::with_capacity(times.len());
        let mut bytes = Vec::with_capacity(times.len());
        for &at in times {
            net.run_until(at);
            let (v, s) = sample_instant(&net, &probes);
            validity.push(v);
            staleness.push(s);
            bytes.push(net.total_stats().bytes_sent);
        }

        let m = &mut accum[si];
        for (ti, (&v, &s)) in validity.iter().zip(&staleness).enumerate() {
            m.per_sample[ti].validity.push(v);
            m.per_sample[ti].staleness.push(s);
        }
        for &s in &staleness[heal_idx..] {
            m.residual_staleness.push(s);
        }
        match reconvergence_index(&validity, heal_idx, cfg.threshold, cfg.sustain) {
            Some(ri) => {
                m.recovered_runs += 1;
                m.recovery_secs
                    .push(times[ri].as_secs_f64() - cfg.heal_at().as_secs_f64());
                m.recovery_bytes.push((bytes[ri] - bytes[heal_idx]) as f64);
            }
            None => m.censored_runs += 1,
        }
    }
    Ok(())
}

/// Instant route validity (delivered fraction over live probes) and mean
/// advertised staleness at the network's current virtual time.
fn sample_instant(net: &LiveNetwork, probes: &[(NodeId, NodeId)]) -> (f64, f64) {
    let world = net.world();
    let mut delivered = 0u32;
    let mut live = 0u32;
    for &(s, t) in probes {
        match probe_route(net, s, t) {
            ProbeOutcome::Delivered(_) => {
                delivered += 1;
                live += 1;
            }
            ProbeOutcome::Dropped => live += 1,
            // Both endpoints stay powered on under crash faults (a crash
            // reboots in place), so this only skips mid-churn corpses.
            ProbeOutcome::EndpointDown => {}
        }
    }
    let validity = if live == 0 {
        0.0
    } else {
        f64::from(delivered) / f64::from(live)
    };

    let mut stale_sum = 0.0;
    let mut advertisers = 0u32;
    for u in world.nodes().filter(|&u| world.is_active(u)) {
        let advertised = net.node(u).advertised();
        if advertised.is_empty() {
            continue;
        }
        let stale = advertised
            .iter()
            .filter(|&&(w, _)| !world.has_link(u, w))
            .count();
        stale_sum += stale as f64 / advertised.len() as f64;
        advertisers += 1;
    }
    let staleness = if advertisers == 0 {
        0.0
    } else {
        stale_sum / f64::from(advertisers)
    };
    (validity, staleness)
}

/// First index `i >= heal_idx` at which `validity[i..i + sustain]` all
/// reach `threshold` — the sustained-reconvergence instant, or `None`
/// when the run is censored.
fn reconvergence_index(
    validity: &[f64],
    heal_idx: usize,
    threshold: f64,
    sustain: usize,
) -> Option<usize> {
    let sustain = sustain.max(1);
    (heal_idx..validity.len().checked_sub(sustain - 1)?.max(heal_idx))
        .find(|&i| validity[i..i + sustain].iter().all(|&v| v >= threshold))
}

/// The text report printed before the figures: the fault timeline and
/// one recovery row per selector.
pub fn report(cfg: &FaultConfig, results: &[FaultMeasures]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fault={} t0={:.0}s heal={:.0}s threshold={} sustain={}",
        cfg.kind.name(),
        cfg.fault_at().as_secs_f64(),
        cfg.heal_at().as_secs_f64(),
        cfg.threshold,
        cfg.sustain,
    );
    if let Some(r) = results.first() {
        out.push_str(&r.skipped.report_line(cfg.runs));
    }
    let _ = writeln!(
        out,
        "# {:<22} {:>12} {:>12} {:>14} {:>14} {:>10}",
        "selector", "recovery(s)", "±ci95", "bytes", "resid-stale", "censored"
    );
    for r in results {
        let _ = writeln!(
            out,
            "# {:<22} {:>12.2} {:>12.2} {:>14.0} {:>14.4} {:>7}/{:<3}",
            r.kind.label(),
            r.recovery_secs.mean(),
            r.recovery_secs.ci95_half_width(),
            r.recovery_bytes.mean(),
            r.residual_staleness.mean(),
            r.censored_runs,
            r.recovered_runs + r.censored_runs,
        );
    }
    out.push('\n');
    out
}

/// The fault figures — route validity and advertised staleness through
/// the fault — each with its CSV slug.
pub fn figures(cfg: &FaultConfig, results: &[FaultMeasures]) -> Vec<(String, Figure)> {
    let (m, fault) = (cfg.metric.name(), cfg.kind.name());
    let figure =
        |slug: &str, title: String, ylabel: &str, stat: fn(&FaultSample) -> &OnlineStats| {
            let series = results.iter().map(|r| {
                let points = r.per_sample.iter().map(move |s| (s.at_secs, stat(s)));
                (r.kind.label(), points)
            });
            let fig = Figure::from_stats(&title, "time (s)", ylabel, series);
            (
                format!("faults_{}_{slug}_{m}", fault.replace('-', "_")),
                fig,
            )
        };
    vec![
        figure(
            "validity",
            format!(
                "Faults — route validity through a {fault} (fault at {:.0} s, heal at {:.0} s, \
                 {m} metric)",
                cfg.fault_at().as_secs_f64(),
                cfg.heal_at().as_secs_f64(),
            ),
            "route validity (hop-by-hop delivery)",
            |s| &s.validity,
        ),
        figure(
            "staleness",
            format!("Faults — advertised staleness through a {fault} ({m} metric)"),
            "stale advertised-link fraction",
            |s| &s.staleness,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(kind: FaultKind) -> FaultConfig {
        FaultConfig {
            density: 8.0,
            field: (300.0, 300.0),
            warmup: SimDuration::from_secs(15),
            lead: SimDuration::from_secs(2),
            outage: SimDuration::from_secs(8),
            observe: SimDuration::from_secs(25),
            sample_every: SimDuration::from_secs(1),
            probes: 6,
            kind,
            ..FaultConfig::new(2)
        }
    }

    #[test]
    fn a_disconnected_world_is_reported_not_measured() {
        // At 40 nodes this seed's one world (the `figures` default) is
        // disconnected.
        let cfg = FaultConfig {
            seed: 0x51C0_2010,
            ..FaultConfig::new(1).with_nodes(40)
        };
        let results = fault_experiment(&cfg, &[SelectorKind::Fnbp]);
        let r = &results[0];
        assert_eq!(r.recovered_runs + r.censored_runs, 0);
        assert_eq!(r.skipped.disconnected, 1);
        let report = report(&cfg, &results);
        assert_eq!(
            report.lines().nth(1),
            Some("# skipped 1 of 1 worlds (1 disconnected)")
        );
    }

    #[test]
    fn reconvergence_index_respects_sustain() {
        let v = [1.0, 0.2, 0.5, 1.0, 0.98, 1.0, 1.0, 1.0];
        // From heal at 1: the lone 1.0 at 3 is not sustained (0.98 next);
        // the first sustained window of 3 starts at 5.
        assert_eq!(reconvergence_index(&v, 1, 0.99, 3), Some(5));
        // sustain = 1 takes the first qualifying sample.
        assert_eq!(reconvergence_index(&v, 1, 0.99, 1), Some(3));
        // Unreachable threshold censors.
        assert_eq!(reconvergence_index(&v, 1, 1.1, 1), None);
        // Window longer than the tail censors.
        assert_eq!(reconvergence_index(&v, 6, 0.99, 5), None);
        // Degenerate sustain = 0 is clamped to 1.
        assert_eq!(reconvergence_index(&v, 0, 0.99, 0), Some(0));
    }

    #[test]
    fn partition_dips_validity_then_recovers() {
        let cfg = tiny_cfg(FaultKind::Partition);
        let kinds = [SelectorKind::QolsrMpr2];
        let results = fault_experiment(&cfg, &kinds);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        // One sample a second from warm-up end (15 s) to heal + observe
        // (25 s + 25 s).
        assert_eq!(r.per_sample.len(), 36);
        assert_eq!(
            r.recovered_runs + r.censored_runs,
            u64::from(cfg.runs),
            "every world must resolve to recovered or censored"
        );
        // Baseline (pre-fault) validity must beat mid-outage validity:
        // a bisected field cannot route across the cut.
        let baseline = r.per_sample[0].validity.mean();
        let mid_outage_at = cfg.fault_at().as_secs_f64() + cfg.outage.as_secs_f64() / 2.0;
        let mid = r
            .per_sample
            .iter()
            .min_by(|a, b| {
                let da = (a.at_secs - mid_outage_at).abs();
                let db = (b.at_secs - mid_outage_at).abs();
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        assert!(
            mid.validity.mean() < baseline,
            "partition should dent validity: baseline {} vs mid-outage {}",
            baseline,
            mid.validity.mean(),
        );
    }

    #[test]
    fn blackout_recovery_is_shard_invariant() {
        let cfg = FaultConfig {
            shards: 2,
            threads: 2,
            ..tiny_cfg(FaultKind::Blackout)
        };
        // `verify_shards` asserts curve and recovery parity between the
        // two-shard and one-shard runs internally.
        let results = crate::eval::verify_shards(cfg.shards, |shards| {
            let cfg = FaultConfig {
                shards,
                ..cfg.clone()
            };
            fault_experiment(&cfg, &[SelectorKind::Fnbp])
        });
        assert_eq!(results[0].recovered_runs + results[0].censored_runs, 2);
    }

    #[test]
    fn crash_storm_with_corruption_stays_deterministic() {
        let cfg = FaultConfig {
            corruption: FrameCorruption::On(qolsr_sim::CorruptionParams::default()),
            observe: SimDuration::from_secs(15),
            ..tiny_cfg(FaultKind::CrashStorm)
        };
        let kinds = [SelectorKind::TopologyFiltering];
        let a = fault_experiment(&cfg, &kinds);
        let b = fault_experiment(&cfg, &kinds);
        let render = |rs: &[FaultMeasures]| {
            rs.iter()
                .flat_map(|r| {
                    r.per_sample
                        .iter()
                        .map(|s| (s.validity.mean().to_bits(), s.staleness.mean().to_bits()))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b), "same seed must replay exactly");
        assert!(report(&cfg, &a).contains("# fault=crash-storm"));
    }

    /// An unreachable validity threshold right-censors every world: no
    /// run can ever sustain `validity >= 1.1`, so the recovery
    /// distribution stays empty and each run lands in `censored_runs` —
    /// while the validity curves themselves keep sampling normally.
    #[test]
    fn unreachable_threshold_censors_every_run() {
        let cfg = FaultConfig {
            threshold: 1.1,
            ..tiny_cfg(FaultKind::Partition)
        };
        let results = fault_experiment(&cfg, &[SelectorKind::Fnbp]);
        let r = &results[0];
        assert_eq!(r.recovered_runs, 0, "nothing can clear threshold 1.1");
        assert_eq!(
            r.censored_runs,
            u64::from(cfg.runs),
            "every world must be censored, none silently dropped"
        );
        assert_eq!(
            r.recovery_secs.count(),
            0,
            "censored runs must not contribute recovery samples"
        );
        assert!(
            r.per_sample.iter().all(|s| s.validity.count() > 0),
            "censoring is a recovery verdict, not a sampling gap"
        );
    }

    /// A deployment that is partitioned *before* the fault fires would
    /// censor every selector identically, so `single_fault_run` skips it
    /// outright: no recovery verdicts and no curve samples. The test
    /// re-derives the experiment's own deployments to prove the crafted
    /// config really produces disconnected worlds.
    #[test]
    fn disconnected_deployments_are_skipped() {
        let cfg = FaultConfig {
            density: 1.0,
            field: (1200.0, 1200.0),
            ..tiny_cfg(FaultKind::Partition)
        };
        for run in 0..cfg.runs {
            let mut rng = SimRng::seed_from_u64(derive_seed(cfg.seed, 0, run));
            let deployment = Deployment {
                width: cfg.field.0,
                height: cfg.field.1,
                radius: cfg.radius,
                mean_degree: cfg.density,
            };
            let topo = deploy(&deployment, &cfg.weights, &mut rng);
            assert!(
                topo.len() >= 4,
                "the crafted field must not be trivially tiny"
            );
            assert!(
                Components::compute(&topo).count() > 1,
                "the crafted field must actually deploy disconnected (run {run})"
            );
        }
        let results = fault_experiment(&cfg, &[SelectorKind::Fnbp]);
        let r = &results[0];
        assert_eq!(
            r.recovered_runs + r.censored_runs,
            0,
            "no world may resolve"
        );
        assert_eq!(r.recovery_secs.count(), 0);
        assert!(
            r.per_sample.iter().all(|s| s.validity.count() == 0),
            "skipped worlds must not pollute the curves"
        );
    }
}
