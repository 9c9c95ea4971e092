//! Seeded goldens of every experiment family's output. Each test runs a
//! tiny config and hashes (fnv1a) what the `figures` CLI prints for it:
//! the text report, then every figure's slug, text table and CSV. The
//! wall-clock and RSS columns of the overhead and live-scale runs are
//! cleared first; everything else is deterministic.
//!
//! The hashes were recorded before the eval layer moved onto one
//! live-run driver, so they pin every experiment's output across that
//! refactor byte for byte. A change that moves one must say why.

mod common;

use common::fnv1a;
use qolsr::eval::churn::{self, ChurnConfig, ChurnScenario};
use qolsr::eval::faults::{self, FaultConfig, FaultKind};
use qolsr::eval::figures::{
    ablation_figures, bandwidth_figures, delay_figures, robustness_figures,
};
use qolsr::eval::loss::{self, LossConfig};
use qolsr::eval::overhead::{self, OverheadConfig};
use qolsr::eval::scale::{self, LiveConfig};
use qolsr::eval::traffic::{self, TrafficConfig};
use qolsr::eval::{run_experiment, EvalConfig, QosMetric, SelectorKind};
use qolsr::report::Figure;
use qolsr::routing::RouteStrategy;
use qolsr_graph::deploy::UniformWeights;
use qolsr_metrics::{BandwidthMetric, DelayMetric};
use qolsr_proto::{EtxParams, HysteresisParams, LinkHysteresis, LinkMetric};
use qolsr_sim::stats::OnlineStats;
use qolsr_sim::{CorruptionParams, FrameCorruption, LossyPhy, PhyModel, SimDuration};

/// Hashes `report` and `figures` as the CLI prints them. Unless
/// `masked`, every figure must carry samples: a config that skips all
/// its worlds renders all-zero curves and pins nothing.
fn hash(report: &str, figures: &[(String, Figure)], masked: bool) -> u64 {
    let mut out = report.to_owned();
    for (slug, fig) in figures {
        let sampled = fig.series.iter().any(|s| s.points.iter().any(|p| p.n > 0));
        assert!(masked || sampled, "{slug} has no samples");
        out.push_str(slug);
        out.push('\n');
        out.push_str(&fig.render_text());
        out.push_str(&fig.render_csv());
    }
    fnv1a(out.as_bytes())
}

fn tiny_eval() -> EvalConfig {
    EvalConfig {
        densities: vec![8.0, 12.0],
        runs: 3,
        seed: 7,
        weights: UniformWeights::new(1, 100),
        field: (400.0, 400.0),
        radius: 100.0,
        strategy: RouteStrategy::AdvertisedOnly,
        threads: 2,
    }
}

#[test]
fn paper_sweep_matches_golden() {
    let cfg = tiny_eval();
    let mut figs = bandwidth_figures(&run_experiment::<BandwidthMetric>(
        &cfg,
        &SelectorKind::PAPER,
    ));
    figs.extend(delay_figures(&run_experiment::<DelayMetric>(
        &cfg,
        &SelectorKind::PAPER,
    )));
    assert_eq!(hash("", &figs, false), 0x627005b5b23c9c16);
}

#[test]
fn ablations_match_golden() {
    let delay = EvalConfig {
        densities: vec![6.0, 10.0],
        ..tiny_eval()
    };
    let figs = ablation_figures(&tiny_eval(), &delay);
    assert_eq!(figs.len(), 13);
    assert_eq!(hash("", &figs, false), 0x7bb5175508b5b734);
}

#[test]
fn robustness_matches_golden() {
    let figs = robustness_figures(&tiny_eval());
    assert_eq!(hash("", &figs, false), 0x232c1be908cc581c);
}

fn tiny_churn(metric: QosMetric) -> ChurnConfig {
    ChurnConfig {
        density: 8.0,
        field: (300.0, 300.0),
        warmup: SimDuration::from_secs(15),
        dynamic: SimDuration::from_secs(20),
        sample_every: SimDuration::from_secs(5),
        probes: 4,
        threads: 2,
        seed: 3,
        metric,
        ..ChurnConfig::new(2)
    }
}

#[test]
fn churn_over_time_matches_golden() {
    for (metric, golden) in [
        (QosMetric::Bandwidth, 0xd3321612e22b0d7e),
        (QosMetric::Delay, 0xa3ef2332ed43d9de),
    ] {
        let cfg = tiny_churn(metric);
        let results = churn::churn_experiment(&cfg, &SelectorKind::PAPER);
        let figs = churn::figures(&cfg, &results);
        assert_eq!(hash("", &figs, false), golden, "{metric:?}");
    }
}

#[test]
fn churn_over_leave_rate_matches_golden() {
    for (metric, golden) in [
        (QosMetric::Bandwidth, 0xa3569d0069d483a5),
        (QosMetric::Delay, 0xd34850975afb6b44),
    ] {
        let cfg = tiny_churn(metric);
        let results = churn::leave_rate_sweep(&cfg, &[0.0, 0.4], &SelectorKind::PAPER);
        let figs = churn::leave_rate_figures(&cfg, &results);
        assert_eq!(hash("", &figs, false), golden, "{metric:?}");
    }
}

#[test]
fn loss_with_hysteresis_and_etx_matches_golden() {
    let mut cfg = LossConfig {
        levels: vec![0, 600_000],
        nodes: 40,
        warmup: SimDuration::from_secs(15),
        measure: SimDuration::from_secs(10),
        sample_every: SimDuration::from_secs(5),
        probes: 4,
        threads: 2,
        seed: 3,
        ..LossConfig::new(2)
    };
    cfg.olsr.link_hysteresis = LinkHysteresis::On(HysteresisParams::default());
    cfg.olsr.link_metric = LinkMetric::Etx(EtxParams::default());
    let results = loss::loss_experiment(&cfg, &SelectorKind::PAPER);
    let text = loss::report(&cfg, &results);
    let golden = 0x7b5743d0e5fe387a;
    assert_eq!(hash(&text, &loss::figures(&cfg, &results), false), golden);
}

#[test]
fn faults_with_corruption_match_golden() {
    for (kind, golden) in [
        (FaultKind::Partition, 0x07bbb2ce00db92da),
        (FaultKind::Blackout, 0x5cd5234f98e6268f),
        (FaultKind::CrashStorm, 0xdf69a7d1a420ccd6),
    ] {
        let cfg = FaultConfig {
            density: 8.0,
            field: (300.0, 300.0),
            warmup: SimDuration::from_secs(15),
            lead: SimDuration::from_secs(2),
            outage: SimDuration::from_secs(8),
            observe: SimDuration::from_secs(15),
            sample_every: SimDuration::from_secs(1),
            probes: 6,
            threads: 2,
            kind,
            corruption: FrameCorruption::On(CorruptionParams::default()),
            ..FaultConfig::new(2)
        };
        let results = faults::fault_experiment(&cfg, &SelectorKind::PAPER);
        for r in &results {
            assert_eq!(r.recovered_runs + r.censored_runs, 2, "both worlds resolve");
        }
        let text = faults::report(&cfg, &results);
        let figs = faults::figures(&cfg, &results);
        assert_eq!(hash(&text, &figs, false), golden, "{kind:?}");
    }
}

#[test]
fn traffic_static_and_mobile_match_golden() {
    for (mobility, golden) in [
        (None, 0xc851fbff6634e281),
        (Some(ChurnScenario::default()), 0x7d87a0ff59386f58),
    ] {
        let cfg = TrafficConfig {
            levels: vec![0, 400_000],
            nodes: 40,
            warmup: SimDuration::from_secs(15),
            measure: SimDuration::from_secs(10),
            flows: 6,
            threads: 2,
            seed: 3,
            mobility,
            ..TrafficConfig::new(2)
        };
        let results = traffic::traffic_experiment(&cfg, &SelectorKind::PAPER);
        let text = traffic::report(&cfg, &results);
        let figs = traffic::figures(&cfg, &results);
        assert_eq!(
            hash(&text, &figs, false),
            golden,
            "mobile: {}",
            mobility.is_some()
        );
    }
}

#[test]
fn overhead_matches_golden_without_wall_clock() {
    let cfg = OverheadConfig {
        sizes: vec![40, 60],
        warmup_seconds: 10,
        sim_seconds: 6,
        probes: 6,
        ..OverheadConfig::new(1)
    };
    let mut points = overhead::overhead_sweep(&cfg);
    for p in &mut points {
        assert!(p.events.count() > 0);
        p.wall_ms_per_sim_s = OnlineStats::new();
    }
    let text = overhead::report(&cfg, &points);
    let figs = overhead::figures(&points);
    assert_eq!(hash(&text, &figs, false), 0x09e455642e566f2f);
}

#[test]
fn live_scale_matches_golden_without_wall_clock_or_rss() {
    let lossy = PhyModel::Lossy(LossyPhy {
        edge_drop_ppm: 400_000,
        exponent: 2,
        capture_window: SimDuration::from_micros(150),
    });
    // The ideal radio's n = 60 row reads 23 recomputes and 1 cache hit
    // since route caches narrow an exact radius per TC change: one
    // probe's full table outlived a TC change that moved no route. Its
    // other columns are unchanged. Since a removed tree edge cuts only
    // its subtree and HELLO-reported links go through the radius rules,
    // the lossy radio's rows read 23 recomputes and 1 hit (n = 40) and
    // 21 and 3 (n = 60), against 24 and 0, and 23 and 1; their other
    // columns are unchanged.
    for (phy, golden) in [
        (PhyModel::Ideal, 0x0aa265bceee4deb6),
        (lossy, 0x433df8b729229eaf),
    ] {
        let cfg = LiveConfig {
            sizes: vec![40, 60],
            warmup_seconds: 4,
            sim_seconds: 3,
            probes: 8,
            phy,
            ..LiveConfig::new(1)
        };
        let mut points = scale::live_sweep(&cfg);
        for p in &mut points {
            assert!(p.events.count() > 0);
            p.wall_ms_per_sim_s = OnlineStats::new();
            p.rss_bytes = OnlineStats::new();
        }
        let text = scale::live_report(&cfg, &points);
        // The live figure plots wall-clock alone, so it renders masked.
        let figs = scale::live_figures(&points);
        assert_eq!(hash(&text, &figs, true), golden, "{phy:?}");
    }
}
