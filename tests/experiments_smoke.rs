//! Small-scale end-to-end runs of the figure pipelines asserting the
//! paper's *qualitative* findings (who wins, roughly by how much). The
//! full-scale numbers live in `EXPERIMENTS.md` and are regenerated by
//! `cargo run --release -p qolsr-bench --bin figures`.

mod common;

use common::smoke_config;
use qolsr::eval::churn::{churn_experiment, figures, ChurnConfig};
use qolsr::eval::{run_experiment, EvalConfig, QosMetric, SelectorKind};
use qolsr_metrics::{BandwidthMetric, DelayMetric};
use qolsr_sim::SimDuration;

#[test]
fn fig6_shape_fnbp_small_and_flat() {
    let cfg = smoke_config(EvalConfig::paper_bandwidth(0));
    let r = run_experiment::<BandwidthMetric>(&cfg, &SelectorKind::PAPER);
    let qolsr = &r.selectors[0].per_density;
    let tf = &r.selectors[1].per_density;
    let fnbp = &r.selectors[2].per_density;

    for i in 0..cfg.densities.len() {
        // FNBP advertises the smallest set at every density.
        assert!(
            fnbp[i].ans_size.mean() < tf[i].ans_size.mean(),
            "density {}: FNBP {} !< TF {}",
            cfg.densities[i],
            fnbp[i].ans_size.mean(),
            tf[i].ans_size.mean()
        );
        assert!(
            fnbp[i].ans_size.mean() < qolsr[i].ans_size.mean(),
            "density {}: FNBP !< QOLSR",
            cfg.densities[i]
        );
    }
    // QOLSR and TF grow with density; FNBP stays nearly flat (bandwidth
    // metric: its tie-overlap compression keeps the set ~constant).
    let growth = |s: &[qolsr::eval::DensityMeasures]| {
        s.last().unwrap().ans_size.mean() - s.first().unwrap().ans_size.mean()
    };
    assert!(growth(qolsr) > 1.0, "QOLSR should grow: {}", growth(qolsr));
    assert!(growth(tf) > 1.0, "TF should grow: {}", growth(tf));
    assert!(
        growth(fnbp).abs() < 1.0,
        "FNBP should stay ~flat: {}",
        growth(fnbp)
    );
}

#[test]
fn fig8_shape_fnbp_and_tf_near_optimal() {
    let cfg = smoke_config(EvalConfig::paper_bandwidth(0));
    let r = run_experiment::<BandwidthMetric>(&cfg, &SelectorKind::PAPER);
    for sel in &r.selectors {
        for d in &sel.per_density {
            assert!(d.delivery.mean() > 0.99, "{:?} dropped pairs", sel.kind);
        }
    }
    // TF and FNBP within 2% of optimal on average (the paper's headline),
    // QOLSR no better than them.
    let mean_overhead = |i: usize| -> f64 {
        r.selectors[i]
            .per_density
            .iter()
            .map(|d| d.overhead.mean())
            .sum::<f64>()
            / r.selectors[i].per_density.len() as f64
    };
    let qolsr = mean_overhead(0);
    let tf = mean_overhead(1);
    let fnbp = mean_overhead(2);
    assert!(tf < 0.02, "TF overhead {tf}");
    assert!(fnbp < 0.02, "FNBP overhead {fnbp}");
    assert!(qolsr >= fnbp, "QOLSR {qolsr} should not beat FNBP {fnbp}");
}

#[test]
fn fig7_fig9_delay_shapes() {
    let cfg = smoke_config(EvalConfig::paper_delay(0));
    let r = run_experiment::<DelayMetric>(&cfg, &SelectorKind::PAPER);
    let qolsr = &r.selectors[0].per_density;
    let tf = &r.selectors[1].per_density;
    let fnbp = &r.selectors[2].per_density;
    for i in 0..cfg.densities.len() {
        // Under delay both QANS schemes stay below original QOLSR.
        assert!(tf[i].ans_size.mean() <= qolsr[i].ans_size.mean() + 0.2);
        assert!(fnbp[i].ans_size.mean() <= qolsr[i].ans_size.mean() + 0.2);
        // And both are essentially delay-optimal, unlike QOLSR.
        assert!(tf[i].overhead.mean() < 0.05);
        assert!(fnbp[i].overhead.mean() < 0.05);
    }
}

/// The delay-metric churn experiment (the `figures churn --metric delay`
/// path), pinned at its runs=3 smoke scale: structure, sanity bounds and
/// replay determinism.
#[test]
fn churn_delay_smoke_is_pinned() {
    let cfg = ChurnConfig {
        density: 8.0,
        field: (300.0, 300.0),
        warmup: SimDuration::from_secs(15),
        dynamic: SimDuration::from_secs(20),
        sample_every: SimDuration::from_secs(5),
        probes: 4,
        threads: 2,
        seed: 13,
        metric: QosMetric::Delay,
        ..ChurnConfig::new(3)
    };
    let kinds = [SelectorKind::Fnbp, SelectorKind::TopologyFiltering];
    let results = churn_experiment(&cfg, &kinds);

    // Structure: one curve per selector, five samples (t = 15..35 s).
    assert_eq!(results.len(), 2);
    for r in &results {
        assert_eq!(r.per_sample.len(), 5);
        assert_eq!(r.per_sample[0].at_secs, 15.0);
        assert_eq!(r.per_sample[4].at_secs, 35.0);
        for s in &r.per_sample {
            assert!(s.validity.count() > 0, "{:?}: no probes sampled", r.kind);
            assert!(
                (0.0..=1.0).contains(&s.validity.mean()),
                "{:?}: validity out of range",
                r.kind
            );
            assert!((0.0..=1.0).contains(&s.staleness.mean()));
            assert!((0.0..=1.0).contains(&s.drift.mean()));
        }
        // Before the world moves, a converged network routes cleanly.
        assert!(r.per_sample[0].validity.mean() > 0.9);
        assert!(r.per_sample[0].staleness.mean() < 0.1);
    }

    // Pin the rendered output: a replay must be byte-identical.
    let replay = churn_experiment(&cfg, &kinds);
    let csv = |rs: &[qolsr::eval::churn::ChurnMeasures]| {
        let figs = figures(&cfg, rs);
        format!("{}{}", figs[0].1.render_csv(), figs[1].1.render_csv())
    };
    assert_eq!(csv(&results), csv(&replay), "replay must be byte-identical");

    // The delay metric must actually change selection behavior somewhere
    // in the sweep relative to bandwidth (different QANS orders).
    let bandwidth_cfg = ChurnConfig {
        metric: QosMetric::Bandwidth,
        ..cfg.clone()
    };
    let bandwidth = churn_experiment(&bandwidth_cfg, &kinds);
    assert_ne!(
        csv(&results),
        csv(&bandwidth),
        "delay and bandwidth churn curves should differ"
    );
}

/// One large world with spare threads (runs < threads) must aggregate
/// identically to the single-threaded run: the per-node selection
/// fan-out inside a run cannot change results.
#[test]
fn churn_inner_fanout_is_thread_invariant() {
    let cfg = |threads: usize| ChurnConfig {
        density: 8.0,
        field: (400.0, 400.0),
        warmup: SimDuration::from_secs(12),
        dynamic: SimDuration::from_secs(10),
        sample_every: SimDuration::from_secs(5),
        probes: 4,
        threads,
        seed: 29,
        ..ChurnConfig::new(1)
    };
    let a = churn_experiment(&cfg(1), &[SelectorKind::Fnbp]);
    let b = churn_experiment(&cfg(4), &[SelectorKind::Fnbp]);
    for (x, y) in a[0].per_sample.iter().zip(&b[0].per_sample) {
        assert_eq!(x.validity.mean(), y.validity.mean());
        assert_eq!(x.staleness.mean(), y.staleness.mean());
        assert_eq!(x.drift.count(), y.drift.count());
        assert_eq!(x.drift.mean(), y.drift.mean());
    }
}

#[test]
fn id_rule_never_hurts_delivery() {
    let mut cfg = smoke_config(EvalConfig::paper_bandwidth(0));
    cfg.strategy = qolsr::routing::RouteStrategy::AdvertisedOnly;
    let r =
        run_experiment::<BandwidthMetric>(&cfg, &[SelectorKind::Fnbp, SelectorKind::FnbpNoIdRule]);
    // Adding advertised links can reroute a hop-by-hop packet onto a
    // different (occasionally looping) trajectory, so the comparison is
    // statistical, not pointwise: aggregated over the sweep, the id rule
    // must not meaningfully hurt delivery, and must stay cheap.
    let aggregate = |sel: &qolsr::eval::SelectorMeasures,
                     f: fn(&qolsr::eval::DensityMeasures) -> f64| {
        sel.per_density.iter().map(f).sum::<f64>() / sel.per_density.len() as f64
    };
    let with_delivery = aggregate(&r.selectors[0], |d| d.delivery.mean());
    let without_delivery = aggregate(&r.selectors[1], |d| d.delivery.mean());
    assert!(
        with_delivery >= without_delivery - 0.05,
        "id rule hurt delivery: {with_delivery} vs {without_delivery}"
    );
    let with_size = aggregate(&r.selectors[0], |d| d.ans_size.mean());
    let without_size = aggregate(&r.selectors[1], |d| d.ans_size.mean());
    assert!(
        with_size <= without_size + 0.5,
        "id rule too costly: {with_size} vs {without_size}"
    );
}
