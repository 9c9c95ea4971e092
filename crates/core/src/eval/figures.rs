//! One entry point per figure of the paper, plus the ablations this
//! reproduction adds. Each returns its figures with their CSV slugs,
//! ready for text or CSV rendering; the `qolsr-bench` crate's `figures`
//! binary is a thin CLI over this module.

use qolsr_graph::deploy::UniformWeights;
use qolsr_metrics::{BandwidthMetric, DelayMetric};

use crate::eval::robustness::{delivery_figure, link_failure_study};
use crate::eval::{run_experiment, EvalConfig, ExperimentResult, SelectorKind};
use crate::report::Figure;
use crate::routing::RouteStrategy;

/// Common knobs for figure regeneration.
#[derive(Debug, Clone, Copy)]
pub struct FigureOptions {
    /// Topologies per density (paper: 100).
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Routing model for the overhead figures.
    pub strategy: RouteStrategy,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl Default for FigureOptions {
    fn default() -> Self {
        Self {
            runs: 100,
            seed: 0x51C0_2010,
            strategy: RouteStrategy::AdvertisedOnly,
            threads: 0,
        }
    }
}

impl FigureOptions {
    /// The paper's bandwidth sweep (densities 10–35) under these options.
    pub fn bandwidth_config(&self) -> EvalConfig {
        self.config(EvalConfig::paper_bandwidth(self.runs))
    }

    /// The paper's delay sweep (densities 5–30) under these options.
    pub fn delay_config(&self) -> EvalConfig {
        self.config(EvalConfig::paper_delay(self.runs))
    }

    fn config(&self, mut cfg: EvalConfig) -> EvalConfig {
        cfg.runs = self.runs;
        cfg.seed = self.seed;
        cfg.strategy = self.strategy;
        cfg.threads = self.threads;
        cfg
    }
}

/// Runs the bandwidth-metric experiment behind Figs. 6 and 8
/// (densities 10–35).
pub fn bandwidth_experiment(opts: &FigureOptions) -> ExperimentResult {
    run_experiment::<BandwidthMetric>(&opts.bandwidth_config(), &SelectorKind::PAPER)
}

/// Runs the delay-metric experiment behind Figs. 7 and 9
/// (densities 5–30).
pub fn delay_experiment(opts: &FigureOptions) -> ExperimentResult {
    run_experiment::<DelayMetric>(&opts.delay_config(), &SelectorKind::PAPER)
}

/// **Fig. 6** (advertised set size) and **Fig. 8** (bandwidth overhead
/// `(b* − b)/b*` vs the centralized optimum) from one bandwidth run, plus
/// its delivery rate, each with its CSV slug.
pub fn bandwidth_figures(r: &ExperimentResult) -> Vec<(String, Figure)> {
    vec![
        (
            "fig6_ans_size_bandwidth".to_owned(),
            r.ans_size_figure("Fig. 6 — advertised set size per node (bandwidth metric)"),
        ),
        (
            "fig8_bandwidth_overhead".to_owned(),
            r.overhead_figure("Fig. 8 — bandwidth overhead vs centralized optimum"),
        ),
        (
            "fig8b_delivery_bandwidth".to_owned(),
            r.delivery_figure("Fig. 8b (extra) — delivery rate (bandwidth experiment)"),
        ),
    ]
}

/// **Fig. 7** (advertised set size) and **Fig. 9** (delay overhead
/// `(d − d*)/d*` vs the centralized optimum) from one delay run, each
/// with its CSV slug.
pub fn delay_figures(r: &ExperimentResult) -> Vec<(String, Figure)> {
    vec![
        (
            "fig7_ans_size_delay".to_owned(),
            r.ans_size_figure("Fig. 7 — advertised set size per node (delay metric)"),
        ),
        (
            "fig9_delay_overhead".to_owned(),
            r.overhead_figure("Fig. 9 — delay overhead vs centralized optimum"),
        ),
    ]
}

/// The ablations over the `bandwidth` and `delay` sweeps, each figure
/// with its CSV slug:
///
/// - FNBP with and without the smallest-id rule under advertised-links-
///   only routing (where the Fig. 4 pathology matters most);
/// - every selector family under the bandwidth metric, including classic
///   OLSR and MPR-1 (broader than the paper's three series);
/// - FNBP overhead under the three routing-knowledge models;
/// - the paper series under three link-weight intervals — small
///   intervals inflate QoS tie sets, which shrinks FNBP (more first-hop
///   overlap) but bloats topology filtering (more "select them all"
///   ties).
pub fn ablation_figures(bandwidth: &EvalConfig, delay: &EvalConfig) -> Vec<(String, Figure)> {
    let with = |base: &EvalConfig, strategy: RouteStrategy| EvalConfig {
        strategy,
        ..base.clone()
    };
    let mut figs = Vec::new();
    let id_rule = run_experiment::<BandwidthMetric>(
        &with(bandwidth, RouteStrategy::AdvertisedOnly),
        &[SelectorKind::Fnbp, SelectorKind::FnbpNoIdRule],
    );
    figs.push((
        "ablation_id_rule_delivery".to_owned(),
        id_rule.delivery_figure(
            "Ablation — delivery rate with/without the smallest-id rule \
             (advertised-links-only routing)",
        ),
    ));
    figs.push((
        "ablation_id_rule_overhead".to_owned(),
        id_rule.overhead_figure("Ablation — overhead with/without the smallest-id rule"),
    ));
    let all = run_experiment::<BandwidthMetric>(
        bandwidth,
        &[
            SelectorKind::ClassicOlsr,
            SelectorKind::QolsrMpr1,
            SelectorKind::QolsrMpr2,
            SelectorKind::TopologyFiltering,
            SelectorKind::Fnbp,
        ],
    );
    figs.push((
        "ablation_all_selectors_size".to_owned(),
        all.ans_size_figure("Ablation — advertised set size, all selector families"),
    ));
    figs.push((
        "ablation_all_selectors_overhead".to_owned(),
        all.overhead_figure("Ablation — bandwidth overhead, all selector families"),
    ));
    for (name, strategy) in [
        ("hop-by-hop", RouteStrategy::HopByHop),
        ("source-route", RouteStrategy::SourceRoute),
        ("advertised-only", RouteStrategy::AdvertisedOnly),
    ] {
        let r =
            run_experiment::<BandwidthMetric>(&with(bandwidth, strategy), &[SelectorKind::Fnbp]);
        let title = format!("Ablation — FNBP overhead, {name} routing");
        figs.push((
            format!("ablation_strategy_{name}"),
            r.overhead_figure(&title),
        ));
    }
    for (lo, hi) in [(1u64, 10u64), (1, 100), (1, 1000)] {
        let name = format!("weights_{lo}_{hi}");
        let weights = UniformWeights::new(lo, hi);
        let bw = EvalConfig {
            weights,
            ..bandwidth.clone()
        };
        let d = EvalConfig {
            weights,
            ..delay.clone()
        };
        let bw = run_experiment::<BandwidthMetric>(&bw, &SelectorKind::PAPER);
        let d = run_experiment::<DelayMetric>(&d, &SelectorKind::PAPER);
        let title = format!("Ablation — advertised set size (bandwidth), {name}");
        figs.push((
            format!("ablation_{name}_size_bandwidth"),
            bw.ans_size_figure(&title),
        ));
        let title = format!("Ablation — advertised set size (delay), {name}");
        figs.push((
            format!("ablation_{name}_size_delay"),
            d.ans_size_figure(&title),
        ));
    }
    figs
}

/// The link-failure study at density 15 over `cfg`'s field and runs:
/// delivery with stale advertised sets as links fail, with its CSV slug.
pub fn robustness_figures(cfg: &EvalConfig) -> Vec<(String, Figure)> {
    let fractions = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4];
    let results =
        link_failure_study::<BandwidthMetric>(cfg, 15.0, &fractions, &SelectorKind::PAPER);
    let title = "Robustness — delivery with stale advertised sets under link failures (δ=15)";
    vec![(
        "robustness_link_failures".to_owned(),
        delivery_figure(&results, title),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> FigureOptions {
        FigureOptions {
            runs: 2,
            seed: 3,
            strategy: RouteStrategy::HopByHop,
            threads: 2,
        }
    }

    #[test]
    fn fig6_has_three_series_over_six_densities() {
        let mut opts = micro();
        opts.runs = 1;
        let (slug, fig) = &bandwidth_figures(&bandwidth_experiment(&opts))[0];
        assert_eq!(slug, "fig6_ans_size_bandwidth");
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), 6);
        }
        assert_eq!(fig.x_values(), vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0]);
    }

    #[test]
    fn fig7_uses_delay_densities() {
        let mut opts = micro();
        opts.runs = 1;
        let (slug, fig) = &delay_figures(&delay_experiment(&opts))[0];
        assert_eq!(slug, "fig7_ans_size_delay");
        assert_eq!(fig.x_values(), vec![5.0, 10.0, 15.0, 20.0, 25.0, 30.0]);
    }
}
