//! Control-overhead experiment: TC scoping policy × network size.
//!
//! PR 4's live scale sweep showed TC-flood deliveries at 99.97% of all
//! engine events at n = 4000 — control dissemination, not routing, is
//! the scaling wall. This experiment quantifies what fisheye-style
//! scoped dissemination ([`TcScoping::Fisheye`]) buys against the
//! RFC 3626 reference ([`TcScoping::Uniform`]): for each policy and
//! size it runs the full HELLO/TC protocol on the same seeded static
//! deployments and records control-traffic volume (TC deliveries,
//! bytes on the air, bytes actually parsed thanks to the duplicate-peek
//! decode), route validity over probe pairs, and wall-clock per
//! simulated second.
//!
//! Both policies replay the *same* deployments and probe pairs, so any
//! difference in the columns is the scoping policy alone. Runs execute
//! sequentially — wall-clock is one of the measurands.

use std::fmt::Write as _;

use qolsr_graph::deploy::UniformWeights;
use qolsr_graph::{NodeId, Topology};
use qolsr_proto::{FisheyeRings, OlsrConfig, TcScoping};
use qolsr_sim::stats::{HotPathCounters, OnlineStats};
use qolsr_sim::{RadioConfig, SimDuration, SimRng};

use crate::eval::churn::{probe_route, ProbeOutcome};
use crate::eval::scale::{deploy_field, field_side};
use crate::eval::{
    connected_pairs, derive_seed, live_network, measured_window, QosMetric, SelectorKind,
    ShardInvariant,
};
use crate::report::Figure;

/// Configuration of the control-overhead experiment.
#[derive(Debug, Clone)]
pub struct OverheadConfig {
    /// Node counts to sweep.
    pub sizes: Vec<usize>,
    /// Repetitions per size (each on a fresh seeded deployment).
    pub runs: u32,
    /// Master seed.
    pub seed: u64,
    /// Mean node degree, held constant across sizes (the field grows).
    pub density: f64,
    /// Communication radius `R`.
    pub radius: f64,
    /// Link-weight interval.
    pub weights: UniformWeights,
    /// Unmeasured protocol warm-up (convergence) before counting starts.
    pub warmup_seconds: u64,
    /// Measured simulated seconds of live traffic.
    pub sim_seconds: u64,
    /// Probe source/destination pairs validated after every measured
    /// simulated second.
    pub probes: usize,
    /// The scoping policies to compare, with their table labels.
    pub policies: Vec<(String, TcScoping)>,
    /// Engine shard count (identical counters at any count — see
    /// [`crate::eval::exec_mode`]).
    pub shards: u32,
}

impl OverheadConfig {
    /// The acceptance sweep: n ∈ {250, 1000, 4000} at the paper's
    /// density 10 and radius 100, RFC-uniform vs default fisheye rings.
    /// The measured window is 30 simulated seconds — six TC intervals,
    /// one full rotation of the default ring table (lcm of the ring
    /// multipliers 1, 2, 3 is 6), so every ring contributes its
    /// steady-state share to the measured counts.
    pub fn new(runs: u32) -> Self {
        Self {
            sizes: vec![250, 1000, 4000],
            runs,
            seed: 0x51C0_2010,
            density: 10.0,
            radius: 100.0,
            weights: UniformWeights::new(1, 100),
            warmup_seconds: 15,
            sim_seconds: 30,
            probes: 64,
            policies: default_policies(),
            shards: 1,
        }
    }

    /// Field side holding `n` nodes at the configured density.
    pub fn side_for(&self, n: usize) -> f64 {
        field_side(n, self.radius, self.density)
    }
}

/// The default comparison: RFC-uniform scoping vs the default fisheye
/// ring table.
pub fn default_policies() -> Vec<(String, TcScoping)> {
    vec![
        ("uniform".to_owned(), TcScoping::Uniform),
        (
            "fisheye".to_owned(),
            TcScoping::Fisheye(FisheyeRings::default()),
        ),
    ]
}

/// Measurements of one `(policy, size)` cell.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Policy label (first tuple element of the configured policies).
    pub policy: String,
    /// Node count.
    pub nodes: usize,
    /// Field side used.
    pub side: f64,
    /// Wall-clock milliseconds per measured simulated second.
    pub wall_ms_per_sim_s: OnlineStats,
    /// TC deliveries (flood traffic, including duplicates) per measured
    /// run — the column scoping exists to shrink.
    pub tc_deliveries: OnlineStats,
    /// Total engine events per measured run.
    pub events: OnlineStats,
    /// Control bytes transmitted (originated + forwarded) per measured
    /// run.
    pub control_bytes: OnlineStats,
    /// Bytes actually run through the full wire decoder per measured run
    /// (the duplicate peek skips the rest).
    pub bytes_decoded: OnlineStats,
    /// TC deliveries resolved headers-only per measured run.
    pub dup_peek_hits: OnlineStats,
    /// Route validity over the probe pairs, sampled after every measured
    /// simulated second (fraction of pairs delivered hop by hop).
    pub validity: OnlineStats,
    /// TC emissions per fisheye ring, totalled over runs (all zero for
    /// uniform scoping).
    pub tc_ring_emissions: [u64; 4],
    /// Counter totals over all runs of this cell.
    pub totals: HotPathCounters,
}

impl ShardInvariant for OverheadPoint {
    fn mask(&mut self) {
        self.wall_ms_per_sim_s = OnlineStats::new();
        self.totals.resident_entries = 0;
        self.totals.resident_bytes = 0;
    }
}

/// Runs the sweep. Points come back grouped by size in `sizes` order,
/// with one point per configured policy inside each size (policy order
/// preserved); every policy of a `(size, run)` cell replays the same
/// deployment and probe pairs.
pub fn overhead_sweep(cfg: &OverheadConfig) -> Vec<OverheadPoint> {
    let mut points: Vec<OverheadPoint> = Vec::new();
    for (si, &n) in cfg.sizes.iter().enumerate() {
        let side = cfg.side_for(n);
        let base = points.len();
        for (label, _) in &cfg.policies {
            points.push(OverheadPoint {
                policy: label.clone(),
                nodes: n,
                side,
                wall_ms_per_sim_s: OnlineStats::new(),
                tc_deliveries: OnlineStats::new(),
                events: OnlineStats::new(),
                control_bytes: OnlineStats::new(),
                bytes_decoded: OnlineStats::new(),
                dup_peek_hits: OnlineStats::new(),
                validity: OnlineStats::new(),
                tc_ring_emissions: [0; 4],
                totals: HotPathCounters::default(),
            });
        }
        for run in 0..cfg.runs {
            let seed = derive_seed(cfg.seed ^ 0x0EAD, si, run);
            let topo = deploy_field(n, side, cfg.radius, cfg.density, &cfg.weights, seed);
            let mut probe_rng = SimRng::seed_from_u64(seed ^ 0x009B_0BE5);
            let probes = connected_pairs(&topo, cfg.probes.min(n), 4096, false, &mut probe_rng);
            for (pi, (_, scoping)) in cfg.policies.iter().enumerate() {
                let point = &mut points[base + pi];
                single_run(cfg, &topo, &probes, *scoping, seed, point);
            }
        }
    }
    points
}

fn single_run(
    cfg: &OverheadConfig,
    topo: &Topology,
    probes: &[(NodeId, NodeId)],
    scoping: TcScoping,
    seed: u64,
    point: &mut OverheadPoint,
) {
    let olsr = OlsrConfig {
        tc_scoping: scoping,
        ..OlsrConfig::default()
    };
    let (radio, fnbp) = (RadioConfig::default(), SelectorKind::Fnbp);
    let mut net = live_network(
        topo,
        olsr,
        radio,
        seed,
        cfg.shards,
        fnbp,
        QosMetric::Bandwidth,
    );
    net.run_for(SimDuration::from_secs(cfg.warmup_seconds));
    let nodes0 = net.total_stats();
    let validity = &mut point.validity;
    let (ms_per_sim_s, counters) = measured_window(&mut net, cfg.sim_seconds, |net| {
        let delivered = probes
            .iter()
            .filter(|&&(s, t)| matches!(probe_route(net, s, t), ProbeOutcome::Delivered(_)))
            .count();
        if !probes.is_empty() {
            validity.push(delivered as f64 / probes.len() as f64);
        }
    });
    let nodes = net.total_stats();
    point.wall_ms_per_sim_s.push(ms_per_sim_s);
    point
        .tc_deliveries
        .push((nodes.tc_received - nodes0.tc_received) as f64);
    point.events.push(counters.events_popped as f64);
    point
        .control_bytes
        .push((nodes.bytes_sent - nodes0.bytes_sent) as f64);
    point.bytes_decoded.push(counters.bytes_decoded as f64);
    point.dup_peek_hits.push(counters.dup_peek_hits as f64);
    for (sum, ring) in point
        .tc_ring_emissions
        .iter_mut()
        .zip(counters.tc_ring_emissions)
    {
        *sum += ring;
    }
    point.totals.merge(&counters);
}

/// The text report printed before the figures: the run settings and one
/// row per `(size, policy)` cell.
pub fn report(cfg: &OverheadConfig, points: &[OverheadPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# control overhead: {} s warm-up (unmeasured) + {} s measured (one full fisheye ring \
         rotation), {} probe pairs validated per simulated second\n",
        cfg.warmup_seconds, cfg.sim_seconds, cfg.probes
    );
    let _ = writeln!(
        out,
        "# {:>5}  {:>8}  {:>10}  {:>13}  {:>13}  {:>13}  {:>12}  {:>16}  {:>8}",
        "n",
        "policy",
        "ms/sim-s",
        "TC deliveries",
        "ctrl bytes",
        "bytes decoded",
        "dup-peek hits",
        "TC/ring",
        "validity"
    );
    for p in points {
        // Trim only *trailing* zero slots: a mid-table ring that never
        // fired (e.g. shadowed by an outer ring with the same
        // multiplier) must still show as 0.
        let rings = match p.tc_ring_emissions.iter().rposition(|&r| r > 0) {
            None => "-".to_owned(),
            Some(last) => {
                let used: Vec<String> = p.tc_ring_emissions[..=last]
                    .iter()
                    .map(u64::to_string)
                    .collect();
                used.join("/")
            }
        };
        let _ = writeln!(
            out,
            "# {:>5}  {:>8}  {:>10.1}  {:>13.0}  {:>13.0}  {:>13.0}  {:>12.0}  {:>16}  {:>7.3}",
            p.nodes,
            p.policy,
            p.wall_ms_per_sim_s.mean(),
            p.tc_deliveries.mean(),
            p.control_bytes.mean(),
            p.bytes_decoded.mean(),
            p.dup_peek_hits.mean(),
            rings,
            p.validity.mean(),
        );
    }
    out.push('\n');
    out
}

/// The overhead figures — TC-flood deliveries and route validity against
/// the node count, one series per scoping policy — each with its CSV
/// slug.
pub fn figures(points: &[OverheadPoint]) -> Vec<(String, Figure)> {
    let mut policies: Vec<&str> = Vec::new();
    for p in points {
        if !policies.contains(&p.policy.as_str()) {
            policies.push(&p.policy);
        }
    }
    let figure =
        |slug: &str, title: &str, ylabel: &str, stat: fn(&OverheadPoint) -> &OnlineStats| {
            let series = policies.iter().map(|&policy| {
                let cells = points.iter().filter(move |p| p.policy == policy);
                (policy, cells.map(move |p| (p.nodes as f64, stat(p))))
            });
            (
                slug.to_owned(),
                Figure::from_stats(title, "nodes", ylabel, series),
            )
        };
    vec![
        figure(
            "overhead_tc_deliveries",
            "Control overhead — TC-flood deliveries per measured run, by scoping policy",
            "TC deliveries per measured run",
            |p| &p.tc_deliveries,
        ),
        figure(
            "overhead_route_validity",
            "Control overhead — route validity under scoped TC dissemination",
            "route validity (probe pairs)",
            |p| &p.validity,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> OverheadConfig {
        OverheadConfig {
            sizes: vec![40, 80],
            warmup_seconds: 15,
            // A full ring rotation, so the fisheye arm is measured at
            // its steady-state mix and not on a full-flood tick alone.
            sim_seconds: 30,
            probes: 8,
            ..OverheadConfig::new(1)
        }
    }

    #[test]
    fn fisheye_cuts_tc_traffic_and_keeps_validity() {
        let points = overhead_sweep(&tiny_cfg());
        // Grouped by size, policy order preserved inside each group.
        assert_eq!(points.len(), 4);
        for pair in points.chunks(2) {
            let (uniform, fisheye) = (&pair[0], &pair[1]);
            assert_eq!(uniform.policy, "uniform");
            assert_eq!(fisheye.policy, "fisheye");
            assert_eq!(uniform.nodes, fisheye.nodes);
            let n = uniform.nodes;
            assert!(
                fisheye.tc_deliveries.mean() < uniform.tc_deliveries.mean(),
                "n={n}: fisheye must cut TC deliveries ({} vs {})",
                fisheye.tc_deliveries.mean(),
                uniform.tc_deliveries.mean()
            );
            assert!(
                fisheye.control_bytes.mean() < uniform.control_bytes.mean(),
                "n={n}: fisheye must cut control bytes"
            );
            // On a static converged world both policies keep routing.
            assert!(
                uniform.validity.mean() > 0.95,
                "n={n}: uniform validity {}",
                uniform.validity.mean()
            );
            assert!(
                fisheye.validity.mean() > 0.9,
                "n={n}: fisheye validity {}",
                fisheye.validity.mean()
            );
            // Ring accounting: only fisheye uses rings.
            assert_eq!(uniform.tc_ring_emissions, [0; 4]);
            assert!(fisheye.tc_ring_emissions[0] > 0);
            // The duplicate peek works under both policies, and scoped
            // dissemination shrinks what still needs decoding.
            assert!(uniform.totals.dup_peek_hits > 0);
            assert!(fisheye.totals.dup_peek_hits > 0);
            assert!(
                fisheye.bytes_decoded.mean() < uniform.bytes_decoded.mean(),
                "n={n}: fewer TCs arriving must mean fewer bytes decoded"
            );
        }
        let figs = figures(&points);
        let (slug, fig) = &figs[0];
        assert_eq!(slug, "overhead_tc_deliveries");
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 2);
        assert!(figs[1].1.render_text().contains("route validity"));
        assert_eq!(report(&tiny_cfg(), &points).lines().count(), 3 + 4 + 1);
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = OverheadConfig {
            sizes: vec![30],
            warmup_seconds: 5,
            sim_seconds: 2,
            probes: 4,
            ..OverheadConfig::new(1)
        };
        let a = overhead_sweep(&cfg);
        let b = overhead_sweep(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.totals, y.totals);
            assert_eq!(x.validity.mean(), y.validity.mean());
            assert_eq!(x.tc_ring_emissions, y.tc_ring_emissions);
        }
    }
}
