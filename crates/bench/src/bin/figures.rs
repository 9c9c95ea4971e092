//! Figure-regeneration harness: reproduces every evaluation figure of
//! *"Towards an efficient QoS based selection of neighbors in QOLSR"*
//! (Khadar, Mitton, Simplot-Ryl — SN/ICDCS 2010).
//!
//! ```text
//! Usage: figures [COMMAND] [OPTIONS]
//!
//! Commands:
//!   fig6        advertised set size, bandwidth metric (densities 10–35)
//!   fig7        advertised set size, delay metric (densities 5–30)
//!   fig8        bandwidth overhead vs centralized optimum
//!   fig9        delay overhead vs centralized optimum
//!   all         figures 6–9 (two experiment passes)          [default]
//!   ablations   id-rule delivery, all-selector sweep, routing strategies,
//!               weight intervals
//!   robustness  link-failure study with stale advertised sets
//!   churn       live-protocol churn robustness: route validity and
//!               advertised staleness over time under random-waypoint
//!               motion + Poisson churn + weight drift
//!   scale       wall-clock scale sweep over n ∈ {250, 1000, 4000}
//!               nodes: waypoint tick cost (SpatialGrid path) and
//!               whole-network selection cost per world (--runs is
//!               capped at 10 — timing, not statistics); with --live,
//!               runs the full HELLO/TC protocol at each size instead
//!               and reports wall-clock per simulated second plus
//!               engine/routing-cache counters
//!   overhead    control-overhead comparison: TC scoping policy
//!               (RFC-uniform vs fisheye rings) × network size, full
//!               protocol on shared seeded deployments, reporting TC
//!               deliveries, control bytes, peek-decode savings, route
//!               validity and wall-clock (--runs capped at 5)
//!   loss        lossy-radio sweep: full protocol per selector under
//!               PhyModel::Lossy as the edge drop probability rises,
//!               reporting frame delivery ratio, route validity and
//!               MPR-set churn (static worlds — loss is the only
//!               stressor); --hysteresis / --etx enable the
//!               quality-aware link sensing knobs
//!   faults      route-recovery experiment: inject a partition,
//!               regional blackout or crash-reboot storm into a
//!               converged static network, heal it, and report
//!               per-selector time-to-reconvergence, residual stale
//!               exposure and control-byte recovery cost
//!   traffic     data-plane QoS experiment: seeded CBR + bursty-video
//!               flows forwarded hop by hop over the live route caches
//!               (bounded transmit queues, lossy PHY, mobility/churn),
//!               reporting per-selector end-to-end delivery ratio,
//!               mean/p99 delay, jitter and a drop-cause breakdown per
//!               loss level
//!
//! Options:
//!   --runs N     topologies per density (default 100; paper: 100)
//!   --seed S     master seed (default 0x51C02010)
//!   --threads T  worker threads (default: all cores)
//!   --metric M   churn/loss/faults/traffic metric: bandwidth (default)
//!                or delay
//!   --live       scale only: live-protocol phase (--runs capped at 5)
//!   --sizes L    scale/overhead: comma-separated node counts
//!                (default 250,1000,4000; lets CI smoke at small n —
//!                the n=4000 live phases need tens of minutes per run)
//!   --shards K   scale --live / overhead / churn / loss / faults /
//!                traffic: engine shard count (default 1; K >= 2 steps
//!                K spatial shards in parallel, which must produce
//!                identical counters)
//!   --lossy      scale --live only: run the radio under
//!                PhyModel::Lossy (40% edge drop) instead of Ideal —
//!                combined with --verify-shards this is the CI gate
//!                that loss sampling commutes with the barrier merge
//!   --nodes N    loss/faults/traffic: nodes per world (default 250;
//!                faults sizes the field for ~N at density 10)
//!   --levels L   loss/traffic: comma-separated edge drop probabilities
//!                in ppm (loss default
//!                0,100000,200000,400000,600000,800000; traffic default
//!                0,200000,400000)
//!   --flows N    traffic only: concurrent flows per world (default 16;
//!                odd-indexed flows are bursty video, the rest CBR)
//!   --static     traffic only: keep the world static (no mobility or
//!                churn) so loss is the only stressor
//!   --hysteresis loss only: enable RFC 3626 §14 link hysteresis
//!   --etx        loss only: advertise ETX/InvETX-reshaped link QoS
//!   --capture-us W
//!                loss only: collision capture window in microseconds
//!                (default 0 = collisions off, so the x = 0 baseline is
//!                lossless; a non-zero window adds a level-independent
//!                collision floor)
//!   --fault F    faults only: comma-separated fault kinds to inject
//!                (partition|blackout|crash-storm; default partition)
//!   --corrupt    faults only: also corrupt frames on the radio path
//!                (seeded bit-flips/truncation, 2% of deliveries)
//!   --leave-rate L
//!                churn only: comma-separated departure rates; sweeps
//!                churn intensity as the x-axis instead of time
//!   --verify-shards
//!                scale --live / faults / traffic: run the sharded
//!                experiment AND a --shards 1 run in lockstep,
//!                exiting non-zero on any divergence (CI determinism
//!                gate)
//!   --warmup N   scale --live only: unmeasured warm-up seconds
//!                (default 15)
//!   --seconds N  scale --live only: measured simulated seconds
//!                (default 10)
//!   --max-resident-bytes B
//!                scale --live only: exit non-zero if any size's mean
//!                resident protocol-table bytes exceed B (CI memory
//!                budget)
//!   --quick      shorthand for --runs 10
//!   --out DIR    also write CSV files into DIR (default: results/)
//!   --no-csv     print to stdout only
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qolsr::eval::figures::{
    ablation_all_selectors, ablation_id_rule, ablation_strategies, ablation_weight_intervals,
    bandwidth_experiment, delay_experiment, FigureOptions,
};
use qolsr::report::Figure;

struct Args {
    command: String,
    opts: FigureOptions,
    metric: qolsr::eval::churn::ChurnMetric,
    live: bool,
    sizes: Option<Vec<usize>>,
    shards: Option<u32>,
    verify_shards: bool,
    warmup: Option<u64>,
    seconds: Option<u64>,
    max_resident_bytes: Option<u64>,
    lossy: bool,
    nodes: Option<usize>,
    levels: Option<Vec<u32>>,
    hysteresis: bool,
    etx: bool,
    capture_us: Option<u64>,
    faults: Option<Vec<qolsr::eval::faults::FaultKind>>,
    corrupt: bool,
    leave_rates: Option<Vec<f64>>,
    flows: Option<usize>,
    static_world: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut command = String::from("all");
    let mut opts = FigureOptions::default();
    let mut metric = qolsr::eval::churn::ChurnMetric::default();
    let mut metric_set = false;
    let mut live = false;
    let mut sizes: Option<Vec<usize>> = None;
    let mut shards: Option<u32> = None;
    let mut verify_shards = false;
    let mut warmup: Option<u64> = None;
    let mut seconds: Option<u64> = None;
    let mut max_resident_bytes: Option<u64> = None;
    let mut lossy = false;
    let mut nodes: Option<usize> = None;
    let mut levels: Option<Vec<u32>> = None;
    let mut hysteresis = false;
    let mut etx = false;
    let mut capture_us: Option<u64> = None;
    let mut faults: Option<Vec<qolsr::eval::faults::FaultKind>> = None;
    let mut corrupt = false;
    let mut leave_rates: Option<Vec<f64>> = None;
    let mut flows: Option<usize> = None;
    let mut static_world = false;
    let mut out_dir = Some(PathBuf::from("results"));
    let mut it = std::env::args().skip(1);
    let mut command_set = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                opts.runs = v.parse().map_err(|_| format!("bad --runs value: {v}"))?;
            }
            "--metric" => {
                let v = it.next().ok_or("--metric needs a value")?;
                metric = v.parse()?;
                metric_set = true;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = parse_seed(&v).ok_or(format!("bad --seed value: {v}"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad --threads value: {v}"))?;
            }
            "--live" => live = true,
            "--sizes" => {
                let v = it.next().ok_or("--sizes needs a value")?;
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse()).collect();
                let parsed = parsed.map_err(|_| format!("bad --sizes value: {v}"))?;
                if parsed.is_empty() {
                    return Err("--sizes needs at least one node count".into());
                }
                sizes = Some(parsed);
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let parsed: u32 = v.parse().map_err(|_| format!("bad --shards value: {v}"))?;
                if parsed == 0 {
                    return Err("--shards must be at least 1".into());
                }
                shards = Some(parsed);
            }
            "--verify-shards" => verify_shards = true,
            "--warmup" => {
                let v = it.next().ok_or("--warmup needs a value")?;
                warmup = Some(v.parse().map_err(|_| format!("bad --warmup value: {v}"))?);
            }
            "--seconds" => {
                let v = it.next().ok_or("--seconds needs a value")?;
                let parsed: u64 = v.parse().map_err(|_| format!("bad --seconds value: {v}"))?;
                if parsed == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(parsed);
            }
            "--max-resident-bytes" => {
                let v = it.next().ok_or("--max-resident-bytes needs a value")?;
                max_resident_bytes = Some(
                    v.parse()
                        .map_err(|_| format!("bad --max-resident-bytes value: {v}"))?,
                );
            }
            "--lossy" => lossy = true,
            "--nodes" => {
                let v = it.next().ok_or("--nodes needs a value")?;
                let parsed: usize = v.parse().map_err(|_| format!("bad --nodes value: {v}"))?;
                if parsed == 0 {
                    return Err("--nodes must be at least 1".into());
                }
                nodes = Some(parsed);
            }
            "--levels" => {
                let v = it.next().ok_or("--levels needs a value")?;
                let parsed: Result<Vec<u32>, _> = v.split(',').map(|s| s.trim().parse()).collect();
                let parsed = parsed.map_err(|_| format!("bad --levels value: {v}"))?;
                if parsed.is_empty() {
                    return Err("--levels needs at least one ppm value".into());
                }
                if let Some(&bad) = parsed.iter().find(|&&p| p > 1_000_000) {
                    return Err(format!("--levels value {bad} exceeds 1000000 ppm"));
                }
                levels = Some(parsed);
            }
            "--hysteresis" => hysteresis = true,
            "--etx" => etx = true,
            "--fault" => {
                let v = it.next().ok_or("--fault needs a value")?;
                let parsed: Result<Vec<_>, _> = v.split(',').map(|s| s.trim().parse()).collect();
                let parsed = parsed?;
                if parsed.is_empty() {
                    return Err("--fault needs at least one fault kind".into());
                }
                faults = Some(parsed);
            }
            "--corrupt" => corrupt = true,
            "--leave-rate" => {
                let v = it.next().ok_or("--leave-rate needs a value")?;
                let parsed: Result<Vec<f64>, _> = v.split(',').map(|s| s.trim().parse()).collect();
                let parsed = parsed.map_err(|_| format!("bad --leave-rate value: {v}"))?;
                if parsed.is_empty() {
                    return Err("--leave-rate needs at least one rate".into());
                }
                if let Some(&bad) = parsed
                    .iter()
                    .find(|&&r| !r.is_finite() || !(0.0..=1e4).contains(&r))
                {
                    return Err(format!("--leave-rate value {bad} must be in [0, 1e4]"));
                }
                leave_rates = Some(parsed);
            }
            "--flows" => {
                let v = it.next().ok_or("--flows needs a value")?;
                let parsed: usize = v.parse().map_err(|_| format!("bad --flows value: {v}"))?;
                if parsed == 0 {
                    return Err("--flows must be at least 1".into());
                }
                flows = Some(parsed);
            }
            "--static" => static_world = true,
            "--capture-us" => {
                let v = it.next().ok_or("--capture-us needs a value")?;
                let parsed: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --capture-us value: {v}"))?;
                capture_us = Some(parsed);
            }
            "--quick" => opts.runs = 10,
            "--out" => {
                let v = it.next().ok_or("--out needs a value")?;
                out_dir = Some(PathBuf::from(v));
            }
            "--no-csv" => out_dir = None,
            "--help" | "-h" => {
                command = "help".into();
                command_set = true;
            }
            c if !c.starts_with('-') && !command_set => {
                command = c.to_owned();
                command_set = true;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // Only the churn experiment is metric-parameterized; silently
    // ignoring the flag elsewhere would mislabel results.
    if metric_set
        && command != "churn"
        && command != "loss"
        && command != "faults"
        && command != "traffic"
    {
        return Err(format!(
            "--metric only applies to churn, loss, faults and traffic, not {command}"
        ));
    }
    if live && command != "scale" {
        return Err(format!("--live only applies to scale, not {command}"));
    }
    if sizes.is_some() && command != "scale" && command != "overhead" {
        return Err(format!(
            "--sizes only applies to scale and overhead, not {command}"
        ));
    }
    let live_scale = command == "scale" && live;
    for (set, flag) in [
        (warmup.is_some(), "--warmup"),
        (seconds.is_some(), "--seconds"),
        (max_resident_bytes.is_some(), "--max-resident-bytes"),
    ] {
        if set && !live_scale {
            return Err(format!("{flag} only applies to scale --live"));
        }
    }
    if verify_shards && !live_scale && command != "faults" && command != "traffic" {
        return Err("--verify-shards only applies to scale --live, faults and traffic".into());
    }
    if shards.is_some()
        && !live_scale
        && command != "overhead"
        && command != "churn"
        && command != "loss"
        && command != "faults"
        && command != "traffic"
    {
        return Err(format!(
            "--shards only applies to scale --live, overhead, churn, loss, faults and \
             traffic, not {command}"
        ));
    }
    if lossy && !live_scale {
        return Err("--lossy only applies to scale --live".into());
    }
    if nodes.is_some() && command != "loss" && command != "faults" && command != "traffic" {
        return Err(format!(
            "--nodes only applies to loss, faults and traffic, not {command}"
        ));
    }
    if levels.is_some() && command != "loss" && command != "traffic" {
        return Err(format!(
            "--levels only applies to loss and traffic, not {command}"
        ));
    }
    for (set, flag) in [
        (hysteresis, "--hysteresis"),
        (etx, "--etx"),
        (capture_us.is_some(), "--capture-us"),
    ] {
        if set && command != "loss" {
            return Err(format!("{flag} only applies to loss"));
        }
    }
    for (set, flag) in [(flows.is_some(), "--flows"), (static_world, "--static")] {
        if set && command != "traffic" {
            return Err(format!("{flag} only applies to traffic"));
        }
    }
    for (set, flag) in [(faults.is_some(), "--fault"), (corrupt, "--corrupt")] {
        if set && command != "faults" {
            return Err(format!("{flag} only applies to faults"));
        }
    }
    if leave_rates.is_some() && command != "churn" {
        return Err(format!("--leave-rate only applies to churn, not {command}"));
    }
    Ok(Args {
        command,
        opts,
        metric,
        live,
        sizes,
        shards,
        verify_shards,
        warmup,
        seconds,
        max_resident_bytes,
        lossy,
        nodes,
        levels,
        hysteresis,
        etx,
        capture_us,
        faults,
        corrupt,
        leave_rates,
        flows,
        static_world,
        out_dir,
    })
}

fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

fn emit(fig: &Figure, slug: &str, out_dir: &Option<PathBuf>) {
    println!("{}", fig.render_text());
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path: &Path = &dir.join(format!("{slug}.csv"));
        match std::fs::write(path, fig.render_csv()) {
            Ok(()) => println!("# wrote {}\n", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            return ExitCode::FAILURE;
        }
    };
    let opts = args.opts;
    println!(
        "# qolsr-rs figure harness — runs={} seed={:#x} strategy={:?}\n",
        opts.runs, opts.seed, opts.strategy
    );

    match args.command.as_str() {
        "help" => {
            println!(
                "commands: fig6 fig7 fig8 fig9 all ablations robustness churn scale overhead \
                 loss faults traffic; \
                 options: --runs N --seed S --threads T --metric bandwidth|delay \
                 --live --sizes L \
                 --shards K --verify-shards --warmup N --seconds N \
                 --max-resident-bytes B --lossy --nodes N --levels L \
                 --hysteresis --etx --capture-us W --fault F --corrupt --leave-rate L \
                 --flows N --static --quick --out DIR --no-csv"
            );
        }
        "fig6" => {
            let r = bandwidth_experiment(&opts);
            emit(
                &r.ans_size_figure("Fig. 6 — advertised set size per node (bandwidth metric)"),
                "fig6_ans_size_bandwidth",
                &args.out_dir,
            );
        }
        "fig7" => {
            let r = delay_experiment(&opts);
            emit(
                &r.ans_size_figure("Fig. 7 — advertised set size per node (delay metric)"),
                "fig7_ans_size_delay",
                &args.out_dir,
            );
        }
        "fig8" => {
            let r = bandwidth_experiment(&opts);
            emit(
                &r.overhead_figure("Fig. 8 — bandwidth overhead vs centralized optimum"),
                "fig8_bandwidth_overhead",
                &args.out_dir,
            );
        }
        "fig9" => {
            let r = delay_experiment(&opts);
            emit(
                &r.overhead_figure("Fig. 9 — delay overhead vs centralized optimum"),
                "fig9_delay_overhead",
                &args.out_dir,
            );
        }
        "all" => {
            let bw = bandwidth_experiment(&opts);
            emit(
                &bw.ans_size_figure("Fig. 6 — advertised set size per node (bandwidth metric)"),
                "fig6_ans_size_bandwidth",
                &args.out_dir,
            );
            emit(
                &bw.overhead_figure("Fig. 8 — bandwidth overhead vs centralized optimum"),
                "fig8_bandwidth_overhead",
                &args.out_dir,
            );
            emit(
                &bw.delivery_figure("Fig. 8b (extra) — delivery rate (bandwidth experiment)"),
                "fig8b_delivery_bandwidth",
                &args.out_dir,
            );
            let d = delay_experiment(&opts);
            emit(
                &d.ans_size_figure("Fig. 7 — advertised set size per node (delay metric)"),
                "fig7_ans_size_delay",
                &args.out_dir,
            );
            emit(
                &d.overhead_figure("Fig. 9 — delay overhead vs centralized optimum"),
                "fig9_delay_overhead",
                &args.out_dir,
            );
        }
        "ablations" => {
            let id_rule = ablation_id_rule(&opts);
            emit(
                &id_rule.delivery_figure(
                    "Ablation — delivery rate with/without the smallest-id rule \
                     (advertised-links-only routing)",
                ),
                "ablation_id_rule_delivery",
                &args.out_dir,
            );
            emit(
                &id_rule.overhead_figure("Ablation — overhead with/without the smallest-id rule"),
                "ablation_id_rule_overhead",
                &args.out_dir,
            );
            let all = ablation_all_selectors(&opts);
            emit(
                &all.ans_size_figure("Ablation — advertised set size, all selector families"),
                "ablation_all_selectors_size",
                &args.out_dir,
            );
            emit(
                &all.overhead_figure("Ablation — bandwidth overhead, all selector families"),
                "ablation_all_selectors_overhead",
                &args.out_dir,
            );
            for (name, r) in ablation_strategies(&opts) {
                emit(
                    &r.overhead_figure(&format!("Ablation — FNBP overhead, {name} routing")),
                    &format!("ablation_strategy_{name}"),
                    &args.out_dir,
                );
            }
            for (name, bw, delay) in ablation_weight_intervals(&opts) {
                emit(
                    &bw.ans_size_figure(&format!(
                        "Ablation — advertised set size (bandwidth), {name}"
                    )),
                    &format!("ablation_{name}_size_bandwidth"),
                    &args.out_dir,
                );
                emit(
                    &delay.ans_size_figure(&format!(
                        "Ablation — advertised set size (delay), {name}"
                    )),
                    &format!("ablation_{name}_size_delay"),
                    &args.out_dir,
                );
            }
        }
        "robustness" => {
            use qolsr::eval::robustness::{delivery_figure, link_failure_study};
            use qolsr::eval::{EvalConfig, SelectorKind};
            let mut cfg = EvalConfig::paper_bandwidth(opts.runs);
            cfg.seed = opts.seed;
            let fractions = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4];
            let results = link_failure_study::<qolsr_metrics::BandwidthMetric>(
                &cfg,
                15.0,
                &fractions,
                &SelectorKind::PAPER,
            );
            emit(
                &delivery_figure(
                    &results,
                    "Robustness — delivery with stale advertised sets under link failures (δ=15)",
                ),
                "robustness_link_failures",
                &args.out_dir,
            );
        }
        "churn" => {
            use qolsr::eval::churn::{
                churn_experiment_with, drift_figure, staleness_figure, validity_figure, ChurnConfig,
            };
            use qolsr::eval::SelectorKind;
            let mut cfg = ChurnConfig::new(opts.runs);
            cfg.seed = opts.seed;
            cfg.threads = opts.threads;
            if let Some(shards) = args.shards {
                cfg.shards = shards;
            }
            let metric = args.metric;
            let m = metric.name();
            if let Some(rates) = args.leave_rates.clone() {
                use qolsr::eval::churn::{
                    leave_rate_staleness_figure, leave_rate_sweep_with, leave_rate_validity_figure,
                };
                let results = leave_rate_sweep_with(metric, &cfg, &rates, &SelectorKind::PAPER);
                emit(
                    &leave_rate_validity_figure(
                        &results,
                        &format!(
                            "Churn — route validity vs departure rate \
                             (waypoint + churn + drift, δ=10, {m} metric)"
                        ),
                    ),
                    &format!("churn_leave_rate_validity_{m}"),
                    &args.out_dir,
                );
                emit(
                    &leave_rate_staleness_figure(
                        &results,
                        &format!(
                            "Churn — advertised-set staleness vs departure rate (δ=10, {m} metric)"
                        ),
                    ),
                    &format!("churn_leave_rate_staleness_{m}"),
                    &args.out_dir,
                );
                return ExitCode::SUCCESS;
            }
            let results = churn_experiment_with(metric, &cfg, &SelectorKind::PAPER);
            emit(
                &validity_figure(
                    &results,
                    &format!(
                        "Churn — route validity over time \
                         (waypoint + churn + drift, δ=10, {m} metric)"
                    ),
                ),
                &format!("churn_route_validity_{m}"),
                &args.out_dir,
            );
            emit(
                &staleness_figure(
                    &results,
                    &format!("Churn — advertised-set staleness over time (δ=10, {m} metric)"),
                ),
                &format!("churn_advertised_staleness_{m}"),
                &args.out_dir,
            );
            emit(
                &drift_figure(
                    &results,
                    &format!("Churn — selection drift vs current ground truth (δ=10, {m} metric)"),
                ),
                &format!("churn_selection_drift_{m}"),
                &args.out_dir,
            );
        }
        "overhead" => {
            use qolsr::eval::overhead::{
                deliveries_figure, overhead_sweep, validity_figure, OverheadConfig,
            };
            let mut cfg = OverheadConfig::new(opts.runs.min(5));
            cfg.seed = opts.seed;
            if let Some(sizes) = args.sizes.clone() {
                cfg.sizes = sizes;
            }
            if let Some(shards) = args.shards {
                cfg.shards = shards;
            }
            let points = overhead_sweep(&cfg);
            println!(
                "# control overhead: {} s warm-up (unmeasured) + {} s measured \
                 (one full fisheye ring rotation), {} probe pairs validated per \
                 simulated second\n",
                cfg.warmup_seconds, cfg.sim_seconds, cfg.probes
            );
            println!(
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
            for p in &points {
                let rings = if p.tc_ring_emissions == [0; 4] {
                    "-".to_owned()
                } else {
                    // Trim only *trailing* zero slots: a mid-table ring
                    // that never fired (e.g. shadowed by an outer ring
                    // with the same multiplier) must still show as 0.
                    let last = p
                        .tc_ring_emissions
                        .iter()
                        .rposition(|&r| r > 0)
                        .unwrap_or(0);
                    let used: Vec<String> = p.tc_ring_emissions[..=last]
                        .iter()
                        .map(u64::to_string)
                        .collect();
                    used.join("/")
                };
                println!(
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
            println!();
            emit(
                &deliveries_figure(
                    &points,
                    "Control overhead — TC-flood deliveries per measured run, \
                     by scoping policy",
                ),
                "overhead_tc_deliveries",
                &args.out_dir,
            );
            emit(
                &validity_figure(
                    &points,
                    "Control overhead — route validity under scoped TC dissemination",
                ),
                "overhead_route_validity",
                &args.out_dir,
            );
        }
        "loss" => {
            use qolsr::eval::loss::{
                delivery_figure, loss_experiment_with, mpr_churn_figure, validity_figure,
                LossConfig,
            };
            use qolsr::eval::SelectorKind;
            use qolsr_proto::{EtxParams, HysteresisParams, LinkHysteresis, LinkMetric};
            use qolsr_sim::SimDuration;
            let mut cfg = LossConfig::new(opts.runs);
            cfg.seed = opts.seed;
            cfg.threads = opts.threads;
            if let Some(nodes) = args.nodes {
                cfg.nodes = nodes;
            }
            if let Some(levels) = args.levels.clone() {
                cfg.levels = levels;
            }
            if let Some(shards) = args.shards {
                cfg.shards = shards;
            }
            if args.hysteresis {
                cfg.olsr.link_hysteresis = LinkHysteresis::On(HysteresisParams::default());
            }
            if args.etx {
                cfg.olsr.link_metric = LinkMetric::Etx(EtxParams::default());
            }
            if let Some(us) = args.capture_us {
                cfg.capture_window = SimDuration::from_micros(us);
            }
            let metric = args.metric;
            let results = loss_experiment_with(metric, &cfg, &SelectorKind::PAPER);
            println!(
                "# lossy radio: n={}, quadratic falloff, {} µs capture window, \
                 hysteresis={}, etx={}; {} probe pairs sampled every {} s over \
                 {} s measured\n",
                cfg.nodes,
                cfg.capture_window.as_micros(),
                args.hysteresis,
                args.etx,
                cfg.probes,
                cfg.sample_every.as_secs_f64(),
                cfg.measure.as_secs_f64(),
            );
            println!(
                "# {:>9}  {:>32}  {:>9}  {:>9}  {:>10}",
                "edge-drop", "selector", "delivery", "validity", "MPR-churn"
            );
            for r in &results {
                for level in &r.per_level {
                    println!(
                        "# {:>8.2}%  {:>32}  {:>9.3}  {:>9.3}  {:>10.3}",
                        f64::from(level.edge_drop_ppm) / 1e4,
                        r.kind.label(),
                        level.delivery.mean(),
                        level.validity.mean(),
                        level.mpr_churn.mean(),
                    );
                }
            }
            println!();
            let m = metric.name();
            emit(
                &delivery_figure(
                    &results,
                    &format!("Loss — frame delivery ratio vs edge drop probability ({m} metric)"),
                ),
                &format!("loss_delivery_{m}"),
                &args.out_dir,
            );
            emit(
                &validity_figure(
                    &results,
                    &format!("Loss — route validity vs edge drop probability ({m} metric)"),
                ),
                &format!("loss_route_validity_{m}"),
                &args.out_dir,
            );
            emit(
                &mpr_churn_figure(
                    &results,
                    &format!("Loss — MPR-set churn vs edge drop probability ({m} metric)"),
                ),
                &format!("loss_mpr_churn_{m}"),
                &args.out_dir,
            );
        }
        "faults" => {
            use qolsr::eval::faults::{
                fault_experiment_verified_with, fault_experiment_with, fault_staleness_figure,
                fault_validity_figure, recovery_report, FaultConfig, FaultKind,
            };
            use qolsr::eval::SelectorKind;
            use qolsr_sim::{CorruptionParams, FrameCorruption};
            let metric = args.metric;
            let m = metric.name();
            let kinds = args
                .faults
                .clone()
                .unwrap_or_else(|| vec![FaultKind::Partition]);
            for fault in kinds {
                let mut cfg = FaultConfig::new(opts.runs);
                cfg.seed = opts.seed;
                cfg.threads = opts.threads;
                cfg.kind = fault;
                if let Some(n) = args.nodes {
                    cfg = cfg.with_nodes(n);
                }
                if let Some(shards) = args.shards {
                    cfg.shards = shards;
                }
                if args.corrupt {
                    cfg.corruption = FrameCorruption::On(CorruptionParams::default());
                }
                let results = if args.verify_shards {
                    // Panics (non-zero exit) on any divergence between the
                    // sharded run and the one-shard run.
                    fault_experiment_verified_with(metric, &cfg, &SelectorKind::PAPER)
                } else {
                    fault_experiment_with(metric, &cfg, &SelectorKind::PAPER)
                };
                if args.verify_shards {
                    println!(
                        "# shard verification ok ({}): curves and recovery aggregates \
                         identical to the one-shard run\n",
                        fault.name()
                    );
                }
                for line in recovery_report(&cfg, &results).lines() {
                    println!("# {line}");
                }
                println!();
                let slug = fault.name().replace('-', "_");
                emit(
                    &fault_validity_figure(
                        &results,
                        &format!(
                            "Faults — route validity through a {} (fault at {:.0} s, \
                             heal at {:.0} s, {m} metric)",
                            fault.name(),
                            cfg.fault_at().as_secs_f64(),
                            cfg.heal_at().as_secs_f64(),
                        ),
                    ),
                    &format!("faults_{slug}_validity_{m}"),
                    &args.out_dir,
                );
                emit(
                    &fault_staleness_figure(
                        &results,
                        &format!(
                            "Faults — advertised staleness through a {} ({m} metric)",
                            fault.name()
                        ),
                    ),
                    &format!("faults_{slug}_staleness_{m}"),
                    &args.out_dir,
                );
            }
        }
        "traffic" => {
            use qolsr::eval::traffic::{
                drop_report, traffic_delay_figure, traffic_delivery_figure,
                traffic_experiment_verified_with, traffic_experiment_with, traffic_jitter_figure,
                traffic_p99_figure, TrafficConfig,
            };
            use qolsr::eval::SelectorKind;
            let mut cfg = TrafficConfig::new(opts.runs);
            cfg.seed = opts.seed;
            cfg.threads = opts.threads;
            if let Some(nodes) = args.nodes {
                cfg.nodes = nodes;
            }
            if let Some(levels) = args.levels.clone() {
                cfg.levels = levels;
            }
            if let Some(shards) = args.shards {
                cfg.shards = shards;
            }
            if let Some(flows) = args.flows {
                cfg.flows = flows;
            }
            if args.static_world {
                cfg.mobility = None;
            }
            let metric = args.metric;
            let m = metric.name();
            let results = if args.verify_shards {
                // Panics (non-zero exit) on any divergence between the
                // sharded run and the one-shard run.
                traffic_experiment_verified_with(metric, &cfg, &SelectorKind::PAPER)
            } else {
                traffic_experiment_with(metric, &cfg, &SelectorKind::PAPER)
            };
            if args.verify_shards {
                println!(
                    "# shard verification ok: QoS curves and drop-cause totals \
                     identical to the one-shard run\n"
                );
            }
            println!(
                "# data plane: n={}, {} flows/world ({} B payload, CBR every {} ms \
                 interleaved with {}-{}-packet bursts every {} ms), mobility={}, \
                 {} s warm-up + {} s measured\n",
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
            println!(
                "# {:>9}  {:>32}  {:>9}  {:>10}  {:>10}  {:>10}",
                "edge-drop", "selector", "delivery", "delay(ms)", "p99(ms)", "jitter(ms)"
            );
            for r in &results {
                for level in &r.per_level {
                    println!(
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
            println!();
            for line in drop_report(&results).lines() {
                println!("# {line}");
            }
            println!();
            emit(
                &traffic_delivery_figure(
                    &results,
                    &format!(
                        "Traffic — end-to-end delivery ratio vs edge drop probability \
                         ({m} metric)"
                    ),
                ),
                &format!("traffic_delivery_{m}"),
                &args.out_dir,
            );
            emit(
                &traffic_delay_figure(
                    &results,
                    &format!(
                        "Traffic — mean end-to-end delay vs edge drop probability ({m} metric)"
                    ),
                ),
                &format!("traffic_delay_{m}"),
                &args.out_dir,
            );
            emit(
                &traffic_p99_figure(
                    &results,
                    &format!(
                        "Traffic — p99 end-to-end delay vs edge drop probability ({m} metric)"
                    ),
                ),
                &format!("traffic_p99_delay_{m}"),
                &args.out_dir,
            );
            emit(
                &traffic_jitter_figure(
                    &results,
                    &format!("Traffic — mean jitter vs edge drop probability ({m} metric)"),
                ),
                &format!("traffic_jitter_{m}"),
                &args.out_dir,
            );
        }
        "scale" if args.live => {
            use qolsr::eval::scale::{live_figure, live_sweep, live_sweep_verified, LiveConfig};
            let mut cfg = LiveConfig::new(opts.runs.min(5));
            cfg.seed = opts.seed;
            if let Some(sizes) = args.sizes.clone() {
                cfg.sizes = sizes;
            }
            if let Some(shards) = args.shards {
                cfg.shards = shards;
            }
            if let Some(warmup) = args.warmup {
                cfg.warmup_seconds = warmup;
            }
            if let Some(seconds) = args.seconds {
                cfg.sim_seconds = seconds;
            }
            if args.lossy {
                use qolsr_sim::{LossyPhy, PhyModel, SimDuration};
                cfg.phy = PhyModel::Lossy(LossyPhy {
                    edge_drop_ppm: 400_000,
                    exponent: 2,
                    capture_window: SimDuration::from_micros(150),
                });
            }
            let points = if args.verify_shards {
                // Panics (non-zero exit) on any counter divergence between
                // the sharded run and the one-shard run.
                live_sweep_verified(&cfg)
            } else {
                live_sweep(&cfg)
            };
            println!(
                "# live protocol ({} shard(s), {} radio): {} s warm-up \
                 (unmeasured) + {} s measured, {} probe nodes sampled per \
                 simulated second\n",
                cfg.shards,
                if args.lossy { "lossy" } else { "ideal" },
                cfg.warmup_seconds,
                cfg.sim_seconds,
                cfg.probes
            );
            if args.verify_shards {
                println!(
                    "# shard verification ok: counters identical to the \
                     one-shard run at every size\n"
                );
            }
            println!(
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
            const MIB: f64 = 1024.0 * 1024.0;
            for p in &points {
                let rss = if p.rss_bytes.count() == 0 {
                    "-".to_owned()
                } else {
                    format!("{:.1}", p.rss_bytes.mean() / MIB)
                };
                println!(
                    "# {:>5}  {:>10.1}  {:>12.0}  {:>12.0}  {:>12.0}  {:>10.1}  {:>10.1}  {:>7.1}%  {:>12.0}  {:>10.2}  {:>9}",
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
            println!();
            emit(
                &live_figure(
                    &points,
                    "Scale sweep (live) — full-protocol wall-clock per simulated second",
                ),
                "scale_live",
                &args.out_dir,
            );
            if let Some(budget) = args.max_resident_bytes {
                for p in &points {
                    let mean = p.resident_bytes.mean();
                    if mean > budget as f64 {
                        eprintln!(
                            "error: n={} mean resident protocol-table bytes {:.0} exceed \
                             the --max-resident-bytes budget {budget}",
                            p.nodes, mean
                        );
                        return ExitCode::FAILURE;
                    }
                }
                println!("# resident budget ok: all sizes under {budget} bytes\n");
            }
        }
        "scale" => {
            use qolsr::eval::scale::{scale_figure, scale_sweep, ScaleConfig};
            let mut cfg = ScaleConfig::new(opts.runs.min(10));
            cfg.seed = opts.seed;
            cfg.threads = opts.threads;
            if let Some(sizes) = args.sizes.clone() {
                cfg.sizes = sizes;
            }
            let points = scale_sweep(&cfg);
            for p in &points {
                println!(
                    "# n={:5}  side={:7.1}  waypoint {:8.3} ms/simulated-second  \
                     selection {:8.3} ms/world  events/run {:9.0}",
                    p.nodes,
                    p.side,
                    p.tick_ms.mean(),
                    p.select_ms.mean(),
                    p.events.mean(),
                );
            }
            if points.len() >= 2 {
                let base = &points[0];
                for p in &points[1..] {
                    let node_ratio = p.nodes as f64 / base.nodes as f64;
                    let time_ratio = p.tick_ms.mean() / base.tick_ms.mean().max(1e-9);
                    println!(
                        "# n×{node_ratio:.1}: waypoint tick cost ×{time_ratio:.2} \
                         (quadratic would be ×{:.1})",
                        node_ratio * node_ratio
                    );
                }
            }
            println!();
            emit(
                &scale_figure(
                    &points,
                    "Scale sweep — wall-clock per simulated second vs node count",
                ),
                "scale_sweep",
                &args.out_dir,
            );
        }
        other => {
            eprintln!("error: unknown command {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
