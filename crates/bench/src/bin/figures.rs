//! Figure-regeneration harness: reproduces every evaluation figure of
//! *"Towards an efficient QoS based selection of neighbors in QOLSR"*
//! (Khadar, Mitton, Simplot-Ryl — SN/ICDCS 2010), plus the live-protocol
//! experiments this reproduction adds.
//!
//! ```text
//! Usage: figures [COMMAND] [OPTIONS]
//!
//! Commands:
//!   fig6 fig7   advertised set size, bandwidth (densities 10–35) / delay
//!               (densities 5–30) metric
//!   fig8 fig9   bandwidth / delay overhead vs the centralized optimum
//!   all         figures 6–9 (two experiment passes)          [default]
//!   ablations   id-rule delivery, all-selector sweep, routing strategies,
//!               weight intervals
//!   robustness  link-failure study with stale advertised sets
//!   churn       route validity, advertised staleness and selection drift
//!               over time under waypoint motion, churn and weight drift
//!               (--leave-rate: against the departure rate instead)
//!   scale       waypoint-tick and whole-network selection wall-clock per
//!               size (--runs capped at 10); with --live, the full
//!               HELLO/TC protocol per size (--runs capped at 5)
//!   overhead    TC scoping policy (RFC-uniform vs fisheye) × size: TC
//!               deliveries, control bytes, peek-decode savings, route
//!               validity, wall-clock (--runs capped at 5)
//!   loss        frame delivery, route validity and MPR-set churn per
//!               selector as the lossy PHY's edge drop probability rises
//!   faults      recovery from a partition, blackout or crash-reboot storm
//!   traffic     end-to-end delivery, delay, jitter and drop causes of
//!               CBR + bursty-video flows per selector and loss level
//! ```
//!
//! Every flag is declared once, in [`FLAGS`]: its name, its value check
//! and the commands that take it. `figures --help` lists them; the
//! README's cheat sheet describes each. `--verify-shards` works on every
//! command that takes `--shards`.
//!
//! Exit status: 0 on success; 1 on a rejected argument or a failed check,
//! with an `error:` line on stderr; 141 when stdout closes before the run
//! ends (`figures … | head`), without a message.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use qolsr::eval::faults::{FaultConfig, FaultKind};
use qolsr::eval::figures::{
    ablation_figures, bandwidth_experiment, bandwidth_figures, delay_experiment, delay_figures,
    robustness_figures, FigureOptions,
};
use qolsr::eval::{churn, faults, loss, overhead, scale, traffic};
use qolsr::eval::{verify_shards, QosMetric, SelectorKind, ShardInvariant};
use qolsr::report::Figure;
use qolsr_proto::{EtxParams, HysteresisParams, LinkHysteresis, LinkMetric};
use qolsr_sim::{CorruptionParams, FrameCorruption, LossyPhy, PhyModel, SimDuration};

/// The commands, in help order.
const COMMANDS: &[&str] = &[
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "all",
    "ablations",
    "robustness",
    "churn",
    "scale",
    "overhead",
    "loss",
    "faults",
    "traffic",
];

/// `scale` run with `--live` takes its own flags, so flag applicability
/// treats it as a command of its own.
const LIVE: &str = "scale --live";
/// The commands that drive the engine, hence take `--shards`.
const SHARDED: &[&str] = &[LIVE, "overhead", "churn", "loss", "faults", "traffic"];

/// The commands that spread their work over worker threads, hence take
/// `--threads`.
const THREADED: &[&str] = &[
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "all",
    "ablations",
    "churn",
    "scale",
    "loss",
    "faults",
    "traffic",
];

/// The live experiments whose selectors take a runtime QoS metric.
const METRIC: &[&str] = &["churn", "loss", "faults", "traffic"];
/// The live experiments whose worlds are sized by a node count.
const SIZED: &[&str] = &["loss", "faults", "traffic"];

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// Placeholder of its value in the help line; empty for a switch.
    value: &'static str,
    /// Rejects a malformed value.
    check: fn(&str) -> Result<(), String>,
    /// The commands that take the flag; empty means every command.
    commands: &'static [&'static str],
    /// A flag this one sets, and the value, in argument order.
    sets: Option<(&'static str, &'static str)>,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    check: fn(&str) -> Result<(), String>,
    commands: &'static [&'static str],
) -> Flag {
    Flag {
        name,
        value,
        check,
        commands,
        sets: None,
    }
}

const fn switch(name: &'static str, commands: &'static [&'static str]) -> Flag {
    flag(name, "", |_| Ok(()), commands)
}

/// Every flag, in help order.
const FLAGS: &[Flag] = &[
    flag("--runs", "N", parses::<u32>, &[]),
    flag("--seed", "S", |v| parse_seed(v).map(drop), &[]),
    flag("--threads", "T", parses::<usize>, THREADED),
    flag("--metric", "bandwidth|delay", parses::<QosMetric>, METRIC),
    switch("--live", &[LIVE]),
    flag("--sizes", "L", node_counts, &["scale", LIVE, "overhead"]),
    flag("--shards", "K", positive::<u32>, SHARDED),
    switch("--verify-shards", SHARDED),
    flag("--warmup", "N", parses::<u64>, &[LIVE]),
    flag("--seconds", "N", positive::<u64>, &[LIVE]),
    flag("--max-resident-bytes", "B", parses::<u64>, &[LIVE]),
    switch("--lossy", &[LIVE]),
    flag("--nodes", "N", positive::<usize>, SIZED),
    flag("--levels", "L", ppm_levels, &["loss", "traffic"]),
    switch("--hysteresis", &["loss"]),
    switch("--etx", &["loss"]),
    flag("--capture-us", "W", parses::<u64>, &["loss"]),
    flag(
        "--fault",
        "F",
        |v| list::<FaultKind>(v, |_| true, ""),
        &["faults"],
    ),
    switch("--corrupt", &["faults"]),
    flag("--leave-rate", "L", leave_rates, &["churn"]),
    flag("--flows", "N", positive::<usize>, &["traffic"]),
    switch("--static", &["traffic"]),
    Flag {
        sets: Some(("--runs", "10")),
        ..switch("--quick", &[])
    },
    flag("--out", "DIR", |_| Ok(()), &[]),
    Flag {
        sets: Some(("--out", "")),
        ..switch("--no-csv", &[])
    },
];

fn parses<T: FromStr>(v: &str) -> Result<(), String> {
    v.parse::<T>()
        .map(drop)
        .map_err(|_| "not a valid value".into())
}

fn positive<T: FromStr + Default + PartialEq>(v: &str) -> Result<(), String> {
    match v.parse::<T>() {
        Ok(n) if n == T::default() => Err("must be at least 1".into()),
        Ok(_) => Ok(()),
        Err(_) => Err("not a valid value".into()),
    }
}

/// Checks a comma-separated list whose every entry parses and satisfies
/// `ok`; `rule` says what `ok` demands.
fn list<T: FromStr>(v: &str, ok: fn(&T) -> bool, rule: &str) -> Result<(), String>
where
    T::Err: ToString,
{
    for entry in v.split(',') {
        let entry: T = entry.trim().parse().map_err(|e: T::Err| e.to_string())?;
        if !ok(&entry) {
            return Err(rule.into());
        }
    }
    Ok(())
}

fn node_counts(v: &str) -> Result<(), String> {
    list::<usize>(v, |&n| n >= 1, "node counts must be at least 1")
}

fn ppm_levels(v: &str) -> Result<(), String> {
    list::<u32>(v, |&p| p <= 1_000_000, "ppm values must be at most 1000000")
}

fn leave_rates(v: &str) -> Result<(), String> {
    list::<f64>(v, |r| (0.0..=1e4).contains(r), "rates must be in [0, 1e4]")
}

fn parse_seed(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|e| e.to_string())
}

/// A parsed command line: the command and the value of every flag given
/// (empty for a switch), already checked.
#[derive(Debug)]
struct Args {
    command: String,
    values: BTreeMap<&'static str, String>,
}

impl Args {
    fn on(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// The value of `flag`, if given; parsing checked it already.
    fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        let v = self.values.get(flag)?;
        Some(checked(flag, v))
    }

    /// The entries of the list `flag`, if given; parsing checked them
    /// already.
    fn list<T: FromStr>(&self, flag: &str) -> Option<Vec<T>> {
        let v = self.values.get(flag)?;
        Some(
            v.split(',')
                .map(|entry| checked(flag, entry.trim()))
                .collect(),
        )
    }
}

fn checked<T: FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| panic!("{flag} value {v} was checked at parse"))
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut command = None;
    let mut values = BTreeMap::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            command = Some("help".to_owned());
        } else if let Some(flag) = FLAGS.iter().find(|f| f.name == arg) {
            let mut value = String::new();
            if !flag.value.is_empty() {
                value = args.next().ok_or(format!("{arg} needs a value"))?;
                (flag.check)(&value).map_err(|e| format!("bad {arg} value {value}: {e}"))?;
            }
            if let Some((target, set)) = flag.sets {
                values.insert(target, set.to_owned());
            }
            values.insert(flag.name, value);
        } else if !arg.starts_with('-') && command.is_none() {
            command = Some(arg);
        } else {
            return Err(format!("unknown argument: {arg}"));
        }
    }
    let command = command.unwrap_or_else(|| "all".to_owned());
    if command != "help" && !COMMANDS.contains(&command.as_str()) {
        return Err(format!("unknown command {command}"));
    }
    let applies_to = if command == "scale" && values.contains_key("--live") {
        LIVE
    } else {
        command.as_str()
    };
    for name in values.keys() {
        let flag = FLAGS
            .iter()
            .find(|f| f.name == *name)
            .expect("a known flag");
        if !flag.commands.is_empty() && !flag.commands.contains(&applies_to) {
            return Err(format!(
                "{name} only applies to {}, not {applies_to}",
                flag.commands.join(", ")
            ));
        }
    }
    Ok(Args { command, values })
}

fn help() -> String {
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|f| format!("{} {}", f.name, f.value).trim_end().to_owned())
        .collect();
    format!(
        "commands: {}; options: {}",
        COMMANDS.join(" "),
        flags.join(" ")
    )
}

/// Exit status of a run whose stdout closed before it ended (`figures … |
/// head`): 128 + SIGPIPE, what a shell reports for a program a closed pipe
/// killed.
const EXIT_STDOUT_CLOSED: i32 = 141;

/// Writes to stdout like `print!`, through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// The one writer of everything the binary prints to stdout. A closed
/// stdout ends the run quietly with [`EXIT_STDOUT_CLOSED`]; any other
/// write error ends it with status 1 and an `error:` line.
fn write_stdout(text: std::fmt::Arguments) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(text).and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(EXIT_STDOUT_CLOSED);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Prints each figure and, given a directory, writes its CSV there.
fn write_figures(figures: Vec<(String, Figure)>, out_dir: Option<&Path>) {
    for (slug, fig) in figures {
        out!("{}\n", fig.render_text());
        let Some(dir) = out_dir else { continue };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            continue;
        }
        let path = dir.join(format!("{slug}.csv"));
        match std::fs::write(&path, fig.render_csv()) {
            Ok(()) => out!("# wrote {}\n\n", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Runs an experiment at `shards` engine shards; under `--verify-shards`
/// also on one shard, panicking (non-zero exit) on any difference.
fn sharded<T: ShardInvariant>(args: &Args, shards: u32, experiment: impl Fn(u32) -> T) -> T {
    if !args.on("--verify-shards") {
        return experiment(shards);
    }
    let results = verify_shards(shards, experiment);
    out!("# shard verification ok: every curve and counter identical to the one-shard run\n\n");
    results
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            return ExitCode::FAILURE;
        }
    };
    if args.command == "help" {
        out!("{}\n", help());
        return ExitCode::SUCCESS;
    }
    let defaults = FigureOptions::default();
    let opts = FigureOptions {
        runs: args.get("--runs").unwrap_or(defaults.runs),
        seed: args
            .values
            .get("--seed")
            .map_or(defaults.seed, |v| parse_seed(v).expect("checked at parse")),
        threads: args.get("--threads").unwrap_or(defaults.threads),
        ..defaults
    };
    out!(
        "# qolsr-rs figure harness — runs={} seed={:#x} strategy={:?}\n\n",
        opts.runs,
        opts.seed,
        opts.strategy
    );
    match run(&args, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, opts: &FigureOptions) -> Result<(), String> {
    let out_dir = match args.values.get("--out") {
        None => Some(PathBuf::from("results")),
        Some(dir) if dir.is_empty() => None,
        Some(dir) => Some(PathBuf::from(dir)),
    };
    let emit = |figures| write_figures(figures, out_dir.as_deref());
    let kinds = &SelectorKind::PAPER;
    let metric = args.get("--metric").unwrap_or_default();
    let shards = args.get("--shards").unwrap_or(1);
    match args.command.as_str() {
        cmd @ ("fig6" | "fig7" | "fig8" | "fig9" | "all") => {
            let mut figures = Vec::new();
            if matches!(cmd, "fig6" | "fig8" | "all") {
                figures.extend(bandwidth_figures(&bandwidth_experiment(opts)));
            }
            if matches!(cmd, "fig7" | "fig9" | "all") {
                figures.extend(delay_figures(&delay_experiment(opts)));
            }
            let prefix = format!("{cmd}_");
            figures.retain(|(slug, _)| cmd == "all" || slug.starts_with(&prefix));
            emit(figures);
        }
        "ablations" => emit(ablation_figures(
            &opts.bandwidth_config(),
            &opts.delay_config(),
        )),
        "robustness" => emit(robustness_figures(&opts.bandwidth_config())),
        "churn" => {
            let cfg = churn::ChurnConfig {
                seed: opts.seed,
                threads: opts.threads,
                shards,
                metric,
                ..churn::ChurnConfig::new(opts.runs)
            };
            let with = |shards| churn::ChurnConfig {
                shards,
                ..cfg.clone()
            };
            if let Some(rates) = args.list("--leave-rate") {
                let results = sharded(args, shards, |k| {
                    churn::leave_rate_sweep(&with(k), &rates, kinds)
                });
                if let Some(r) = results.first() {
                    out!("{}", r.skipped.report_line(cfg.runs));
                }
                emit(churn::leave_rate_figures(&cfg, &results));
            } else {
                let results = sharded(args, shards, |k| churn::churn_experiment(&with(k), kinds));
                if let Some(r) = results.first() {
                    out!("{}", r.skipped.report_line(cfg.runs));
                }
                emit(churn::figures(&cfg, &results));
            }
        }
        "overhead" => {
            let mut cfg = overhead::OverheadConfig::new(opts.runs.min(5));
            cfg.seed = opts.seed;
            cfg.shards = shards;
            if let Some(sizes) = args.list("--sizes") {
                cfg.sizes = sizes;
            }
            let points = sharded(args, shards, |shards| {
                overhead::overhead_sweep(&overhead::OverheadConfig {
                    shards,
                    ..cfg.clone()
                })
            });
            out!("{}", overhead::report(&cfg, &points));
            emit(overhead::figures(&points));
        }
        "loss" => {
            let mut cfg = loss::LossConfig {
                seed: opts.seed,
                threads: opts.threads,
                shards,
                metric,
                ..loss::LossConfig::new(opts.runs)
            };
            cfg.nodes = args.get("--nodes").unwrap_or(cfg.nodes);
            cfg.levels = args.list("--levels").unwrap_or(cfg.levels);
            if args.on("--hysteresis") {
                cfg.olsr.link_hysteresis = LinkHysteresis::On(HysteresisParams::default());
            }
            if args.on("--etx") {
                cfg.olsr.link_metric = LinkMetric::Etx(EtxParams::default());
            }
            if let Some(us) = args.get("--capture-us") {
                cfg.capture_window = SimDuration::from_micros(us);
            }
            let results = sharded(args, shards, |shards| {
                loss::loss_experiment(
                    &loss::LossConfig {
                        shards,
                        ..cfg.clone()
                    },
                    kinds,
                )
            });
            out!("{}", loss::report(&cfg, &results));
            emit(loss::figures(&cfg, &results));
        }
        "faults" => {
            for kind in args.list("--fault").unwrap_or(vec![FaultKind::Partition]) {
                let mut cfg = FaultConfig {
                    seed: opts.seed,
                    threads: opts.threads,
                    kind,
                    shards,
                    metric,
                    ..FaultConfig::new(opts.runs)
                };
                if let Some(n) = args.get("--nodes") {
                    cfg = cfg.with_nodes(n);
                }
                if args.on("--corrupt") {
                    cfg.corruption = FrameCorruption::On(CorruptionParams::default());
                }
                let results = sharded(args, shards, |shards| {
                    faults::fault_experiment(
                        &FaultConfig {
                            shards,
                            ..cfg.clone()
                        },
                        kinds,
                    )
                });
                out!("{}", faults::report(&cfg, &results));
                emit(faults::figures(&cfg, &results));
            }
        }
        "traffic" => {
            let mut cfg = traffic::TrafficConfig {
                seed: opts.seed,
                threads: opts.threads,
                shards,
                metric,
                ..traffic::TrafficConfig::new(opts.runs)
            };
            cfg.nodes = args.get("--nodes").unwrap_or(cfg.nodes);
            cfg.levels = args.list("--levels").unwrap_or(cfg.levels);
            cfg.flows = args.get("--flows").unwrap_or(cfg.flows);
            if args.on("--static") {
                cfg.mobility = None;
            }
            let results = sharded(args, shards, |shards| {
                traffic::traffic_experiment(
                    &traffic::TrafficConfig {
                        shards,
                        ..cfg.clone()
                    },
                    kinds,
                )
            });
            out!("{}", traffic::report(&cfg, &results));
            emit(traffic::figures(&cfg, &results));
        }
        "scale" if args.on("--live") => {
            let mut cfg = scale::LiveConfig::new(opts.runs.min(5));
            cfg.seed = opts.seed;
            cfg.shards = shards;
            cfg.sizes = args.list("--sizes").unwrap_or(cfg.sizes);
            cfg.warmup_seconds = args.get("--warmup").unwrap_or(cfg.warmup_seconds);
            cfg.sim_seconds = args.get("--seconds").unwrap_or(cfg.sim_seconds);
            if args.on("--lossy") {
                cfg.phy = PhyModel::Lossy(LossyPhy {
                    edge_drop_ppm: 400_000,
                    exponent: 2,
                    capture_window: SimDuration::from_micros(150),
                });
            }
            let points = sharded(args, shards, |shards| {
                scale::live_sweep(&scale::LiveConfig {
                    shards,
                    ..cfg.clone()
                })
            });
            out!("{}", scale::live_report(&cfg, &points));
            emit(scale::live_figures(&points));
            if let Some(budget) = args.get::<u64>("--max-resident-bytes") {
                for p in &points {
                    let mean = p.resident_bytes.mean();
                    if mean > budget as f64 {
                        return Err(format!(
                            "n={} mean resident protocol-table bytes {mean:.0} exceed the \
                             --max-resident-bytes budget {budget}",
                            p.nodes
                        ));
                    }
                }
                out!("# resident budget ok: all sizes under {budget} bytes\n\n");
            }
        }
        "scale" => {
            let mut cfg = scale::ScaleConfig::new(opts.runs.min(10));
            cfg.seed = opts.seed;
            cfg.threads = opts.threads;
            cfg.sizes = args.list("--sizes").unwrap_or(cfg.sizes);
            let points = scale::scale_sweep(&cfg);
            out!("{}", scale::report(&points));
            emit(scale::figures(&points));
        }
        other => unreachable!("parse_args accepted the command {other}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    /// Every command, `scale --live` counted as its own.
    const ALL: &[&str] = &[
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "all",
        "ablations",
        "robustness",
        "churn",
        "scale",
        "scale --live",
        "overhead",
        "loss",
        "faults",
        "traffic",
    ];

    #[test]
    fn each_flag_applies_to_exactly_its_commands() {
        // The commands each flag applies to; `--verify-shards` goes
        // wherever `--shards` does.
        let sharded: &[&str] = &[
            "scale --live",
            "overhead",
            "churn",
            "loss",
            "faults",
            "traffic",
        ];
        // `robustness`, `overhead` and `scale --live` run their worlds
        // one after another.
        let threaded: &[&str] = &[
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "all",
            "ablations",
            "churn",
            "scale",
            "loss",
            "faults",
            "traffic",
        ];
        let expected: &[(&str, &str, &[&str])] = &[
            ("--runs", "3", ALL),
            ("--seed", "0x1f", ALL),
            ("--threads", "2", threaded),
            ("--metric", "delay", &["churn", "loss", "faults", "traffic"]),
            ("--live", "", &["scale", "scale --live"]),
            ("--sizes", "40,80", &["scale", "scale --live", "overhead"]),
            ("--shards", "2", sharded),
            ("--verify-shards", "", sharded),
            ("--warmup", "5", &["scale --live"]),
            ("--seconds", "5", &["scale --live"]),
            ("--max-resident-bytes", "1024", &["scale --live"]),
            ("--lossy", "", &["scale --live"]),
            ("--nodes", "40", &["loss", "faults", "traffic"]),
            ("--levels", "0,400000", &["loss", "traffic"]),
            ("--hysteresis", "", &["loss"]),
            ("--etx", "", &["loss"]),
            ("--capture-us", "150", &["loss"]),
            ("--fault", "partition,storm", &["faults"]),
            ("--corrupt", "", &["faults"]),
            ("--leave-rate", "0,0.2", &["churn"]),
            ("--flows", "4", &["traffic"]),
            ("--static", "", &["traffic"]),
            ("--quick", "", ALL),
            ("--out", "somewhere", ALL),
            ("--no-csv", "", ALL),
        ];
        assert_eq!(expected.len(), FLAGS.len(), "one row per flag");
        for &(flag, value, takers) in expected {
            for &command in ALL {
                let mut args: Vec<&str> = command.split(' ').collect();
                args.push(flag);
                if !value.is_empty() {
                    args.push(value);
                }
                let parsed = parse(&args);
                assert_eq!(
                    parsed.is_ok(),
                    takers.contains(&command),
                    "{args:?}: {parsed:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_flags_and_extra_commands_are_rejected() {
        for args in [&["fig6", "--bogus"][..], &["fig6", "fig7"], &["-x"]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown argument"), "{args:?}: {err}");
        }
        assert!(parse(&["fig6", "--runs"])
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn zero_counts_are_rejected() {
        for args in [
            &["scale", "--sizes", "0"][..],
            &["scale", "--live", "--sizes", "250,0"],
            &["overhead", "--sizes", "0,250"],
            &["loss", "--nodes", "0"],
            &["traffic", "--flows", "0"],
            &["churn", "--shards", "0"],
            &["scale", "--live", "--seconds", "0"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("at least 1"), "{args:?}: {err}");
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        for args in [
            &["fig6", "--runs", "-1"][..],
            &["fig6", "--seed", "0xzz"],
            &["churn", "--metric", "energy"],
            &["loss", "--levels", "1000001"],
            &["faults", "--fault", "partition,flood"],
            &["churn", "--leave-rate", "NaN"],
            &["churn", "--leave-rate", "2e4"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn later_arguments_win() {
        let runs = |args: &[&str]| parse(args).unwrap().get::<u32>("--runs");
        assert_eq!(runs(&["--quick", "--runs", "5"]), Some(5));
        assert_eq!(runs(&["--runs", "5", "--quick"]), Some(10));
        let out = |args: &[&str]| parse(args).unwrap().values.get("--out").cloned();
        assert_eq!(out(&["--out", "x", "--no-csv"]), Some(String::new()));
        assert_eq!(out(&["--no-csv", "--out", "x"]), Some("x".to_owned()));
        let args = parse(&["--help", "--runs", "2"]).unwrap();
        assert_eq!(args.command, "help");
        assert_eq!(parse(&[]).unwrap().command, "all");
    }

    #[test]
    fn help_lists_every_command_and_flag() {
        assert_eq!(
            help(),
            "commands: fig6 fig7 fig8 fig9 all ablations robustness churn scale overhead loss \
             faults traffic; options: --runs N --seed S --threads T --metric bandwidth|delay \
             --live --sizes L --shards K --verify-shards --warmup N --seconds N \
             --max-resident-bytes B --lossy --nodes N --levels L --hysteresis --etx \
             --capture-us W --fault F --corrupt --leave-rate L --flows N --static --quick \
             --out DIR --no-csv"
        );
    }
}
