//! Benchmark of the qolsr workspace: one workload per invocation. From
//! the repository root:
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo test --release --manifest-path perfbench/Cargo.toml   # self-tests
//! ```
//!
//! Workloads: `flood-1000`, `mobile-traffic-500`, `paper-sweep`. Every
//! input is generated from `--seed`. `--seconds` sets how much work is
//! measured: it is turned into a fixed number of simulated seconds (or
//! worlds) at a rate fitted on a 2-core x86-64 host, so the same seed and
//! `--seconds` always do the same work and every count repeats exactly.
//!
//! End-to-end metrics, printed by untraced runs on every workload:
//! `setup_s` (median set-up, plus the warm-up on live workloads),
//! `wall_ms_per_unit` (wall ms per measured simulated second, or per
//! world on `paper-sweep`), both read at the nominal host speed of
//! [`calib`], and `peak_rss_mib` (`VmHWM` less the resident size of the
//! host reference). Traced runs print the per-layer metrics instead and
//! write their spans to `perfbench/out/`.
//!
//! The output is a per-run report line (with each unit's raw wall ms and
//! host reference sample), the output checks, the counter fingerprint
//! and, last, one JSON result line.

mod alloc;
mod calib;
mod host;
mod live;
mod metrics;
mod paper;
mod run;
mod trace;

use std::process::ExitCode;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Simulated seconds measured per `--seconds` on `flood-1000` (15 at
/// `--seconds 20`, one full-radius TC cycle).
const FLOOD_SIM_S_PER_S: f64 = 0.75;
/// Simulated seconds measured per `--seconds` on `mobile-traffic-500`.
const MOBILE_SIM_S_PER_S: f64 = 0.4;
/// Rounds (one world per density) measured per `--seconds` on `paper-sweep`.
const PAPER_ROUNDS_PER_S: f64 = 0.2;

const USAGE: &str = "usage: perfbench --workload <flood-1000|mobile-traffic-500|paper-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Command-line arguments.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Units of work worth `seconds` at `rate` per second (at least two, so a
/// traced run has a traced and an untraced unit).
fn scaled(seconds: u64, rate: f64) -> u64 {
    ((seconds as f64 * rate).round() as u64).max(2)
}

/// Runs `workload` at full size. The host reference is built before a
/// traced run starts heap tracking, so `heap.peak_mib` leaves it out;
/// `main` takes its resident size out of `peak_rss_mib`.
fn run_workload(workload: &str, seconds: u64, seed: u64, traced: bool) -> Result<Outcome, String> {
    let reference = &mut calib::Reference::new();
    if traced {
        alloc::start_tracking();
    }
    let tr = Tracer::new(traced, seed);
    Ok(match workload {
        "flood-1000" => live::run(
            workload,
            &live::LiveSpec::flood(scaled(seconds, FLOOD_SIM_S_PER_S)),
            seed,
            reference,
            tr,
        ),
        "mobile-traffic-500" => live::run(
            workload,
            &live::LiveSpec::mobile(scaled(seconds, MOBILE_SIM_S_PER_S)),
            seed,
            reference,
            tr,
        ),
        "paper-sweep" => paper::run(
            &paper::PaperSpec::new(scaled(seconds, PAPER_ROUNDS_PER_S) as usize),
            seed,
            reference,
            tr,
        ),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Writes the run's spans as JSON lines under `perfbench/out/`.
fn write_spans(workload: &str, seed: u64, tracer: &Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, tracer.to_json_lines())?;
    Ok(path.display().to_string())
}

/// The result line: correctness, operation counts and the metrics of
/// `table`.
fn result_line(
    outcome: &Outcome,
    table: &[(&'static str, &'static str)],
) -> Result<String, String> {
    let metrics = outcome.values.render(table)?;
    let failed = outcome.failed().len();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0,
        outcome.units + outcome.checks.len() as u64,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = host::Sample::now();
    let mut outcome = match run_workload(&args.workload, args.seconds, args.seed, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let end = host::Sample::now();

    let info = host::RunInfo {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        config: &outcome.config,
        units: outcome.units,
        fingerprint: outcome.fingerprint,
        unit_ms: &outcome.unit_ms,
        unit_work: &outcome.unit_work,
        unit_ref_ms: &outcome.unit_ref_ms,
    };
    println!("report {}", host::report_json(&info, &start, &end));
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict}: {}", c.name, c.detail);
    }
    println!("fingerprint {:016x}", outcome.fingerprint);
    if args.trace {
        match write_spans(&args.workload, args.seed, &outcome.tracer) {
            Ok(path) => println!("spans {path}"),
            Err(e) => {
                eprintln!("error: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match host::peak_rss_mib() {
        Some(rss) => outcome
            .values
            .set("peak_rss_mib", rss - metrics::mib(calib::RESIDENT_BYTES)),
        None => {
            eprintln!("error: VmHWM is not readable from /proc/self/status");
            return ExitCode::FAILURE;
        }
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match result_line(&outcome, table) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("{section} missing"));
        let body = &text[start..];
        let body = &body[body.find('[').unwrap() + 1..body.find(']').unwrap()];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).unwrap() + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').unwrap() + 1;
            let close = open + rest[open..].find('"').unwrap();
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn tiny(workload: &str, traced: bool) -> Outcome {
        let tr = Tracer::new(traced, 1);
        let reference = &mut calib::Reference::new();
        let live = |spec: live::LiveSpec| live::LiveSpec {
            nodes: 80,
            warmup_s: 6,
            window_s: 2,
            probes: 8,
            setups: 2,
            ..spec
        };
        match workload {
            "flood-1000" => live::run(workload, &live(live::LiveSpec::flood(2)), 3, reference, tr),
            "mobile-traffic-500" => live::run(
                workload,
                &live::LiveSpec {
                    flows: 8,
                    ..live(live::LiveSpec::mobile(2))
                },
                3,
                reference,
                tr,
            ),
            _ => paper::run(
                &paper::PaperSpec {
                    rounds: 2,
                    setups: 1,
                    ..paper::PaperSpec::new(2)
                },
                3,
                reference,
                tr,
            ),
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn tiny_runs_print_every_listed_metric_with_its_unit() {
        for workload in ["flood-1000", "mobile-traffic-500", "paper-sweep"] {
            for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let mut outcome = tiny(workload, traced);
                outcome
                    .values
                    .set("peak_rss_mib", host::peak_rss_mib().unwrap());
                let table = if traced { PER_LAYER } else { END_TO_END };
                let line = result_line(&outcome, table).unwrap();
                assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
                for (name, unit) in listed(section) {
                    let needle = format!("\"{name}\": {{\"value\": ");
                    let at = line
                        .find(&needle)
                        .unwrap_or_else(|| panic!("{workload} does not print {name}"));
                    let rest = &line[at + needle.len()..];
                    let entry = &rest[..rest.find('}').unwrap()];
                    assert!(
                        entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                        "{workload}: {name} printed as {entry}"
                    );
                }
            }
        }
    }

    #[test]
    fn end_to_end_values_are_never_zero() {
        for workload in ["flood-1000", "mobile-traffic-500", "paper-sweep"] {
            let outcome = tiny(workload, false);
            for &(name, _) in END_TO_END {
                if name != "peak_rss_mib" {
                    let v = outcome.values.get(name).unwrap();
                    assert!(v > 0.0, "{workload}: {name} = {v}");
                }
            }
        }
    }

    #[test]
    fn traced_spans_nest_and_self_times_sum_to_the_run() {
        for workload in ["flood-1000", "paper-sweep"] {
            let outcome = tiny(workload, true);
            let tr = &outcome.tracer;
            let spans = tr.spans();
            assert_eq!(spans[0].name, "workload");
            for s in &spans[1..] {
                let p = &spans[s.parent.expect("only the root has no parent")];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{workload}: {} escapes {}",
                    s.name,
                    p.name
                );
            }
            let total: u64 = tr.self_ns().iter().sum();
            assert_eq!(total, spans[0].duration_ns(), "{workload}");
            for &(span, _) in metrics::PHASE_SPANS {
                assert!(
                    spans.iter().any(|s| s.name == span),
                    "{workload} lacks span {span}"
                );
            }
        }
    }

    #[test]
    fn counters_repeat_exactly_for_a_seed() {
        for workload in ["mobile-traffic-500", "paper-sweep"] {
            let a = tiny(workload, false);
            let b = tiny(workload, true);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{workload}: tracing changed a counter"
            );
            assert_eq!(
                a.values.get("eval.route_validity"),
                b.values.get("eval.route_validity"),
                "{workload}"
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        assert_eq!(
            parse("--workload paper-sweep --seed 4 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "paper-sweep".into(),
                seed: 4,
                seconds: 10,
                trace: true
            })
        );
        assert!(parse("--workload x --seed 1").is_err());
        assert!(parse("--workload x --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--bogus 1").is_err());
        assert!(run_workload("nope", 1, 1, false).is_err());
    }
}
