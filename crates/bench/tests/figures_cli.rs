//! The `figures` binary's exit codes: a rejected argument exits 1 with an
//! `error:` line, and a closed stdout ends the run with 141; never a panic.
//! Only a command that runs prints the run header.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `figures` to its end: the exit code, stdout and stderr.
fn figures(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn zero_sizes_exit_1_instead_of_panicking() {
    for args in [
        &["scale", "--sizes", "0", "--no-csv"][..],
        &["scale", "--live", "--sizes", "250,0", "--no-csv"],
        &["overhead", "--sizes", "0", "--no-csv"],
    ] {
        let (code, _, stderr) = figures(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: bad --sizes value"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn misplaced_and_unknown_flags_exit_1() {
    let (code, _, stderr) = figures(&["fig6", "--nodes", "40"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("--nodes only applies to"), "{stderr}");
    let (code, _, stderr) = figures(&["fig6", "--bogus"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown argument: --bogus"), "{stderr}");
    // These run their worlds one after another, so they take no thread
    // count.
    for args in [
        &["robustness", "--threads", "2"][..],
        &["overhead", "--threads", "2"],
        &["scale", "--live", "--threads", "2"],
    ] {
        let (code, stdout, stderr) = figures(args);
        assert_eq!(code, Some(1), "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.starts_with("error: --threads only applies to"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn help_prints_only_the_usage_line() {
    for args in [&["--help"][..], &["-h"], &["help"]] {
        let (code, stdout, stderr) = figures(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
        assert_eq!(stdout.lines().count(), 1, "{args:?}: {stdout}");
        assert!(stdout.starts_with("commands: fig6 "), "{args:?}: {stdout}");
        assert!(
            stdout.contains("; options: --runs N "),
            "{args:?}: {stdout}"
        );
    }
}

#[test]
fn an_unknown_command_exits_1_before_the_run_header() {
    let (code, stdout, stderr) = figures(&["fig10", "--no-csv"]);
    assert_eq!(code, Some(1));
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with("error: unknown command fig10"),
        "{stderr}"
    );
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // `figures scale … | head -n 1`: the reader goes away after the
    // header, while the sweep (a few hundred ms) still runs, so the
    // report meets a closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["scale", "--runs", "1", "--sizes", "1000", "--no-csv"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the figures binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("the header line arrives");
    assert!(first.starts_with("# qolsr-rs figure harness"), "{first}");
    let out = child.wait_with_output().expect("the figures binary ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
