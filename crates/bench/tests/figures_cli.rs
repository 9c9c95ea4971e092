//! The `figures` binary's exit codes on bad input: a rejected argument
//! exits 1 with an `error:` line, never a panic.

use std::process::Command;

fn figures(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs");
    (
        out.status.code(),
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
        let (code, stderr) = figures(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: bad --sizes value"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn misplaced_and_unknown_flags_exit_1() {
    let (code, stderr) = figures(&["fig6", "--nodes", "40"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("--nodes only applies to"), "{stderr}");
    let (code, stderr) = figures(&["fig6", "--bogus"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown argument: --bogus"), "{stderr}");
}
