//! Command-line contract of the `cnt_variants` binary: arguments are
//! parsed before any table is computed, so a mistyped flag or a `--json`
//! without a path fails fast with exit 2 and a usage line instead of
//! being ignored or panicking after the run.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cnt_variants"))
        .args(args)
        .output()
        .expect("run cnt_variants")
}

fn assert_usage_error(args: &[&str]) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: cnt_variants"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: tables computed before the arguments were checked"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus"]);
    assert_usage_error(&["--jsn", "out.json"]);
}

#[test]
fn json_without_a_path_is_a_usage_error() {
    assert_usage_error(&["--json"]);
}
