//! The `govhost` binary's error contract, tested against the real
//! executable: every *usage* error (unknown command or flag, an
//! unparsable value) prints the message **and** the usage text to
//! stderr and exits nonzero, while *runtime* errors report without the
//! usage dump. `CARGO_BIN_EXE_govhost` points at the binary cargo built
//! for this test run.

use std::process::{Command, Output};

fn govhost(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_govhost"))
        .args(args)
        .output()
        .expect("spawn the govhost binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_usage_error(out: &Output, expect: &str) {
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr(out);
    assert!(err.contains(expect), "stderr should mention {expect:?}: {err}");
    assert!(err.contains("usage: govhost"), "usage text follows the error: {err}");
    assert!(out.stdout.is_empty(), "errors go to stderr, not stdout");
}

#[test]
fn missing_command_is_a_usage_error() {
    assert_usage_error(&govhost(&[]), "missing command");
}

#[test]
fn unknown_command_is_a_usage_error() {
    assert_usage_error(&govhost(&["frobnicate"]), "unknown command \"frobnicate\"");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&govhost(&["dataset", "--bogus", "1"]), "unknown flag --bogus");
}

#[test]
fn malformed_flag_values_are_usage_errors() {
    assert_usage_error(&govhost(&["dataset", "--scale", "banana"]), "bad --scale");
    assert_usage_error(&govhost(&["dataset", "--seed", "1.5"]), "bad --seed");
    assert_usage_error(&govhost(&["serve", "--threads", "many"]), "bad --threads");
    assert_usage_error(&govhost(&["serve", "--max-conns", "lots"]), "bad --max-conns");
    assert_usage_error(&govhost(&["serve", "--idle-timeout-ms", "-3"]), "bad --idle-timeout-ms");
    assert_usage_error(&govhost(&["serve", "--query-cache", "big"]), "bad --query-cache");
    assert_usage_error(&govhost(&["evolve", "--years", "soon"]), "bad --years");
}

#[test]
fn scenario_without_a_file_is_a_usage_error() {
    assert_usage_error(&govhost(&["scenario"]), "scenario needs a file");
    // A flag where the file should be is the same mistake.
    assert_usage_error(&govhost(&["scenario", "--scale", "0.1"]), "scenario needs a file");
}

#[test]
fn usage_mentions_every_command() {
    let out = govhost(&[]);
    let err = stderr(&out);
    for command in ["dataset", "analyze", "har", "zone", "serve", "evolve", "scenario"] {
        assert!(err.contains(command), "usage should list {command:?}: {err}");
    }
    assert!(err.contains("--addr"), "serve's address flag is documented: {err}");
    assert!(err.contains("--years"), "the tick-count flag is documented: {err}");
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for arg in ["help", "--help", "-h"] {
        let out = govhost(&[arg]);
        assert_eq!(out.status.code(), Some(0), "{arg} is not an error");
        assert!(stderr(&out).contains("usage: govhost"));
    }
}

#[test]
fn runtime_errors_fail_without_the_usage_dump() {
    // `zone` with no --host is a well-formed invocation that fails at
    // runtime: nonzero exit, message, but no usage text.
    let out = govhost(&["zone"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("zone needs --host"), "{err}");
    assert!(!err.contains("usage: govhost"), "runtime errors skip the usage dump: {err}");
    // So is a scenario file that does not exist or does not parse: the
    // diagnostics pass through, the usage text stays out of the way.
    let out = govhost(&["scenario", "/no/such/file.scn"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("/no/such/file.scn"), "{err}");
    assert!(!err.contains("usage: govhost"), "runtime errors skip the usage dump: {err}");
}

#[test]
fn unknown_tick_system_fails_before_worldgen() {
    // A bad `GOVHOST_TICKS` roster is a runtime error raised before any
    // world is generated, on both commands that tick.
    for args in [["evolve", "--years", "1"], ["serve", "--years", "1"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_govhost"))
            .args(args)
            .env("GOVHOST_TICKS", "bogus")
            .output()
            .expect("spawn the govhost binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("unknown tick system \"bogus\""), "{args:?}: {err}");
        assert!(!err.contains("generating world"), "{args:?} generated a world first: {err}");
    }
}
