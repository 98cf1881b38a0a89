//! The `ftpm` binary end to end. Usage errors: count and tick flags take
//! whole numbers in range, `--window`/`--overlap` apply only to
//! `--input`, and retired flags are unknown. Every rejection exits with
//! status 1 and names the offending flag, before any data is loaded.
//! Composition: a sharded, threaded A-HTPGM run streams the rows of the
//! sequential one.

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

#[test]
fn tick_flags_take_whole_numbers() {
    // A 400-row CSV with two numeric columns, one row per tick.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tick_flags.csv");
    let mut text = String::from("time,a,b\n");
    for t in 0..400 {
        let a = u8::from((t / 7) % 2 == 0);
        let b = u8::from((t / 11) % 3 == 0);
        text.push_str(&format!("{t},{a},{b}\n"));
    }
    std::fs::write(&path, text).expect("the temp dir is writable");
    let csv = path.display().to_string();
    let input = |extra: &[&str]| {
        let mut args = vec!["mine", "--input", &csv, "--sigma", "0.3", "--max-events", "3"];
        args.extend_from_slice(extra);
        ftpm(&args)
    };
    for (flag, bad) in [
        ("--t-max", "20.9"),
        ("--t-max", "0.5"),
        ("--t-max", "0"),
        ("--overlap", "10.7"),
        ("--window", "nan"),
        ("--window", "inf"),
        ("--window", "1e30"),
    ] {
        assert_usage_error(&input(&[flag, bad]), flag);
    }
    // Whole values apply exactly: 40-tick windows at stride 30 over 400
    // ticks are 13 sequences.
    let out = input(&["--window", "40", "--overlap", "10", "--t-max", "20", "--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("\"sequences\": 13"), "{stdout}");
}

#[test]
fn window_and_overlap_are_rejected_with_a_demo() {
    for extra in [
        &["--window", "60"][..],
        &["--overlap", "30"],
        &["--window", "60", "--overlap", "30"],
    ] {
        assert_usage_error(&mine(extra), "--window/--overlap apply only to --input");
    }
}

/// The plan axes compose: A-HTPGM at density 0.8 through a 4-shard
/// candidate exchange on 4 threads streams exactly the CSV rows of the
/// single-threaded, unsharded run (in another order).
#[test]
fn sharded_threaded_approx_stream_equals_the_sequential_stream() {
    let rows = |shards: &str, threads: &str| -> Vec<String> {
        let out = ftpm(&[
            "mine", "--demo", "energy", "--scale", "0.005", "--sigma", "0.3", "--delta",
            "0.3", "--max-events", "3", "--approx-density", "0.8", "--boundary",
            "true-extent", "--t-max", "180", "--stream", "--shards", shards, "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{out:?}");
        let mut rows: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::to_owned)
            .collect();
        rows.sort_unstable();
        rows
    };
    let sequential = rows("1", "1");
    eprintln!("{} CSV lines, header included", sequential.len());
    assert!(sequential.len() > 1, "the run must stream patterns");
    assert_eq!(rows("4", "4"), sequential);
}
