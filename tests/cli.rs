//! The `ftpm` binary end to end. Usage errors: count and tick flags take
//! whole numbers in range, `--scale`/`--mu`/`--approx-density` lie in
//! (0, 1], a flag of the other data source (`--window`, `--overlap`,
//! `--threshold` and `--states` with `--demo`; `--scale` with
//! `--input`) or a second source is rejected, and retired flags are
//! unknown. Every rejection exits with status 1 and names the offending
//! flag, before any data is loaded; `--states` data that has no quantile
//! breakpoints is an error naming the column. Composition: a sharded, threaded
//! A-HTPGM run streams the rows of the sequential one. `ftpm graph`
//! honours `--approx-density` and exits 1 on a closed stdout.

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

/// Each data source has its own flags: one meant for the other source,
/// or a second source, would be silently dropped, so it is a usage
/// error. The CSV path need not exist — parsing rejects the flags first.
#[test]
fn flags_of_the_other_data_source_are_rejected() {
    for (extra, flag) in [
        (&["--input", "absent.csv"][..], "--input"),
        (&["--states", "3"], "--states"),
        (&["--threshold", "0.5"], "--threshold"),
    ] {
        assert_usage_error(&mine(extra), flag);
    }
    for (extra, flag) in [
        (&["--scale", "0.1"][..], "--scale"),
        (&["--threshold", "0.5", "--states", "3"], "--states"),
    ] {
        let mut args = vec!["mine", "--input", "absent.csv"];
        args.extend_from_slice(extra);
        assert_usage_error(&ftpm(&args), flag);
    }
}

/// `--states` outside 1..=65535 is a usage error; data that cannot be
/// cut into that many quantile states (a constant column, a NaN cell) is
/// an error naming the column. None of them is a panic.
#[test]
fn quantile_states_reject_bad_counts_and_unusable_columns() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, a_column: [&str; 5]| {
        let mut text = String::from("t,a,b\n");
        for ((t, a), b) in [0, 5, 10, 15, 20].iter().zip(a_column).zip([0, 2, 0, 3, 0]) {
            text.push_str(&format!("{t},{a},{b}\n"));
        }
        let path = dir.join(name);
        std::fs::write(&path, text).expect("the temp dir is writable");
        path.display().to_string()
    };
    let constant = write("states_constant.csv", ["1"; 5]);
    let nan = write("states_nan.csv", ["1", "NaN", "0", "2", "1"]);
    let run = |csv: &str, states: &str| {
        ftpm(&["mine", "--input", csv, "--window", "10", "--states", states])
    };
    for (out, needle) in [
        (run(&constant, "0"), "--states"),
        (run(&constant, "65536"), "--states"),
        (run(&constant, "3"), "column \"a\": data quantiles collide"),
        (run(&nan, "3"), "column \"a\": sample 1 is NaN"),
    ] {
        assert_usage_error(&out, needle);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }
    // Column b alone has three distinct quantiles.
    let out = run(&write("states_ok.csv", ["1", "2", "0", "2", "1"]), "3");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn fraction_flags_lie_in_the_unit_interval() {
    for (flag, bad) in [
        ("--scale", "0"),
        ("--scale", "1.5"),
        ("--mu", "0"),
        ("--mu", "1.5"),
        ("--approx-density", "0"),
        ("--approx-density", "nan"),
    ] {
        assert_usage_error(&mine(&[flag, bad]), flag);
    }
}

/// A tiny `ftpm graph` run over the 72-series energy demo.
fn graph(extra: &[&str]) -> Output {
    let mut args = vec!["graph", "--demo", "nist", "--scale", "0.005"];
    args.extend_from_slice(extra);
    ftpm(&args)
}

/// `--approx-density` picks μ so that the density's share of the 2,556
/// pairs survives, as `CorrelationGraph::build_with_density` does.
#[test]
fn graph_honours_the_approx_density() {
    for (density, edges) in [("0.1", 256), ("0.9", 2301)] {
        let out = graph(&["--approx-density", density]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{out:?}");
        let head = format!("correlation graph: 72 vertices, {edges} edges,");
        assert!(stdout.starts_with(&head), "density {density}: {stdout}");
        assert_eq!(stdout.lines().count(), 1 + edges, "one line per edge");
    }
}

/// Writing to a pipe nobody reads (`ftpm graph | head -1` after `head`
/// exits) is an I/O error with exit status 1, not a panic.
#[test]
fn graph_to_a_closed_pipe_exits_1_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_ftpm"))
        .args(["graph", "--demo", "nist", "--scale", "0.005"])
        .stdout(writer)
        .output()
        .expect("the ftpm binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("error: stdout:"), "stderr: {stderr}");
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
