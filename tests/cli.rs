//! The `ftpm` binary end to end. Usage errors: count and tick flags take
//! whole numbers in range, `--scale`/`--mu`/`--approx-density` lie in
//! (0, 1], a flag of the other data source (`--window`, `--overlap`,
//! `--threshold` and `--states` with `--demo`; `--scale` with
//! `--input`) or a second source is rejected, and retired flags are
//! unknown. Every rejection exits with status 1 and names the offending
//! flag, before any data is loaded; `--states` data that has no quantile
//! breakpoints is an error naming the column; a CSV time axis that
//! overflows `i64` is an error too. Composition: a sharded, threaded
//! A-HTPGM run streams the rows of the sequential one. `ftpm graph`
//! honours `--approx-density` and exits 1 on a closed stdout. `--input`
//! streams its file line by line: CRLF endings, blank lines and a
//! missing final newline read as the plain LF form, and a byte that is
//! not UTF-8, or a missing file, is an error naming the file and the
//! line of the file, blank lines counted. Only `mine` converts the data,
//! so only `mine` notes a rounded split, and a sharded summary counts
//! the windows and events of the unsharded run.

use std::process::{Command, Output};

#[expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]
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
        let mut args = vec![
            "mine",
            "--input",
            &csv,
            "--sigma",
            "0.3",
            "--max-events",
            "3",
        ];
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
    let out = input(&[
        "--window",
        "40",
        "--overlap",
        "10",
        "--t-max",
        "20",
        "--json",
    ]);
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

/// A time axis whose series would end past `i64::MAX` (the step, or
/// `start + rows × step`, does not fit) is an error naming the problem,
/// in `mine` and in `graph`, not a panic.
#[test]
fn a_time_axis_that_overflows_i64_is_rejected() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, text) in [
        (
            "overflow_span.csv",
            "time,a,b\n0,1,0\n4611686018427387904,0,1\n",
        ),
        (
            "overflow_end.csv",
            "time,a\n9223372036854775800,1\n9223372036854775805,0\n",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("the temp dir is writable");
        let path = path.display().to_string();
        for command in ["mine", "graph"] {
            let out = ftpm(&[command, "--input", &path]);
            assert_usage_error(&out, "time column overflows");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("panicked"), "{command} {name}: {stderr}");
        }
    }
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
            "mine",
            "--demo",
            "energy",
            "--scale",
            "0.005",
            "--sigma",
            "0.3",
            "--delta",
            "0.3",
            "--max-events",
            "3",
            "--approx-density",
            "0.8",
            "--boundary",
            "true-extent",
            "--t-max",
            "180",
            "--stream",
            "--shards",
            shards,
            "--threads",
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

/// `ftpm mine --stream` into a pipe nobody reads is an I/O error with
/// exit status 1, not a panic, on one worker and on two.
#[test]
fn mine_stream_to_a_closed_pipe_exits_1_without_a_panic() {
    for threads in ["1", "2"] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_ftpm"))
            .args([
                "mine",
                "--demo",
                "nist",
                "--scale",
                "0.005",
                "--sigma",
                "0.3",
                "--delta",
                "0.3",
                "--max-events",
                "3",
                "--stream",
                "--threads",
                threads,
            ])
            .stdout(writer)
            .output()
            .expect("the ftpm binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "threads {threads}: {stderr}");
        assert!(!stderr.contains("panicked"), "threads {threads}: {stderr}");
        assert!(
            stderr.contains("error: stdout:"),
            "threads {threads}: {stderr}"
        );
    }
}

/// Column names reach the event labels verbatim (`parse_csv` splits the
/// header on `,` and trims), so a quote, a backslash, an inner tab and
/// non-ASCII text must survive both writers' escaping. One worker and
/// two stream the same rows.
#[test]
fn labels_that_need_escaping_stream_the_same_rows_on_any_thread_count() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let csv = dir.join("escaped_labels.csv");
    let mut text = String::from("time,a\"q,b\\s,in\tner,é日本\n");
    for t in 0..400 {
        let on = |period: u32, phase: u32| u8::from((t / period + phase).is_multiple_of(2));
        text.push_str(&format!(
            "{t},{},{},{},{}\n",
            on(7, 0),
            on(11, 1),
            on(5, 0),
            on(13, 1)
        ));
    }
    std::fs::write(&csv, text).expect("the temp dir is writable");
    let csv = csv.display().to_string();
    let rows = |threads: &str| -> (Vec<String>, Vec<String>) {
        let mine = |extra: &[&str]| {
            let mut args = vec![
                "mine",
                "--input",
                &csv,
                "--window",
                "40",
                "--sigma",
                "0.3",
                "--delta",
                "0.3",
                "--max-events",
                "3",
                "--stream",
                "--threads",
                threads,
            ];
            args.extend_from_slice(extra);
            let out = ftpm(&args);
            assert!(out.status.success(), "{out:?}");
            out
        };
        let sorted = |text: &str| {
            let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
            lines.sort_unstable();
            lines
        };
        let csv_rows = sorted(&String::from_utf8_lossy(&mine(&[]).stdout));
        let jsonl = dir.join(format!("escaped_labels_t{threads}.jsonl"));
        let jsonl = jsonl.display().to_string();
        mine(&["--output", &jsonl]);
        let jsonl_rows = sorted(&std::fs::read_to_string(&jsonl).expect("the JSONL file"));
        (csv_rows, jsonl_rows)
    };
    let (csv_rows, jsonl_rows) = rows("1");
    assert!(
        csv_rows.len() > 10,
        "the input must yield patterns: {csv_rows:?}"
    );
    assert_eq!(csv_rows.len(), jsonl_rows.len() + 1, "CSV adds a header");
    let (csv_text, jsonl_text) = (csv_rows.concat(), jsonl_rows.concat());
    for needle in ["a\"\"q=On", "b\\s=On", "in\tner=On", "é日本=On"] {
        assert!(csv_text.contains(needle), "{needle:?} in the CSV rows");
    }
    for needle in ["a\\\"q=On", "b\\\\s=On", "in\\tner=On", "é日本=On"] {
        assert!(jsonl_text.contains(needle), "{needle:?} in the JSONL rows");
    }
    assert_eq!(rows("2"), (csv_rows, jsonl_rows));
}

/// The human summaries, streamed (on stderr) and collected, count the
/// threads in the right number.
#[test]
fn summaries_count_one_thread_in_the_singular() {
    for (threads, expected) in [("1", "(1 thread)"), ("2", "(2 threads)")] {
        let collected = mine(&["--max-events", "3", "--threads", threads]);
        let streamed = mine(&["--max-events", "3", "--threads", threads, "--stream"]);
        for (summary, what) in [
            (String::from_utf8_lossy(&collected.stdout), "collected"),
            (String::from_utf8_lossy(&streamed.stderr), "streamed"),
        ] {
            let first = summary.lines().next().unwrap_or_default();
            assert!(
                first.ends_with(expected),
                "{what}, threads {threads}: {first}"
            );
        }
    }
}

/// `--input` streams the file line by line: CRLF endings, blank and
/// whitespace-only lines and a missing final newline read the same rows
/// as the plain LF form, in `mine` and in `graph`.
#[test]
fn crlf_blank_lines_and_no_final_newline_stream_the_same_rows() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut rows = vec![String::from("time,a,b,c")];
    for t in 0..200u32 {
        let on = |period: u32, phase: u32| u8::from((t / period + phase).is_multiple_of(2));
        rows.push(format!("{t},{},{},{}", on(7, 0), on(7, 1), on(5, 0)));
    }
    let lf = rows.join("\n") + "\n";
    let mut crlf = String::from("\r\n");
    for (i, row) in rows.iter().enumerate() {
        crlf.push_str(row);
        if i + 1 < rows.len() {
            crlf.push_str(if i % 50 == 3 {
                "\r\n \t\r\n\r\n"
            } else {
                "\r\n"
            });
        }
    }
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("the temp dir is writable");
        path.display().to_string()
    };
    let (lf, crlf) = (write("rows_lf.csv", &lf), write("rows_crlf.csv", &crlf));
    for command in [
        &[
            "mine",
            "--window",
            "20",
            "--sigma",
            "0.3",
            "--delta",
            "0.3",
            "--threads",
            "1",
            "--stream",
        ][..],
        &["graph", "--mu", "0.01"][..],
    ] {
        let stdout = |csv: &str| {
            let out = ftpm(&[command, &["--input", csv]].concat());
            assert!(out.status.success(), "{out:?}");
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let expected = stdout(&lf);
        assert!(
            expected.lines().count() > 1,
            "the input must yield rows: {expected}"
        );
        assert_eq!(stdout(&crlf), expected, "{}", command[0]);
    }
}

/// A byte that is not UTF-8 is an error naming the file and the line,
/// and a missing `--input` file is an error naming the file; neither is
/// a panic.
#[test]
fn unreadable_input_exits_1_naming_the_file() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let bad = dir.join("not_utf8.csv");
    std::fs::write(&bad, b"time,a\n0,1\n5,\xff\n10,0\n").expect("the temp dir is writable");
    let bad = bad.display().to_string();
    let missing = dir.join("no_such_input.csv").display().to_string();
    for (path, needle) in [
        (&bad, format!("error: {bad}: line 3: invalid utf-8")),
        (&missing, format!("error: {missing}: ")),
    ] {
        for command in ["mine", "graph"] {
            let out = ftpm(&[command, "--input", path]);
            assert_usage_error(&out, &needle);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!stderr.contains("panicked"), "{command} {path}: {stderr}");
        }
    }
}

/// Writes `text` to a file named `name` in the test's temp dir.
#[expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]
fn temp_csv(name: &str, text: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("the temp dir is writable");
    path.display().to_string()
}

/// A CSV error names the line of the file: blank lines above the bad
/// row count.
#[test]
fn a_csv_error_names_the_line_of_the_file_counting_blank_lines() {
    let path = temp_csv("blank_above_bad_value.csv", "time,a\n0,1\n\n \n5,x\n10,0\n");
    for command in ["mine", "graph"] {
        let out = ftpm(&[command, "--input", &path]);
        assert_usage_error(&out, &format!("error: {path}: line 5: bad value \"x\""));
    }
}

/// A header that repeats a variable name would mine two columns under
/// one label (`a=On Contain a=Off`); both commands reject it and name
/// the column.
#[test]
fn a_header_that_repeats_a_name_is_rejected() {
    let path = temp_csv(
        "repeated_name.csv",
        "time,a,a\n0,1,0\n5,1,0\n10,0,1\n15,0,1\n",
    );
    for command in ["mine", "graph"] {
        let out = ftpm(&[command, "--input", &path]);
        assert_usage_error(
            &out,
            &format!("error: {path}: line 1: column \"a\" appears twice"),
        );
    }
}

/// A header with an empty variable name is rejected, naming the column
/// by its position in the file (the time column is column 1): its events
/// would carry no name.
#[test]
fn a_header_with_an_empty_name_is_rejected() {
    let cases = [
        ("empty_name.csv", "time,,b", 2),
        ("blank_name.csv", "time, ,b", 2),
        ("empty_names.csv", "time,a,,", 3),
    ];
    for (name, header, column) in cases {
        let rows = "0,1,0,1\n5,1,0,1\n10,0,1,1\n15,0,1,1\n";
        let path = temp_csv(name, &format!("{header}\n{rows}"));
        for command in ["mine", "graph"] {
            let out = ftpm(&[command, "--input", &path, "--window", "10"]);
            assert_usage_error(
                &out,
                &format!("error: {path}: line 1: column {column} has no name"),
            );
        }
    }
}

/// `--window 22` over a 5-tick step rounds to 20: `mine`, which splits
/// the data, says so, and `graph`, which never splits it, does not.
#[test]
fn only_mine_notes_a_rounded_split() {
    let rows: Vec<String> = (0..48u32)
        .map(|t| format!("{},{},{}", 5 * t, t / 3 % 2, t / 2 % 2))
        .collect();
    let text = format!("time,a,b\n{}\n", rows.join("\n"));
    let path = temp_csv("rounded_split.csv", &text);
    let note = "note: split rounded to sampling steps of 5: requested window 22 overlap 0, \
                effective window 20 overlap 0";
    for (command, noted) in [("mine", true), ("graph", false)] {
        let out = ftpm(&[command, "--input", &path, "--window", "22", "--mu", "0.01"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{command}: {stderr}");
        assert_eq!(stderr.contains(note), noted, "{command}: {stderr}");
        assert_eq!(stderr.contains("note:"), noted, "{command}: {stderr}");
    }
}

/// A sharded run converts only its slices, and its `--json` summary
/// takes `sequences` and `distinct_events` from the shard plan: the
/// unsharded run's numbers, on demo and on CSV input.
#[test]
fn sharded_summary_counts_the_unsharded_windows_and_events() {
    let rows: Vec<String> = (0..400u32)
        .map(|t| format!("{t},{},{},{}", t / 7 % 2, (t / 7 + 1) % 2, t / 11 % 3))
        .collect();
    let text = format!("time,a,b,c\n{}\n", rows.join("\n"));
    let path = temp_csv("sharded_summary.csv", &text);
    let field = |stdout: &str, key: &str| -> String {
        let needle = format!("\"{key}\": ");
        stdout
            .lines()
            .find_map(|line| line.trim().strip_prefix(&needle))
            .map(|v| v.trim_end_matches(',').to_owned())
            .unwrap_or_else(|| panic!("no {key} in {stdout}"))
    };
    for source in [
        &["--demo", "nist", "--scale", "0.005"][..],
        &["--input", &path, "--window", "40", "--states", "3"][..],
    ] {
        let summary = |shards: &str| {
            let mine = ["mine", "--json", "--sigma", "0.5", "--t-max", "30"];
            let flags = ["--threads", "1", "--shards", shards];
            let out = ftpm(&[&mine[..], source, &flags].concat());
            assert!(out.status.success(), "{out:?}");
            String::from_utf8_lossy(&out.stdout).into_owned()
        };
        let unsharded = summary("1");
        for shards in ["2", "3"] {
            let sharded = summary(shards);
            assert_eq!(field(&sharded, "shards"), shards, "{sharded}");
            for key in ["sequences", "distinct_events", "pattern_count"] {
                let (got, want) = (field(&sharded, key), field(&unsharded, key));
                assert_eq!(got, want, "{key}: {source:?}");
            }
        }
    }
}
