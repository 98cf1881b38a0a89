//! `perfbench` — the end-to-end benchmark of `ftpm mine`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --ftpm PATH
//! ```
//!
//! Generates the workload's CSV input from the seed, then:
//!
//! * `--trace 0`: times the set-up (input file to mine-ready database)
//!   in process several times, and runs the release `ftpm mine` binary
//!   as a closed loop — one child at a time — for `S` seconds, checking
//!   every child's output. A reference kernel is timed before every
//!   child, and the reported times are scaled to the host speed at which
//!   it takes [`calibrate::REFERENCE_S`]. Prints the end-to-end metrics.
//! * `--trace 1`: runs the same plan in process with every layer timed
//!   and counted, checks it, then runs the CLI untraced for `S` seconds
//!   to price the tracing. Prints the per-layer metrics and writes the
//!   spans and counters to the work directory.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! is a report with the environment stamp, the exact CLI arguments and
//! every measurement.

mod calibrate;
mod cli;
mod digest;
mod input;
mod layers;
mod pipeline;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use crate::pipeline::Produced;
use crate::trace::Recorder;
use crate::workload::Workload;

#[global_allocator]
static ALLOC: trace::TrackingAllocator = trace::TrackingAllocator;

/// Share of a `--trace 0` run's measuring time spent on in-process
/// set-ups, taken between CLI children; at least `SETUP_MIN` are taken.
const SETUP_SHARE: f64 = 0.10;
const SETUP_MIN: usize = 3;
/// Share of a `--trace 0` run's measuring time spent on samples of the
/// reference kernel, taken before every child (at least one each).
const CALIBRATE_SHARE: f64 = 0.10;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    ftpm: PathBuf,
    work: PathBuf,
    rustc: String,
    git_sha: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut ftpm = None;
    let mut work = PathBuf::from(".bench_work");
    let (mut rustc, mut git_sha) = ("unknown".to_string(), "unknown".to_string());
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--ftpm" => ftpm = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            "--rustc" => rustc = value()?,
            "--git-sha" => git_sha = value()?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        ftpm: ftpm.ok_or("--ftpm is required")?,
        work,
        rustc,
        git_sha,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What the run's output must equal: the pinned values on seed 0, the
/// in-process run of the same plan on any other seed.
fn check(expected: &Produced, got: &Produced) -> Result<(), String> {
    if got.patterns != expected.patterns {
        return Err(format!("{} patterns, expected {}", got.patterns, expected.patterns));
    }
    if got.rows != expected.rows {
        return Err(format!(
            "row digest {} over {} rows, expected {} over {}",
            got.rows.hex(),
            got.rows.rows,
            expected.rows.hex(),
            expected.rows.rows
        ));
    }
    Ok(())
}

/// The pinned result of seed 0, checked against the in-process run.
fn check_pinned(w: &Workload, seed: u64, produced: &Produced) -> Result<(), String> {
    if seed != 0 {
        return Ok(());
    }
    check(&w.pinned.produced(), produced).map_err(|e| format!("seed 0, in process: {e}"))
}

/// Samples and failures of [`cli_loop`].
struct Loop {
    walls: Vec<f64>,
    rss_mb: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

/// Closed-loop CLI runs for `seconds` (at least one), each checked.
/// `between` runs before every child: an untraced run takes its set-up
/// and reference-kernel samples there, so they span the same stretch of
/// time as the wall samples. A child whose peak RSS reads below `rss_floor_mb` fails:
/// the traced run passes its own heap high-water mark, which the CLI
/// running the same plan cannot undercut, so a broken RSS capture shows.
fn cli_loop(
    args: &Args,
    input: &Path,
    expected: &Produced,
    rss_floor_mb: f64,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Loop, String> {
    let mut out = Loop {
        walls: Vec::new(),
        rss_mb: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let started = Instant::now();
    while out.attempted == 0 || started.elapsed().as_secs_f64() < args.seconds {
        between()?;
        out.attempted += 1;
        let run = cli::run(&args.ftpm, args.workload, input, &args.work);
        let rss_mb = run.peak_rss_kb as f64 / 1024.0;
        let checked = run.outcome.and_then(|got| check(expected, &got)).and_then(|()| {
            if rss_mb < rss_floor_mb {
                return Err(format!(
                    "peak RSS read {rss_mb:.1} MB, below the {rss_floor_mb:.1} MB heap peak of the same plan in process"
                ));
            }
            Ok(())
        });
        match checked {
            Ok(()) => {
                out.walls.push(run.wall_s);
                out.rss_mb.push(rss_mb);
            }
            Err(e) => out.failures.push(e),
        }
    }
    Ok(out)
}

fn list<T: Into<Value>>(items: Vec<T>) -> Value {
    Value::Array(items.into_iter().map(Into::into).collect())
}

fn metric(value: f64, unit: &str) -> Value {
    serde_json::json!({ "value": value, "unit": unit })
}

/// One benchmark run: the report line and the result object.
fn run(args: &Args) -> Result<(Value, Value), String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    if !args.ftpm.is_file() {
        return Err(format!("no ftpm binary at {}", args.ftpm.display()));
    }
    if let Some(pipe) = cli::pipe_path(&args.work, w) {
        cli::make_pipe(&pipe)?;
    }
    let input = args.work.join(format!("{}-input.csv", w.name));
    let shape = input::write_energy_csv(&input, w.days, args.seed)?;
    let mut report = vec![
        ("workload".to_string(), Value::from(w.name)),
        ("why".to_string(), Value::from(w.why)),
        ("seed".to_string(), Value::from(args.seed)),
        ("trace".to_string(), Value::from(args.trace)),
        (
            "cli_args".to_string(),
            Value::from(
                w.cli_args(&input, &cli::pipe_path(&args.work, w).unwrap_or_default())
                    .into_iter()
                    .map(Value::from)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "input".to_string(),
            serde_json::json!({
                "days": w.days as u64,
                "generator_seed": input::DEMO_SEED,
                "shuffled": args.seed != 0,
                "rows": shape.rows as u64,
                "columns": shape.columns as u64,
                "bytes": shape.bytes,
            }),
        ),
        (
            "env".to_string(),
            serde_json::json!({
                "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
                "cpu_model": cpu_model(),
                "rustc": args.rustc.as_str(),
                "git_sha": args.git_sha.as_str(),
            }),
        ),
    ];
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut correct = true;
    let lp;
    if !args.trace {
        // Set-up: input file to a mine-ready database, timed as a block.
        let mut setups = Vec::new();
        let set_up = |setups: &mut Vec<f64>| {
            let started = Instant::now();
            let p = pipeline::prepare(w, &input, &mut Recorder::new())?;
            setups.push(started.elapsed().as_secs_f64());
            Ok::<_, String>(p)
        };
        let prepared = set_up(&mut setups)?;
        let expected = if args.seed == 0 {
            w.pinned.produced()
        } else {
            pipeline::mine(w, &prepared, &mut Recorder::new(), false)?.produced
        };
        drop(prepared);
        let mut reference = Vec::new();
        let measuring = Instant::now();
        lp = cli_loop(args, &input, &expected, 0.0, || {
            while setups.len() < SETUP_MIN
                || setups.iter().sum::<f64>() < SETUP_SHARE * measuring.elapsed().as_secs_f64()
            {
                set_up(&mut setups)?;
            }
            loop {
                reference.push(calibrate::sample(w.threads));
                if reference.iter().sum::<f64>() >= CALIBRATE_SHARE * measuring.elapsed().as_secs_f64() {
                    return Ok(());
                }
            }
        })?;
        // Times at the reference host speed; the raw samples are in the report.
        let scale = calibrate::REFERENCE_S / median(&reference);
        metrics.push(("wall_s".into(), metric(median(&lp.walls) * scale, "s")));
        metrics.push(("setup_s".into(), metric(median(&setups) * scale, "s")));
        metrics.push(("peak_rss_mb".into(), metric(median(&lp.rss_mb), "MB")));
        report.push(("host_scale".into(), Value::from(scale)));
        report.push(("reference_samples_s".into(), list(reference)));
        report.push(("setup_samples_s".into(), list(setups)));
    } else {
        trace::start_counting();
        let mut rec = Recorder::new();
        let traced = Instant::now();
        rec.open("run");
        let prepared = pipeline::prepare(w, &input, &mut rec)?;
        let mined = pipeline::mine(w, &prepared, &mut rec, true)?;
        rec.close();
        let traced_s = traced.elapsed().as_secs_f64();
        if let Err(e) = check_pinned(w, args.seed, &mined.produced) {
            correct = false;
            report.push(("pinned_check".into(), Value::from(e)));
        }
        layers::record(w, &prepared, &mined, &mut rec);
        let expected = mined.produced;
        drop(prepared);
        let heap_mb = mined.sink.peak_heap as f64 / (1024.0 * 1024.0);
        lp = cli_loop(args, &input, &expected, heap_mb, || Ok(()))?;
        rec.count("trace.overhead_s", traced_s - median(&lp.walls));
        for (name, value) in rec.counters() {
            metrics.push((name.clone(), metric(*value, layers::unit(name))));
        }
        let trace_file = args.work.join(format!("trace-{}-{}.json", w.name, args.seed));
        let header = Value::Object(report.clone());
        std::fs::write(&trace_file, rec.to_json(header))
            .map_err(|e| format!("{}: {e}", trace_file.display()))?;
        report.push(("trace_file".into(), Value::from(trace_file.display().to_string())));
    }
    let failed = lp.failures.len() as u64;
    correct &= failed == 0;
    report.push(("cli_runs".into(), Value::from(lp.attempted)));
    report.push(("error_rate".into(), Value::from(failed as f64 / lp.attempted as f64)));
    report.push(("wall_median_s".into(), Value::from(median(&lp.walls))));
    report.push(("wall_samples_s".into(), list(lp.walls.clone())));
    report.push(("peak_rss_samples_mb".into(), list(lp.rss_mb.clone())));
    if !lp.failures.is_empty() {
        report.push(("failures".into(), list(lp.failures)));
    }
    let metrics = Value::Object(metrics);
    report.push(("metrics".into(), metrics.clone()));
    let result = serde_json::json!({
        "correct": correct,
        "attempted": lp.attempted,
        "failed": failed,
        "metrics": metrics,
    });
    Ok((Value::Object(report), result))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((report, result)) => {
            println!("{}", serde_json::to_string(&report).unwrap_or_default());
            println!("{}", serde_json::to_string(&result).unwrap_or_default());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
