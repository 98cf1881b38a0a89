#![forbid(unsafe_code)]
//! `ftpm` — command-line frontend for the FTPMfTS pipeline.
//!
//! ```text
//! ftpm mine  --input data.csv --sigma 0.5 --delta 0.5 --window 360
//! ftpm mine  --demo nist --scale 0.02 --sigma 0.4 --delta 0.4
//! ftpm mine  --demo nist --scale 0.02 --sigma 0.4 --threads 4 \
//!            --output patterns.jsonl --stream
//! ftpm mine  --demo city --approx-density 0.6 --sigma 0.3 --delta 0.3
//! ftpm mine  --demo energy --approx-density 0.8 --shards 4 --threads 4 \
//!            --stream                     # A-HTPGM, sharded
//! ftpm mine  --demo nist --sort support --top 20
//! ftpm mine  --demo nist --scale 0.01 --boundary true-extent --t-max 180 \
//!            --shards 4 --json            # candidate exchange
//! ftpm graph --demo nist --scale 0.02 --mu 0.4
//! ftpm graph --demo nist --scale 0.02 --approx-density 0.8
//! ```
//!
//! CSV input: first column is the timestamp (integer ticks at a constant
//! step), remaining columns are numeric variables. Binary symbolization
//! (`--threshold`, default 0.05) is applied unless `--states N` asks for
//! N quantile states.
//!
//! Mining defaults to every available core (`--threads`); with
//! `--stream` the patterns are written to `--output` (or, without one,
//! as CSV to stdout) as they are mined, never materializing the full
//! pattern set in memory.
//!
//! Every flag selects one axis of the same plan: `--mu` /
//! `--approx-density` (A-HTPGM), `--threads`, `--shards` and `--stream`
//! compose freely, and every composition yields the same pattern set as
//! its single-threaded, unsharded counterpart.

use std::io::{BufReader, BufWriter, Write as _};
use std::process::ExitCode;

use ftpm::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("mine") => exit_status(try_mine(&args[1..])),
        Some("graph") => exit_status(try_graph(&args[1..])),
        Some("--help") | Some("-h") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command {other:?}; try `ftpm --help`");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "ftpm — Frequent Temporal Pattern Mining from Time Series

USAGE:
  ftpm mine  [--input FILE.csv | --demo nist|energy|ukdale|dataport|city]
             [--sigma F] [--delta F] [--window MIN] [--overlap MIN]
             [--boundary clip|true-extent|discard] [--t-max MIN]
             [--threshold F | --states N] [--scale F]
             [--mu F | --approx-density F] [--max-events N]
             [--threads N] [--shards K]
             [--output FILE.{{csv,jsonl}}] [--stream]
             [--sort support|confidence] [--top N] [--json]
  ftpm graph [--input FILE.csv | --demo ...] [--mu F | --approx-density F]
             [--scale F]

OPTIONS:
  --input FILE       CSV with a time column followed by numeric variables
  --demo NAME        use a built-in synthetic dataset instead of a file
  --scale F          demo dataset scale in (0,1]          [default 0.02]
                     (--demo only: CSV input is used as given)
  --sigma F          support threshold in (0,1]           [default 0.5]
  --delta F          confidence threshold in (0,1]        [default 0.5]
  --window MIN       window length in whole ticks         [default 360]
  --overlap MIN      window overlap t_ov in whole ticks   [default 0]
                     (both --input only: a demo has its own split)
  --boundary POLICY  treatment of window-boundary-clipped instances:
                     clip (historical), true-extent (relations and t-max
                     on the real run extents), discard (drop clipped
                     instances)                           [default clip]
  --t-max MIN        maximal pattern duration t_max in whole ticks
                     [default: unconstrained]
  --threshold F      On/Off symbolization threshold       [default 0.05]
  --states N         use N quantile states (1..=65535) instead of On/Off
                     (both --input only: a demo comes symbolized)
  --mu F             A-HTPGM with explicit NMI threshold; composes with
                     --threads/--shards/--stream — same pattern set
                     on every composition
  --approx-density F A-HTPGM with correlation-graph density target
                     (mutually exclusive with --mu; `ftpm graph` defaults
                     to density 0.4 when neither is given)
  --max-events N     cap pattern length, 2..={MAX_EVENTS_HARD_CAP}           [default 5]
  --threads N        worker threads                   [default: all cores]
  --shards K         shard-by-time-range mining: cut the data into K
                     time-range shards overlapping by t_max and mine them
                     concurrently with two-phase candidate exchange —
                     shards propose level-k candidates with owned
                     supports, and the global sigma/delta gate prunes
                     losers before the next level. Output equals the
                     unsharded run, exact or approximate  [default 1]
  --output FILE      export patterns (.csv or .jsonl, by extension)
  --stream           stream patterns straight to --output while mining —
                     or, without --output, as CSV to stdout (the summary
                     then goes to stderr). Constant memory; no sort/top
  --sort KEY         order printed/exported patterns: support|confidence
  --top N            keep only the N best patterns (sorts by support
                     unless --sort says otherwise)
  --json             machine-readable summary output"
    );
}

struct Options {
    input: Option<String>,
    demo: Option<String>,
    scale: f64,
    sigma: f64,
    delta: f64,
    /// The validated split geometry (`--window`/`--overlap`, which apply
    /// only to `--input`), built once at the end of `parse` — the single
    /// place the values are checked.
    split: SplitConfig,
    boundary: BoundaryPolicy,
    t_max: Option<i64>,
    threshold: f64,
    states: Option<usize>,
    mu: Option<f64>,
    density: Option<f64>,
    max_events: usize,
    threads: usize,
    shards: usize,
    output: Option<String>,
    stream: bool,
    sort: Option<PatternSort>,
    top: Option<usize>,
    json: bool,
}

/// Worker threads to use when `--threads` is not given: every core the
/// OS reports.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut window, mut overlap) = (None, None);
    let (mut scale, mut threshold) = (None, None);
    let mut opt = Options {
        input: None,
        demo: None,
        scale: 0.02,
        sigma: 0.5,
        delta: 0.5,
        split: SplitConfig::new(360, 0),
        boundary: BoundaryPolicy::Clip,
        t_max: None,
        threshold: 0.05,
        states: None,
        mu: None,
        density: None,
        max_events: 5,
        threads: default_threads(),
        shards: 1,
        output: None,
        stream: false,
        sort: None,
        top: None,
        json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--input" => opt.input = Some(value("--input")?),
            "--demo" => opt.demo = Some(value("--demo")?),
            "--scale" => scale = Some(num(&value("--scale")?)?),
            "--sigma" => opt.sigma = num(&value("--sigma")?)?,
            "--delta" => opt.delta = num(&value("--delta")?)?,
            "--window" => window = Some(int("--window", &value("--window")?)?),
            "--overlap" => overlap = Some(int("--overlap", &value("--overlap")?)?),
            "--boundary" => {
                opt.boundary = value("--boundary")?
                    .parse()
                    .map_err(|e| format!("--boundary: {e}"))?;
            }
            "--t-max" => {
                let t_max: i64 = int("--t-max", &value("--t-max")?)?;
                if t_max <= 0 {
                    return Err(format!("--t-max must be positive, got {t_max}"));
                }
                opt.t_max = Some(t_max);
            }
            "--threshold" => threshold = Some(num(&value("--threshold")?)?),
            "--states" => {
                let n = int("--states", &value("--states")?)?;
                if !(1..=u16::MAX as usize).contains(&n) {
                    return Err(format!(
                        "--states must be between 1 and {}, got {n}",
                        u16::MAX
                    ));
                }
                opt.states = Some(n);
            }
            "--mu" => opt.mu = Some(num(&value("--mu")?)?),
            "--approx-density" => opt.density = Some(num(&value("--approx-density")?)?),
            "--max-events" => {
                let n = int("--max-events", &value("--max-events")?)?;
                if !(2..=MAX_EVENTS_HARD_CAP).contains(&n) {
                    return Err(format!(
                        "--max-events must be between 2 and {MAX_EVENTS_HARD_CAP}, got {n}"
                    ));
                }
                opt.max_events = n;
            }
            "--threads" => {
                opt.threads = int("--threads", &value("--threads")?)?;
                if opt.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--shards" => {
                opt.shards = int("--shards", &value("--shards")?)?;
                if opt.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--output" => opt.output = Some(value("--output")?),
            "--stream" => opt.stream = true,
            "--sort" => opt.sort = Some(value("--sort")?.parse()?),
            "--top" => opt.top = Some(int("--top", &value("--top")?)?),
            "--json" => opt.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // Each data source has its own knobs: a flag meant for the other
    // source would be silently ignored, so it is a usage error instead.
    match (&opt.input, &opt.demo) {
        (None, None) => return Err("need --input FILE or --demo NAME".into()),
        (Some(_), Some(_)) => {
            return Err("--input and --demo both choose the data; pick one".into());
        }
        (Some(_), None) => {
            if scale.is_some() {
                return Err("--scale applies only to --demo; --input data is used as given".into());
            }
            if threshold.is_some() && opt.states.is_some() {
                return Err("--threshold and --states both choose the symbolizer; pick one".into());
            }
        }
        (None, Some(_)) => {
            // The demos carry their own split geometry and symbols.
            if window.is_some() || overlap.is_some() {
                return Err(
                    "--window/--overlap apply only to --input; a --demo dataset has its own split"
                        .into(),
                );
            }
            if threshold.is_some() || opt.states.is_some() {
                let flag = if threshold.is_some() {
                    "--threshold"
                } else {
                    "--states"
                };
                return Err(format!(
                    "{flag} applies only to --input; a --demo dataset comes symbolized"
                ));
            }
        }
    }
    opt.scale = scale.unwrap_or(opt.scale);
    opt.threshold = threshold.unwrap_or(opt.threshold);
    // Validate the split geometry here instead of letting
    // `SplitConfig::new` assert deep inside the pipeline: a bad value
    // should be a usage error naming the flags, not a panic backtrace.
    opt.split = SplitConfig::try_new(window.unwrap_or(360), overlap.unwrap_or(0))
        .map_err(|e| format!("--window/--overlap: {e}"))?;
    if !(opt.sigma > 0.0 && opt.sigma <= 1.0) {
        return Err(format!("--sigma must be in (0, 1], got {}", opt.sigma));
    }
    if !(opt.delta > 0.0 && opt.delta <= 1.0) {
        return Err(format!("--delta must be in (0, 1], got {}", opt.delta));
    }
    if opt.stream && (opt.sort.is_some() || opt.top.is_some()) {
        return Err("--stream cannot sort or truncate; drop --sort/--top".into());
    }
    // Both flags parameterize the same correlation graph — one by the NMI
    // threshold directly, one by the edge density it should achieve — so
    // giving both is a contradiction, not a composition.
    if opt.mu.is_some() && opt.density.is_some() {
        return Err(
            "--mu and --approx-density both choose the correlation graph; pick one".into(),
        );
    }
    // The demo generators and the graph builders (Defs 5.4 and 5.6)
    // assert these domains.
    for (flag, value) in [
        ("--scale", scale),
        ("--mu", opt.mu),
        ("--approx-density", opt.density),
    ] {
        if let Some(v) = value.filter(|v| !(*v > 0.0 && *v <= 1.0)) {
            return Err(format!("{flag} must be in (0, 1], got {v}"));
        }
    }
    // The shard slices overlap by t_ov = t_max; with t_max unconstrained
    // every slice degrades to the whole series. Still lossless — each
    // shard owns its own windows, only the slices are redundant — so it
    // is a performance note, not a usage error.
    if opt.shards > 1 && opt.t_max.is_none() {
        eprintln!(
            "note: --shards without --t-max makes every shard slice span the whole \
             series (the overlap is t_ov = t_max); output is unchanged but the slices \
             are redundant — pass --t-max to bound them"
        );
    }
    if let Some(path) = &opt.output {
        output_format(path)?;
    }
    // "--top N" promises the N *best* patterns; discovery order is
    // nondeterministic under --threads, so truncation needs a sort.
    if opt.top.is_some() && opt.sort.is_none() {
        opt.sort = Some(PatternSort::Support);
    }
    Ok(opt)
}

fn num(s: &str) -> Result<f64, String> {
    s.parse::<f64>().map_err(|e| format!("bad number {s:?}: {e}"))
}

/// Parses the value of an integer flag — a count, or a tick length such
/// as `--window`: `2.7`, `1e30` or (for a count) `-5` is a usage error
/// naming the flag, never a silently truncated or saturated value.
fn int<T>(flag: &str, s: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    s.parse::<T>()
        .map_err(|e| format!("{flag} expects a whole number, got {s:?}: {e}"))
}

/// Export format, decided by the `--output` extension.
#[derive(Clone, Copy, PartialEq)]
enum OutputFormat {
    Csv,
    Jsonl,
}

fn output_format(path: &str) -> Result<OutputFormat, String> {
    if path.ends_with(".csv") {
        Ok(OutputFormat::Csv)
    } else if path.ends_with(".jsonl") || path.ends_with(".ndjson") {
        Ok(OutputFormat::Jsonl)
    } else {
        Err(format!(
            "--output {path:?}: unsupported extension (use .csv or .jsonl)"
        ))
    }
}

/// Loads the symbolic database from the chosen source, plus the split
/// geometry its sequences come from (the demos carry their own; CSV input
/// uses `--window`/`--overlap`) and, for a demo, the sequence database it
/// arrives converted into. A CSV file is converted only by `ftpm mine`,
/// and only for an unsharded run: a shard plan converts its own slices.
fn load(
    opt: &Options,
) -> Result<(SymbolicDatabase, SplitConfig, Option<SequenceDatabase>), String> {
    if let Some(demo) = &opt.demo {
        let d = match demo.as_str() {
            // "energy" is the paper's NIST smart-home energy dataset —
            // an alias so the A-HTPGM examples read like the evaluation.
            "nist" | "energy" => nist_like(opt.scale),
            "ukdale" => ukdale_like(opt.scale),
            "dataport" => dataport_like(opt.scale),
            "city" => smartcity_like(opt.scale),
            other => return Err(format!("unknown demo dataset {other:?}")),
        };
        return Ok((d.syb, d.split, Some(d.seq)));
    }
    #[expect(
        clippy::expect_used,
        reason = "parse requires --input when --demo is absent"
    )]
    let path = opt.input.as_ref().expect("checked in parse");
    // The file streams into `f64` columns, so its text is never held
    // whole; each column is dropped as soon as it has been symbolized.
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let series = read_csv(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let first = &series[0];
    let mut syb = SymbolicDatabase::try_new(first.start(), first.step(), first.len())
        .map_err(|e| format!("{path}: {e}"))?;
    for ts in series {
        match opt.states {
            None => {
                syb.add_time_series(&ts, &ThresholdSymbolizer::new(opt.threshold));
            }
            Some(n) => {
                let labels: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
                let q = QuantileSymbolizer::from_data(labels, ts.values())
                    .map_err(|e| format!("column {:?}: {e}", ts.name()))?;
                syb.add_time_series(&ts, &q);
            }
        }
    }
    Ok((syb, opt.split, None))
}

/// Opens `path`, builds the sink matching its extension (labels rendered
/// through `registry`, the mining plan's), hands it to `feed`, then
/// finishes the sink. Without a path the patterns go to stdout as CSV —
/// the `--stream`-without-`--output` pipe mode. Returns the number of
/// pattern rows/lines written. The single place the CSV/JSONL dispatch
/// lives; I/O failures (full disk, closed pipe) surface as errors, never
/// panics.
fn write_patterns(
    path: Option<&str>,
    registry: &EventRegistry,
    feed: &mut dyn FnMut(&mut (dyn PatternSink + Send)),
) -> Result<u64, String> {
    let Some(path) = path else {
        // `Stdout` (not `StdoutLock`) so the sink stays `Send` for the
        // parallel miners; the handle locks per write.
        let out = BufWriter::new(std::io::stdout());
        let mut sink = CsvSink::new(out, registry);
        feed(&mut sink);
        let (written, finished) = (sink.written(), sink.finish());
        finished.map_err(|e| format!("stdout: {e}"))?;
        return Ok(written);
    };
    let format = output_format(path)?;
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let out = BufWriter::new(file);
    let (written, finished) = match format {
        OutputFormat::Csv => {
            let mut sink = CsvSink::new(out, registry);
            feed(&mut sink);
            (sink.written(), sink.finish())
        }
        OutputFormat::Jsonl => {
            let mut sink = JsonlSink::new(out, registry);
            feed(&mut sink);
            (sink.written(), sink.finish())
        }
    };
    finished.map_err(|e| format!("{path}: {e}"))?;
    Ok(written)
}

/// Renders the per-shard observability rows for `--json`: owned window
/// counts, candidates proposed, candidates pruned by the global exchange
/// gate, and per-shard wall time.
fn shard_reports_json(reports: &[ShardReport]) -> serde_json::Value {
    serde_json::Value::from(
        reports
            .iter()
            .map(|r| {
                serde_json::json!({
                    "shard": r.shard,
                    "windows_owned": r.windows_owned,
                    "candidates_proposed": r.candidates_proposed,
                    "candidates_pruned": r.candidates_pruned,
                    "wall_ms": r.wall.as_millis() as u64,
                })
            })
            .collect::<Vec<_>>(),
    )
}

/// Human-readable counterpart of [`shard_reports_json`], one line per
/// shard.
fn write_shard_reports(
    out: &mut impl std::io::Write,
    reports: &[ShardReport],
) -> Result<(), String> {
    for r in reports {
        writeln!(
            out,
            "  shard {}: {} windows owned, {} candidates proposed, {} pruned by the \
             global gate, {:.1?}",
            r.shard, r.windows_owned, r.candidates_proposed, r.candidates_pruned, r.wall,
        )
        .map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

/// Writes a fully-mined result through the same sink machinery as the
/// streaming path, *consuming* it: the result is replayed by moving each
/// pattern into the sink ([`MiningResult::drain_into`]), so the export
/// allocates nothing per pattern. Runs after the summary — the export is
/// the result's last reader.
fn export_whole_result(
    result: MiningResult,
    registry: &EventRegistry,
    path: &str,
) -> Result<u64, String> {
    let mut moved = Some(result);
    write_patterns(Some(path), registry, &mut |sink| {
        if let Some(r) = moved.take() {
            r.drain_into(sink);
        }
    })
}

/// Writes a sorted/truncated selection as one synthetic node per pattern
/// (the reordering makes a graph replay impossible, so this path clones
/// the selected patterns).
fn export_selection(
    selection: &[&FrequentPattern],
    registry: &EventRegistry,
    path: &str,
) -> Result<u64, String> {
    write_patterns(Some(path), registry, &mut |sink| {
        sink.begin(&[]);
        for fp in selection {
            sink.node(
                fp.pattern.events().to_vec(),
                fp.support,
                fp.pattern.len(),
                vec![(*fp).clone()],
            );
        }
    })
}

/// Exit status of `mine` and `graph`: a usage, input or I/O error is
/// printed as `error: …` and exits 1.
fn exit_status(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Serializes the JSON summary — a full disk or closed pipe is a
/// reportable I/O error (nonzero exit), not a panic. `to_stderr` routes
/// the summary away from stdout when the pattern stream owns it
/// (`--stream` without `--output`).
fn print_json(payload: &serde_json::Value, to_stderr: bool) -> Result<(), String> {
    let text = serde_json::to_string_pretty(payload)
        .map_err(|e| format!("serializing JSON summary: {e}"))?;
    if to_stderr {
        let stderr = std::io::stderr();
        writeln!(stderr.lock(), "{text}").map_err(|e| format!("stderr: {e}"))
    } else {
        let stdout = std::io::stdout();
        writeln!(stdout.lock(), "{text}").map_err(|e| format!("stdout: {e}"))
    }
}

fn try_mine(args: &[String]) -> Result<(), String> {
    let opt = parse(args)?;
    let (syb, split, demo_seq) = load(&opt)?;
    let effective = split.effective(syb.step());
    if opt.input.is_some() && effective != split {
        eprintln!(
            "note: split rounded to sampling steps of {}: requested {split}, effective {effective}",
            syb.step(),
        );
    }
    let mut relation = RelationConfig::default().with_boundary(opt.boundary);
    if let Some(t_max) = opt.t_max {
        relation = relation.with_t_max(t_max);
    }
    let cfg = MinerConfig::new(opt.sigma, opt.delta)
        .with_max_events(opt.max_events)
        .with_relation(relation);
    let threads = opt.threads;
    let thread_s = if threads == 1 { "" } else { "s" };
    // One correlation graph per run, built once on the full symbolic
    // database: --mu sets the NMI threshold directly, --approx-density
    // derives it from a target edge density (Def 5.6). Every execution
    // path — unsharded, sharded, streaming — borrows this one graph, so
    // shards can never disagree about the gate.
    let graph = match (opt.mu, opt.density) {
        (Some(mu), _) => Some(CorrelationGraph::build(&syb, mu)),
        (None, Some(d)) => Some(CorrelationGraph::build_with_density(&syb, d)),
        (None, None) => None,
    };
    // Shard-by-time-range plan: slices overlap by t_max so the merged
    // output equals the unsharded run (lossless under every policy). Only
    // an unsharded run mines the whole database's conversion.
    let (shard_plan, seq);
    let (data, shards) = if opt.shards > 1 {
        drop(demo_seq);
        shard_plan = ShardPlanner::new(opt.shards)
            .plan(&syb, split, cfg.relation.t_max)
            .map_err(|e| format!("--shards: {e}"))?;
        (MineData::Sharded(&shard_plan), shard_plan.shards().len())
    } else {
        seq = demo_seq.unwrap_or_else(|| to_sequence_database(&syb, split));
        (MineData::Unsharded(&seq), 1)
    };
    let plan = MinePlan::new(data, &cfg).with_threads(threads);
    let plan = match &graph {
        Some(g) => plan
            .with_correlation(Correlation::Series(g))
            .map_err(|e| e.to_string())?,
        None => plan,
    };
    let label = {
        let core = match (&graph, opt.mu, opt.density) {
            (Some(_), Some(mu), _) => format!("A-HTPGM(mu={mu})"),
            (Some(g), None, Some(d)) => format!("A-HTPGM(density={d}, mu={:.3})", g.mu()),
            _ => "E-HTPGM".to_owned(),
        };
        if opt.shards > 1 {
            format!("{core}[{shards} shards]")
        } else {
            core
        }
    };
    // Sharded output is expressed in the plan's master registry, the
    // unsharded conversion's registry: its size and the window count are
    // the unsharded run's.
    let registry = plan.registry();
    let summary = |stats: &MiningStats, elapsed: std::time::Duration, patterns: u64| {
        serde_json::json!({
            "miner": label.as_str(),
            "sequences": plan.n_windows(),
            "distinct_events": registry.len(),
            "threads": threads,
            "shards": shards,
            "boundary": opt.boundary.as_str(),
            "clipped_instances": stats.clipped_instances,
            "discarded_instances": stats.discarded_instances,
            "elapsed_ms": elapsed.as_millis() as u64,
            "pattern_count": patterns,
        })
    };

    let started = std::time::Instant::now();
    if opt.stream {
        let path = opt.output.as_deref();
        let (mut stats, mut reports) = (MiningStats::default(), Vec::new());
        let written = write_patterns(path, registry, &mut |sink| {
            (stats, reports) = plan.run(sink);
        })?;
        let elapsed = started.elapsed();
        // Streaming to stdout hands the pattern CSV the stream; the
        // run summary moves to stderr so the output stays parseable.
        let to_stderr = path.is_none();
        if opt.json {
            let mut payload = summary(&stats, elapsed, written);
            if let serde_json::Value::Object(entries) = &mut payload {
                entries.push(("output".to_string(), path.unwrap_or("-").into()));
                entries.push(("streamed".to_string(), true.into()));
                if let Some(g) = &graph {
                    entries.push(("mu".to_string(), serde_json::Value::from(g.mu())));
                }
                if !reports.is_empty() {
                    entries.push(("shard_reports".to_string(), shard_reports_json(&reports)));
                }
            }
            print_json(&payload, to_stderr)?;
        } else {
            let stdout = std::io::stdout();
            let stderr = std::io::stderr();
            let mut out: Box<dyn std::io::Write> = if to_stderr {
                Box::new(stderr.lock())
            } else {
                Box::new(stdout.lock())
            };
            writeln!(
                out,
                "{label}: {} sequences, {} distinct events ({} boundary-clipped \
                 instances, boundary={}), {written} patterns streamed to {} \
                 in {elapsed:.1?} ({threads} thread{thread_s})",
                plan.n_windows(),
                registry.len(),
                stats.clipped_instances,
                opt.boundary,
                path.unwrap_or("stdout"),
            )
            .map_err(|e| format!("summary: {e}"))?;
            write_shard_reports(&mut out, &reports)?;
        }
        return Ok(());
    }

    let (result, shard_reports) = plan.collect();
    let elapsed = started.elapsed();
    let selection = rank_patterns(&result, opt.sort, opt.top);
    // The export runs *after* the summary so the straight-replay case can
    // consume the result and move every pattern into the writer sink.
    let full_export = opt.sort.is_none() && selection.len() == result.len();

    if opt.json {
        let mut payload = summary(&result.stats, elapsed, result.len() as u64);
        if let serde_json::Value::Object(entries) = &mut payload {
            let patterns = selection.iter().map(|p| {
                serde_json::json!({
                    "pattern": p.pattern.display(registry).to_string(),
                    "support": p.support,
                    "rel_support": p.rel_support,
                    "confidence": p.confidence,
                    "clipped_occurrences": p.clipped_occurrences,
                })
            });
            entries.push(("patterns".to_string(), patterns.collect::<Vec<_>>().into()));
            if let Some(g) = &graph {
                entries.push(("mu".to_string(), serde_json::Value::from(g.mu())));
            }
            if !shard_reports.is_empty() {
                entries.push((
                    "shard_reports".to_string(),
                    shard_reports_json(&shard_reports),
                ));
            }
            if let Some(path) = &opt.output {
                entries.push(("output".to_string(), serde_json::Value::from(path.as_str())));
            }
        }
        print_json(&payload, false)?;
    } else {
        let shown = if selection.len() < result.len() {
            format!(" (showing {})", selection.len())
        } else {
            String::new()
        };
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let io_err = |e: std::io::Error| format!("stdout: {e}");
        writeln!(
            out,
            "{label}: {} sequences, {} distinct events, {} patterns{shown} in {elapsed:.1?} \
             ({threads} thread{thread_s})",
            plan.n_windows(),
            registry.len(),
            result.len(),
        )
        .map_err(io_err)?;
        if opt.boundary != BoundaryPolicy::Clip || result.stats.clipped_instances > 0 {
            writeln!(
                out,
                "boundary={}: {} boundary-clipped instances, {} discarded",
                opt.boundary, result.stats.clipped_instances, result.stats.discarded_instances,
            )
            .map_err(io_err)?;
        }
        write_shard_reports(&mut out, &shard_reports)?;
        for fp in &selection {
            writeln!(
                out,
                "{}  [supp={} ({:.0}%), conf={:.0}%]",
                fp.pattern.display(registry),
                fp.support,
                fp.rel_support * 100.0,
                fp.confidence * 100.0,
            )
            .map_err(|e| format!("stdout: {e}"))?;
        }
    }

    if let Some(path) = &opt.output {
        let written = if full_export {
            drop(selection);
            export_whole_result(result, registry, path)?
        } else {
            export_selection(&selection, registry, path)?
        };
        if !opt.json {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            writeln!(out, "wrote {written} patterns to {path}")
                .map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

/// `ftpm graph`: the correlation graph `G_C` the same flags would give
/// A-HTPGM — `--mu` sets the NMI threshold, otherwise `--approx-density`
/// (default 0.4) picks it — then one line per edge. A closed stdout is
/// an error, not a panic.
fn try_graph(args: &[String]) -> Result<(), String> {
    let opt = parse(args)?;
    let (syb, _, _) = load(&opt)?;
    let graph = match opt.mu {
        Some(mu) => CorrelationGraph::build(&syb, mu),
        None => CorrelationGraph::build_with_density(&syb, opt.density.unwrap_or(0.4)),
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let io_err = |e: std::io::Error| format!("stdout: {e}");
    writeln!(
        out,
        "correlation graph: {} vertices, {} edges, density {:.2} (mu = {:.3})",
        graph.n_vertices(),
        graph.n_edges(),
        graph.density(),
        graph.mu(),
    )
    .map_err(io_err)?;
    for (i, a) in syb.iter() {
        for (j, b) in syb.iter() {
            if i < j && graph.has_edge(i, j) {
                writeln!(
                    out,
                    "  {} -- {}  (NMI {:.2}/{:.2})",
                    a.name(),
                    b.name(),
                    graph.nmi(i, j),
                    graph.nmi(j, i),
                )
                .map_err(io_err)?;
            }
        }
    }
    Ok(())
}
