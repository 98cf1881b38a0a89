//! The in-process counterpart of one `ftpm mine` run: the same public
//! library calls the CLI's `load` and `run_plan` make, each timed from
//! outside in a [`Recorder`] span.

use std::io::BufWriter;
use std::path::Path;

use ftpm::{
    mine_approximate_graph_with_sink, mine_exact_parallel_with_sink, mine_exact_with_sink,
    parse_csv, rank_patterns, to_sequence_database, CollectSink, CorrelationGraph,
    EventRegistry, FrequentPattern, JsonlSink, MinerConfig, MiningStats, PatternSink,
    PatternSort, SequenceDatabase, ShardPlan, ShardPlanner, ShardReport, SymbolicDatabase,
    ThresholdSymbolizer,
};

use crate::digest::{DigestWriter, RowDigest};
use crate::trace::{self, Recorder, TimingSink};
use crate::workload::{split, Output, Workload};

/// The CLI's default On/Off symbolization threshold.
const THRESHOLD: f64 = 0.05;

/// A mine-ready database: everything `ftpm mine` builds before mining.
pub struct Prepared {
    pub seq: SequenceDatabase,
    pub graph: Option<CorrelationGraph>,
    pub plan: Option<ShardPlan>,
}

impl Prepared {
    /// The registry the output is rendered through.
    pub fn registry(&self) -> &EventRegistry {
        self.plan.as_ref().map_or(self.seq.registry(), |p| p.registry())
    }
}

/// Input file to mine-ready database, one span per layer.
pub fn prepare(w: &Workload, csv: &Path, rec: &mut Recorder) -> Result<Prepared, String> {
    let series = rec.time("ftpm.parse_csv", || {
        let text = std::fs::read_to_string(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        parse_csv(&text)
    })?;
    let first = series.first().ok_or("input has no series")?;
    let syb = rec.time("timeseries.symbolize", || {
        let mut syb = SymbolicDatabase::new(first.start(), first.step(), first.len());
        for ts in &series {
            syb.add_time_series(ts, &ThresholdSymbolizer::new(THRESHOLD));
        }
        syb
    });
    let seq = rec.time("events.split", || to_sequence_database(&syb, split()));
    let graph = rec.time("mi.graph", || {
        w.density.map(|d| CorrelationGraph::build_with_density(&syb, d))
    });
    let cfg = w.miner_config();
    let plan = rec.time("shard.plan", || {
        w.sharding
            .map(|s| ShardPlanner::new(s.shards).plan(&syb, split(), cfg.relation.t_max))
            .transpose()
    })?;
    Ok(Prepared { seq, graph, plan })
}

/// The CLI's `run_plan` dispatch over (shard plan, correlation graph,
/// exchange, threads); every sharded workload uses candidate exchange,
/// the CLI default.
fn run_plan(
    p: &Prepared,
    cfg: &MinerConfig,
    threads: usize,
    sink: &mut (dyn PatternSink + Send),
) -> (MiningStats, Vec<ShardReport>) {
    match (&p.plan, &p.graph) {
        (Some(plan), Some(g)) => plan.mine_approximate_exchange_into(g, cfg, threads, sink),
        (Some(plan), None) => plan.mine_exchange_into(cfg, threads, sink),
        (None, Some(g)) => (
            mine_approximate_graph_with_sink(&p.seq, g, cfg, threads, sink),
            Vec::new(),
        ),
        (None, None) if threads > 1 => (
            mine_exact_parallel_with_sink(&p.seq, cfg, threads, sink),
            Vec::new(),
        ),
        (None, None) => (mine_exact_with_sink(&p.seq, cfg, sink), Vec::new()),
    }
}

/// What a mining run produced, reduced to what the checker compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Produced {
    pub patterns: u64,
    pub rows: RowDigest,
}

/// Sink-side measurements of a traced run.
#[derive(Debug, Default)]
pub struct SinkTrace {
    pub busy_s: f64,
    pub pool_s: f64,
    pub rows: u64,
    pub bytes: u64,
    pub allocs: u64,
    pub pool_entries: usize,
    pub peak_heap: usize,
}

/// Result of [`mine`].
pub struct Mined {
    pub produced: Produced,
    pub stats: MiningStats,
    pub reports: Vec<ShardReport>,
    pub sink: SinkTrace,
}

/// One ranked row as the checker sees it, built from the fields the
/// CLI's `--json` summary prints per pattern.
pub fn ranked_row(pattern: &str, support: f64, rel_support: f64, confidence: f64, clipped: f64) -> String {
    format!("{pattern}\t{support}\t{rel_support}\t{confidence}\t{clipped}")
}

fn ranked_digest(selection: &[&FrequentPattern], registry: &EventRegistry) -> RowDigest {
    let mut digest = RowDigest::default();
    for fp in selection {
        let row = ranked_row(
            &fp.pattern.display(registry).to_string(),
            fp.support as f64,
            fp.rel_support,
            fp.confidence,
            fp.clipped_occurrences as f64,
        );
        digest.add(row.as_bytes());
    }
    digest
}

/// Mines `p` with the workload's plan into the workload's sink. With
/// `traced`, the sink is wrapped in a [`TimingSink`] and the heap
/// high-water mark is taken over the mining call.
pub fn mine(w: &Workload, p: &Prepared, rec: &mut Recorder, traced: bool) -> Result<Mined, String> {
    let cfg = w.miner_config();
    let registry = p.registry();
    let mut sink_trace = SinkTrace::default();
    let mut run = |sink: &mut (dyn PatternSink + Send), rec: &mut Recorder| {
        let baseline = trace::reset_peak();
        rec.open("mine");
        let out = if traced {
            let mut timing = TimingSink::new(sink, registry.len());
            let out = run_plan(p, &cfg, w.threads, &mut timing);
            sink_trace.busy_s = timing.busy.as_secs_f64();
            sink_trace.pool_s = timing.pool_busy.as_secs_f64();
            sink_trace.rows = timing.rows;
            sink_trace.allocs = timing.allocs;
            sink_trace.pool_entries = timing.take_pool_entries();
            out
        } else {
            run_plan(p, &cfg, w.threads, sink)
        };
        rec.close();
        sink_trace.peak_heap = trace::peak_above(baseline);
        out
    };
    match w.output {
        Output::StreamJsonl => {
            let mut out = BufWriter::new(DigestWriter::default());
            let mut sink = JsonlSink::new(&mut out, registry);
            let (stats, reports) = run(&mut sink, rec);
            sink.finish().map_err(|e| format!("export: {e}"))?;
            // Streamed output is never ranked; the empty span keeps the
            // layer present, at ~0 s, on every workload.
            rec.time("postprocess.rank", || ());
            let writer = out.into_inner().map_err(|e| format!("export: {e}"))?;
            sink_trace.bytes = writer.bytes();
            let rows = writer.finish();
            Ok(Mined {
                produced: Produced { patterns: rows.rows, rows },
                stats,
                reports,
                sink: sink_trace,
            })
        }
        Output::Top(n) => {
            let mut sink = CollectSink::new();
            let (stats, reports) = run(&mut sink, rec);
            let result = sink.into_result(stats.clone());
            let selection = rec.time("postprocess.rank", || {
                rank_patterns(&result, Some(PatternSort::Support), Some(n))
            });
            let rows = ranked_digest(&selection, registry);
            Ok(Mined {
                produced: Produced { patterns: result.len() as u64, rows },
                stats,
                reports,
                sink: sink_trace,
            })
        }
    }
}
