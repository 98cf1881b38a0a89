//! Streaming pattern output — the [`PatternSink`] abstraction.
//!
//! HTPGM's memory story (paper Table VIII) is that the Hierarchical
//! Pattern Graph releases working state level by level; materializing
//! every mined pattern in a `Vec` at the end would squander exactly that
//! property on large runs (the NIST demo emits ~800k patterns). This
//! module turns the miner into a *producer*: as each HPG node finishes,
//! its frequent patterns are emitted into a [`PatternSink`], and the sink
//! decides whether to collect ([`CollectSink`] — the classic
//! [`MiningResult`] API), count ([`CountingSink`] — stats-only runs), or
//! stream to a writer ([`CsvSink`], [`JsonlSink`]) so the result is
//! never materialized — only the miner's own working state (the L2
//! candidate nodes and the occurrence bindings of the subtree currently
//! being grown) occupies memory.
//!
//! Shard-by-time-range mining ends in the same seam: the exchange
//! coordinator accumulates owned pattern statistics by pattern id and
//! streams the merged output into whatever downstream sink the caller
//! chose — so `ftpm mine --shards K --stream` composes sharding with the
//! writer sinks without ever materializing a pattern `Vec`.
//!
//! Writer sinks record the first I/O error internally and go quiet; the
//! error is surfaced by [`PatternSink::finish`], so the mining hot path
//! stays infallible.
//!
//! # Example
//!
//! ```
//! use ftpm_core::{mine_exact_with_sink, CountingSink, MinerConfig};
//! use ftpm_datagen::random_sequence_database;
//!
//! let db = random_sequence_database(7, 6, 3, 2, 40);
//! let mut sink = CountingSink::default();
//! let stats = mine_exact_with_sink(&db, &MinerConfig::new(0.3, 0.3), &mut sink);
//! assert_eq!(sink.patterns(), stats.patterns_found.iter().sum::<usize>());
//! ```

use std::io::{self, Write};

use ftpm_events::{EventId, EventRegistry};

use crate::hpg::{HierarchicalPatternGraph, Level, Node};
use crate::result::{FrequentPattern, MiningResult, MiningStats};

/// Receives the output of a mining run incrementally, one Hierarchical
/// Pattern Graph node at a time.
///
/// The miner calls [`begin`](PatternSink::begin) once, then
/// [`node`](PatternSink::node) for every archived pattern-bearing node
/// (in discovery order at one thread; interleaved across workers with
/// more), and the driver calls
/// [`finish`](PatternSink::finish) at the end.
pub trait PatternSink {
    /// Announces the run: the frequent single events of L1 with their
    /// supports. Called once, before any node.
    fn begin(&mut self, frequent_events: &[(EventId, usize)]) {
        let _ = frequent_events;
    }

    /// One archived HPG node: its event combination, joint support,
    /// event count `k` (≥ 2), and the node's frequent patterns.
    fn node(
        &mut self,
        events: Vec<EventId>,
        support: usize,
        k: usize,
        patterns: Vec<FrequentPattern>,
    );

    /// Flushes buffered output and reports the first I/O error, if any.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Collects everything into the classic [`MiningResult`]: the pattern
/// `Vec`, the HPG summary with pattern indices, and the L1 events.
#[derive(Debug, Default)]
pub struct CollectSink {
    frequent_events: Vec<(EventId, usize)>,
    patterns: Vec<FrequentPattern>,
    graph: HierarchicalPatternGraph,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Consumes the sink into a [`MiningResult`] with the given run
    /// statistics.
    pub fn into_result(self, stats: MiningStats) -> MiningResult {
        MiningResult {
            patterns: self.patterns,
            frequent_events: self.frequent_events,
            graph: self.graph,
            stats,
        }
    }
}

impl PatternSink for CollectSink {
    fn begin(&mut self, frequent_events: &[(EventId, usize)]) {
        self.frequent_events = frequent_events.to_vec();
    }

    fn node(
        &mut self,
        events: Vec<EventId>,
        support: usize,
        k: usize,
        patterns: Vec<FrequentPattern>,
    ) {
        while self.graph.levels.len() < k - 1 {
            self.graph.levels.push(Level::default());
        }
        let mut pattern_indices = Vec::with_capacity(patterns.len());
        for fp in patterns {
            pattern_indices.push(self.patterns.len());
            self.patterns.push(fp);
        }
        self.graph.levels[k - 2].nodes.push(Node {
            events,
            support,
            pattern_indices,
        });
    }
}

/// Counts what flows through without keeping any of it — for stats-only
/// runs where even the pattern `Vec` would be waste.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    patterns: usize,
    nodes: usize,
    frequent_events: usize,
    max_len: usize,
}

impl CountingSink {
    /// Total frequent patterns emitted.
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Total pattern-bearing HPG nodes emitted.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of frequent single events announced at L1.
    pub fn frequent_events(&self) -> usize {
        self.frequent_events
    }

    /// Longest pattern seen (event count); 0 if none.
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

impl PatternSink for CountingSink {
    fn begin(&mut self, frequent_events: &[(EventId, usize)]) {
        self.frequent_events = frequent_events.len();
    }

    fn node(
        &mut self,
        _events: Vec<EventId>,
        _support: usize,
        k: usize,
        patterns: Vec<FrequentPattern>,
    ) {
        self.nodes += 1;
        self.patterns += patterns.len();
        self.max_len = self.max_len.max(k);
    }
}

/// Escapes a CSV field per RFC 4180: always quoted, `"` doubled.
fn csv_field(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if c == '"' {
            out.push('"');
        }
        out.push(c);
    }
    out.push('"');
}

/// Escapes a JSON string body (without the surrounding quotes).
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Streams patterns as CSV rows
/// (`pattern,length,support,rel_support,confidence,clipped_occurrences`),
/// one row per pattern, header first. Pattern text uses the paper's
/// triple notation rendered through the event registry;
/// `clipped_occurrences` counts the pattern's bound occurrences that
/// touch a window-boundary-clipped instance (see
/// [`FrequentPattern::clipped_occurrences`]).
pub struct CsvSink<'r, W: Write> {
    out: W,
    registry: &'r EventRegistry,
    written: u64,
    err: Option<io::Error>,
    line: String,
}

impl<'r, W: Write> CsvSink<'r, W> {
    /// Wraps a writer; `registry` renders event labels.
    pub fn new(out: W, registry: &'r EventRegistry) -> Self {
        CsvSink {
            out,
            registry,
            written: 0,
            err: None,
            line: String::new(),
        }
    }

    /// Number of pattern rows written so far (excludes the header).
    pub fn written(&self) -> u64 {
        self.written
    }

    fn put(&mut self) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.err = Some(e);
        }
    }
}

impl<W: Write> PatternSink for CsvSink<'_, W> {
    fn begin(&mut self, _frequent_events: &[(EventId, usize)]) {
        self.line.clear();
        self.line
            .push_str("pattern,length,support,rel_support,confidence,clipped_occurrences\n");
        self.put();
    }

    fn node(
        &mut self,
        _events: Vec<EventId>,
        _support: usize,
        k: usize,
        patterns: Vec<FrequentPattern>,
    ) {
        use std::fmt::Write as _;
        for fp in &patterns {
            self.line.clear();
            let text = fp.pattern.display(self.registry).to_string();
            csv_field(&text, &mut self.line);
            // lint: allow(write_discard, fmt::Write to String is infallible)
            let _ = writeln!(
                self.line,
                ",{k},{},{},{},{}",
                fp.support, fp.rel_support, fp.confidence, fp.clipped_occurrences
            );
            self.put();
            if self.err.is_some() {
                return;
            }
            self.written += 1;
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Streams patterns as JSON Lines: one object per pattern with fields
/// `pattern` (rendered triple notation), `events` (raw event ids),
/// `length`, `support`, `rel_support`, `confidence`, and
/// `clipped_occurrences` (occurrences touching a window-boundary-clipped
/// instance, see [`FrequentPattern::clipped_occurrences`]).
pub struct JsonlSink<'r, W: Write> {
    out: W,
    registry: &'r EventRegistry,
    written: u64,
    err: Option<io::Error>,
    line: String,
}

impl<'r, W: Write> JsonlSink<'r, W> {
    /// Wraps a writer; `registry` renders event labels.
    pub fn new(out: W, registry: &'r EventRegistry) -> Self {
        JsonlSink {
            out,
            registry,
            written: 0,
            err: None,
            line: String::new(),
        }
    }

    /// Number of pattern lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> PatternSink for JsonlSink<'_, W> {
    fn node(
        &mut self,
        _events: Vec<EventId>,
        _support: usize,
        k: usize,
        patterns: Vec<FrequentPattern>,
    ) {
        use std::fmt::Write as _;
        if self.err.is_some() {
            return;
        }
        for fp in &patterns {
            self.line.clear();
            self.line.push_str("{\"pattern\":\"");
            let text = fp.pattern.display(self.registry).to_string();
            json_escape(&text, &mut self.line);
            self.line.push_str("\",\"events\":[");
            for (i, e) in fp.pattern.events().iter().enumerate() {
                if i > 0 {
                    self.line.push(',');
                }
                // lint: allow(write_discard, fmt::Write to String is infallible)
                let _ = write!(self.line, "{}", e.0);
            }
            // lint: allow(write_discard, fmt::Write to String is infallible)
            let _ = writeln!(
                self.line,
                "],\"length\":{k},\"support\":{},\"rel_support\":{},\"confidence\":{},\
                 \"clipped_occurrences\":{}}}",
                fp.support, fp.rel_support, fp.confidence, fp.clipped_occurrences
            );
            if let Err(e) = self.out.write_all(self.line.as_bytes()) {
                self.err = Some(e);
                return;
            }
            self.written += 1;
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

impl MiningResult {
    /// Replays a fully collected result into a sink — the buffered
    /// counterpart of mining straight into one, used by export paths
    /// that already hold a [`MiningResult`] (e.g. `ftpm mine --output`
    /// without `--stream`).
    ///
    /// Emission follows the HPG summary: one
    /// [`node`](PatternSink::node) call per graph node, levels in order.
    /// The caller remains responsible for
    /// [`finish`](PatternSink::finish)ing the sink; writer sinks latch
    /// any I/O error until then.
    pub fn replay_into(&self, sink: &mut dyn PatternSink) {
        sink.begin(&self.frequent_events);
        for (li, level) in self.graph.levels.iter().enumerate() {
            for node in &level.nodes {
                let patterns = node
                    .pattern_indices
                    .iter()
                    .map(|&i| self.patterns[i].clone())
                    .collect();
                sink.node(node.events.clone(), node.support, li + 2, patterns);
            }
        }
    }

    /// Consuming counterpart of [`MiningResult::replay_into`]: moves each
    /// pattern into the sink instead of cloning it. Prefer this when the
    /// result is not needed afterwards (the export-only CLI path) —
    /// replaying a large result then dropping it doubles every pattern
    /// allocation for no reason.
    pub fn drain_into(self, sink: &mut dyn PatternSink) {
        sink.begin(&self.frequent_events);
        let mut patterns: Vec<Option<FrequentPattern>> =
            self.patterns.into_iter().map(Some).collect();
        for (li, level) in self.graph.levels.iter().enumerate() {
            for node in &level.nodes {
                let moved = node
                    .pattern_indices
                    .iter()
                    .filter_map(|&i| patterns[i].take())
                    .collect();
                sink.node(node.events.clone(), node.support, li + 2, moved);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_events::TemporalRelation;

    use crate::pattern::Pattern;

    fn fp(e1: u32, e2: u32, support: usize) -> FrequentPattern {
        FrequentPattern {
            pattern: Pattern::pair(EventId(e1), TemporalRelation::Follow, EventId(e2)),
            support,
            rel_support: support as f64 / 4.0,
            confidence: 0.8,
            clipped_occurrences: 0,
        }
    }

    #[test]
    fn collect_sink_builds_result() {
        let mut sink = CollectSink::new();
        sink.begin(&[(EventId(0), 4), (EventId(1), 3)]);
        sink.node(vec![EventId(0), EventId(1)], 3, 2, vec![fp(0, 1, 3)]);
        let result = sink.into_result(MiningStats::default());
        assert_eq!(result.len(), 1);
        assert_eq!(result.frequent_events.len(), 2);
        assert_eq!(result.graph.levels.len(), 1);
        assert_eq!(result.graph.levels[0].nodes[0].pattern_indices, vec![0]);
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::default();
        sink.begin(&[(EventId(0), 4)]);
        sink.node(vec![EventId(0), EventId(1)], 3, 2, vec![fp(0, 1, 3), fp(1, 0, 3)]);
        sink.node(vec![EventId(0), EventId(1), EventId(2)], 2, 3, vec![fp(0, 2, 2)]);
        assert_eq!(sink.patterns(), 3);
        assert_eq!(sink.nodes(), 2);
        assert_eq!(sink.frequent_events(), 1);
        assert_eq!(sink.max_len(), 3);
    }

    #[test]
    fn csv_sink_escapes_and_counts() {
        let mut reg = EventRegistry::new();
        use ftpm_timeseries::{SymbolId, VariableId};
        let a = reg.intern(VariableId(0), SymbolId(1), || "A\"q\"=On".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B=On".into());
        let mut buf = Vec::new();
        {
            let mut sink = CsvSink::new(&mut buf, &reg);
            sink.begin(&[]);
            sink.node(
                vec![a, b],
                3,
                2,
                vec![FrequentPattern {
                    pattern: Pattern::pair(a, TemporalRelation::Follow, b),
                    support: 3,
                    rel_support: 0.75,
                    confidence: 0.8,
                    clipped_occurrences: 2,
                }],
            );
            assert_eq!(sink.written(), 1);
            sink.finish().expect("no io error");
        }
        let text = String::from_utf8(buf).expect("utf8");
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("pattern,length,support,rel_support,confidence,clipped_occurrences")
        );
        let row = lines.next().expect("one row");
        assert!(row.starts_with("\"(A\"\"q\"\"=On Follow B=On)\","), "{row}");
        assert!(row.ends_with(",2,3,0.75,0.8,2"), "{row}");
    }

    #[test]
    fn jsonl_sink_one_object_per_line() {
        let mut reg = EventRegistry::new();
        use ftpm_timeseries::{SymbolId, VariableId};
        let a = reg.intern(VariableId(0), SymbolId(1), || "A=On".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B=On".into());
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf, &reg);
            sink.begin(&[]);
            sink.node(
                vec![a, b],
                2,
                2,
                vec![FrequentPattern {
                    pattern: Pattern::pair(a, TemporalRelation::Contain, b),
                    support: 2,
                    rel_support: 0.5,
                    confidence: 1.0,
                    clipped_occurrences: 1,
                }],
            );
            sink.finish().expect("no io error");
        }
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0],
            "{\"pattern\":\"(A=On Contain B=On)\",\"events\":[0,1],\
             \"length\":2,\"support\":2,\"rel_support\":0.5,\"confidence\":1,\
             \"clipped_occurrences\":1}"
        );
    }

    #[test]
    fn writer_sink_reports_io_error_on_finish() {
        /// Fails after the first write.
        struct Failing(usize);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut reg = EventRegistry::new();
        use ftpm_timeseries::{SymbolId, VariableId};
        let a = reg.intern(VariableId(0), SymbolId(1), || "A=On".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B=On".into());
        let mut sink = CsvSink::new(Failing(1), &reg);
        sink.begin(&[]);
        sink.node(vec![a, b], 1, 2, vec![fp(a.0, b.0, 1)]);
        assert_eq!(sink.written(), 0, "failed row not counted");
        assert!(sink.finish().is_err());
    }
}
