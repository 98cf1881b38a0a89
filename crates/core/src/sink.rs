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
//! The writer sinks render rows with a [`RowEncoder`], built once per
//! registry: every event label is escaped once, and a row is assembled
//! by byte appends, with no allocation per row. A sink offers its
//! encoder through [`PatternSink::encoder`]; the threaded engine's
//! workers then render finished nodes into their own buffers and take
//! the sink lock only to hand over the bytes
//! ([`PatternSink::append_rows`]). Sinks without an encoder (collecting,
//! counting, or wrapping another sink) receive every node through
//! [`PatternSink::node`].
//!
//! Writer sinks record the first I/O error internally and go quiet; the
//! error is surfaced by [`PatternSink::finish`], so the mining hot path
//! stays infallible.
//!
//! # Example
//!
//! ```
//! use ftpm_core::{CountingSink, MinePlan, MinerConfig};
//! use ftpm_datagen::random_sequence_database;
//!
//! let db = random_sequence_database(7, 6, 3, 2, 40);
//! let cfg = MinerConfig::new(0.3, 0.3);
//! let mut sink = CountingSink::default();
//! let (stats, _) = MinePlan::new(&db, &cfg).run(&mut sink);
//! assert_eq!(sink.patterns(), stats.patterns_found.iter().sum::<usize>());
//! ```

use std::io::{self, Write};
use std::marker::PhantomData;
use std::sync::Arc;

use ftpm_events::{EventId, EventRegistry, TemporalRelation};

use crate::hpg::{HierarchicalPatternGraph, Level, Node};
use crate::pattern::Pattern;
use crate::result::{FrequentPattern, MiningResult, MiningStats};

/// Receives the output of a mining run incrementally, one Hierarchical
/// Pattern Graph node at a time.
///
/// The miner calls [`begin`](PatternSink::begin) once, then
/// [`node`](PatternSink::node) for every archived pattern-bearing node
/// (in discovery order at one thread; interleaved across workers with
/// more), and the driver calls
/// [`finish`](PatternSink::finish) at the end. A sink that offers an
/// [`encoder`](PatternSink::encoder) may receive rendered rows through
/// [`append_rows`](PatternSink::append_rows) in place of `node` calls.
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

    /// The encoder of this sink's rows, if its output is nothing but
    /// [`RowEncoder`] rows in arrival order. A producer that gets one may
    /// render nodes itself and hand over finished bytes through
    /// [`append_rows`](PatternSink::append_rows) instead of calling
    /// [`node`](PatternSink::node): the threaded engine's workers render
    /// off the sink lock this way. Offer one only when appending a
    /// node's rendered rows is exactly what `node` would do, as
    /// [`CsvSink`] and [`JsonlSink`] do. The default, `None`, keeps every
    /// node on `node`; a sink that wraps another and observes its nodes
    /// should not forward the inner encoder.
    fn encoder(&self) -> Option<RowEncoder> {
        None
    }

    /// Appends `bytes`, `rows` whole rows rendered by this sink's
    /// [`encoder`](PatternSink::encoder), through the sink's latched-error
    /// logic; returns whether the sink still accepts rows (false once an
    /// I/O error is latched, so the producer can stop rendering). A sink
    /// without an encoder accepts no bytes: the default drops them and
    /// returns false.
    fn append_rows(&mut self, bytes: &[u8], rows: u64) -> bool {
        let _ = (bytes, rows);
        false
    }

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

/// The CSV header line [`CsvSink`] writes first.
const CSV_HEADER: &[u8] = b"pattern,length,support,rel_support,confidence,clipped_occurrences\n";

/// The row layout a [`RowEncoder`] renders.
#[derive(Debug, Clone, Copy)]
enum RowFormat {
    Csv,
    Jsonl,
}

/// Every event label of one registry, escaped for one format, back to
/// back in one buffer (the symbol-table layout: a label is addressed by
/// its [`EventId`]).
#[derive(Debug)]
struct EscapedLabels {
    bytes: Vec<u8>,
    /// Event `e`'s label is `bytes[starts[e]..starts[e + 1]]`.
    starts: Vec<usize>,
}

/// Renders pattern rows as the bytes [`CsvSink`] or [`JsonlSink`]
/// writes, by appends to a `Vec<u8>`.
///
/// Every event label is escaped once, when the encoder is built;
/// relation names and punctuation are static, integers go through a
/// stack digit buffer, and `rel_support` and `confidence` keep `f64`'s
/// `Display` (the shortest digits that round-trip). Rendering a row
/// therefore allocates nothing beyond the output buffer's growth.
/// Escaping is per character and no punctuation needs it, so escaping
/// each label alone gives the bytes of escaping the whole rendered
/// pattern.
///
/// A producer gets the encoder from a writer sink
/// ([`PatternSink::encoder`]) and renders with
/// [`encode_node`](RowEncoder::encode_node). Clones share the labels: a
/// clone costs one reference count, and the encoder is `Send + Sync`, so
/// every worker of a threaded run renders with its own clone.
#[derive(Debug, Clone)]
pub struct RowEncoder {
    format: RowFormat,
    labels: Arc<EscapedLabels>,
}

impl RowEncoder {
    /// The encoder of [`CsvSink`]'s rows: the pattern text is one field,
    /// always quoted, with `"` doubled (RFC 4180).
    pub(crate) fn csv(registry: &EventRegistry) -> Self {
        RowEncoder::new(RowFormat::Csv, registry)
    }

    /// The encoder of [`JsonlSink`]'s lines: the pattern text is a JSON
    /// string, with `"`, `\`, `\n`, `\r` and `\t` escaped by a backslash
    /// and the other characters below U+0020 as `\u00XX`.
    pub(crate) fn jsonl(registry: &EventRegistry) -> Self {
        RowEncoder::new(RowFormat::Jsonl, registry)
    }

    fn new(format: RowFormat, registry: &EventRegistry) -> Self {
        let mut bytes = Vec::new();
        let mut starts = Vec::with_capacity(registry.len() + 1);
        starts.push(0);
        for id in registry.ids() {
            // Every character either format escapes is ASCII, and no
            // byte of a multi-byte UTF-8 character is, so escaping byte
            // by byte is escaping character by character.
            for &b in registry.label(id).as_bytes() {
                match (format, b) {
                    (RowFormat::Csv, b'"') => bytes.extend_from_slice(b"\"\""),
                    (RowFormat::Jsonl, b'"') => bytes.extend_from_slice(b"\\\""),
                    (RowFormat::Jsonl, b'\\') => bytes.extend_from_slice(b"\\\\"),
                    (RowFormat::Jsonl, b'\n') => bytes.extend_from_slice(b"\\n"),
                    (RowFormat::Jsonl, b'\r') => bytes.extend_from_slice(b"\\r"),
                    (RowFormat::Jsonl, b'\t') => bytes.extend_from_slice(b"\\t"),
                    (RowFormat::Jsonl, b) if b < 0x20 => {
                        const HEX: &[u8; 16] = b"0123456789abcdef";
                        bytes.extend_from_slice(b"\\u00");
                        bytes.push(HEX[usize::from(b >> 4)]);
                        bytes.push(HEX[usize::from(b & 0xf)]);
                    }
                    (_, b) => bytes.push(b),
                }
            }
            starts.push(bytes.len());
        }
        RowEncoder {
            format,
            labels: Arc::new(EscapedLabels { bytes, starts }),
        }
    }

    /// Appends one row per pattern of a node with `k` events to `out`.
    /// The rows of a node are contiguous; [`CsvSink`] and [`JsonlSink`]
    /// write exactly these bytes for the node.
    ///
    /// # Panics
    ///
    /// Panics if a pattern names an event outside the registry the
    /// encoder was built from.
    pub fn encode_node(&self, k: usize, patterns: &[FrequentPattern], out: &mut Vec<u8>) {
        for fp in patterns {
            match self.format {
                RowFormat::Csv => {
                    out.push(b'"');
                    self.push_pattern(&fp.pattern, out);
                    out.extend_from_slice(b"\",");
                    push_usize(out, k);
                    out.push(b',');
                    push_usize(out, fp.support);
                    out.push(b',');
                    push_f64(out, fp.rel_support);
                    out.push(b',');
                    push_f64(out, fp.confidence);
                    out.push(b',');
                    push_usize(out, fp.clipped_occurrences);
                    out.push(b'\n');
                }
                RowFormat::Jsonl => {
                    out.extend_from_slice(b"{\"pattern\":\"");
                    self.push_pattern(&fp.pattern, out);
                    out.extend_from_slice(b"\",\"events\":[");
                    for (i, e) in fp.pattern.events().iter().enumerate() {
                        if i > 0 {
                            out.push(b',');
                        }
                        push_usize(out, e.0 as usize);
                    }
                    out.extend_from_slice(b"],\"length\":");
                    push_usize(out, k);
                    out.extend_from_slice(b",\"support\":");
                    push_usize(out, fp.support);
                    out.extend_from_slice(b",\"rel_support\":");
                    push_f64(out, fp.rel_support);
                    out.extend_from_slice(b",\"confidence\":");
                    push_f64(out, fp.confidence);
                    out.extend_from_slice(b",\"clipped_occurrences\":");
                    push_usize(out, fp.clipped_occurrences);
                    out.extend_from_slice(b"}\n");
                }
            }
        }
    }

    /// Appends the pattern's text in the paper's triple notation (the
    /// bytes of [`Pattern::display`], labels escaped).
    fn push_pattern(&self, pattern: &Pattern, out: &mut Vec<u8>) {
        let events = pattern.events();
        for (n, (i, j, r)) in pattern.triples().enumerate() {
            out.extend_from_slice(if n == 0 { b"(" } else { b", (" });
            out.extend_from_slice(self.label(events[i]));
            out.push(b' ');
            out.extend_from_slice(relation_name(r));
            out.push(b' ');
            out.extend_from_slice(self.label(events[j]));
            out.push(b')');
        }
    }

    fn label(&self, id: EventId) -> &[u8] {
        let e = id.0 as usize;
        &self.labels.bytes[self.labels.starts[e]..self.labels.starts[e + 1]]
    }
}

/// The relation's `Display` name, as bytes.
fn relation_name(r: TemporalRelation) -> &'static [u8] {
    match r {
        TemporalRelation::Follow => b"Follow",
        TemporalRelation::Contain => b"Contain",
        TemporalRelation::Overlap => b"Overlap",
    }
}

/// Appends `v` in decimal.
fn push_usize(out: &mut Vec<u8>, mut v: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `x` in `f64`'s `Display` form.
fn push_f64(out: &mut Vec<u8>, x: f64) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "io::Write to Vec<u8> is infallible"
    )]
    let _ = write!(out, "{x}");
}

/// What [`CsvSink`] and [`JsonlSink`] share: a writer, the encoder of
/// their rows, a reused row buffer, the row count and the first I/O
/// error, latched until [`PatternSink::finish`].
struct RowWriter<W: Write> {
    out: W,
    encoder: RowEncoder,
    buf: Vec<u8>,
    written: u64,
    err: Option<io::Error>,
}

impl<W: Write> RowWriter<W> {
    fn new(out: W, encoder: RowEncoder) -> Self {
        RowWriter {
            out,
            encoder,
            buf: Vec::new(),
            written: 0,
            err: None,
        }
    }

    /// Writes `bytes`, which hold `rows` rows, unless an error is
    /// latched; latches a new one. Returns whether the writer still
    /// accepts rows.
    fn append(&mut self, bytes: &[u8], rows: u64) -> bool {
        if self.err.is_some() {
            return false;
        }
        match self.out.write_all(bytes) {
            Ok(()) => {
                self.written += rows;
                true
            }
            Err(e) => {
                self.err = Some(e);
                false
            }
        }
    }

    fn node(&mut self, k: usize, patterns: &[FrequentPattern]) {
        if self.err.is_some() {
            return;
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        self.encoder.encode_node(k, patterns, &mut buf);
        self.append(&buf, patterns.len() as u64);
        self.buf = buf;
    }

    fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Streams patterns as CSV rows
/// (`pattern,length,support,rel_support,confidence,clipped_occurrences`),
/// one row per pattern, header first. Pattern text uses the paper's
/// triple notation rendered through the event registry;
/// `clipped_occurrences` counts the pattern's bound occurrences that
/// touch a window-boundary-clipped instance (see
/// [`FrequentPattern::clipped_occurrences`]). Rows are rendered by the
/// sink's CSV [`RowEncoder`], which it offers to the threaded engine's
/// workers.
pub struct CsvSink<'r, W: Write> {
    rows: RowWriter<W>,
    /// The registry the labels were escaped from, borrowed in name only:
    /// the encoder holds its own copy.
    registry: PhantomData<&'r EventRegistry>,
}

impl<'r, W: Write> CsvSink<'r, W> {
    /// Wraps a writer; `registry` renders event labels.
    pub fn new(out: W, registry: &'r EventRegistry) -> Self {
        CsvSink {
            rows: RowWriter::new(out, RowEncoder::csv(registry)),
            registry: PhantomData,
        }
    }

    /// Number of pattern rows written so far (excludes the header).
    pub fn written(&self) -> u64 {
        self.rows.written
    }
}

impl<W: Write> PatternSink for CsvSink<'_, W> {
    fn begin(&mut self, _frequent_events: &[(EventId, usize)]) {
        self.rows.append(CSV_HEADER, 0);
    }

    fn node(
        &mut self,
        _events: Vec<EventId>,
        _support: usize,
        k: usize,
        patterns: Vec<FrequentPattern>,
    ) {
        self.rows.node(k, &patterns);
    }

    fn encoder(&self) -> Option<RowEncoder> {
        Some(self.rows.encoder.clone())
    }

    fn append_rows(&mut self, bytes: &[u8], rows: u64) -> bool {
        self.rows.append(bytes, rows)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.rows.finish()
    }
}

/// Streams patterns as JSON Lines: one object per pattern with fields
/// `pattern` (rendered triple notation), `events` (raw event ids),
/// `length`, `support`, `rel_support`, `confidence`, and
/// `clipped_occurrences` (occurrences touching a window-boundary-clipped
/// instance, see [`FrequentPattern::clipped_occurrences`]). Lines are
/// rendered by the sink's JSONL [`RowEncoder`], which it offers to the
/// threaded engine's workers.
pub struct JsonlSink<'r, W: Write> {
    rows: RowWriter<W>,
    /// As in [`CsvSink`].
    registry: PhantomData<&'r EventRegistry>,
}

impl<'r, W: Write> JsonlSink<'r, W> {
    /// Wraps a writer; `registry` renders event labels.
    pub fn new(out: W, registry: &'r EventRegistry) -> Self {
        JsonlSink {
            rows: RowWriter::new(out, RowEncoder::jsonl(registry)),
            registry: PhantomData,
        }
    }

    /// Number of pattern lines written so far.
    pub fn written(&self) -> u64 {
        self.rows.written
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
        self.rows.node(k, &patterns);
    }

    fn encoder(&self) -> Option<RowEncoder> {
        Some(self.rows.encoder.clone())
    }

    fn append_rows(&mut self, bytes: &[u8], rows: u64) -> bool {
        self.rows.append(bytes, rows)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.rows.finish()
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

    /// A three-event node over labels that need escaping in one format
    /// or the other: a quote and a backslash, three whitespace controls,
    /// other control characters, a comma and non-ASCII text. Ten filler
    /// events first, so the ids take two digits.
    fn escaping_node() -> (EventRegistry, Vec<EventId>, Vec<FrequentPattern>) {
        use ftpm_timeseries::{SymbolId, VariableId};
        use TemporalRelation::{Contain, Follow, Overlap};
        let mut reg = EventRegistry::new();
        for v in 0..10 {
            reg.intern(VariableId(v), SymbolId(0), || format!("filler{v}"));
        }
        let a = reg.intern(VariableId(10), SymbolId(1), || "a\"q\\s".into());
        let b = reg.intern(VariableId(11), SymbolId(1), || "n\nr\rt\t".into());
        let c = reg.intern(VariableId(12), SymbolId(1), || {
            "\u{1}\u{1f}\u{7f},é日本".into()
        });
        let events = vec![a, b, c];
        let row = |relations, support, rel_support, confidence, clipped| FrequentPattern {
            pattern: Pattern::new(events.clone(), relations),
            support,
            rel_support,
            confidence,
            clipped_occurrences: clipped,
        };
        let big = 12_345_678_901;
        let patterns = vec![
            row(vec![Follow, Contain, Overlap], big, 1.0 / 3.0, 1.0, 0),
            row(vec![Overlap, Follow, Follow], 7, 0.1 + 0.2, 0.75, 42),
        ];
        (reg, events, patterns)
    }

    #[test]
    fn relation_names_are_their_display() {
        for r in TemporalRelation::ALL {
            assert_eq!(relation_name(r), r.to_string().as_bytes());
        }
    }

    #[test]
    fn csv_rows_escape_every_label_character() {
        let (reg, events, patterns) = escaping_node();
        let mut buf = Vec::new();
        let mut sink = CsvSink::new(&mut buf, &reg);
        sink.begin(&[]);
        sink.node(events, 7, 3, patterns);
        sink.finish().expect("vec write");
        drop(sink);
        let (a, b, c) = ("a\"\"q\\s", "n\nr\rt\t", "\u{1}\u{1f}\u{7f},é日本");
        let expected = format!(
            "pattern,length,support,rel_support,confidence,clipped_occurrences\n\
             \"({a} Follow {b}), ({a} Contain {c}), ({b} Overlap {c})\",\
             3,12345678901,0.3333333333333333,1,0\n\
             \"({a} Overlap {b}), ({a} Follow {c}), ({b} Follow {c})\",\
             3,7,0.30000000000000004,0.75,42\n"
        );
        assert_eq!(String::from_utf8(buf).expect("utf8"), expected);
    }

    #[test]
    fn jsonl_rows_escape_every_label_character() {
        let (reg, events, patterns) = escaping_node();
        let mut buf = Vec::new();
        let mut sink = JsonlSink::new(&mut buf, &reg);
        sink.begin(&[]);
        sink.node(events, 7, 3, patterns);
        sink.finish().expect("vec write");
        drop(sink);
        let (a, b, c) = ("a\\\"q\\\\s", "n\\nr\\rt\\t", "\\u0001\\u001f\u{7f},é日本");
        let expected = format!(
            "{{\"pattern\":\"({a} Follow {b}), ({a} Contain {c}), ({b} Overlap {c})\",\
             \"events\":[10,11,12],\"length\":3,\"support\":12345678901,\
             \"rel_support\":0.3333333333333333,\"confidence\":1,\"clipped_occurrences\":0}}\n\
             {{\"pattern\":\"({a} Overlap {b}), ({a} Follow {c}), ({b} Follow {c})\",\
             \"events\":[10,11,12],\"length\":3,\"support\":7,\
             \"rel_support\":0.30000000000000004,\"confidence\":0.75,\
             \"clipped_occurrences\":42}}\n"
        );
        assert_eq!(String::from_utf8(buf).expect("utf8"), expected);
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
