//! A-HTPGM: approximate mining using mutual information
//! (paper Section V, Algorithm 2).
//!
//! The approximate miner first builds the correlation graph `G_C` of the
//! symbolic database: an edge connects two series iff their normalized
//! mutual information is at least `μ` in both directions (Def 5.5). Only
//! series inside the correlated set `X_C` produce single events at L1,
//! and only event pairs whose series are connected in `G_C` are verified
//! at L2. Theorem 1 guarantees that every frequent event pair from
//! correlated series has confidence at least `LB(σ, σ_m, n_x, μ)` in
//! `D_SEQ`, so what A-HTPGM prunes is exactly the low-confidence tail
//! (empirically: Fig 8).
//!
//! Since the one-plan refactor, A-HTPGM is not a separate code path but
//! a [`CorrelationFilter`] handed to the shared miners: this module is
//! the *only* place filters can be constructed, and every
//! execution axis — any thread count via
//! [`mine_approximate_graph_with_sink`], sharded candidate exchange via
//! [`crate::ShardPlan::mine_approximate_exchange_into`] — consumes the
//! identical gates, so every composition yields the same pattern set as
//! plain [`mine_approximate`].

use ftpm_events::{EventId, EventRegistry, SequenceDatabase};
use ftpm_mi::CorrelationGraph;
use ftpm_timeseries::{SymbolicDatabase, VariableId};

use crate::config::MinerConfig;
use crate::parallel::mine_parallel_internal;
use crate::result::{MiningResult, MiningStats};
use crate::sink::{CollectSink, PatternSink};

/// Output of an approximate mining run: the mined result plus the
/// correlation structures, so callers can inspect what was pruned.
#[derive(Debug)]
pub struct ApproxOutcome {
    /// The patterns mined on the correlated subset.
    pub result: MiningResult,
    /// The MI threshold actually used.
    pub mu: f64,
    /// The correlation graph (Def 5.5).
    pub graph: CorrelationGraph,
    /// The correlated set `X_C` — variables with at least one edge.
    pub correlated: Vec<VariableId>,
}

/// Wraps a run's result with the correlation structures it was gated by.
fn outcome(result: MiningResult, graph: CorrelationGraph) -> ApproxOutcome {
    let mu = graph.mu();
    let correlated = graph.correlated_variables();
    ApproxOutcome {
        result,
        mu,
        graph,
        correlated,
    }
}

/// The A-HTPGM seam (Alg. 2 lines 7–11): restricts candidate generation
/// to correlated series, identically in every execution path.
///
/// The filter acts at exactly two points of the level-wise walk — L1
/// keeps only events whose series is in the correlated set `X_C`
/// ([`CorrelationFilter::allows_event`]), and L2 keeps only pairs whose
/// series share a correlation-graph edge
/// ([`CorrelationFilter::allows_pair`]). Levels ≥ 3 need no check of
/// their own: they grow from surviving L2 nodes over the filtered L1
/// event list, so the restriction propagates structurally. Every miner
/// (sequential, parallel, reference, exchange) consumes the same filter
/// through these two methods, which is what makes "merged approximate
/// sharded output equals unsharded `mine_approximate`" an identity
/// rather than an approximation.
///
/// Its fields and constructor are private to this module, so no other
/// module can build one: there is exactly one place that decides what
/// "correlated" means, and the exchange coordinator borrows a filter
/// built here.
pub struct CorrelationFilter<'a> {
    /// `allowed[event]` — the event's series is in the correlated set X_C.
    allowed: Vec<bool>,
    /// Edge test between the series of two events.
    edge: Box<dyn Fn(EventId, EventId) -> bool + Sync + 'a>,
}

impl<'a> CorrelationFilter<'a> {
    /// Assembles a filter from its two gates.
    fn new(allowed: Vec<bool>, edge: Box<dyn Fn(EventId, EventId) -> bool + Sync + 'a>) -> Self {
        CorrelationFilter { allowed, edge }
    }

    /// L1 gate: is `e`'s series in the correlated set X_C?
    #[inline]
    pub(crate) fn allows_event(&self, e: EventId) -> bool {
        self.allowed[e.0 as usize]
    }

    /// L2 gate: do the series of `ei` and `ej` share a G_C edge?
    #[inline]
    pub(crate) fn allows_pair(&self, ei: EventId, ej: EventId) -> bool {
        (self.edge)(ei, ej)
    }
}

/// Builds the variable-level A-HTPGM filter: L1 admits events whose
/// series is in `X_C`, L2 admits pairs whose series share a `G_C` edge.
///
/// The single construction site for every variable-level approximate
/// path: the sequential/parallel miners get it from the entry
/// points below, the exchange coordinator borrows one built here so
/// shards never invent their own edge gate, and external callers (the
/// reference oracle via [`crate::mine_reference_filtered`], tests) call
/// this rather than assembling gates of their own. `registry` must come
/// from the conversion of the database `graph` was built on (the shard
/// planner's master registry qualifies — shard databases are remapped
/// onto it before mining).
pub fn correlation_filter<'a>(
    graph: &'a CorrelationGraph,
    registry: &'a EventRegistry,
) -> CorrelationFilter<'a> {
    let mut in_xc = vec![false; graph.n_vertices()];
    for var in graph.correlated_variables() {
        in_xc[var.0 as usize] = true;
    }
    let allowed: Vec<bool> = registry
        .ids()
        .map(|e| in_xc[registry.variable(e).0 as usize])
        .collect();
    CorrelationFilter::new(
        allowed,
        Box::new(move |ei, ej| graph.has_edge(registry.variable(ei), registry.variable(ej))),
    )
}

/// Mines `seq_db` approximately with an explicit MI threshold `μ`
/// (Alg. 2). `syb` must be the symbolic database `seq_db` was converted
/// from — A-HTPGM computes NMI on `D_SYB`, not on `D_SEQ`.
///
/// The result is always a subset of [`crate::mine_exact`]'s patterns; the
/// accuracy/runtime trade-off is controlled by `μ` (Table IX, Fig 9).
pub fn mine_approximate(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
    mu: f64,
    cfg: &MinerConfig,
) -> ApproxOutcome {
    mine_collect(seq_db, CorrelationGraph::build(syb, mu), cfg, 1)
}

/// Mines approximately with `μ` chosen so the correlation graph keeps the
/// given fraction of the complete graph's edges (Def 5.6) — how the paper
/// parameterizes A-HTPGM in the evaluation ("A-HTPGM (80%)" keeps 80% of
/// edges).
pub fn mine_approximate_with_density(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
    density: f64,
    cfg: &MinerConfig,
) -> ApproxOutcome {
    mine_collect(seq_db, CorrelationGraph::build_with_density(syb, density), cfg, 1)
}

/// Multi-threaded [`mine_approximate`]: the same pattern set, supports
/// and confidences, mined by `threads` workers.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn mine_approximate_parallel(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
    mu: f64,
    cfg: &MinerConfig,
    threads: usize,
) -> ApproxOutcome {
    mine_collect(seq_db, CorrelationGraph::build(syb, mu), cfg, threads)
}

/// The unsharded A-HTPGM primitive every entry point above reduces to:
/// mines `seq_db` under a caller-built correlation graph, emitting into
/// `sink` with `threads` workers (one runs on the calling thread). Build
/// the graph once — [`CorrelationGraph::build`] for a μ threshold,
/// [`CorrelationGraph::build_with_density`] for the density
/// parameterization — and reuse it across runs or pass it on to the
/// sharded variants; that is the "one plan" contract.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn mine_approximate_graph_with_sink(
    seq_db: &SequenceDatabase,
    graph: &CorrelationGraph,
    cfg: &MinerConfig,
    threads: usize,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    let filter = correlation_filter(graph, seq_db.registry());
    mine_parallel_internal(seq_db, cfg, threads, Some(&filter), sink, None)
}

/// Collecting driver behind the non-sink entry points.
fn mine_collect(
    seq_db: &SequenceDatabase,
    graph: CorrelationGraph,
    cfg: &MinerConfig,
    threads: usize,
) -> ApproxOutcome {
    let mut sink = CollectSink::new();
    let stats = mine_approximate_graph_with_sink(seq_db, &graph, cfg, threads, &mut sink);
    outcome(sink.into_result(stats), graph)
}

/// Builds a symbolic database of per-event indicator series: one binary
/// series per distinct event of `seq_db`, with `On` at every step where
/// the event's variable carries the event's symbol.
///
/// This lifts the correlation analysis from variables to events, enabling
/// [`mine_approximate_event_level`]. In the returned database, variable
/// `i` corresponds to `EventId(i)` of `seq_db`'s registry.
pub fn event_indicator_database(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
) -> SymbolicDatabase {
    use ftpm_timeseries::{Alphabet, SymbolId, SymbolicSeries};
    let registry = seq_db.registry();
    let mut indicators = SymbolicDatabase::new(syb.start(), syb.step(), syb.n_steps());
    for event in registry.ids() {
        let var = registry.variable(event);
        let sym = registry.symbol(event);
        let series = syb.series(var);
        let symbols: Vec<SymbolId> = series
            .symbols()
            .iter()
            .map(|&s| SymbolId(u16::from(s == sym)))
            .collect();
        indicators.push(SymbolicSeries::new(
            registry.label(event),
            Alphabet::on_off(),
            symbols,
        ));
    }
    indicators
}

/// Event-level A-HTPGM — the extension the paper names as future work
/// (Section VII: "extend HTPGM to perform pruning at the event level").
///
/// Instead of one correlation-graph vertex per *series*, this builds one
/// vertex per *event* (via [`event_indicator_database`]) and requires an
/// edge between the two events of every L2 candidate pair. Finer-grained
/// than variable-level pruning: a variable pair can be correlated through
/// one symbol (say, both `Off`) while another symbol pair of the same
/// variables is independent — event-level pruning can drop the latter
/// without dropping the former.
///
/// Like variable-level A-HTPGM, the result is always a subset of
/// [`crate::mine_exact`].
pub fn mine_approximate_event_level(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
    mu: f64,
    cfg: &MinerConfig,
) -> ApproxOutcome {
    let indicators = event_indicator_database(syb, seq_db);
    let graph = CorrelationGraph::build(&indicators, mu);
    let result = {
        // Event-level variant of `correlation_filter`: the indicator
        // database has one vertex per event, so the mapping is the
        // identity instead of the registry's variable projection.
        let mut allowed = vec![false; seq_db.registry().len()];
        for var in graph.correlated_variables() {
            allowed[var.0 as usize] = true;
        }
        let filter = CorrelationFilter::new(
            allowed,
            Box::new(|ei, ej| graph.has_edge(VariableId(ei.0), VariableId(ej.0))),
        );
        let mut sink = CollectSink::new();
        let stats = mine_parallel_internal(seq_db, cfg, 1, Some(&filter), &mut sink, None);
        sink.into_result(stats)
    };
    outcome(result, graph)
}
