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
//! A-HTPGM is not a separate code path but a [`CorrelationFilter`]
//! handed to the shared miners: this module is the *only* place filters
//! are constructed, and every [`MinePlan`] — any thread count, unsharded
//! or through the sharded candidate exchange — consumes the identical
//! gates, so every composition yields the same pattern set as plain
//! [`mine_approximate`].

use ftpm_events::{EventId, EventRegistry, SequenceDatabase};
use ftpm_mi::CorrelationGraph;
use ftpm_timeseries::{SymbolicDatabase, VariableId};

use crate::config::MinerConfig;
use crate::plan::{Correlation, MinePlan};
use crate::result::{MiningResult, MiningStats};
use crate::sink::PatternSink;

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

/// Mines `seq_db` on one thread under `graph` and wraps the result with
/// the correlation structures it was gated by.
fn outcome(
    seq_db: &SequenceDatabase,
    graph: CorrelationGraph,
    cfg: &MinerConfig,
) -> Result<ApproxOutcome, GraphMismatch> {
    let (result, _) = MinePlan::new(seq_db, cfg)
        .with_correlation(Correlation::Series(&graph))?
        .collect();
    Ok(ApproxOutcome {
        result,
        mu: graph.mu(),
        correlated: graph.correlated_variables(),
        graph,
    })
}

/// A correlation graph that does not fit the registry a run is
/// expressed in, because it was built on other data. Returned by
/// [`MinePlan::with_correlation`], [`correlation_filter`],
/// [`mine_approximate`] and [`mine_approximate_with_density`] instead of
/// indexing the graph out of bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMismatch {
    /// A series-level graph ([`Correlation::Series`]) lacks a vertex for
    /// some variable of the registry's events.
    Series {
        /// Vertices of the graph.
        vertices: usize,
        /// One more than the largest variable id of the registry's
        /// events: the vertices the gate needs.
        variables: usize,
    },
    /// An event-level graph ([`Correlation::Events`]) does not have one
    /// vertex per event of the registry.
    Events {
        /// Vertices of the graph.
        vertices: usize,
        /// Events of the registry.
        events: usize,
    },
}

impl std::fmt::Display for GraphMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphMismatch::Series {
                vertices,
                variables,
            } => write!(
                f,
                "the correlation graph has {vertices} vertices, but the events span \
                 {variables} variables"
            ),
            GraphMismatch::Events { vertices, events } => write!(
                f,
                "the event-level correlation graph has {vertices} vertices, but there are \
                 {events} events"
            ),
        }
    }
}

impl std::error::Error for GraphMismatch {}

/// Checks that `correlation`'s graph fits `registry`: a series-level
/// graph needs a vertex for every variable of the registry's events, an
/// event-level graph exactly one vertex per event. Every filter this
/// module builds indexes the graph only within those bounds.
pub(crate) fn check_graph(
    correlation: Correlation<'_>,
    registry: &EventRegistry,
) -> Result<(), GraphMismatch> {
    match correlation {
        Correlation::None => Ok(()),
        Correlation::Series(graph) => {
            let vertices = graph.n_vertices();
            let variables = registry
                .ids()
                .map(|e| registry.variable(e).0 as usize + 1)
                .max()
                .unwrap_or(0);
            if variables > vertices {
                return Err(GraphMismatch::Series {
                    vertices,
                    variables,
                });
            }
            Ok(())
        }
        Correlation::Events(graph) => {
            let (vertices, events) = (graph.n_vertices(), registry.len());
            if vertices != events {
                return Err(GraphMismatch::Events { vertices, events });
            }
            Ok(())
        }
    }
}

/// The A-HTPGM seam (Alg. 2 lines 7–11): restricts candidate generation
/// to correlated series, identically in every execution path.
///
/// The filter acts at exactly two points of the level-wise walk — L1
/// keeps only events whose series is in the correlated set `X_C`, and
/// L2 keeps only pairs whose series share a correlation-graph edge.
/// Levels ≥ 3 need no check of their own: they grow from surviving L2
/// nodes over the filtered L1 event list, so the restriction propagates
/// structurally. Every miner
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
    /// The correlation graph `G_C`.
    graph: &'a CorrelationGraph,
    /// `vertex[event]` — the event's vertex in `graph`.
    vertex: Vec<VariableId>,
    /// `allowed[event]` — the event's vertex is in the correlated set X_C.
    allowed: Vec<bool>,
}

impl<'a> CorrelationFilter<'a> {
    /// The filter of `graph` whose events sit at the vertices `vertex`,
    /// one per event: L1 admits events at a vertex in `X_C`, L2 pairs at
    /// two vertices that share an edge.
    fn new(graph: &'a CorrelationGraph, vertex: Vec<VariableId>) -> Self {
        let mut in_xc = vec![false; graph.n_vertices()];
        for var in graph.correlated_variables() {
            in_xc[var.0 as usize] = true;
        }
        let allowed = vertex.iter().map(|v| in_xc[v.0 as usize]).collect();
        CorrelationFilter {
            graph,
            vertex,
            allowed,
        }
    }

    /// L1 gate: is `e`'s series in the correlated set X_C?
    #[inline]
    pub(crate) fn allows_event(&self, e: EventId) -> bool {
        self.allowed[e.0 as usize]
    }

    /// L2 gate: do the series of `ei` and `ej` share a G_C edge?
    #[inline]
    pub(crate) fn allows_pair(&self, ei: EventId, ej: EventId) -> bool {
        let vertex = |e: EventId| self.vertex[e.0 as usize];
        self.graph.has_edge(vertex(ei), vertex(ej))
    }
}

/// Builds the variable-level A-HTPGM filter: L1 admits events whose
/// series is in `X_C`, L2 admits pairs whose series share a `G_C` edge.
///
/// The single construction site for every variable-level approximate
/// path: [`MinePlan`] gets it through `plan_filter`, the exchange
/// coordinator borrows that one so shards never invent their own edge
/// gate, and external callers (the reference oracle via
/// [`crate::mine_reference_filtered`], tests) call this rather than
/// assembling gates of their own. `registry` must come from the
/// conversion of the database `graph` was built on (the shard planner's
/// master registry qualifies: shard databases are converted against it).
///
/// # Errors
///
/// Returns [`GraphMismatch::Series`] when `graph` has no vertex for a
/// variable of `registry`'s events.
pub fn correlation_filter<'a>(
    graph: &'a CorrelationGraph,
    registry: &'a EventRegistry,
) -> Result<CorrelationFilter<'a>, GraphMismatch> {
    check_graph(Correlation::Series(graph), registry)?;
    Ok(series_filter(graph, registry))
}

/// The series-level filter of a graph that [`check_graph`] accepted for
/// `registry`: each event sits at its variable's vertex.
fn series_filter<'a>(
    graph: &'a CorrelationGraph,
    registry: &EventRegistry,
) -> CorrelationFilter<'a> {
    CorrelationFilter::new(
        graph,
        registry.ids().map(|e| registry.variable(e)).collect(),
    )
}

/// The filter a [`MinePlan`]'s correlation arm mines under, for output
/// expressed in `registry`; `None` mines exactly. The plan checked the
/// graph against `registry` when the arm was set.
pub(crate) fn plan_filter<'a>(
    correlation: Correlation<'a>,
    registry: &EventRegistry,
) -> Option<CorrelationFilter<'a>> {
    match correlation {
        Correlation::None => None,
        Correlation::Series(graph) => Some(series_filter(graph, registry)),
        // The indicator database has one vertex per event, so each event
        // sits at its own vertex instead of its variable's.
        Correlation::Events(graph) => Some(CorrelationFilter::new(
            graph,
            registry.ids().map(|e| VariableId(e.0)).collect(),
        )),
    }
}

/// Mines `seq_db` approximately with an explicit MI threshold `μ`
/// (Alg. 2). `syb` must be the symbolic database `seq_db` was converted
/// from — A-HTPGM computes NMI on `D_SYB`, not on `D_SEQ`.
///
/// The result is always a subset of [`crate::mine_exact`]'s patterns; the
/// accuracy/runtime trade-off is controlled by `μ` (Table IX, Fig 9).
/// For more threads, shards or a sink, build the graph once and mine a
/// [`MinePlan`] with [`Correlation::Series`].
///
/// # Errors
///
/// Returns [`GraphMismatch::Series`] when `seq_db`'s events name a
/// variable that `syb` does not have.
pub fn mine_approximate(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
    mu: f64,
    cfg: &MinerConfig,
) -> Result<ApproxOutcome, GraphMismatch> {
    outcome(seq_db, CorrelationGraph::build(syb, mu), cfg)
}

/// Mines approximately with `μ` chosen so the correlation graph keeps the
/// given fraction of the complete graph's edges (Def 5.6) — how the paper
/// parameterizes A-HTPGM in the evaluation ("A-HTPGM (80%)" keeps 80% of
/// edges).
///
/// # Errors
///
/// As [`mine_approximate`].
pub fn mine_approximate_with_density(
    syb: &SymbolicDatabase,
    seq_db: &SequenceDatabase,
    density: f64,
    cfg: &MinerConfig,
) -> Result<ApproxOutcome, GraphMismatch> {
    let graph = CorrelationGraph::build_with_density(syb, density);
    outcome(seq_db, graph, cfg)
}

/// Unsharded A-HTPGM into `sink` with `threads` workers: a
/// [`MinePlan`] with [`Correlation::Series`]. Kept so the benchmark
/// harness builds; ROADMAP item 1 step 3 deletes it once the harness
/// mines through the plan.
///
/// # Panics
///
/// Panics if `threads == 0`, or if `graph` does not fit `seq_db`'s
/// registry (see [`GraphMismatch`]).
pub fn mine_approximate_graph_with_sink(
    seq_db: &SequenceDatabase,
    graph: &CorrelationGraph,
    cfg: &MinerConfig,
    threads: usize,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract of a wrapper kept with its signature"
    )]
    let plan = MinePlan::new(seq_db, cfg)
        .with_correlation(Correlation::Series(graph))
        .expect("the correlation graph fits the database");
    plan.with_threads(threads).run(sink).0
}

/// Builds a symbolic database of per-event indicator series: one binary
/// series per event of `registry`, with `On` at every step where the
/// event's variable carries the event's symbol.
///
/// This lifts the correlation analysis from variables to events: a graph
/// built on the result is the [`Correlation::Events`] arm of a
/// [`MinePlan`]. In the returned database, variable `i` corresponds to
/// `EventId(i)` of `registry`.
pub fn event_indicator_database(
    syb: &SymbolicDatabase,
    registry: &EventRegistry,
) -> SymbolicDatabase {
    use ftpm_timeseries::{Alphabet, SymbolId, SymbolicSeries};
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
