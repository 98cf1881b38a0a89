#![forbid(unsafe_code)]
//! HTPGM — Hierarchical Temporal Pattern Graph Mining.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`MinerConfig`] / [`PruningConfig`] — thresholds `σ`, `δ`, the
//!   relation model, and the pruning ablation switches of Section VI-C2;
//! * [`Pattern`] — temporal patterns (Def 3.11): `k` events plus a
//!   relation for every event pair;
//! * [`mine_exact`] (E-HTPGM, Section IV, Alg. 1) — level-wise mining on
//!   the Hierarchical Pattern Graph with bitmap support counting,
//!   Apriori pruning (Lemmas 2–3) and transitivity pruning (Lemmas 4–7);
//! * [`mine_approximate`] (A-HTPGM, Section V, Alg. 2) — prunes
//!   uncorrelated time series via the mutual-information correlation
//!   graph before running HTPGM. The graph is a [`CorrelationFilter`]
//!   handed to the shared miners, so A-HTPGM composes with every
//!   execution axis, each yielding the identical pattern set;
//! * [`MinePlan`] — one value per run: the data (a sequence database or
//!   a [`ShardPlan`]), the [`Correlation`] gate (none, series-level, or
//!   the event-level filter of Section VII), the config and the thread
//!   count. [`MinePlan::run`] streams into any [`PatternSink`] and is the
//!   only place an engine is picked; [`MinePlan::collect`] gathers a
//!   [`MiningResult`];
//! * [`mine_reference`] — a brute-force miner used as a correctness
//!   oracle in tests and to study the patterns A-HTPGM prunes (Fig 8);
//! * [`PatternSink`] and friends ([`CollectSink`], [`CountingSink`],
//!   [`CsvSink`], [`JsonlSink`]) — streaming output: a plan emits each
//!   finished pattern-graph node into a sink instead of materializing a
//!   result `Vec`. One engine runs every unsharded plan: [`mine_exact`]
//!   is that engine at one thread;
//! * [`ShardPlanner`] / [`ShardPlan`] — shard-by-time-range mining: K
//!   overlapping time-range slices (`t_ov = t_max`, the Fig 3 lemma one
//!   level up) mined concurrently by the two-phase candidate-exchange
//!   executor. Shards propose level-`k` candidates with owned supports, a
//!   coordinator applies the *global* σ/δ apriori gate between levels, and
//!   the owned statistics merge losslessly ([`ShardReport`] exposes
//!   per-shard candidate and timing observability).
//!
//! # Quickstart
//!
//! ```
//! use ftpm_timeseries::{SymbolicDatabase, TimeSeries, ThresholdSymbolizer};
//! use ftpm_events::{to_sequence_database, SplitConfig};
//! use ftpm_core::{mine_exact, MinerConfig};
//!
//! // Two appliances sampled every 5 ticks.
//! let kitchen = TimeSeries::new("K", 0, 5, vec![1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
//! let toaster = TimeSeries::new("T", 0, 5, vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]);
//! let mut syb = SymbolicDatabase::new(0, 5, 8);
//! let symbolizer = ThresholdSymbolizer::new(0.5);
//! syb.add_time_series(&kitchen, &symbolizer);
//! syb.add_time_series(&toaster, &symbolizer);
//!
//! let seq_db = to_sequence_database(&syb, SplitConfig::new(20, 0));
//! let result = mine_exact(&seq_db, &MinerConfig::new(0.5, 0.5));
//! assert!(!result.patterns.is_empty());
//! ```

mod approx;
mod candidates;
mod config;
mod exact;
mod executor;
mod hpg;
mod index;
mod merge;
mod occ;
mod parallel;
mod pattern;
mod plan;
mod pool;
mod postprocess;
mod reference;
mod result;
mod schedule;
mod shard;
mod sink;

pub use approx::{
    correlation_filter, event_indicator_database, mine_approximate,
    mine_approximate_graph_with_sink, mine_approximate_with_density, ApproxOutcome,
    CorrelationFilter, GraphMismatch,
};
pub use config::{MinerConfig, PruningConfig, MAX_EVENTS_HARD_CAP};
pub use exact::{mine_exact, mine_exact_with_sink};
pub use parallel::mine_exact_parallel_with_sink;
pub use plan::{Correlation, MineData, MinePlan};
pub use postprocess::{
    closed_patterns, maximal_patterns, pattern_lift, rank_patterns, top_k_by_lift, PatternSort,
};
pub use hpg::{HierarchicalPatternGraph, Level, Node};
pub use index::DatabaseIndex;
pub use pattern::Pattern;
pub use pool::{DeltaKey, EventsRev, PatternId, PatternPool};
pub use reference::{mine_reference, mine_reference_filtered};
pub use result::{FrequentPattern, MiningResult, MiningStats};
pub use schedule::{ExploreStats, Explorer, Schedule};
pub use executor::ShardReport;
pub use shard::{Shard, ShardPlan, ShardPlanner};
pub use sink::{CollectSink, CountingSink, CsvSink, JsonlSink, PatternSink, RowEncoder};
