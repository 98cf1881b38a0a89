#![forbid(unsafe_code)]
//! **FTPMfTS** — Frequent Temporal Pattern Mining from Time Series.
//!
//! A Rust implementation of Ho, Ho & Pedersen, *"Efficient Temporal
//! Pattern Mining in Big Time Series Using Mutual Information"*
//! (VLDB 2021). This facade crate re-exports the whole pipeline:
//!
//! | stage | crate | entry points |
//! |-------|-------|--------------|
//! | raw time series → symbols | `ftpm-timeseries` | [`TimeSeries`], [`ThresholdSymbolizer`], [`QuantileSymbolizer`], [`SymbolicDatabase`] |
//! | symbols → event sequences | `ftpm-events` | [`to_sequence_database`], [`SplitConfig`], [`SequenceDatabase`] |
//! | exact mining | `ftpm-core` | [`mine_exact`], [`MinerConfig`] |
//! | one plan per run: threads, shards, correlation gate | `ftpm-core` | [`MinePlan`], [`MineData`], [`Correlation`], [`ShardPlanner`] |
//! | streaming output | `ftpm-core` | [`PatternSink`], [`MinePlan::run`], [`CsvSink`], [`JsonlSink`] |
//! | MI-approximate mining | `ftpm-core` + `ftpm-mi` | [`mine_approximate`], [`mine_approximate_with_density`], [`CorrelationGraph`], [`confidence_lower_bound`], [`LowerBoundError`] |
//! | baselines | `ftpm-baselines` | [`mine_tpminer`], [`mine_ieminer`], [`mine_hdfs`] |
//! | synthetic data | `ftpm-datagen` | [`nist_like`], [`smartcity_like`], … |
//!
//! # End-to-end example
//!
//! ```
//! use ftpm::*;
//!
//! // 1. Raw time series (watts, sampled every 5 minutes).
//! let kitchen = TimeSeries::new("kitchen", 0, 5,
//!     vec![120.0, 130.0, 0.01, 0.0, 110.0, 95.0, 0.0, 0.0]);
//! let toaster = TimeSeries::new("toaster", 0, 5,
//!     vec![0.0, 900.0, 850.0, 0.0, 0.0, 920.0, 875.0, 0.0]);
//!
//! // 2. Symbolize (On iff >= 0.05 W, as in the paper) into D_SYB.
//! let mut syb = SymbolicDatabase::new(0, 5, 8);
//! let sym = ThresholdSymbolizer::new(0.05);
//! syb.add_time_series(&kitchen, &sym);
//! syb.add_time_series(&toaster, &sym);
//!
//! // 3. Split into 20-minute sequences: D_SEQ.
//! let seq_db = to_sequence_database(&syb, SplitConfig::new(20, 0));
//!
//! // 4. Mine with sigma = delta = 0.5.
//! let result = mine_exact(&seq_db, &MinerConfig::new(0.5, 0.5));
//! println!("{}", result.render(seq_db.registry()));
//! assert!(!result.patterns.is_empty());
//! ```

mod csv;

pub use csv::{parse_csv, read_csv};
pub use ftpm_baselines::{mine_hdfs, mine_ieminer, mine_tpminer};
pub use ftpm_bitmap::Bitmap;
pub use ftpm_core::*;
pub use ftpm_datagen::{
    dataport_like, generate_city, generate_energy, nist_like, random_sequence_database,
    smartcity_like, ukdale_like, CityConfig, Dataset, EnergyConfig,
};
pub use ftpm_events::{
    to_sequence_database, BoundaryPolicy, EventId, EventInstance, EventRegistry, Interval,
    InvalidInterval, RelationConfig, SequenceDatabase, ShardSpan, SplitConfig, TemporalRelation,
    TemporalSequence,
};
pub use ftpm_mi::{
    conditional_entropy, confidence_lower_bound, entropy, joint_distribution, mu_for_density,
    mutual_information, normalized_mutual_information, CorrelationGraph, LowerBoundError,
};
pub use ftpm_timeseries::{
    Alphabet, ClockError, QuantileError, QuantileSymbolizer, SymbolId, SymbolicDatabase,
    SymbolicSeries, Symbolizer, ThresholdSymbolizer, TimeSeries, VariableId,
};
