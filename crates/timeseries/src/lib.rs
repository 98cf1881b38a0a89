#![forbid(unsafe_code)]
//! Time series and symbolic representations — the *Data Transformation*
//! phase of the FTPMfTS process (paper Section IV-B, Defs 3.1–3.3).
//!
//! A raw [`TimeSeries`] holds chronologically ordered numeric samples. A
//! [`Symbolizer`] maps each value to a symbol of a finite [`Alphabet`]
//! (e.g. `On`/`Off` for appliance power, or percentile bins such as
//! `VeryCold … VeryHot` for weather variables), producing a
//! [`SymbolicSeries`]. A collection of aligned symbolic series forms the
//! [`SymbolicDatabase`] `D_SYB` (Def 3.3, Table I of the paper), the input
//! to both the temporal-sequence conversion (`ftpm-events`) and the mutual
//! information computations (`ftpm-mi`).

mod alphabet;
mod series;
mod symbolic;
mod symbolizer;

pub use alphabet::{Alphabet, AlphabetError, SymbolId};
pub use series::TimeSeries;
pub use symbolic::{ClockError, SymbolicDatabase, SymbolicSeries, VariableId};
pub use symbolizer::{QuantileError, QuantileSymbolizer, Symbolizer, ThresholdSymbolizer};
