#![deny(unsafe_code)]
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (Section VI), plus threads scaling and output-path peak
//! memory.
//!
//! Each experiment has a `repro_*` binary that prints paper-style rows
//! and writes `results/<name>.csv`. Correctness is asserted by the test
//! suites (`cargo test`), and the speed of `ftpm mine` is measured by
//! `perfbench/`; this crate only reproduces the paper's numbers.

// The allocation-tracking harness implements `GlobalAlloc`, which is
// inherently unsafe; it is the single unsafe-permitted module in the
// workspace (rule R4 of ftpm-analyzer).
#[allow(unsafe_code)]
mod alloc_track;
pub mod experiments;
mod util;

pub use alloc_track::TrackingAllocator;
pub use util::Opts;
