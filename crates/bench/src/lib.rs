//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (Section VI), plus threads scaling and output-path peak
//! memory.
//!
//! Each experiment has a `repro_*` binary that prints paper-style rows
//! and writes `results/<name>.csv`. Correctness is asserted by the test
//! suites (`cargo test`), and the speed of `ftpm mine` is measured by
//! `perfbench/`; this crate only reproduces the paper's numbers.

// The workspace denies `unsafe` (every other crate root forbids it), and
// `clippy.toml` confines atomics to the miner's worker pools. The
// allocation-tracking harness is the one exception to both.
#[expect(
    unsafe_code,
    reason = "the allocation-tracking harness implements `GlobalAlloc`, which is inherently unsafe"
)]
#[expect(
    clippy::disallowed_types,
    reason = "the counting allocator runs on every thread that allocates, so it counts with atomics"
)]
mod alloc_track;
pub mod experiments;
mod util;

pub use alloc_track::TrackingAllocator;
pub use util::Opts;
