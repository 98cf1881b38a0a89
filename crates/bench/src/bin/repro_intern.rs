#![deny(unsafe_code)]
//! Pattern-pool intern speedup gate (beyond the paper; ROADMAP
//! "hash-consed pattern pool"): the id-keyed pooled merge accumulator
//! must beat the retired pattern-keyed design by >= 1.3x on accumulation
//! wall time, or cut its allocation count >= 5x (the stable arm on a
//! noisy one-core container), with the end-to-end exchange wall clock of
//! the nist demo reported alongside. Exits nonzero when the
//! gate fails, so CI can gate on it. Args: `[scale] [max_events]`.
use std::process::ExitCode;

// The allocation arm of the gate counts real allocator hits.
#[global_allocator]
static ALLOC: ftpm_bench::TrackingAllocator = ftpm_bench::TrackingAllocator;

fn main() -> ExitCode {
    let opts = ftpm_bench::Opts::from_args(0.01, 3);
    if ftpm_bench::experiments::intern_speedup(&opts) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "intern speedup FAILED: the pooled accumulator reached neither \
             1.3x wall-time nor 5x allocation improvement over the \
             pattern-keyed reference"
        );
        ExitCode::FAILURE
    }
}
