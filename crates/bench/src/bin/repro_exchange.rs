#![deny(unsafe_code)]
//! Candidate-exchange pruning gate on the energy demo (beyond the paper;
//! ROADMAP "Sharding/scale"): for K ∈ {2, 4} time-range shards, the
//! two-phase exchange executor must reproduce the unsharded baseline
//! exactly *and* its global gate must prune candidates at every K —
//! pruning without losing exactness. Exits nonzero when either fails, so
//! CI can gate on it.
//! Args: `[scale] [max_events]`.
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ftpm_bench::Opts::from_args(0.01, 3);
    if ftpm_bench::experiments::exchange_pruning(&opts) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "exchange pruning FAILED: the exchange executor diverged from the \
             unsharded baseline or its gate pruned no candidates"
        );
        ExitCode::FAILURE
    }
}
