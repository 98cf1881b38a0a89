#![deny(unsafe_code)]
//! A-HTPGM composition gate on the energy demo (beyond the paper;
//! ROADMAP "One mining plan"): with one correlation graph at density
//! 0.8, the parallel and sharded candidate-exchange approximate runs
//! must reproduce the unsharded
//! single-threaded `mine_approximate` pattern set exactly, and the
//! exchange's MI-at-propose gate must generate strictly fewer candidates
//! than the exact exchange it post-hoc-filters to. Exits nonzero when
//! either fails, so CI can gate on it. Args: `[scale] [max_events]`.
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = ftpm_bench::Opts::from_args(0.01, 3);
    if ftpm_bench::experiments::approx_composition(&opts) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "approx composition FAILED: a composed A-HTPGM run diverged from the \
             unsharded baseline or MI at propose time did not prune candidates"
        );
        ExitCode::FAILURE
    }
}
