//! Reproduces the paper's Fig 6 (pruning ablation, NIST). Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.02, 3);
    ftpm_bench::experiments::fig67(&opts, false);
}
