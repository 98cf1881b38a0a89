//! Reproduces the paper's Fig 10 (scalability in %sequences, NIST). Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.015, 3);
    ftpm_bench::experiments::fig1011(&opts, false);
}
