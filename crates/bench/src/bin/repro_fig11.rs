//! Reproduces the paper's Fig 11 (scalability in %sequences, Smart City). Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.015, 3);
    ftpm_bench::experiments::fig1011(&opts, true);
}
