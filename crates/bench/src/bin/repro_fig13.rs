//! Reproduces the paper's Fig 13 (scalability in %attributes, Smart City). Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.015, 3);
    ftpm_bench::experiments::fig1213(&opts, true);
}
