//! Reproduces the paper's Fig 12 (scalability in %attributes, NIST). Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.015, 3);
    ftpm_bench::experiments::fig1213(&opts, false);
}
