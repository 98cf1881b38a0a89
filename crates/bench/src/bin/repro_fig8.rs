//! Reproduces the paper's fig8. Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.02, 3);
    ftpm_bench::experiments::fig8(&opts);
}
