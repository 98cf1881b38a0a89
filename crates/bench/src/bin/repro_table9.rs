//! Reproduces the paper's table9. Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.02, 3);
    ftpm_bench::experiments::table9(&opts);
}
