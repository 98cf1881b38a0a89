//! Reproduces the paper's table5. Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.02, 3);
    ftpm_bench::experiments::table5(&opts);
}
