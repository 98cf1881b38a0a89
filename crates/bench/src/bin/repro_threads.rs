//! Threads-scaling run of parallel E-HTPGM (the CLI's `--threads` path).
//! Args: `[scale] [max_events]`.
fn main() {
    let opts = ftpm_bench::Opts::from_args(0.02, 4);
    ftpm_bench::experiments::threads_scaling(&opts);
}
