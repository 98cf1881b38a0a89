//! Reproduces the paper's Table VIII (peak memory). Args: `[scale] [max_events]`.
#[global_allocator]
static ALLOC: ftpm_bench::TrackingAllocator = ftpm_bench::TrackingAllocator;

fn main() {
    let opts = ftpm_bench::Opts::from_args(0.015, 3);
    ftpm_bench::experiments::table8(&opts);
}
