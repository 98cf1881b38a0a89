//! Peak-memory comparison of the pattern output paths (collect vs count
//! vs stream) — the sink-architecture extension of the paper's Table
//! VIII. Args: `[scale] [max_events]`.
#[global_allocator]
static ALLOC: ftpm_bench::TrackingAllocator = ftpm_bench::TrackingAllocator;

fn main() {
    let opts = ftpm_bench::Opts::from_args(0.02, 4);
    ftpm_bench::experiments::sink_memory(&opts);
}
