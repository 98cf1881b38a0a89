//! The writer sinks' heap budget per exported row. `CsvSink` and
//! `JsonlSink` render rows from labels escaped once per registry into
//! reused byte buffers, so exporting a pattern must not allocate: on
//! one worker and on two, streaming into `io::sink()` may make at most
//! one allocation per ten rows more than counting the same run.
//!
//! One test per binary: the counting allocator is process-wide, so a
//! second test running alongside would count into this one.

use ftpm_bench::TrackingAllocator;
use ftpm_core::{CountingSink, CsvSink, JsonlSink, MinePlan, MinerConfig, PatternSink};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn writer_sinks_allocate_nothing_per_row() {
    let data = ftpm_datagen::nist_like(0.005);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let registry = data.seq.registry();
    for threads in [1usize, 2] {
        let plan = MinePlan::new(&data.seq, &cfg).with_threads(threads);
        let allocations = |sink: &mut (dyn PatternSink + Send)| {
            let (_, allocs, _) = TrackingAllocator::measure(|| {
                plan.run(sink);
                sink.finish().expect("io::sink never fails");
            });
            allocs
        };
        let mut counting = CountingSink::default();
        let counted = allocations(&mut counting);
        let rows = counting.patterns();
        let mut csv = CsvSink::new(std::io::sink(), registry);
        let csv_allocs = allocations(&mut csv);
        let mut jsonl = JsonlSink::new(std::io::sink(), registry);
        let jsonl_allocs = allocations(&mut jsonl);
        eprintln!(
            "threads {threads}: {rows} rows; allocations: counting {counted}, \
             CSV {csv_allocs}, JSONL {jsonl_allocs}"
        );
        assert!(
            rows >= 10_000,
            "the input must export at least 10,000 rows, not {rows}"
        );
        assert_eq!(csv.written() as usize, rows, "CSV rows");
        assert_eq!(jsonl.written() as usize, rows, "JSONL rows");
        for (name, allocs) in [("CsvSink", csv_allocs), ("JsonlSink", jsonl_allocs)] {
            assert!(
                allocs <= counted + rows / 10,
                "threads {threads}: {name} made {allocs} allocations, more than \
                 counting's {counted} plus one per ten of the {rows} rows"
            );
        }
    }
}
