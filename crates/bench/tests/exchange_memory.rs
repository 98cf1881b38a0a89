//! The candidate exchange's heap budget. A shard proposes candidates by
//! counting them and re-derives only the gate's survivors, so a sharded
//! run must not allocate per proposal; the gate merges the shards'
//! sorted proposal runs without building a map of them. On the long
//! perfbench workload's flags over a smaller input, the 4-shard exchange
//! must stay within 4× the unsharded run's allocations and within
//! [`PEAK_HEAP_BUDGET`], and find the same patterns.
//!
//! One test per binary: the counting allocator is process-wide, so a
//! second test running alongside would count into this one.

use ftpm_bench::TrackingAllocator;
use ftpm_core::{Correlation, CountingSink, MinePlan, MinerConfig, ShardPlanner};
use ftpm_events::{BoundaryPolicy, RelationConfig};
use ftpm_mi::CorrelationGraph;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// 8.5 MiB. The run is single-threaded, so its peak is deterministic:
/// 7,860,071 bytes (and 261,854 allocations against the unsharded run's
/// 75,257, which skips or stops hopeless instance walks by the support
/// bound and reuses one last-level scratch per worker; 77,875 while it
/// only stopped them, 81,699 before) with
/// count-only proposals kept as sorted runs that the gate merges and
/// each shard frees before it re-derives only the verdict's patterns;
/// 7,888,951 bytes (290,813 allocations against 83,130) while
/// the count kept each group's occurrence rows and the re-derivation
/// built every proposal of a surviving combination; and 10,440,796 bytes
/// when each shard held its proposals in a hash map until its next count
/// and the gate summed them into another.
const PEAK_HEAP_BUDGET: usize = 17 << 19;

#[test]
fn exchange_allocations_and_peak_heap_stay_bounded() {
    let data = ftpm_datagen::nist_like(0.02);
    let t_max = 180;
    let cfg = MinerConfig::new(0.1, 0.1).with_max_events(5).with_relation(
        RelationConfig::default()
            .with_boundary(BoundaryPolicy::TrueExtent)
            .with_t_max(t_max),
    );
    let graph = CorrelationGraph::build_with_density(&data.syb, 0.8);
    let plan = ShardPlanner::new(4)
        .plan(&data.syb, data.split, t_max)
        .expect("plan");

    let approx = Correlation::Series(&graph);
    let mut unsharded = CountingSink::default();
    let (_, unsharded_allocs, _) = TrackingAllocator::measure(|| {
        MinePlan::new(&data.seq, &cfg)
            .with_correlation(approx)
            .expect("the graph is built on the same data")
            .run(&mut unsharded)
    });
    let mut exchange = CountingSink::default();
    let (_, exchange_allocs, exchange_peak) = TrackingAllocator::measure(|| {
        MinePlan::new(&plan, &cfg)
            .with_correlation(approx)
            .expect("the graph is built on the same data")
            .run(&mut exchange)
    });

    eprintln!(
        "exchange: {exchange_allocs} allocations (unsharded {unsharded_allocs}), \
         peak heap {exchange_peak} bytes, {} patterns",
        exchange.patterns()
    );
    assert!(unsharded.patterns() > 0, "the input must yield patterns");
    assert_eq!(exchange.patterns(), unsharded.patterns(), "pattern count");
    assert!(
        exchange_allocs <= 4 * unsharded_allocs,
        "the exchange made {exchange_allocs} allocations, more than 4x the unsharded \
         run's {unsharded_allocs}"
    );
    assert!(
        exchange_peak <= PEAK_HEAP_BUDGET,
        "the exchange's peak heap is {exchange_peak} bytes, above {PEAK_HEAP_BUDGET}"
    );
}
