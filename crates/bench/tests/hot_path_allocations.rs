//! The mining hot path's heap budget. HTPGM's speed rests on two
//! invariants that no compiler lint can state exactly, so this test
//! counts allocations instead:
//!
//! * every Apriori gate counts the AND of two bitmaps with the fused
//!   kernel, without building the intermediate bitmap: `and_count` and
//!   `count_ones` allocate nothing;
//! * verifying a candidate makes no transient allocation: a full run
//!   stays within a committed allocation budget, and verifying the
//!   candidates transitivity pruning would have skipped costs at most
//!   one allocation per 20 of them.
//!
//! One test per binary: the counting allocator is process-wide, so a
//! second test running alongside would count into this one.

use std::hint::black_box;

use ftpm_bench::TrackingAllocator;
use ftpm_bitmap::Bitmap;
use ftpm_core::{CountingSink, MinePlan, MinerConfig, MiningStats, PruningConfig};
use ftpm_events::SequenceDatabase;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Allocations of one run over the input below with all pruning on, by
/// thread count, as measured when the budget was set. A run may exceed
/// them by at most 2 %.
const BUDGET: [(usize, usize); 2] = [(1, 176_349), (2, 176_379)];

/// At most one allocation per this many extra verified candidates when
/// transitivity pruning is off.
const CANDIDATES_PER_ALLOCATION: usize = 20;

const CALLS: usize = 1_000;

/// Allocations made by `CALLS` calls of `f`.
fn allocations_of(mut f: impl FnMut() -> usize) -> usize {
    let (_, allocs, _) = TrackingAllocator::measure(|| {
        let mut sum = 0usize;
        for _ in 0..CALLS {
            sum = sum.wrapping_add(black_box(f()));
        }
        sum
    });
    allocs
}

/// Allocations and statistics of one counted run.
fn run(db: &SequenceDatabase, cfg: &MinerConfig, threads: usize) -> (usize, MiningStats) {
    let mut sink = CountingSink::default();
    let plan = MinePlan::new(db, cfg).with_threads(threads);
    let ((stats, _), allocs, _) = TrackingAllocator::measure(|| plan.run(&mut sink));
    (allocs, stats)
}

#[test]
fn hot_path_allocations_stay_within_budget() {
    // The kernels, on a universe of three CSA blocks and a tail (the
    // blocked and scalar paths).
    let wide = 64 * 100 + 17;
    let a = Bitmap::from_indices(wide, (0..wide).step_by(3));
    let b = Bitmap::from_indices(wide, (0..wide).step_by(5));

    for (name, allocs) in [
        (
            "Bitmap::and_count",
            allocations_of(|| black_box(&a).and_count(black_box(&b))),
        ),
        (
            "Bitmap::count_ones",
            allocations_of(|| black_box(&a).count_ones()),
        ),
    ] {
        assert_eq!(
            allocs, 0,
            "{CALLS} calls of {name} allocated {allocs} times"
        );
    }

    // Whole runs: nist_like(0.005), sigma = delta = 0.4, up to 3 events.
    let data = ftpm_datagen::nist_like(0.005);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    for (threads, budget) in BUDGET {
        let (allocs, _) = run(&data.seq, &cfg, threads);
        eprintln!("threads {threads}: {allocs} allocations (budget {budget} + 2 %)");
        assert!(
            allocs * 100 <= budget * 102,
            "threads {threads}: {allocs} allocations, more than 2 % above the budget of {budget}"
        );
    }

    // Transitivity pruning off: the extra candidates go through the same
    // verification, which must not allocate per candidate.
    let (all_allocs, all) = run(&data.seq, &cfg, 1);
    let apriori_cfg = cfg.with_pruning(PruningConfig::APRIORI);
    let (apriori_allocs, apriori) = run(&data.seq, &apriori_cfg, 1);
    let verified = |stats: &MiningStats| stats.nodes_verified.iter().sum::<usize>();
    let extra_candidates = verified(&apriori) - verified(&all);
    let extra_allocs = apriori_allocs.saturating_sub(all_allocs);
    eprintln!(
        "transitivity off: {extra_candidates} more verified candidates, \
         {extra_allocs} more allocations"
    );
    assert!(
        extra_candidates >= 100_000,
        "the input must exercise transitivity pruning, not {extra_candidates} candidates"
    );
    assert!(
        extra_allocs * CANDIDATES_PER_ALLOCATION <= extra_candidates,
        "{extra_allocs} allocations for {extra_candidates} extra verified candidates: \
         more than one per {CANDIDATES_PER_ALLOCATION}"
    );
}
