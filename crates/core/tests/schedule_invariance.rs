//! Schedule invariance: the parallel miners' output must not depend on
//! the worker interleaving. An ordinary test run only ever sees the few
//! schedules the OS happens to produce; the [`ftpm_core::Schedule`]
//! harness instead *drives* the interleaving — each seed serializes the
//! pools at task-claim granularity under a seeded sequencer — so this
//! test sweeps ≥ 50 distinct interleavings at 2 and 4 simulated workers
//! and asserts the merged output of both an unsharded `MinePlan` and a
//! sharded one (the candidate-exchange executor) equals the
//! single-threaded baseline on every one of them. Any failure names the
//! seed that reproduces it.

mod common;

use std::collections::HashSet;

use common::{assert_equivalent, labelled, random_syb};
use ftpm_core::{mine_exact, Explorer, MinePlan, MinerConfig, Schedule, ShardPlanner};
use ftpm_events::{to_sequence_database, BoundaryPolicy, RelationConfig, SplitConfig};

fn cfg() -> MinerConfig {
    MinerConfig::new(0.3, 0.4)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, 60).with_boundary(BoundaryPolicy::TrueExtent))
}

/// Seeds per worker count; 2 counts × 25 seeds = 50 interleavings per
/// miner, with the distinct-trace assertion proving they really differ.
const SEEDS_PER_WIDTH: u64 = 25;
const WIDTHS: [usize; 2] = [2, 4];

#[test]
fn parallel_miner_output_is_schedule_invariant() {
    let syb = random_syb(42, 6, 240, 5, 7);
    let split = SplitConfig::new(100, 0);
    let seq = to_sequence_database(&syb, split);
    let cfg = cfg();
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
    assert!(!base.is_empty(), "baseline must find patterns to compare");

    let mut traces: HashSet<Vec<usize>> = HashSet::new();
    for workers in WIDTHS {
        for seed in 0..SEEDS_PER_WIDTH {
            let sched = Schedule::new(seed, workers);
            let (run, _) = sched.collect(&MinePlan::new(&seq, &cfg));
            assert_equivalent(
                &base,
                &labelled(&run, seq.registry()),
                &format!("parallel seed={seed} workers={workers}"),
            );
            let trace = sched.trace();
            assert!(
                !trace.is_empty(),
                "seed={seed} workers={workers}: claims must go through the sequencer"
            );
            traces.insert(trace);
        }
    }
    assert!(
        traces.len() >= 50,
        "expected >= 50 distinct interleavings, got {}",
        traces.len()
    );
}

#[test]
fn exchange_executor_output_is_schedule_invariant() {
    let syb = random_syb(7, 6, 240, 5, 7);
    let split = SplitConfig::new(100, 0);
    let seq = to_sequence_database(&syb, split);
    let cfg = cfg();
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
    assert!(!base.is_empty(), "baseline must find patterns to compare");

    // One plan, many schedules: the exchange rounds re-run under each
    // seeded interleaving of the shard workers.
    let plan = ShardPlanner::new(3)
        .plan(&syb, split, cfg.relation.t_max)
        .expect("valid shard geometry");

    let mut traces: HashSet<Vec<usize>> = HashSet::new();
    for workers in WIDTHS {
        for seed in 0..SEEDS_PER_WIDTH {
            let sched = Schedule::new(seed, workers);
            let (run, reports) = sched.collect(&MinePlan::new(&plan, &cfg));
            assert_equivalent(
                &base,
                &labelled(&run, plan.registry()),
                &format!("exchange seed={seed} workers={workers}"),
            );
            assert_eq!(
                reports.iter().map(|r| r.windows_owned).sum::<usize>(),
                seq.len(),
                "seed={seed} workers={workers}: ownership must tile the windows"
            );
            let trace = sched.trace();
            assert!(
                !trace.is_empty(),
                "seed={seed} workers={workers}: claims must go through the sequencer"
            );
            traces.insert(trace);
        }
    }
    assert!(
        traces.len() >= 50,
        "expected >= 50 distinct interleavings, got {}",
        traces.len()
    );
}

/// K=2 is small enough to visit *every* interleaving: the explorer's
/// DFS must exhaust the space (not hit its schedule cap) with the output
/// bit-identical to the single-threaded baseline on every trace.
#[test]
fn explorer_exhausts_two_worker_parallel_interleavings() {
    let syb = random_syb(42, 2, 60, 5, 5);
    let seq = to_sequence_database(&syb, SplitConfig::new(30, 0));
    let cfg = cfg();
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
    assert!(!base.is_empty(), "baseline must find patterns to compare");

    let stats = Explorer::new(2)
        .with_max_schedules(20_000)
        .explore(|sched| {
            let (run, _) = sched.collect(&MinePlan::new(&seq, &cfg));
            assert_equivalent(
                &base,
                &labelled(&run, seq.registry()),
                &format!("exhaustive parallel trace={:?}", sched.trace()),
            );
            Ok::<(), String>(())
        })
        .expect("every interleaving matches the baseline");
    eprintln!("parallel K=2 exhaustive: {stats:?}");
    assert!(stats.exhausted && !stats.capped, "{stats:?}");
    assert!(stats.schedules > 10, "space must branch: {stats:?}");
    assert_eq!(
        stats.distinct_traces, stats.schedules,
        "symmetry reduction never replays a trace: {stats:?}"
    );
}

/// Same exhaustive sweep over the candidate-exchange executor's
/// propose → gate → expand rounds at K=2 shard workers.
#[test]
fn explorer_exhausts_two_worker_exchange_interleavings() {
    let syb = random_syb(7, 2, 100, 5, 6);
    let split = SplitConfig::new(50, 0);
    let seq = to_sequence_database(&syb, split);
    let cfg = cfg();
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
    assert!(!base.is_empty(), "baseline must find patterns to compare");
    let plan = ShardPlanner::new(2)
        .plan(&syb, split, cfg.relation.t_max)
        .expect("valid shard geometry");

    let stats = Explorer::new(2)
        .with_max_schedules(20_000)
        .explore(|sched| {
            let (run, _) = sched.collect(&MinePlan::new(&plan, &cfg));
            assert_equivalent(
                &base,
                &labelled(&run, plan.registry()),
                &format!("exhaustive exchange trace={:?}", sched.trace()),
            );
            Ok::<(), String>(())
        })
        .expect("every interleaving matches the baseline");
    eprintln!("exchange K=2 exhaustive: {stats:?}");
    assert!(stats.exhausted && !stats.capped, "{stats:?}");
    assert!(stats.schedules > 10, "space must branch: {stats:?}");
}

/// One worker runs the engine on the calling thread — the same code
/// `mine_exact` runs — and the sequencer still sees every claim: exactly
/// one interleaving, with the exact emission order of the baseline.
#[test]
fn explorer_covers_the_one_worker_engine() {
    let syb = random_syb(42, 2, 60, 5, 5);
    let seq = to_sequence_database(&syb, SplitConfig::new(30, 0));
    let cfg = cfg();
    let base = mine_exact(&seq, &cfg);
    assert!(!base.is_empty(), "baseline must find patterns to compare");

    let stats = Explorer::new(1)
        .explore(|sched| {
            let (run, _) = sched.collect(&MinePlan::new(&seq, &cfg));
            assert_eq!(run.patterns, base.patterns, "one worker keeps the emission order");
            assert!(!sched.trace().is_empty(), "claims must go through the sequencer");
            Ok::<(), String>(())
        })
        .expect("the one-worker run matches the baseline");
    assert_eq!(stats.schedules, 1, "{stats:?}");
    assert!(stats.exhausted && !stats.capped, "{stats:?}");
}

/// K=4 is too wide to exhaust outright; a preemption bound of 1 keeps
/// the sweep exhaustive *within the bound* — every at-most-one-switch
/// interleaving — which is the regime scheduler bugs live in.
#[test]
fn explorer_bounded_preemption_covers_four_workers() {
    let syb = random_syb(42, 2, 60, 5, 5);
    let seq = to_sequence_database(&syb, SplitConfig::new(30, 0));
    let cfg = cfg();
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());

    let stats = Explorer::new(4)
        .with_preemption_bound(1)
        .with_max_schedules(20_000)
        .explore(|sched| {
            let (run, _) = sched.collect(&MinePlan::new(&seq, &cfg));
            assert_equivalent(
                &base,
                &labelled(&run, seq.registry()),
                &format!("bounded parallel trace={:?}", sched.trace()),
            );
            Ok::<(), String>(())
        })
        .expect("every bounded interleaving matches the baseline");
    eprintln!("parallel K=4 bounded: {stats:?}");
    assert!(stats.exhausted && !stats.capped, "{stats:?}");
    assert!(stats.schedules > 10, "space must branch: {stats:?}");
}

#[test]
fn same_seed_replays_the_same_interleaving() {
    let syb = random_syb(11, 4, 160, 5, 6);
    let seq = to_sequence_database(&syb, SplitConfig::new(100, 0));
    let cfg = cfg();
    let a = Schedule::new(3, 4);
    let b = Schedule::new(3, 4);
    let plan = MinePlan::new(&seq, &cfg);
    let (ra, _) = a.collect(&plan);
    let (rb, _) = b.collect(&plan);
    assert_eq!(a.trace(), b.trace(), "same seed must replay the schedule");
    assert_eq!(ra.patterns.len(), rb.patterns.len());
}
