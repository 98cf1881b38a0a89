//! Shard geometry on the candidate-exchange executor, the one sharded
//! path: shards cut with `t_ov = t_max` and mined on their own slices
//! must reproduce the unsharded `mine_exact` baseline on the same split —
//! same pattern labels, supports, confidences and clipped-occurrence
//! counts. The cases here pin the geometry: K = 1, instances tied on
//! `(start, end)`, the overlap dedup against a naive union, and random
//! overlaps. Event ids differ across conversions (intern order), so
//! everything compares by label.

mod common;

use std::collections::HashMap;

use common::{assert_equivalent, labelled, random_syb, runs, Layout};
use ftpm_core::{mine_exact, Correlation, MinePlan, MinerConfig, ShardPlanner};
use ftpm_events::{to_sequence_database, BoundaryPolicy, RelationConfig, SplitConfig};
use ftpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};

/// The `shards`-shard plan at one thread against `mine_exact`.
fn check(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    cfg: &MinerConfig,
    shards: usize,
    context: &str,
) {
    let seq = to_sequence_database(syb, split);
    let base = mine_exact(&seq, cfg);
    let (layouts, exact) = ([Layout::Shards(shards)], [Correlation::None]);
    let run = &runs(syb, split, cfg, &[1], &layouts, &exact)[0];
    assert_equivalent(&labelled(&base, seq.registry()), &run.labelled, context);
    // Frequent single events agree too (by label).
    let l1 = |result: &ftpm_core::MiningResult, registry: &ftpm_events::EventRegistry| {
        result
            .frequent_events
            .iter()
            .map(|&(e, s)| (registry.label(e).to_owned(), s))
            .collect::<HashMap<String, usize>>()
    };
    assert_eq!(
        l1(&base, seq.registry()),
        l1(&run.result, &run.registry),
        "{context}: L1 events"
    );
    // Boundary observability survives the merge.
    assert_eq!(
        base.stats.clipped_instances, run.result.stats.clipped_instances,
        "{context}: clipped_instances"
    );
    assert_eq!(
        base.stats.discarded_instances, run.result.stats.discarded_instances,
        "{context}: discarded_instances"
    );
}

fn true_extent_cfg(t_max: i64) -> MinerConfig {
    MinerConfig::new(0.3, 0.3)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent))
}

#[test]
fn k1_degenerate_case_matches_mine_exact_bit_for_bit() {
    let syb = random_syb(7, 3, 64, 5, 6);
    let split = SplitConfig::new(40, 20);
    let cfg = true_extent_cfg(20);
    let seq = to_sequence_database(&syb, split);
    let base = mine_exact(&seq, &cfg);
    let (layouts, exact) = ([Layout::Shards(1)], [Correlation::None]);
    let sharded = &runs(&syb, split, &cfg, &[1], &layouts, &exact)[0];
    assert_eq!(sharded.reports.len(), 1);
    // One shard covering everything: identical content (the merge emits
    // in sorted order, so compare as maps plus exact counts).
    assert_eq!(base.len(), sharded.result.len(), "pattern count");
    assert_equivalent(&labelled(&base, seq.registry()), &sharded.labelled, "K=1");
    assert_eq!(
        base.frequent_events.len(),
        sharded.result.frequent_events.len()
    );
}

#[test]
fn sharded_equals_unsharded_across_policies_and_shard_counts() {
    let syb = random_syb(42, 3, 96, 5, 8);
    let split = SplitConfig::new(40, 20);
    for policy in [
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Clip,
        BoundaryPolicy::Discard,
    ] {
        let cfg = MinerConfig::new(0.25, 0.25)
            .with_max_events(3)
            .with_relation(RelationConfig::new(0, 1, 20).with_boundary(policy));
        for shards in [2usize, 3, 4] {
            check(&syb, split, &cfg, shards, &format!("{policy} K={shards}"));
        }
    }
}

/// Regression: two instances tying on (start, end) break chronological
/// order by EventId, and a shard slice interns events in a different
/// order than the global conversion — so before shard slices were
/// converted against the global registry, the shard could bind the tied
/// pair in the opposite orientation and emit the mirrored pattern.
#[test]
fn tied_instances_bind_in_the_global_intern_order() {
    // 16 steps of 5 ticks, windows of 4 steps. V1=On shows up already in
    // window 0 while V0=On first appears in window 2 — so globally
    // id(V1=On) < id(V0=On), but shard 1's slice (starting at window 1)
    // meets V0=On first and would intern the ids the other way around.
    // Both are On exactly over steps 9..=10: identical extents [45, 55).
    let mut syb = SymbolicDatabase::new(0, 5, 16);
    let on_at = |steps: &[usize]| {
        (0..16)
            .map(|i| if steps.contains(&i) { "On" } else { "Off" })
            .collect::<Vec<_>>()
    };
    syb.push(SymbolicSeries::from_labels(
        "V0",
        Alphabet::on_off(),
        on_at(&[9, 10]),
    ));
    syb.push(SymbolicSeries::from_labels(
        "V1",
        Alphabet::on_off(),
        on_at(&[1, 9, 10]),
    ));
    let split = SplitConfig::new(20, 0);
    // sigma low enough that the single tied co-occurrence survives.
    let cfg = MinerConfig::new(0.2, 0.2)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, 20).with_boundary(BoundaryPolicy::TrueExtent));
    let seq = to_sequence_database(&syb, split);
    let tied = "(V1=On Contain V0=On)";
    let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
    assert!(
        base.contains_key(tied),
        "baseline must bind the tie as {tied}: {base:?}"
    );
    let (layouts, exact) = ([Layout::Shards(2), Layout::Shards(4)], [Correlation::None]);
    for run in runs(&syb, split, &cfg, &[1], &layouts, &exact) {
        let context = format!("tied instances [{}]", run.context);
        assert_equivalent(&base, &run.labelled, &context);
    }
}

#[test]
fn overlap_dedup_never_under_counts_and_naive_merge_over_counts() {
    // A=On [0,2), B=On [2,4) in every 4-step window: (A=On Follow B=On)
    // is supported by every window, so every duplicated overlap window
    // would be double-counted by a naive (ownership-blind) union.
    let mut syb = SymbolicDatabase::new(0, 5, 48);
    let a: Vec<&str> = ["On", "On", "Off", "Off"].repeat(12);
    let b: Vec<&str> = ["Off", "Off", "On", "On"].repeat(12);
    syb.push(SymbolicSeries::from_labels("A", Alphabet::on_off(), a));
    syb.push(SymbolicSeries::from_labels("B", Alphabet::on_off(), b));
    let split = SplitConfig::new(20, 0);
    let cfg = true_extent_cfg(20);

    let seq = to_sequence_database(&syb, split);
    let n_windows = seq.len();
    let base = mine_exact(&seq, &cfg);
    let base_map = labelled(&base, seq.registry());
    let follow = "(A=On Follow B=On)";
    assert_eq!(
        base_map
            .get(follow)
            .unwrap_or_else(|| panic!("baseline should find {follow}"))
            .0,
        n_windows,
        "the probe pattern is supported by every window"
    );

    let plan = ShardPlanner::new(3).plan(&syb, split, cfg.relation.t_max).expect("plan");
    // The deduplicating merge reproduces the baseline exactly.
    let (merged, _) = MinePlan::new(&plan, &cfg).collect();
    let merged_map = labelled(&merged, plan.registry());
    assert_equivalent(&base_map, &merged_map, "dedup merge");

    // Shards really do hold duplicated overlap windows...
    let duplicated: usize = plan
        .shards()
        .iter()
        .map(|s| s.owned.iter().filter(|&&o| !o).count())
        .sum();
    assert!(duplicated > 0, "overlapping slices must duplicate windows");
    // ...so the naive union (support counted over every window each
    // shard sees, ownership ignored) over-counts the probe pattern by
    // exactly the duplicated windows. This is the latent bug the merge's
    // dedup exists to prevent.
    let support_complete = MinerConfig {
        sigma: f64::MIN_POSITIVE,
        delta: f64::MIN_POSITIVE,
        ..cfg
    };
    let mut naive: HashMap<String, usize> = HashMap::new();
    for shard in plan.shards() {
        let result = mine_exact(&shard.db, &support_complete);
        for p in &result.patterns {
            *naive
                .entry(p.pattern.display(shard.db.registry()).to_string())
                .or_default() += p.support;
        }
    }
    assert_eq!(
        naive[follow],
        n_windows + duplicated,
        "naive ownership-blind union double-counts every overlap window"
    );
    // And dedup never under-counts: merged support matches the baseline
    // for every pattern while the naive union only ever inflates.
    for (label, (supp, _, _)) in &merged_map {
        assert!(
            naive.get(label).copied().unwrap_or(0) >= *supp,
            "naive union under-counted {label}"
        );
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random series, random sigma/delta, random window overlap, K in
        /// {1, 2, 4}: sharded mining with TrueExtent and t_ov = t_max
        /// equals the unsharded baseline (patterns, supports,
        /// confidences, clipped counts).
        #[test]
        fn sharded_true_extent_equals_unsharded(
            seed in 0u64..40,
            vars in 2usize..4,
            sigma in 0.15f64..0.7,
            delta in 0.15f64..0.7,
            shard_choice in 0usize..3,
            overlap_steps in 0usize..3,
            t_max_steps in 2i64..8,
        ) {
            let shards = [1usize, 2, 4][shard_choice];
            let step = 5i64;
            let syb = random_syb(seed, vars, 72, step, 7);
            let split = SplitConfig::new(8 * step, overlap_steps as i64 * step);
            let cfg = MinerConfig::new(sigma, delta)
                .with_max_events(3)
                .with_relation(
                    RelationConfig::new(0, 1, t_max_steps * step)
                        .with_boundary(BoundaryPolicy::TrueExtent),
                );
            let seq = to_sequence_database(&syb, split);
            let base = mine_exact(&seq, &cfg);
            let (layouts, exact) = ([Layout::Shards(shards)], [Correlation::None]);
            let run = runs(&syb, split, &cfg, &[1], &layouts, &exact);
            let (bm, sm) = (labelled(&base, seq.registry()), &run[0].labelled);
            for (label, (supp, conf, clipped)) in &bm {
                let (s, c, cl) = sm
                    .get(label)
                    .unwrap_or_else(|| panic!("lost {label} (K={shards})"));
                prop_assert_eq!(supp, s, "support of {}", label);
                prop_assert!((conf - c).abs() < 1e-9, "confidence of {}", label);
                prop_assert_eq!(clipped, cl, "clipped count of {}", label);
            }
            prop_assert_eq!(bm.len(), sm.len(), "pattern count");
        }
    }
}
