//! The two-phase candidate-exchange executor must be *exact*: for any
//! data, any split, any shard count and any boundary policy, its merged
//! output equals the unsharded `mine_exact` baseline — same pattern
//! labels, supports, confidences and clipped-occurrence counts — while
//! its global gate kills candidates before the next level is enumerated.
//! Event ids differ across conversions (intern order), so everything
//! compares by label.

mod common;

use common::{assert_equivalent, labelled, policy_cfg, random_syb, runs, Layout};
use ftpm_core::{mine_exact, Correlation, MinePlan, MinerConfig, ShardPlanner};
use ftpm_events::{to_sequence_database, BoundaryPolicy, RelationConfig, SplitConfig};
use ftpm_mi::CorrelationGraph;
use ftpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};

/// One full check: the exchange against the unsharded baseline —
/// patterns, L1 and boundary observability — plus the shard reports'
/// bookkeeping (checked by [`runs`]).
fn check_exchange(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    cfg: &MinerConfig,
    shards: usize,
    threads: usize,
    context: &str,
) {
    let seq = to_sequence_database(syb, split);
    let base = mine_exact(&seq, cfg);
    let (layouts, exact) = ([Layout::Shards(shards)], [Correlation::None]);
    let run = runs(syb, split, cfg, &[threads], &layouts, &exact);
    let exchange = &run[0].result;
    assert_equivalent(
        &labelled(&base, seq.registry()),
        &run[0].labelled,
        &format!("{context} [exchange]"),
    );
    // L1 and boundary observability agree too.
    assert_eq!(
        base.frequent_events.len(),
        exchange.frequent_events.len(),
        "{context}: L1 count"
    );
    assert_eq!(
        base.stats.clipped_instances, exchange.stats.clipped_instances,
        "{context}: clipped_instances"
    );
    assert_eq!(
        base.stats.discarded_instances, exchange.stats.discarded_instances,
        "{context}: discarded_instances"
    );
    // The merged output describes the same HPG: one node per event list,
    // one slot per level.
    assert_eq!(
        base.stats.nodes_kept, exchange.stats.nodes_kept,
        "{context}: nodes_kept"
    );
    assert_eq!(
        base.stats.patterns_found, exchange.stats.patterns_found,
        "{context}: patterns_found"
    );
}

#[test]
fn exchange_equals_baselines_across_policies_and_shard_counts() {
    let syb = random_syb(42, 3, 96, 5, 8);
    let split = SplitConfig::new(40, 20);
    for policy in [
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Clip,
        BoundaryPolicy::Discard,
    ] {
        let cfg = policy_cfg(0.25, 0.25, 20, policy);
        for shards in [1usize, 2, 4] {
            check_exchange(
                &syb,
                split,
                &cfg,
                shards,
                1,
                &format!("{policy} K={shards}"),
            );
        }
    }
}

#[test]
fn concurrent_shards_match_sequential_exchange() {
    let syb = random_syb(11, 3, 96, 5, 7);
    let split = SplitConfig::new(40, 20);
    let cfg = policy_cfg(0.2, 0.2, 20, BoundaryPolicy::TrueExtent);
    let (layouts, exact) = ([Layout::Shards(4)], [Correlation::None]);
    let runs = runs(&syb, split, &cfg, &[1, 2, 4, 8], &layouts, &exact);
    for run in &runs[1..] {
        assert_equivalent(&runs[0].labelled, &run.labelled, &run.context);
    }
}

/// Pinned work of one exchange run on the energy demo: per-shard
/// `(candidates_proposed, candidates_pruned)`, then the merged
/// `nodes_verified`, `instance_checks`, `apriori_pruned` and
/// `transitivity_pruned`.
type ExchangeWork = (Vec<(usize, usize)>, Vec<usize>, u64, u64, u64);

/// The headline of the exchange: the global gate kills candidates
/// *before* the next level is enumerated, while the output stays
/// identical to the unsharded baseline — on the 8-appliance energy demo,
/// at K = 2 and K = 4. The proposals and work counters are pinned
/// exactly, at 1 and 2 threads: a shard must propose precisely the
/// candidates that building every locally present node would show, and
/// do the same instance work.
#[test]
fn exchange_gate_prunes_candidates_and_matches_unsharded() {
    let data = ftpm_datagen::nist_like(0.01).project_variables(8);
    let t_max = 3 * 60;
    let cfg = MinerConfig::new(0.25, 0.25)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent));
    let base = labelled(&mine_exact(&data.seq, &cfg), data.seq.registry());
    let pinned: [(usize, ExchangeWork); 2] = [
        (2, (vec![(71, 50), (71, 50)], vec![512, 20], 2_287, 0, 509)),
        (
            4,
            (
                vec![(52, 35), (34, 15), (61, 40), (40, 19)],
                vec![1016, 38],
                2_287,
                8,
                939,
            ),
        ),
    ];
    for (shards, want) in pinned {
        let (layouts, exact) = ([Layout::Shards(shards)], [Correlation::None]);
        for run in runs(&data.syb, data.split, &cfg, &[1, 2], &layouts, &exact) {
            let stats = &run.result.stats;
            let got: ExchangeWork = (
                run.reports
                    .iter()
                    .map(|r| (r.candidates_proposed, r.candidates_pruned))
                    .collect(),
                stats.nodes_verified.clone(),
                stats.instance_checks,
                stats.apriori_pruned,
                stats.transitivity_pruned,
            );
            let context = format!("energy demo [{}]", run.context);
            assert_eq!(got, want, "{context}");
            assert_equivalent(&base, &run.labelled, &context);
        }
    }
}

/// Pinned work of one unsharded run on the energy demo: the pattern
/// count, then `nodes_verified`, `nodes_kept` and `patterns_found` per
/// level, `instance_checks`, `apriori_pruned` and `transitivity_pruned`.
type UnshardedWork = (usize, Vec<usize>, Vec<usize>, Vec<usize>, u64, u64, u64);

/// The unsharded engine's counters and the level-2 correlation screen,
/// pinned on the energy demo and config of
/// [`exchange_gate_prunes_candidates_and_matches_unsharded`] at 1 and 2
/// threads: exactly, and under an A-HTPGM gate that keeps half of the
/// graph's edges, unsharded and at K = 2. The screen is not counted as
/// pruning, so only the verified nodes and the instance work show it.
/// The unsharded engine skips or stops hopeless instance walks by the
/// support bound and a shard cannot, so the unsharded rows do less
/// instance work than the exchange rows on the same input (1,710 checks
/// against 2,287, and 1,024 against 1,338).
#[test]
fn unsharded_counters_and_the_correlation_screen_are_pinned() {
    let data = ftpm_datagen::nist_like(0.01).project_variables(8);
    let t_max = 3 * 60;
    let cfg = MinerConfig::new(0.25, 0.25)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent));
    let graph = CorrelationGraph::build_with_density(&data.syb, 0.5);
    let correlations = [Correlation::None, Correlation::Series(&graph)];
    let pinned: [UnshardedWork; 2] = [
        (21, vec![254, 10], vec![16, 5], vec![16, 5], 1_710, 2, 258),
        (17, vec![144, 6], vec![12, 5], vec![12, 5], 1_024, 0, 197),
    ];
    let layouts = [Layout::Unsharded];
    let unsharded = runs(
        &data.syb,
        data.split,
        &cfg,
        &[1, 2],
        &layouts,
        &correlations,
    );
    for (i, run) in unsharded.iter().enumerate() {
        let stats = &run.result.stats;
        let got: UnshardedWork = (
            run.result.len(),
            stats.nodes_verified.clone(),
            stats.nodes_kept.clone(),
            stats.patterns_found.clone(),
            stats.instance_checks,
            stats.apriori_pruned,
            stats.transitivity_pruned,
        );
        assert_eq!(got, pinned[i % 2], "energy demo [{}]", run.context);
    }

    let want: ExchangeWork = (vec![(44, 27), (40, 23)], vec![288, 12], 1_338, 0, 383);
    let (layouts, gated) = ([Layout::Shards(2)], [Correlation::Series(&graph)]);
    for run in runs(&data.syb, data.split, &cfg, &[1, 2], &layouts, &gated) {
        let stats = &run.result.stats;
        let got: ExchangeWork = (
            run.reports
                .iter()
                .map(|r| (r.candidates_proposed, r.candidates_pruned))
                .collect(),
            stats.nodes_verified.clone(),
            stats.instance_checks,
            stats.apriori_pruned,
            stats.transitivity_pruned,
        );
        let context = format!("energy demo [{}]", run.context);
        assert_eq!(got, want, "{context}");
        assert_equivalent(&unsharded[1].labelled, &run.labelled, &context);
    }
}

/// A shard whose slice contains no (visible) instances must propose
/// nothing and not poison the exchange. Variant 1: a database with no
/// variables at all — every window is empty, and asking for more shards
/// than windows clamps to one shard per window.
#[test]
fn empty_shards_propose_nothing() {
    let syb = SymbolicDatabase::new(0, 5, 40); // 10 windows of 4 steps, no series
    let split = SplitConfig::new(20, 0);
    let cfg = policy_cfg(0.3, 0.3, 20, BoundaryPolicy::TrueExtent);
    let plan = ShardPlanner::new(16)
        .plan(&syb, split, cfg.relation.t_max)
        .expect("plan clamps K to the window count");
    assert!(plan.shards().len() <= 10);
    let (result, reports) = MinePlan::new(&plan, &cfg).with_threads(2).collect();
    assert!(result.is_empty(), "no instances, no patterns");
    assert!(result.frequent_events.is_empty());
    for r in &reports {
        assert_eq!(
            r.candidates_proposed, 0,
            "shard {} proposed from nothing",
            r.shard
        );
        assert_eq!(r.candidates_pruned, 0);
    }
}

/// Variant 2: a sparse tail — activity only near the start, then one long
/// constant run. Under `Discard`, tail windows hold only boundary-clipped
/// instances, so with one shard per window the tail shards see an empty
/// masked index. The exchange must still match the unsharded baseline
/// exactly.
#[test]
fn discard_hidden_tail_shards_do_not_poison_the_exchange() {
    let mut syb = SymbolicDatabase::new(0, 5, 48); // 12 windows of 4 steps
    let active = ["On", "Off", "On", "Off", "On", "On", "Off", "On"];
    let labels: Vec<&str> = active
        .into_iter()
        .chain(std::iter::repeat_n("Off", 40))
        .collect();
    syb.push(SymbolicSeries::from_labels(
        "V0",
        Alphabet::on_off(),
        labels.clone(),
    ));
    let shifted: Vec<&str> = std::iter::once("Off")
        .chain(active)
        .chain(std::iter::repeat_n("Off", 39))
        .collect();
    syb.push(SymbolicSeries::from_labels(
        "V1",
        Alphabet::on_off(),
        shifted,
    ));
    let split = SplitConfig::new(20, 0);
    for policy in [BoundaryPolicy::Discard, BoundaryPolicy::TrueExtent] {
        // sigma low enough that head-only patterns survive globally.
        let cfg = policy_cfg(0.05, 0.05, 20, policy);
        let n_windows = to_sequence_database(&syb, split).len();
        check_exchange(
            &syb,
            split,
            &cfg,
            n_windows, // one shard per window: the tail shards are "empty"
            2,
            &format!("sparse tail {policy}"),
        );
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random series, random σ/δ, K in {1, 2, 4}, every boundary
        /// policy: exchange-mode sharded output == unsharded `mine_exact`
        /// (labels, supports, confidences, clipped counts).
        #[test]
        fn exchange_equals_unsharded(
            seed in 0u64..24,
            vars in 2usize..4,
            sigma in 0.15f64..0.7,
            delta in 0.15f64..0.7,
            shard_choice in 0usize..3,
            policy_choice in 0usize..3,
            t_max_steps in 2i64..8,
        ) {
            let shards = [1usize, 2, 4][shard_choice];
            let policy = [
                BoundaryPolicy::TrueExtent,
                BoundaryPolicy::Clip,
                BoundaryPolicy::Discard,
            ][policy_choice];
            let step = 5i64;
            let syb = random_syb(seed, vars, 64, step, 7);
            let split = SplitConfig::new(8 * step, 2 * step);
            let cfg = MinerConfig::new(sigma, delta)
                .with_max_events(3)
                .with_relation(
                    RelationConfig::new(0, 1, t_max_steps * step).with_boundary(policy),
                );
            let seq = to_sequence_database(&syb, split);
            let base_result = mine_exact(&seq, &cfg);
            let base_stats = &base_result.stats;
            let base = labelled(&base_result, seq.registry());
            let (layouts, exact) = ([Layout::Shards(shards)], [Correlation::None]);
            let run = runs(&syb, split, &cfg, &[1], &layouts, &exact);
            let (exchange, em) = (&run[0].result, &run[0].labelled);
            for (label, (supp, conf, clipped)) in &base {
                let (s, c, cl) = em.get(label).unwrap_or_else(|| {
                    panic!("exchange lost {label} (K={shards}, {policy})")
                });
                prop_assert_eq!(supp, s, "support of {}", label);
                prop_assert!((conf - c).abs() < 1e-9, "confidence of {}", label);
                prop_assert_eq!(clipped, cl, "clipped of {}", label);
            }
            prop_assert_eq!(base.len(), em.len(), "exchange pattern count");
            prop_assert_eq!(
                &base_stats.nodes_kept,
                &exchange.stats.nodes_kept,
                "nodes_kept"
            );
            prop_assert_eq!(
                &base_stats.patterns_found,
                &exchange.stats.patterns_found,
                "patterns_found"
            );
        }
    }
}
