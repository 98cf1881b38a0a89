//! The two-phase candidate-exchange executor must be *exact*: for any
//! data, any split, any shard count and any boundary policy, its merged
//! output equals the unsharded `mine_exact` baseline — same pattern
//! labels, supports, confidences and clipped-occurrence counts — while
//! its global gate kills candidates before the next level is enumerated.
//! Event ids differ across conversions (intern order), so everything
//! compares by label.

mod common;

use common::{assert_equivalent, labelled, policy_cfg, random_syb};
use ftpm_core::{mine_exact, mine_sharded_exchange, MinerConfig, ShardPlanner};
use ftpm_events::{to_sequence_database, BoundaryPolicy, RelationConfig, SplitConfig};
use ftpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};

/// One full check: the exchange against the unsharded baseline —
/// patterns, L1 and boundary observability — plus the shard reports'
/// bookkeeping.
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
    let (exchange, reports) = mine_sharded_exchange(syb, split, cfg, shards, threads)
        .unwrap_or_else(|e| panic!("{context}: exchange plan failed: {e}"));
    assert_equivalent(
        &labelled(&base, seq.registry()),
        &labelled(&exchange.result, &exchange.registry),
        &format!("{context} [exchange]"),
    );
    // L1 and boundary observability agree too.
    assert_eq!(
        base.frequent_events.len(),
        exchange.result.frequent_events.len(),
        "{context}: L1 count"
    );
    assert_eq!(
        base.stats.clipped_instances, exchange.result.stats.clipped_instances,
        "{context}: clipped_instances"
    );
    assert_eq!(
        base.stats.discarded_instances, exchange.result.stats.discarded_instances,
        "{context}: discarded_instances"
    );
    // Ownership partitions the window space.
    assert_eq!(
        reports.iter().map(|r| r.windows_owned).sum::<usize>(),
        seq.len(),
        "{context}: owned windows must tile the global window space"
    );
    for r in &reports {
        assert!(
            r.candidates_pruned <= r.candidates_proposed,
            "{context}: shard {} pruned more than it proposed",
            r.shard
        );
    }
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
            check_exchange(&syb, split, &cfg, shards, 1, &format!("{policy} K={shards}"));
        }
    }
}

#[test]
fn concurrent_shards_match_sequential_exchange() {
    let syb = random_syb(11, 3, 96, 5, 7);
    let split = SplitConfig::new(40, 20);
    let cfg = policy_cfg(0.2, 0.2, 20, BoundaryPolicy::TrueExtent);
    let plan = ShardPlanner::new(4).plan(&syb, split, cfg.relation.t_max).expect("plan");
    let (sequential, _) = plan.mine_exchange(&cfg, 1);
    for threads in [2usize, 4, 8] {
        let (concurrent, reports) = plan.mine_exchange(&cfg, threads);
        assert_equivalent(
            &labelled(&sequential, plan.registry()),
            &labelled(&concurrent, plan.registry()),
            &format!("{threads} threads"),
        );
        assert_eq!(reports.len(), plan.shards().len());
    }
}

/// The headline of the exchange: the global gate kills candidates
/// *before* the next level is enumerated, while the output stays
/// identical to the unsharded baseline — on the 8-appliance energy demo,
/// at K = 2 and K = 4.
#[test]
fn exchange_gate_prunes_candidates_and_matches_unsharded() {
    let data = ftpm_datagen::nist_like(0.01).project_variables(8);
    let t_max = 3 * 60;
    let cfg = MinerConfig::new(0.25, 0.25)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent));
    let base = labelled(&mine_exact(&data.seq, &cfg), data.seq.registry());
    for shards in [2usize, 4] {
        let plan = ShardPlanner::new(shards)
            .plan(&data.syb, data.split, t_max)
            .expect("plan");
        let (exchange_result, reports) = plan.mine_exchange(&cfg, 1);
        let proposed: usize = reports.iter().map(|r| r.candidates_proposed).sum();
        let pruned: usize = reports.iter().map(|r| r.candidates_pruned).sum();
        eprintln!("energy demo K={shards}: the gate pruned {pruned} of {proposed} candidates");
        assert!(
            pruned > 0,
            "K={shards}: the global gate must actually kill candidates on the energy demo"
        );
        assert_equivalent(
            &base,
            &labelled(&exchange_result, plan.registry()),
            &format!("energy demo K={shards}"),
        );
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
    let (result, reports) = plan.mine_exchange(&cfg, 2);
    assert!(result.is_empty(), "no instances, no patterns");
    assert!(result.frequent_events.is_empty());
    for r in &reports {
        assert_eq!(r.candidates_proposed, 0, "shard {} proposed from nothing", r.shard);
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
    syb.push(SymbolicSeries::from_labels("V0", Alphabet::on_off(), labels.clone()));
    let shifted: Vec<&str> = std::iter::once("Off")
        .chain(active)
        .chain(std::iter::repeat_n("Off", 39))
        .collect();
    syb.push(SymbolicSeries::from_labels("V1", Alphabet::on_off(), shifted));
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
            let base = labelled(&mine_exact(&seq, &cfg), seq.registry());
            let (exchange, _) =
                mine_sharded_exchange(&syb, split, &cfg, shards, 1).expect("plan");
            let em = labelled(&exchange.result, &exchange.registry);
            for (label, (supp, conf, clipped)) in &base {
                let (s, c, cl) = em.get(label).unwrap_or_else(|| {
                    panic!("exchange lost {label} (K={shards}, {policy})")
                });
                prop_assert_eq!(supp, s, "support of {}", label);
                prop_assert!((conf - c).abs() < 1e-9, "confidence of {}", label);
                prop_assert_eq!(clipped, cl, "clipped of {}", label);
            }
            prop_assert_eq!(base.len(), em.len(), "exchange pattern count");
        }
    }
}
