//! The strongest correctness checks in the repository: E-HTPGM must agree
//! exactly — same patterns, same supports, same confidences — with a
//! brute-force enumeration, under every pruning configuration, on many
//! random databases. A-HTPGM must always return a subset of E-HTPGM and
//! converge to it as μ → 0.

mod common;

use std::collections::HashMap;

use common::{assert_equivalent, labelled};
use ftpm_core::{
    mine_approximate, mine_exact, mine_reference, MinePlan, MinerConfig, MiningResult, Pattern,
    PruningConfig,
};
use ftpm_datagen::random_sequence_database;
use ftpm_events::{BoundaryPolicy, RelationConfig, SequenceDatabase};

fn as_map(result: &MiningResult) -> HashMap<Pattern, (usize, f64)> {
    result
        .patterns
        .iter()
        .map(|p| (p.pattern.clone(), (p.support, p.confidence)))
        .collect()
}

#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
fn assert_same_patterns(a: &MiningResult, b: &MiningResult, context: &str) {
    let ma = as_map(a);
    let mb = as_map(b);
    for (pat, (supp, conf)) in &ma {
        match mb.get(pat) {
            None => panic!("{context}: pattern {pat:?} missing from second result"),
            Some((s2, c2)) => {
                assert_eq!(supp, s2, "{context}: support mismatch for {pat:?}");
                assert!(
                    (conf - c2).abs() < 1e-9,
                    "{context}: confidence mismatch for {pat:?}: {conf} vs {c2}"
                );
            }
        }
    }
    for pat in mb.keys() {
        assert!(
            ma.contains_key(pat),
            "{context}: extra pattern {pat:?} in second result"
        );
    }
}

#[test]
fn exact_matches_reference_on_many_random_databases() {
    for seed in 0..25u64 {
        let db = random_sequence_database(seed, 6, 3, 2, 40);
        for &(sigma, delta) in &[(0.3, 0.3), (0.5, 0.5), (0.2, 0.8)] {
            let cfg = MinerConfig::new(sigma, delta).with_max_events(4);
            let exact = mine_exact(&db, &cfg);
            let reference = mine_reference(&db, &cfg);
            assert_same_patterns(
                &exact,
                &reference,
                &format!("seed={seed} sigma={sigma} delta={delta}"),
            );
        }
    }
}

#[test]
fn exact_matches_reference_with_nontrivial_relation_config() {
    // Buffer epsilon = 2, min overlap 3, tight t_max: exercises every
    // branch of the relation model and the duration constraint.
    let relation = RelationConfig::new(2, 3, 25);
    for seed in 100..115u64 {
        let db = random_sequence_database(seed, 5, 3, 2, 40);
        let cfg = MinerConfig::new(0.3, 0.3)
            .with_relation(relation)
            .with_max_events(4);
        let exact = mine_exact(&db, &cfg);
        let reference = mine_reference(&db, &cfg);
        assert_same_patterns(&exact, &reference, &format!("seed={seed} buffered"));
    }
}

#[test]
fn exact_matches_reference_under_every_boundary_policy() {
    use ftpm_core::MinePlan;
    use ftpm_events::{to_sequence_database, BoundaryPolicy, SplitConfig};

    // An overlapped split of real-shaped data, so plenty of instances
    // are boundary-clipped and the policies actually disagree.
    let data = ftpm_datagen::nist_like(0.005).project_variables(5);
    let seq = to_sequence_database(&data.syb, SplitConfig::new(360, 180));
    assert!(
        seq.sequences()
            .iter()
            .flat_map(|s| s.instances())
            .any(|i| i.is_clipped()),
        "test needs clipped instances"
    );
    for policy in [
        BoundaryPolicy::Clip,
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Discard,
    ] {
        let cfg = MinerConfig::new(0.2, 0.2)
            .with_max_events(3)
            .with_relation(RelationConfig::new(0, 1, 180).with_boundary(policy));
        let exact = mine_exact(&seq, &cfg);
        let reference = mine_reference(&seq, &cfg);
        assert_same_patterns(&exact, &reference, &format!("policy={policy}"));
        let (parallel, _) = MinePlan::new(&seq, &cfg).with_threads(3).collect();
        assert_same_patterns(&exact, &parallel, &format!("policy={policy} parallel"));
        // Both miners enumerate every occurrence exactly once, so the
        // per-pattern boundary-artifact counts must agree too.
        let clipped: HashMap<&Pattern, usize> = reference
            .patterns
            .iter()
            .map(|p| (&p.pattern, p.clipped_occurrences))
            .collect();
        for p in &exact.patterns {
            assert_eq!(
                p.clipped_occurrences, clipped[&p.pattern],
                "policy={policy}: clipped_occurrences mismatch for {:?}",
                p.pattern
            );
        }
        if policy == BoundaryPolicy::Discard {
            assert!(
                exact.patterns.iter().all(|p| p.clipped_occurrences == 0),
                "discard must never bind clipped instances"
            );
        }
    }
}

#[test]
fn all_pruning_configurations_agree() {
    // Pruning changes the work done, never the answer (Lemmas 2-7 are
    // lossless for the exact miner).
    let configs = [
        PruningConfig::NO_PRUNE,
        PruningConfig::APRIORI,
        PruningConfig::TRANSITIVITY,
        PruningConfig::ALL,
    ];
    for seed in 200..215u64 {
        let db = random_sequence_database(seed, 6, 3, 2, 40);
        let base = MinerConfig::new(0.3, 0.4).with_max_events(4);
        let baseline = mine_exact(&db, &base.with_pruning(PruningConfig::NO_PRUNE));
        for pruning in configs {
            let got = mine_exact(&db, &base.with_pruning(pruning));
            assert_same_patterns(&baseline, &got, &format!("seed={seed} {pruning:?}"));
        }
    }
}

#[test]
fn pruning_reduces_work_not_output() {
    // On a structured dataset the pruned runs must check strictly fewer
    // candidates while finding the same patterns. The support bound
    // stops instance walks under Apriori pruning, and only there.
    let data = ftpm_datagen::nist_like(0.01);
    let base = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let no_prune = mine_exact(&data.seq, &base.with_pruning(PruningConfig::NO_PRUNE));
    for (name, pruning, bounded) in [
        ("All", PruningConfig::ALL, true),
        ("Apriori", PruningConfig::APRIORI, true),
        ("Trans", PruningConfig::TRANSITIVITY, false),
        ("NoPrune", PruningConfig::NO_PRUNE, false),
    ] {
        let run = mine_exact(&data.seq, &base.with_pruning(pruning));
        let context = format!("nist-like pruning equivalence, {name}");
        assert_same_patterns(&no_prune, &run, &context);
        assert_eq!(
            run.stats.support_bound_pruned > 0,
            bounded,
            "{context}: {} walks stopped by the support bound",
            run.stats.support_bound_pruned
        );
        if pruning != PruningConfig::NO_PRUNE {
            assert!(
                run.stats.instance_checks < no_prune.stats.instance_checks,
                "{context}: pruning should reduce instance checks: {} vs {}",
                run.stats.instance_checks,
                no_prune.stats.instance_checks
            );
        }
    }
}

#[test]
fn approximate_is_subset_of_exact() {
    let data = ftpm_datagen::dataport_like(0.02);
    let cfg = MinerConfig::new(0.3, 0.3).with_max_events(3);
    let exact = mine_exact(&data.seq, &cfg);
    for mu in [0.2, 0.5, 0.8] {
        let approx = mine_approximate(&data.syb, &data.seq, mu, &cfg)
            .expect("the graph is built on the same data");
        let exact_keys = exact.pattern_keys();
        for p in &approx.result.patterns {
            assert!(
                exact_keys.contains(&p.pattern),
                "mu={mu}: approximate found pattern not in exact output"
            );
        }
    }
}

#[test]
fn approximate_accuracy_monotone_in_mu() {
    let data = ftpm_datagen::dataport_like(0.02);
    let cfg = MinerConfig::new(0.3, 0.3).with_max_events(3);
    let exact = mine_exact(&data.seq, &cfg);
    assert!(!exact.is_empty(), "need patterns for the accuracy test");
    // A lower raw NMI threshold keeps more correlation-graph edges, so
    // accuracy grows as mu decreases. (The paper's "A-HTPGM (80%)" labels
    // are graph-density targets, i.e. the opposite axis direction.)
    let mut prev = -1.0f64;
    for mu in [0.8, 0.5, 0.2, 0.01] {
        let approx = mine_approximate(&data.syb, &data.seq, mu, &cfg)
            .expect("the graph is built on the same data");
        let acc = approx.result.accuracy_against(&exact);
        assert!(
            acc >= prev - 1e-12,
            "accuracy should not drop as mu decreases: mu={mu} acc={acc} prev={prev}"
        );
        prev = acc;
    }
    // With a negligible mu every variable pair is correlated: exact match.
    let approx = mine_approximate(&data.syb, &data.seq, 1e-12_f64.max(f64::MIN_POSITIVE), &cfg)
        .expect("the graph is built on the same data");
    assert_eq!(approx.result.len(), exact.len());
}

#[test]
fn support_and_confidence_satisfy_thresholds() {
    for seed in 300..310u64 {
        let db = random_sequence_database(seed, 8, 4, 2, 50);
        let cfg = MinerConfig::new(0.25, 0.4).with_max_events(4);
        let sigma_abs = cfg.absolute_support(db.len());
        let result = mine_exact(&db, &cfg);
        for p in &result.patterns {
            assert!(p.support >= sigma_abs);
            assert!(p.confidence + 1e-9 >= cfg.delta);
            assert!((0.0..=1.0).contains(&p.rel_support));
            assert!(p.confidence <= 1.0 + 1e-9);
        }
    }
}

#[test]
fn lemma2_pattern_support_bounded_by_event_support() {
    for seed in 400..408u64 {
        let db = random_sequence_database(seed, 8, 3, 2, 40);
        let cfg = MinerConfig::new(0.2, 0.2).with_max_events(3);
        let result = mine_exact(&db, &cfg);
        let event_supp: HashMap<_, _> = result.frequent_events.iter().copied().collect();
        for p in &result.patterns {
            for e in p.pattern.events() {
                assert!(
                    p.support <= event_supp[e],
                    "seed={seed}: supp(P) must be <= supp(E) (Lemma 2)"
                );
            }
        }
    }
}

#[test]
fn lemma6_prefix_confidence_at_least_pattern_confidence() {
    for seed in 500..506u64 {
        let db = random_sequence_database(seed, 7, 3, 2, 40);
        let cfg = MinerConfig::new(0.2, 0.2).with_max_events(4);
        let result = mine_exact(&db, &cfg);
        let by_key = as_map(&result);
        for p in &result.patterns {
            for other in &result.patterns {
                if other.pattern.len() < p.pattern.len() && p.pattern.has_prefix(&other.pattern) {
                    let (_, prefix_conf) = by_key[&other.pattern];
                    assert!(
                        prefix_conf + 1e-9 >= p.confidence,
                        "seed={seed}: Lemma 6 violated"
                    );
                }
            }
        }
    }
}

#[test]
fn event_level_approximate_is_subset_of_exact() {
    use ftpm_core::{event_indicator_database, Correlation, MinePlan};
    use ftpm_mi::CorrelationGraph;
    let data = ftpm_datagen::dataport_like(0.02);
    let cfg = MinerConfig::new(0.3, 0.3).with_max_events(3);
    let exact = mine_exact(&data.seq, &cfg);
    assert_eq!(exact.len(), 3345, "exact pattern count");
    let exact_keys = exact.pattern_keys();
    let indicators = event_indicator_database(&data.syb, data.seq.registry());
    for (mu, count) in [(0.1, 991), (0.4, 107), (0.7, 84)] {
        let graph = CorrelationGraph::build(&indicators, mu);
        let (approx, _) = MinePlan::new(&data.seq, &cfg)
            .with_correlation(Correlation::Events(&graph))
            .expect("the graph is built on the same data")
            .collect();
        assert_eq!(approx.len(), count, "mu={mu}: pattern count");
        for p in &approx.patterns {
            assert!(
                exact_keys.contains(&p.pattern),
                "mu={mu}: event-level approx invented a pattern"
            );
        }
    }
}

#[test]
fn event_indicator_database_matches_symbols() {
    use ftpm_core::event_indicator_database;
    let data = ftpm_datagen::dataport_like(0.01);
    let ind = event_indicator_database(&data.syb, data.seq.registry());
    assert_eq!(ind.n_variables(), data.seq.registry().len());
    assert_eq!(ind.n_steps(), data.syb.n_steps());
    // Spot check: the indicator of event e is On exactly where the
    // source series carries e's symbol.
    let reg = data.seq.registry();
    let e = ftpm_events::EventId(0);
    let var = reg.variable(e);
    let sym = reg.symbol(e);
    let src = data.syb.series(var);
    let indicator = ind.series(ftpm_timeseries::VariableId(0));
    for (a, b) in src.symbols().iter().zip(indicator.symbols()) {
        assert_eq!(*a == sym, b.0 == 1);
    }
}

#[test]
fn parallel_matches_sequential() {
    use ftpm_core::MinePlan;
    for seed in 600..606u64 {
        let db = random_sequence_database(seed, 8, 4, 2, 50);
        let cfg = MinerConfig::new(0.25, 0.3).with_max_events(4);
        let sequential = mine_exact(&db, &cfg);
        for threads in [1, 2, 4] {
            let (parallel, _) = MinePlan::new(&db, &cfg).with_threads(threads).collect();
            assert_same_patterns(
                &sequential,
                &parallel,
                &format!("seed={seed} threads={threads}"),
            );
            assert_eq!(
                parallel.stats.instance_checks, sequential.stats.instance_checks,
                "same work regardless of thread count"
            );
        }
    }
    let data = ftpm_datagen::dataport_like(0.01);
    let cfg = MinerConfig::new(0.3, 0.3).with_max_events(3);
    let sequential = mine_exact(&data.seq, &cfg);
    let (parallel, _) = MinePlan::new(&data.seq, &cfg).with_threads(4).collect();
    assert_same_patterns(&sequential, &parallel, "structured parallel");
}

/// Mines `seq` under `relation` with every boundary policy, with all
/// pruning and with none, at 1 and 2 threads, and asserts that every run
/// finds the same labelled patterns with the same supports, confidences
/// and clipped counts. Returns the walks the support bound skipped or
/// stopped, over all runs.
fn pruned_runs_keep_every_pattern(
    seq: &SequenceDatabase,
    sigma: f64,
    delta: f64,
    relation: RelationConfig,
    context: &str,
) -> u64 {
    let mut bounded = 0;
    for policy in [
        BoundaryPolicy::Clip,
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Discard,
    ] {
        let cfg = MinerConfig::new(sigma, delta)
            .with_max_events(4)
            .with_relation(relation.with_boundary(policy));
        let base = labelled(
            &mine_exact(seq, &cfg.with_pruning(PruningConfig::NO_PRUNE)),
            seq.registry(),
        );
        for pruning in [PruningConfig::NO_PRUNE, PruningConfig::ALL] {
            for threads in [1, 2] {
                let pruned = cfg.with_pruning(pruning);
                let (result, _) = MinePlan::new(seq, &pruned).with_threads(threads).collect();
                bounded += result.stats.support_bound_pruned;
                let context = format!("{context}, {policy}, {pruning:?}, {threads} threads");
                assert_equivalent(&base, &labelled(&result, seq.registry()), &context);
            }
        }
    }
    bounded
}

/// The last-instance bound orders instances by the run's kernel. In each
/// of three sequences `A` spans (10, 20), and two right-clipped instances
/// of `B` start at 10 too. Their intervals (10, 12) and (10, 13) come
/// before `A`, but their extents (10, 20) and (10, 15) order the other
/// way, and under `TrueExtent` the one first in sequence order ends last,
/// after `A` by the event-id tie-break: it gives `A Contain B`, which
/// every sequence must support.
#[test]
fn the_last_instance_bound_orders_by_the_kernels_key() {
    use ftpm_events::{EventInstance, EventRegistry, Interval, TemporalSequence};
    use ftpm_timeseries::{SymbolId, VariableId};
    let mut reg = EventRegistry::new();
    let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
    let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
    let clipped_b = |end, extent_end| {
        EventInstance::with_extent(b, Interval::new(10, end), Interval::new(10, extent_end))
    };
    let sequences = (0..3)
        .map(|_| {
            TemporalSequence::new(vec![
                EventInstance::new(a, 10, 20),
                clipped_b(12, 20),
                clipped_b(13, 15),
            ])
        })
        .collect();
    let seq = SequenceDatabase::new(reg, sequences);
    let extent = MinerConfig::new(1.0, 0.5)
        .with_relation(RelationConfig::default().with_boundary(BoundaryPolicy::TrueExtent));
    let contain = labelled(&mine_exact(&seq, &extent), seq.registry());
    assert!(contain.contains_key("(A Contain B)"), "{contain:?}");
    let bounded =
        pruned_runs_keep_every_pattern(&seq, 1.0, 0.5, RelationConfig::default(), "fixed");
    assert!(bounded > 0, "the support bound must skip or stop walks");
}

mod prop {
    use super::*;
    use common::random_syb;
    use ftpm_events::{to_sequence_database, SplitConfig};
    use proptest::prelude::*;

    proptest! {
        /// Over random split databases, with overlapping windows that
        /// clip runs on either side and a `t_max`, the support bound
        /// (under Apriori pruning) keeps every pattern under every
        /// boundary policy.
        #[test]
        fn the_support_bound_keeps_every_pattern(
            seed in 0u64..60,
            vars in 2usize..5,
            sigma in 0.15f64..0.7,
            delta in 0.15f64..0.7,
            overlap_steps in 0i64..3,
            t_max_steps in 2i64..10,
        ) {
            let step = 5i64;
            let syb = random_syb(seed, vars, 72, step, 7);
            let seq = to_sequence_database(&syb, SplitConfig::new(8 * step, overlap_steps * step));
            let relation = RelationConfig::new(0, 1, t_max_steps * step);
            let context = format!("seed {seed}, {vars} vars, sigma {sigma}, delta {delta}");
            pruned_runs_keep_every_pattern(&seq, sigma, delta, relation, &context);
        }
    }
}
