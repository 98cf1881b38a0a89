//! A-HTPGM must be *one plan*, not a separate code path: the same
//! [`CorrelationFilter`] gates L1 (events of correlated series) and L2
//! (pairs with a `G_C` edge) in every miner, so composing the
//! approximate miner with any execution axis — worker threads, shard
//! plans, the candidate-exchange executor — yields the *identical*
//! pattern set (labels, supports, confidences, clipped counts) as plain
//! single-threaded `mine_approximate`. This suite pins that identity
//! across shard counts, boundary policies and both graph
//! parameterizations (μ and edge density), checks the brute-force
//! reference oracle under the same filter, and asserts the exchange
//! coordinator's MI-at-propose gate generates strictly fewer candidates
//! than mining exactly and filtering post hoc. The graph itself is
//! pinned too: its NMI matrix equals the scalar Def 5.3 bit for bit on
//! the energy demo.
//!
//! Event ids differ across conversions (intern order), so everything
//! compares by label.

mod common;

use common::{assert_equivalent, labelled, policy_cfg, random_syb, Labelled};
use ftpm_core::{
    correlation_filter, mine_approximate, mine_approximate_parallel,
    mine_approximate_sharded_exchange, mine_approximate_with_density, mine_reference_filtered,
    MinerConfig, ShardPlanner,
};
use ftpm_events::{to_sequence_database, BoundaryPolicy, RelationConfig, SplitConfig};
use ftpm_mi::{mu_for_density, normalized_mutual_information, CorrelationGraph};
use ftpm_timeseries::{SymbolicDatabase, VariableId};

/// The full composition check for one (data, split, cfg, μ, K): the
/// single-threaded unsharded approximate run is the baseline, and the
/// parallel and sharded candidate-exchange compositions must both
/// reproduce it exactly.
#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
fn check_compositions(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    cfg: &MinerConfig,
    mu: f64,
    shards: usize,
    threads: usize,
    context: &str,
) {
    let seq = to_sequence_database(syb, split);
    let base = mine_approximate(syb, &seq, mu, cfg);
    let base_l = labelled(&base.result, seq.registry());

    let par = mine_approximate_parallel(syb, &seq, mu, cfg, threads);
    assert_equivalent(
        &base_l,
        &labelled(&par.result, seq.registry()),
        &format!("{context} [parallel]"),
    );
    assert_eq!(
        base.result.frequent_events.len(),
        par.result.frequent_events.len(),
        "{context}: parallel L1 count"
    );

    let graph = CorrelationGraph::build(syb, mu);
    let plan = ShardPlanner::new(shards)
        .plan(syb, split, cfg.relation.t_max)
        .unwrap_or_else(|e| panic!("{context}: shard plan failed: {e}"));

    let (exchanged, reports) =
        mine_approximate_sharded_exchange(syb, split, &graph, cfg, shards, threads)
            .unwrap_or_else(|e| panic!("{context}: exchange plan failed: {e}"));
    assert_equivalent(
        &base_l,
        &labelled(&exchanged.result, &exchanged.registry),
        &format!("{context} [sharded exchange]"),
    );
    assert_eq!(
        base.result.frequent_events.len(),
        exchanged.result.frequent_events.len(),
        "{context}: exchange L1 count"
    );
    assert_eq!(reports.len(), plan.shards().len());
    for r in &reports {
        assert!(
            r.candidates_pruned <= r.candidates_proposed,
            "{context}: shard {} pruned more than it proposed",
            r.shard
        );
    }
}

#[test]
fn approx_compositions_agree_across_policies_and_shard_counts() {
    let syb = random_syb(42, 3, 96, 5, 8);
    let split = SplitConfig::new(40, 20);
    let mu = mu_for_density(&syb, 0.6);
    for policy in [
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Clip,
        BoundaryPolicy::Discard,
    ] {
        let cfg = policy_cfg(0.25, 0.25, 20, policy);
        for shards in [1usize, 2, 4] {
            check_compositions(
                &syb,
                split,
                &cfg,
                mu,
                shards,
                2,
                &format!("{policy} K={shards}"),
            );
        }
    }
}

/// The density parameterization is the μ parameterization: A-HTPGM with
/// a density target must equal A-HTPGM at the μ the target resolves to.
#[test]
fn density_parameterization_matches_explicit_mu() {
    let syb = random_syb(7, 4, 96, 5, 7);
    let split = SplitConfig::new(40, 20);
    let seq = to_sequence_database(&syb, split);
    let cfg = policy_cfg(0.2, 0.2, 20, BoundaryPolicy::TrueExtent);
    for density in [0.3, 0.6, 0.9] {
        let mu = mu_for_density(&syb, density);
        let by_density = mine_approximate_with_density(&syb, &seq, density, &cfg);
        let by_mu = mine_approximate(&syb, &seq, mu, &cfg);
        assert!(
            (by_density.mu - mu).abs() < 1e-12,
            "density {density} resolved to mu {} not {mu}",
            by_density.mu
        );
        assert_equivalent(
            &labelled(&by_mu.result, seq.registry()),
            &labelled(&by_density.result, seq.registry()),
            &format!("density {density}"),
        );
    }
}

/// The brute-force oracle under the same filter: A-HTPGM (with
/// transitivity pruning, the default) equals the reference miner gated
/// by the filter built from the same graph.
#[test]
fn reference_oracle_agrees_under_the_same_filter() {
    let syb = random_syb(3, 3, 64, 5, 6);
    let split = SplitConfig::new(40, 20);
    let seq = to_sequence_database(&syb, split);
    let cfg = policy_cfg(0.2, 0.2, 20, BoundaryPolicy::TrueExtent);
    let mu = mu_for_density(&syb, 0.5);
    let graph = CorrelationGraph::build(&syb, mu);
    let filter = correlation_filter(&graph, seq.registry());
    let oracle = mine_reference_filtered(&seq, &cfg, Some(&filter));
    let approx = mine_approximate(&syb, &seq, mu, &cfg);
    assert_equivalent(
        &labelled(&approx.result, seq.registry()),
        &labelled(&oracle, seq.registry()),
        "reference oracle",
    );
    assert_eq!(
        approx.result.frequent_events.len(),
        oracle.frequent_events.len(),
        "oracle L1 count"
    );
}

/// The headline of propose-time gating, on the 8-appliance energy demo
/// at density 0.8: pairs the coordinator's `G_C` gate rejects are never
/// enumerated, so the approximate exchange generates strictly fewer
/// candidates than the exact exchange on the same plan — and its output
/// equals filtering the exact output post hoc (every pattern whose
/// events are all correlated and pairwise edge-connected). The 4-thread
/// parallel run and the 4-shard exchange at 4 threads both equal
/// single-threaded `mine_approximate_with_density`.
#[test]
fn mi_at_propose_beats_post_hoc_filtering_on_the_energy_demo() {
    const DENSITY: f64 = 0.8;
    let data = ftpm_datagen::nist_like(0.01).project_variables(8);
    let t_max = 3 * 60;
    let cfg = MinerConfig::new(0.25, 0.25)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent));
    let base = mine_approximate_with_density(&data.syb, &data.seq, DENSITY, &cfg);
    let base_l = labelled(&base.result, data.seq.registry());
    let graph = CorrelationGraph::build_with_density(&data.syb, DENSITY);
    assert!(
        (graph.mu() - base.mu).abs() < 1e-12,
        "one density must resolve to one mu: {} vs {}",
        graph.mu(),
        base.mu
    );

    let par = mine_approximate_parallel(&data.syb, &data.seq, graph.mu(), &cfg, 4);
    assert_equivalent(
        &base_l,
        &labelled(&par.result, data.seq.registry()),
        "energy demo [parallel, 4 threads]",
    );

    let plan = ShardPlanner::new(4)
        .plan(&data.syb, data.split, t_max)
        .expect("plan");
    let (exact_result, exact_reports) = plan.mine_exchange(&cfg, 4);
    let (approx_result, approx_reports) = plan.mine_approximate_exchange(&graph, &cfg, 4);
    let registry = plan.registry();
    assert_equivalent(
        &base_l,
        &labelled(&approx_result, registry),
        "energy demo [4-shard exchange, 4 threads]",
    );

    let exact_total: usize = exact_reports.iter().map(|r| r.candidates_proposed).sum();
    let approx_total: usize = approx_reports.iter().map(|r| r.candidates_proposed).sum();
    eprintln!(
        "energy demo: {} patterns, {approx_total} exchange candidates with MI at \
         propose time vs {exact_total} exact",
        approx_result.len()
    );
    assert!(
        approx_total < exact_total,
        "MI at propose time must generate strictly fewer exchange candidates \
         ({approx_total} vs {exact_total})"
    );

    // Post-hoc baseline: keep exactly the exact-exchange patterns whose
    // events all lie in X_C and are pairwise connected in G_C.
    let mut in_xc = vec![false; graph.n_vertices()];
    for var in graph.correlated_variables() {
        in_xc[var.0 as usize] = true;
    }
    let var_of = |e: ftpm_events::EventId| -> VariableId { registry.variable(e) };
    let post_hoc: Labelled = exact_result
        .patterns
        .iter()
        .filter(|p| {
            let events = p.pattern.events();
            events.iter().all(|&e| in_xc[var_of(e).0 as usize])
                && events.iter().enumerate().all(|(i, &ei)| {
                    events[i + 1..]
                        .iter()
                        .all(|&ej| graph.has_edge(var_of(ei), var_of(ej)))
                })
        })
        .map(|p| {
            (
                p.pattern.display(registry).to_string(),
                (p.support, p.confidence, p.clipped_occurrences),
            )
        })
        .collect();
    assert_equivalent(
        &post_hoc,
        &labelled(&approx_result, registry),
        "post-hoc filter of the exact exchange",
    );
    assert!(
        !approx_result.patterns.is_empty(),
        "the energy demo at density 0.8 must keep patterns — otherwise the \
         equalities above are vacuous"
    );
}

/// The correlation graph's NMI matrix is the scalar Def 5.3 bit for bit
/// on the energy demo — all 5,112 ordered pairs of its 72 On/Off
/// series — and the density route resolves to the μ and the edges of
/// `build(mu_for_density(..))`.
#[test]
fn nmi_matrix_equals_the_scalar_definition_on_the_energy_demo() {
    const DENSITY: f64 = 0.8;
    let syb = ftpm_datagen::nist_like(0.02).syb;
    let graph = CorrelationGraph::build_with_density(&syb, DENSITY);
    let mut pairs = 0;
    for (i, x) in syb.iter() {
        for (j, y) in syb.iter() {
            if i != j {
                assert_eq!(
                    graph.nmi(i, j).to_bits(),
                    normalized_mutual_information(x, y).to_bits(),
                    "NMI({}; {})",
                    x.name(),
                    y.name()
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 5112);
    let by_mu = CorrelationGraph::build(&syb, mu_for_density(&syb, DENSITY));
    assert_eq!(graph.mu().to_bits(), by_mu.mu().to_bits());
    for (i, _) in syb.iter() {
        for (j, _) in syb.iter() {
            assert_eq!(graph.has_edge(i, j), by_mu.has_edge(i, j), "{i:?}-{j:?}");
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random series, random σ/δ, random density, K in {1, 2, 4},
        /// every boundary policy, both parameterizations: approximate
        /// sharded-exchange == approximate parallel == approximate
        /// sequential (labels, supports, confidences, clipped counts).
        #[test]
        fn approx_sharded_exchange_equals_parallel_equals_sequential(
            seed in 0u64..24,
            vars in 2usize..4,
            sigma in 0.15f64..0.7,
            delta in 0.15f64..0.7,
            density in 0.25f64..1.0,
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
            let mu = mu_for_density(&syb, density);
            let seq = to_sequence_database(&syb, split);
            let base = labelled(
                &mine_approximate_with_density(&syb, &seq, density, &cfg).result,
                seq.registry(),
            );
            let par = labelled(
                &mine_approximate_parallel(&syb, &seq, mu, &cfg, 2).result,
                seq.registry(),
            );
            let graph = CorrelationGraph::build(&syb, mu);
            let (exchanged, _) =
                mine_approximate_sharded_exchange(&syb, split, &graph, &cfg, shards, 1)
                    .expect("plan");
            let em = labelled(&exchanged.result, &exchanged.registry);
            for (label, (supp, conf, clipped)) in &base {
                for (name, m) in [("parallel", &par), ("exchange", &em)] {
                    let (s, c, cl) = m.get(label).unwrap_or_else(|| {
                        panic!("{name} lost {label} (K={shards}, {policy})")
                    });
                    prop_assert_eq!(supp, s, "{} support of {}", name, label);
                    prop_assert!((conf - c).abs() < 1e-9, "{} confidence of {}", name, label);
                    prop_assert_eq!(clipped, cl, "{} clipped of {}", name, label);
                }
            }
            prop_assert_eq!(base.len(), par.len(), "parallel pattern count");
            prop_assert_eq!(base.len(), em.len(), "exchange pattern count");
        }
    }
}
