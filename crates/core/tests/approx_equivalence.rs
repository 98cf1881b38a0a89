//! A-HTPGM must be *one plan*, not a separate code path: the same
//! [`CorrelationFilter`] gates L1 (events of correlated series) and L2
//! (pairs with a `G_C` edge) in every miner, so composing the
//! approximate miner with any execution axis — worker threads, shard
//! plans, the candidate-exchange executor — yields the *identical*
//! pattern set (labels, supports, confidences, clipped counts) as plain
//! single-threaded `mine_approximate`. This suite pins that identity
//! across shard counts, boundary policies and both graph
//! parameterizations (μ and edge density), and for the event-level arm
//! of Section VII; checks the brute-force reference oracle under the
//! same filter; and asserts the exchange coordinator's MI-at-propose
//! gate generates strictly fewer candidates than mining exactly and
//! filtering post hoc. The graph itself is pinned too: its NMI matrix
//! equals the scalar Def 5.3 bit for bit on the energy demo.
//!
//! Event ids differ across conversions (intern order), so everything
//! compares by label.

mod common;

use common::{assert_equivalent, labelled, policy_cfg, random_syb, runs, Labelled, Layout};
use ftpm_core::{
    correlation_filter, event_indicator_database, mine_approximate, mine_approximate_with_density,
    mine_reference_filtered, Correlation, GraphMismatch, MinePlan, MinerConfig, ShardPlanner,
};
use ftpm_events::{to_sequence_database, BoundaryPolicy, RelationConfig, SplitConfig};
use ftpm_mi::{mu_for_density, normalized_mutual_information, CorrelationGraph};
use ftpm_timeseries::{SymbolicDatabase, VariableId};

/// The full composition check for one (data, split, cfg, μ, K): the
/// single-threaded unsharded approximate run is the baseline, and the
/// plan over the unsharded data and over K shards, at `threads`
/// workers, must both reproduce it exactly.
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
    let base = mine_approximate(syb, &seq, mu, cfg).unwrap_or_else(|e| panic!("{context}: {e}"));
    let base_l = labelled(&base.result, seq.registry());
    let graph = CorrelationGraph::build(syb, mu);
    let layouts = [Layout::Unsharded, Layout::Shards(shards)];
    for run in runs(
        syb,
        split,
        cfg,
        &[threads],
        &layouts,
        &[Correlation::Series(&graph)],
    ) {
        let context = format!("{context} [{}]", run.context);
        assert_equivalent(&base_l, &run.labelled, &context);
        assert_eq!(
            base.result.frequent_events.len(),
            run.result.frequent_events.len(),
            "{context}: L1 count"
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
        let by_density = mine_approximate_with_density(&syb, &seq, density, &cfg)
            .expect("the graph is built on the same data");
        let by_mu =
            mine_approximate(&syb, &seq, mu, &cfg).expect("the graph is built on the same data");
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
    let filter =
        correlation_filter(&graph, seq.registry()).expect("the graph is built on the same data");
    let oracle = mine_reference_filtered(&seq, &cfg, Some(&filter));
    let approx =
        mine_approximate(&syb, &seq, mu, &cfg).expect("the graph is built on the same data");
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
    let base = mine_approximate_with_density(&data.syb, &data.seq, DENSITY, &cfg)
        .expect("the graph is built on the same data");
    let base_l = labelled(&base.result, data.seq.registry());
    let graph = CorrelationGraph::build_with_density(&data.syb, DENSITY);
    assert!(
        (graph.mu() - base.mu).abs() < 1e-12,
        "one density must resolve to one mu: {} vs {}",
        graph.mu(),
        base.mu
    );
    let approx = Correlation::Series(&graph);

    let (par, _) = MinePlan::new(&data.seq, &cfg)
        .with_correlation(approx)
        .expect("the graph is built on the same data")
        .with_threads(4)
        .collect();
    assert_equivalent(
        &base_l,
        &labelled(&par, data.seq.registry()),
        "energy demo [parallel, 4 threads]",
    );

    let plan = ShardPlanner::new(4)
        .plan(&data.syb, data.split, t_max)
        .expect("plan");
    let exchange = MinePlan::new(&plan, &cfg).with_threads(4);
    let (exact_result, exact_reports) = exchange.collect();
    let (approx_result, approx_reports) = exchange
        .with_correlation(approx)
        .expect("the graph is built on the same data")
        .collect();
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
/// Event-level A-HTPGM (Section VII) is one more correlation arm of the
/// plan: at threads {1, 2} × {unsharded, K = 2, K = 4} it equals the
/// one-thread unsharded run, whose pattern counts are pinned, by label,
/// support, confidence and clipped count. The graph's vertices are the
/// unsharded conversion's event ids, which every shard plan's master
/// registry shares.
#[test]
fn event_level_plan_agrees_across_threads_and_shards() {
    let data = ftpm_datagen::dataport_like(0.02);
    let cfg = MinerConfig::new(0.3, 0.3).with_max_events(3);
    let indicators = event_indicator_database(&data.syb, data.seq.registry());
    let layouts = [Layout::Unsharded, Layout::Shards(2), Layout::Shards(4)];
    for (mu, count) in [(0.1, 991), (0.4, 107), (0.7, 84)] {
        let graph = CorrelationGraph::build(&indicators, mu);
        let events = [Correlation::Events(&graph)];
        let runs = runs(&data.syb, data.split, &cfg, &[1, 2], &layouts, &events);
        let (base, others) = runs.split_first().expect("six runs");
        assert_eq!(base.result.len(), count, "mu={mu}: pattern count");
        assert_eq!(others.len(), 5);
        for run in others {
            assert_equivalent(
                &base.labelled,
                &run.labelled,
                &format!("mu={mu} [{}]", run.context),
            );
        }
    }
}

/// A series-level graph built on other data, with fewer vertices than
/// the mined events have variables, is rejected when the gate is
/// attached: through the plan (unsharded and sharded), through
/// `correlation_filter` and through `mine_approximate`. Mining used to
/// index the graph out of bounds inside the run.
#[test]
fn a_series_graph_of_other_data_is_a_typed_error() {
    let data = ftpm_datagen::nist_like(0.005).project_variables(3);
    let other = ftpm_datagen::nist_like(0.005).project_variables(2);
    let graph = CorrelationGraph::build(&other.syb, 0.4);
    assert_eq!(graph.n_vertices(), 2);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let mismatch = GraphMismatch::Series {
        vertices: 2,
        variables: 3,
    };
    let series = Correlation::Series(&graph);
    let err = MinePlan::new(&data.seq, &cfg)
        .with_correlation(series)
        .expect_err("2 vertices for 3 variables");
    assert_eq!(err, mismatch);
    assert_eq!(
        err.to_string(),
        "the correlation graph has 2 vertices, but the events span 3 variables"
    );
    let shards = ShardPlanner::new(2)
        .plan(&data.syb, data.split, 0)
        .expect("valid geometry");
    let err = MinePlan::new(&shards, &cfg)
        .with_correlation(series)
        .expect_err("the master registry spans 3 variables");
    assert_eq!(err, mismatch);
    assert_eq!(
        correlation_filter(&graph, data.seq.registry()).err(),
        Some(mismatch)
    );
    assert_eq!(
        mine_approximate(&other.syb, &data.seq, 0.4, &cfg).err(),
        Some(mismatch)
    );
    // The graph of the mined data itself still attaches.
    let own = CorrelationGraph::build(&data.syb, 0.4);
    assert!(MinePlan::new(&data.seq, &cfg)
        .with_correlation(Correlation::Series(&own))
        .is_ok());
}

/// An event-level graph must have one vertex per event of the plan's
/// registry: one with more vertices (42, the indicators of another
/// dataset) or fewer is a typed error, not an out-of-bounds panic.
#[test]
fn an_event_graph_of_other_data_is_a_typed_error() {
    let data = ftpm_datagen::nist_like(0.005).project_variables(3);
    assert_eq!(data.seq.registry().len(), 6);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let dataport = ftpm_datagen::dataport_like(0.02);
    let indicators = event_indicator_database(&dataport.syb, dataport.seq.registry());
    let more = CorrelationGraph::build(&indicators, 0.4);
    let fewer_data = ftpm_datagen::nist_like(0.005).project_variables(1);
    let fewer = CorrelationGraph::build(
        &event_indicator_database(&fewer_data.syb, fewer_data.seq.registry()),
        0.4,
    );
    for (graph, vertices) in [(&more, 42), (&fewer, 2)] {
        let mismatch = GraphMismatch::Events {
            vertices,
            events: 6,
        };
        let err = MinePlan::new(&data.seq, &cfg)
            .with_correlation(Correlation::Events(graph))
            .expect_err("vertex count differs from the event count");
        assert_eq!(err, mismatch);
        let shards = ShardPlanner::new(2)
            .plan(&data.syb, data.split, 0)
            .expect("valid geometry");
        let err = MinePlan::new(&shards, &cfg)
            .with_correlation(Correlation::Events(graph))
            .expect_err("vertex count differs from the event count");
        assert_eq!(err, mismatch);
    }
    assert_eq!(
        GraphMismatch::Events {
            vertices: 42,
            events: 6
        }
        .to_string(),
        "the event-level correlation graph has 42 vertices, but there are 6 events"
    );
}

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
        /// every boundary policy, both parameterizations: the approximate
        /// plan at 1 and 2 threads, unsharded and over K shards, equals
        /// approximate sequential (labels, supports, confidences,
        /// clipped counts).
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
                &mine_approximate_with_density(&syb, &seq, density, &cfg)
                    .expect("the graph is built on the same data")
                    .result,
                seq.registry(),
            );
            let graph = CorrelationGraph::build(&syb, mu);
            let layouts = [Layout::Unsharded, Layout::Shards(shards)];
            let series = [Correlation::Series(&graph)];
            for run in runs(&syb, split, &cfg, &[1, 2], &layouts, &series) {
                let context = &run.context;
                for (label, (supp, conf, clipped)) in &base {
                    let (s, c, cl) = run.labelled.get(label).unwrap_or_else(|| {
                        panic!("{context} lost {label} ({policy})")
                    });
                    prop_assert_eq!(supp, s, "{} support of {}", context, label);
                    prop_assert!((conf - c).abs() < 1e-9, "{} confidence of {}", context, label);
                    prop_assert_eq!(clipped, cl, "{} clipped of {}", context, label);
                }
                prop_assert_eq!(base.len(), run.labelled.len(), "{} pattern count", context);
            }
        }
    }
}
