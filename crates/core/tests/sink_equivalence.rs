//! Equivalence of the three ways a mining run can leave the miner —
//! collected (`mine_exact`), collected from a threaded `MinePlan`, and
//! streamed through a `PatternSink` — across demo datasets, thread
//! counts, and (via proptest) the σ/δ grid. Same pattern set, same
//! supports, same confidences, same counts; streaming only changes where
//! the patterns go, never what they are.

mod common;

use std::collections::HashMap;

use common::{runs, Layout};
use ftpm_core::{
    mine_exact, CollectSink, Correlation, CountingSink, CsvSink, JsonlSink, MinePlan, MinerConfig,
    MiningResult, Pattern, PatternSink,
};
use ftpm_datagen::{dataport_like, nist_like, random_sequence_database, ukdale_like, Dataset};

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
    assert_eq!(
        a.patterns.len(),
        b.patterns.len(),
        "{context}: pattern count"
    );
    for (pat, (supp, conf)) in &ma {
        let (s2, c2) = mb
            .get(pat)
            .unwrap_or_else(|| panic!("{context}: pattern {pat:?} missing"));
        assert_eq!(supp, s2, "{context}: support mismatch for {pat:?}");
        assert!(
            (conf - c2).abs() < 1e-9,
            "{context}: confidence mismatch for {pat:?}"
        );
    }
}

/// Streams one run into a `CsvSink` and into a `JsonlSink`, with
/// `threads` workers, and returns both outputs; each sink must report
/// `patterns` rows written.
#[expect(
    clippy::expect_used,
    reason = "a test helper fails its test by panicking"
)]
fn stream_writers(
    seq: &ftpm_events::SequenceDatabase,
    cfg: &MinerConfig,
    threads: usize,
    patterns: usize,
    context: &str,
) -> (String, String) {
    let plan = MinePlan::new(seq, cfg).with_threads(threads);
    let mut csv = Vec::new();
    let mut csv_sink = CsvSink::new(&mut csv, seq.registry());
    plan.run(&mut csv_sink);
    assert_eq!(csv_sink.written() as usize, patterns, "{context}: csv rows");
    csv_sink.finish().expect("vec write");
    drop(csv_sink);

    let mut jsonl = Vec::new();
    let mut jsonl_sink = JsonlSink::new(&mut jsonl, seq.registry());
    plan.run(&mut jsonl_sink);
    assert_eq!(
        jsonl_sink.written() as usize,
        patterns,
        "{context}: jsonl lines"
    );
    jsonl_sink.finish().expect("vec write");
    drop(jsonl_sink);
    (
        String::from_utf8(csv).expect("utf8"),
        String::from_utf8(jsonl).expect("utf8"),
    )
}

fn sorted_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines
}

/// The JSONL rows of one HPG node (one `events` value) must be
/// contiguous: workers interleave whole nodes, never rows.
#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
fn assert_nodes_contiguous(jsonl: &str, context: &str) {
    let mut finished = std::collections::HashSet::new();
    let mut current: Option<&str> = None;
    for line in jsonl.lines() {
        let events = line
            .split("\"events\":[")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .unwrap_or_else(|| panic!("{context}: no events in {line:?}"));
        if current != Some(events) {
            if let Some(previous) = current {
                finished.insert(previous);
            }
            assert!(
                !finished.contains(events),
                "{context}: the rows of node [{events}] are split"
            );
            current = Some(events);
        }
    }
}

/// Runs every output path on one dataset/config and cross-checks them.
fn check_all_paths(data: &Dataset, cfg: &MinerConfig) {
    let (seq, context) = (&data.seq, data.name.as_str());
    let exact = mine_exact(seq, cfg);
    let one_thread = MinePlan::new(seq, cfg);

    // Explicit CollectSink: the exact miner is itself sink-driven, so
    // this must be the identical result, order included.
    let mut collect = CollectSink::new();
    let (stats, _) = one_thread.run(&mut collect);
    let collected = collect.into_result(stats);
    assert_eq!(
        exact.patterns, collected.patterns,
        "{context}: collect order"
    );
    assert_eq!(exact.graph, collected.graph, "{context}: collect graph");
    assert_eq!(exact.stats, collected.stats, "{context}: collect stats");

    // Counting sink: same totals without materializing anything.
    let mut counting = CountingSink::default();
    one_thread.run(&mut counting);
    assert_eq!(counting.patterns(), exact.len(), "{context}: count");
    assert_eq!(
        counting.frequent_events(),
        exact.frequent_events.len(),
        "{context}: L1 count"
    );
    assert_eq!(counting.nodes(), exact.graph.n_nodes(), "{context}: nodes");

    // Writer sinks: one row/line per pattern, header first in CSV. The
    // threaded engine streams the same rows at every thread count, and
    // a node's rows stay together.
    let (csv, jsonl) = stream_writers(seq, cfg, 1, exact.len(), context);
    assert_eq!(csv.lines().count(), exact.len() + 1, "{context}: csv lines");
    assert_eq!(jsonl.lines().count(), exact.len(), "{context}: jsonl lines");
    for line in jsonl.lines().take(50) {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"support\":"),
            "{context}: malformed jsonl line {line:?}"
        );
    }
    assert_nodes_contiguous(&jsonl, &format!("{context} threads=1"));
    let (csv_rows, jsonl_rows) = (sorted_lines(&csv), sorted_lines(&jsonl));
    for threads in [2usize, 4] {
        let context = format!("{context} threads={threads}");
        let (csv, jsonl) = stream_writers(seq, cfg, threads, exact.len(), &context);
        assert_eq!(sorted_lines(&csv), csv_rows, "{context}: csv rows");
        assert_eq!(sorted_lines(&jsonl), jsonl_rows, "{context}: jsonl rows");
        assert_nodes_contiguous(&jsonl, &context);
    }

    // Parallel, collected and streamed, at several thread counts.
    let (layouts, gate) = ([Layout::Unsharded], [Correlation::None]);
    for run in runs(&data.syb, data.split, cfg, &[1, 2, 4], &layouts, &gate) {
        let (threads, par) = (run.threads, &run.result);
        assert_same_patterns(&exact, par, &format!("{context} threads={threads}"));
        assert_eq!(
            par.stats.instance_checks, exact.stats.instance_checks,
            "{context} threads={threads}: same work"
        );

        let mut streamed = CountingSink::default();
        let (stats, _) = MinePlan::new(seq, cfg)
            .with_threads(threads)
            .run(&mut streamed);
        assert_eq!(
            streamed.patterns(),
            exact.len(),
            "{context} threads={threads}: streamed count"
        );
        assert_eq!(
            stats.patterns_found.iter().sum::<usize>(),
            exact.len(),
            "{context} threads={threads}: stats count"
        );
    }
}

/// FNV-1a 64 of `bytes`, continuing from the state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a result in emission order: per pattern, the bytes of its
/// rendered label, then its support as a little-endian `u64`.
fn order_digest(result: &MiningResult, registry: &ftpm_events::EventRegistry) -> u64 {
    result.patterns.iter().fold(FNV_OFFSET, |h, fp| {
        let label = fp.pattern.display(registry).to_string();
        fnv1a(
            fnv1a(h, label.as_bytes()),
            &(fp.support as u64).to_le_bytes(),
        )
    })
}

/// The one-thread output is pinned to numbers recorded on the retired
/// sequential DFS engine, so the threaded engine that now runs
/// `threads = 1` is checked against a different implementation rather
/// than against itself: pattern count and every node and pattern
/// counter. `instance_checks` and `transitivity_pruned` are lower than
/// the retired engine's, because the support bound stops hopeless
/// instance walks, which that engine never did; `support_bound_pruned`
/// counts those stops. The digest pins the emission order. The retired
/// engine grouped a node's
/// extensions in a randomly seeded map, so its order varied from run to
/// run; this value is one it produced, and the order is now fixed.
#[test]
fn one_thread_output_matches_the_retired_sequential_engine() {
    let data = nist_like(0.01).project_variables(8);
    let cfg = MinerConfig::new(0.25, 0.25).with_max_events(4);
    let registry = data.seq.registry();
    let pinned = |result: &MiningResult, context: &str| {
        assert_eq!(result.len(), 1632, "{context}: pattern count");
        let stats = &result.stats;
        assert_eq!(stats.nodes_verified, vec![254, 1854, 5330], "{context}");
        assert_eq!(stats.nodes_kept, vec![186, 605, 697], "{context}");
        assert_eq!(stats.patterns_found, vec![242, 677, 713], "{context}");
        assert_eq!(stats.apriori_pruned, 2, "{context}");
        assert_eq!(stats.transitivity_pruned, 6894, "{context}");
        assert_eq!(stats.instance_checks, 13782, "{context}");
        assert_eq!(stats.support_bound_pruned, 6912, "{context}");
        assert_eq!(stats.clipped_instances, 186, "{context}");
        assert_eq!(
            order_digest(result, registry),
            0xd477_57d5_f4e6_36be,
            "{context}: emission order"
        );
    };
    assert_eq!(data.seq.len(), 16);
    let exact = mine_exact(&data.seq, &cfg);
    pinned(&exact, "mine_exact");
    let mut sink = CollectSink::new();
    let (stats, _) = MinePlan::new(&data.seq, &cfg).run(&mut sink);
    pinned(&sink.into_result(stats), "MinePlan::run");

    let (par, _) = MinePlan::new(&data.seq, &cfg).with_threads(2).collect();
    assert_eq!(par.stats, exact.stats, "2 threads: stats");
    assert_same_patterns(&exact, &par, "2 threads");

    // The complete one-thread CSV and JSONL bytes: row order, label
    // escaping and number formatting.
    let (csv, jsonl) = stream_writers(&data.seq, &cfg, 1, 1632, "writers");
    assert_eq!(
        fnv1a(FNV_OFFSET, csv.as_bytes()),
        0x495c_0eb9_b512_9fc5,
        "CSV bytes"
    );
    assert_eq!(
        fnv1a(FNV_OFFSET, jsonl.as_bytes()),
        0x859f_52c0_d040_0587,
        "JSONL bytes"
    );

    // On the input above no parent pattern has two surviving extension
    // groups whose order could differ, so the digest does not pin the
    // order of a parent's groups. Here some parents do: emitting them in
    // first-appearance order (instead of the code-keyed FNV map's
    // iteration order) moves the digest to 0xcb29_6085_e880_fda8.
    let data = nist_like(0.005).project_variables(8);
    let cfg = MinerConfig::new(0.25, 0.25).with_max_events(3);
    let registry = data.seq.registry();
    let pinned = |result: &MiningResult, context: &str| {
        assert_eq!(result.len(), 1019, "{context}: pattern count");
        assert_eq!(
            order_digest(result, registry),
            0x7f7d_a826_fe30_602c,
            "{context}: emission order"
        );
    };
    pinned(&mine_exact(&data.seq, &cfg), "mine_exact, groups");
    let mut sink = CollectSink::new();
    let (stats, _) = MinePlan::new(&data.seq, &cfg).run(&mut sink);
    pinned(&sink.into_result(stats), "MinePlan::run, groups");
}

#[test]
fn all_output_paths_agree_on_demo_datasets() {
    let datasets: [Dataset; 3] = [nist_like(0.008), ukdale_like(0.008), dataport_like(0.01)];
    for data in &datasets {
        let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
        check_all_paths(data, &cfg);
    }
}

#[test]
fn top_n_selection_is_stable_across_thread_counts() {
    // `--top N` must be a total order: parallel discovery order is
    // nondeterministic, so support/confidence ties inside the cut used
    // to make the same command print different pattern sets run to run.
    use ftpm_core::{rank_patterns, PatternSort};
    let data = nist_like(0.01);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let mut selections: Vec<Vec<(ftpm_core::Pattern, usize, f64)>> = Vec::new();
    let (layouts, gate) = ([Layout::Unsharded], [Correlation::None]);
    for run in runs(&data.syb, data.split, &cfg, &[1, 2, 4], &layouts, &gate) {
        let result = run.result;
        for sort in [PatternSort::Support, PatternSort::Confidence] {
            let top = rank_patterns(&result, Some(sort), Some(25));
            // The cut must fall inside a tie group for this test to mean
            // anything: the boundary pair agrees on the sort key.
            let full = rank_patterns(&result, Some(sort), None);
            assert!(full.len() > 25, "need enough patterns to truncate");
            let key = |p: &ftpm_core::FrequentPattern| (p.support, p.confidence.to_bits());
            assert_eq!(
                key(full[24]),
                key(full[25]),
                "expected a support/confidence tie at the --top boundary"
            );
            selections.push(
                top.iter()
                    .map(|p| (p.pattern.clone(), p.support, p.confidence))
                    .collect(),
            );
        }
    }
    for pair in selections.chunks(2).collect::<Vec<_>>().windows(2) {
        assert_eq!(
            pair[0][0], pair[1][0],
            "--top --sort support selection drifted"
        );
        assert_eq!(
            pair[0][1], pair[1][1],
            "--top --sort confidence selection drifted"
        );
    }
}

#[test]
fn parallel_collect_sink_merges_graph_consistently() {
    // The shared-sink merge must keep pattern_indices pointing at the
    // right patterns even though nodes interleave across workers.
    let data = nist_like(0.01);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let (par, _) = MinePlan::new(&data.seq, &cfg).with_threads(4).collect();
    let mut seen = 0usize;
    for (li, level) in par.graph.levels.iter().enumerate() {
        for node in &level.nodes {
            for &pi in &node.pattern_indices {
                let fp = &par.patterns[pi];
                assert_eq!(fp.pattern.len(), li + 2, "level slot vs pattern length");
                assert_eq!(fp.pattern.events(), &node.events[..], "node events");
                seen += 1;
            }
        }
    }
    assert_eq!(seen, par.len(), "every pattern reachable from the graph");
}

#[test]
fn drain_into_collect_roundtrips() {
    let data = ukdale_like(0.01);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let exact = mine_exact(&data.seq, &cfg);
    let mut sink = CollectSink::new();
    exact.clone().drain_into(&mut sink);
    sink.finish().expect("collect never fails");
    let drained = sink.into_result(exact.stats.clone());
    // Draining walks the graph level by level, so the pattern order
    // changes from discovery (depth-first) to level order — but the set,
    // the frequent events, and the graph structure survive the round
    // trip.
    assert_same_patterns(&exact, &drained, "drain");
    assert_eq!(exact.frequent_events, drained.frequent_events);
    assert_eq!(exact.graph.n_nodes(), drained.graph.n_nodes());
    for (le, lr) in exact.graph.levels.iter().zip(&drained.graph.levels) {
        for (ne, nr) in le.nodes.iter().zip(&lr.nodes) {
            assert_eq!(ne.events, nr.events);
            assert_eq!(ne.support, nr.support);
            let pats_e: Vec<_> = ne
                .pattern_indices
                .iter()
                .map(|&i| &exact.patterns[i])
                .collect();
            let pats_r: Vec<_> = nr
                .pattern_indices
                .iter()
                .map(|&i| &drained.patterns[i])
                .collect();
            assert_eq!(pats_e, pats_r, "per-node patterns survive the drain");
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Over random databases and the whole σ/δ square, the parallel
        /// and streaming paths reproduce the sequential pattern set.
        #[test]
        fn exact_parallel_streaming_agree(
            seed in 0u64..12,
            sigma in 0.15f64..0.9,
            delta in 0.15f64..0.9,
        ) {
            let db = random_sequence_database(seed, 6, 3, 2, 40);
            let cfg = MinerConfig::new(sigma, delta).with_max_events(4);
            let exact = mine_exact(&db, &cfg);
            for threads in [2usize, 4] {
                let plan = MinePlan::new(&db, &cfg).with_threads(threads);
                let (par, _) = plan.collect();
                prop_assert_eq!(par.len(), exact.len());
                let (ma, mb) = (as_map(&exact), as_map(&par));
                for (pat, (supp, conf)) in &ma {
                    let (s2, c2) = mb[pat];
                    prop_assert_eq!(*supp, s2);
                    prop_assert!((conf - c2).abs() < 1e-9);
                }
                let mut counting = CountingSink::default();
                plan.run(&mut counting);
                prop_assert_eq!(counting.patterns(), exact.len());
            }
        }
    }
}
