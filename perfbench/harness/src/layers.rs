//! Per-layer metrics of the traced run, named `<module>.<measure>`.
//!
//! Timings come from the recorder's spans around each library call;
//! counts come from `MiningStats`, `ShardReport`, the timing sink and
//! two probes run after mining (an index build and an `and_count` pass
//! over every pair of frequent single-event bitmaps). Every metric is
//! reported on every workload: a layer a workload does not use reads
//! ~0 s or 0.

use std::hint::black_box;
use std::time::Instant;

use ftpm::{DatabaseIndex, DeltaKey, EventId};

use crate::pipeline::{Mined, Prepared};
use crate::trace::Recorder;
use crate::workload::Workload;

/// Pattern lengths reported per level.
const LEVELS: std::ops::RangeInclusive<usize> = 2..=5;
/// Minimum measured time of the `and_count` probe.
const PROBE_MIN_S: f64 = 0.05;

/// The unit of a per-layer metric, from its name.
pub fn unit(name: &str) -> &'static str {
    if name.ends_with("_ns") || name.ends_with("ns_per_row") {
        "ns"
    } else if name.ends_with("_s") || name.ends_with(".s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("bytes") || name.ends_with("bytes_per_call") {
        "B"
    } else if name.contains("ratio") || name.ends_with("imbalance") || name.ends_with(".mu") {
        "ratio"
    } else {
        "count"
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Records every per-layer counter of a traced run into `rec`.
pub fn record(w: &Workload, p: &Prepared, m: &Mined, rec: &mut Recorder) {
    for (name, span) in [
        ("ftpm.parse_csv_s", "ftpm.parse_csv"),
        ("timeseries.symbolize_s", "timeseries.symbolize"),
        ("events.split_s", "events.split"),
        ("mi.graph_s", "mi.graph"),
        ("shard.plan_s", "shard.plan"),
    ] {
        let s = rec.seconds(span);
        rec.count(name, s);
    }
    let instances = p.seq.sequences().iter().flat_map(|s| s.instances());
    let (total, clipped) = instances.fold((0u64, 0u64), |(t, c), i| (t + 1, c + u64::from(i.is_clipped())));
    rec.count("events.instances", total as f64);
    rec.count("events.clipped_instances", clipped as f64);
    rec.count("mi.edges", p.graph.as_ref().map_or(0, |g| g.n_edges()) as f64);
    rec.count("mi.mu", p.graph.as_ref().map_or(0.0, |g| g.mu()));

    // Index and bitmap probes over the unsharded database.
    let cfg = w.miner_config();
    let started = Instant::now();
    let index = DatabaseIndex::build_with_policy(&p.seq, cfg.relation.boundary);
    rec.count("index.build_s", started.elapsed().as_secs_f64());
    let min_support = cfg.absolute_support(p.seq.len());
    let frequent: Vec<EventId> = p
        .seq
        .registry()
        .ids()
        .filter(|&e| index.support(e) >= min_support)
        .collect();
    let pairs: Vec<(EventId, EventId)> = frequent
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| frequent[i + 1..].iter().map(move |&b| (a, b)))
        .collect();
    let (mut calls, mut acc) = (0u64, 0usize);
    let probe = Instant::now();
    while !pairs.is_empty() && probe.elapsed().as_secs_f64() < PROBE_MIN_S {
        for &(a, b) in &pairs {
            acc = acc.wrapping_add(black_box(index.bitmap(a)).and_count(black_box(index.bitmap(b))));
        }
        calls += pairs.len() as u64;
    }
    black_box(acc);
    rec.count("bitmap.and_count_ns", ratio(probe.elapsed().as_secs_f64() * 1e9, calls as f64));
    let words = p.seq.len().div_ceil(64);
    rec.count("bitmap.bytes_per_call", (2 * words * 8) as f64);

    // Mining.
    let mine_s = rec.seconds("mine");
    rec.count("mine.s", mine_s);
    rec.count("mine.self_s", mine_s - m.sink.busy_s - m.sink.pool_s);
    rec.count("mine.peak_heap_mb", m.sink.peak_heap as f64 / (1024.0 * 1024.0));
    let level = |v: &[usize], k: usize| v.get(k - 2).copied().unwrap_or(0) as f64;
    for k in LEVELS {
        let verified = level(&m.stats.nodes_verified, k);
        rec.count(format!("mine.nodes_verified.k{k}"), verified);
        rec.count(format!("mine.patterns.k{k}"), level(&m.stats.patterns_found, k));
        rec.count(format!("mine.kept_ratio.k{k}"), ratio(level(&m.stats.nodes_kept, k), verified));
    }
    rec.count("mine.apriori_pruned", m.stats.apriori_pruned as f64);
    rec.count("mine.transitivity_pruned", m.stats.transitivity_pruned as f64);
    rec.count("mine.instance_checks", m.stats.instance_checks as f64);

    // Candidate exchange, from the per-shard reports.
    let proposed: usize = m.reports.iter().map(|r| r.candidates_proposed).sum();
    let pruned: usize = m.reports.iter().map(|r| r.candidates_pruned).sum();
    let walls: Vec<f64> = m.reports.iter().map(|r| r.wall.as_secs_f64()).collect();
    let wall_max = walls.iter().copied().fold(0.0, f64::max);
    let wall_sum = walls.iter().fold(0.0, |a, b| a + b);
    rec.count("exchange.candidates_proposed", proposed as f64);
    rec.count("exchange.candidates_pruned", pruned as f64);
    rec.count("exchange.survival_ratio", ratio((proposed - pruned) as f64, proposed as f64));
    rec.count("exchange.shard_wall_max_s", wall_max);
    rec.count("exchange.shard_wall_sum_s", wall_sum);
    rec.count("exchange.shard_imbalance", ratio(wall_max, wall_sum / walls.len().max(1) as f64));
    // Each proposal is a `DeltaKey` plus its owned `(support, clipped)`.
    let per_proposal = std::mem::size_of::<DeltaKey>() + std::mem::size_of::<(usize, usize)>();
    rec.count("exchange.wire_bytes", (proposed * per_proposal) as f64);

    // Sink, pattern pool, post-processing.
    rec.count("sink.self_s", m.sink.busy_s);
    rec.count("sink.rows", m.sink.rows as f64);
    rec.count("sink.bytes", m.sink.bytes as f64);
    rec.count("sink.ns_per_row", ratio(m.sink.busy_s * 1e9, m.sink.rows as f64));
    rec.count("sink.allocs_per_row", ratio(m.sink.allocs as f64, m.sink.rows as f64));
    rec.count("pool.intern_s", m.sink.pool_s);
    rec.count("pool.entries", m.sink.pool_entries as f64);
    let rank = rec.seconds("postprocess.rank");
    rec.count("postprocess.rank_s", rank);
}
