//! The coordinator-side accumulator of the sharded executor: per-pattern
//! owned statistics summed across shards, then the global σ/δ pass.
//!
//! A shard-by-time-range run (see [`crate::shard`]) mines K overlapping
//! slices of the data. The slices overlap by `t_ov`, so windows inside an
//! overlap region belong to *both* adjacent shards' databases; summing
//! per-shard supports naively would count every such window twice and
//! inflate support. Each shard therefore reports supports restricted to
//! the windows it *owns* (ownership partitions the window space — see
//! [`crate::executor`]), and this module sums those owned supports: each
//! window contributes exactly once.
//!
//! Patterns are *hash-consed*: the exchange gate interns every survivor
//! into a [`PatternPool`] by its [`crate::pool::DeltaKey`], and
//! statistics accumulate in flat columns indexed by [`PatternId`], so a
//! pattern proposed by all K shards is allocated once, not K times, and
//! never re-hashed vector-wide. [`ShardMerge::finish_into`] applies the
//! global σ/δ thresholds over the id-indexed columns and resolves only
//! the survivors back to full patterns, in one deterministic
//! (pattern-sorted) pass.

use std::sync::Arc;

use ftpm_events::{EventId, EventRegistry};

use crate::candidates::CONF_EPS;
use crate::config::MinerConfig;
use crate::pattern::Pattern;
use crate::pool::{PatternId, PatternPool};
use crate::result::{FrequentPattern, MiningStats};
use crate::sink::PatternSink;

/// Sums per-worker / per-shard run counters into `into` — the single
/// stats-merge path shared by the parallel miner's worker shards and the
/// time-range shard merge.
pub(crate) fn merge_stats(into: &mut MiningStats, from: MiningStats) {
    for (i, v) in from.nodes_verified.into_iter().enumerate() {
        if into.nodes_verified.len() <= i {
            into.nodes_verified.push(0);
            into.nodes_kept.push(0);
            into.patterns_found.push(0);
        }
        into.nodes_verified[i] += v;
    }
    for (i, v) in from.nodes_kept.into_iter().enumerate() {
        if into.nodes_kept.len() <= i {
            into.nodes_kept.push(0);
        }
        into.nodes_kept[i] += v;
    }
    for (i, v) in from.patterns_found.into_iter().enumerate() {
        if into.patterns_found.len() <= i {
            into.patterns_found.push(0);
        }
        into.patterns_found[i] += v;
    }
    into.instance_checks += from.instance_checks;
    into.apriori_pruned += from.apriori_pruned;
    into.transitivity_pruned += from.transitivity_pruned;
    // Boundary counts describe the database, not per-shard work: they
    // are recorded once up front, and shard stats carry zeros.
    into.clipped_instances += from.clipped_instances;
    into.discarded_instances += from.discarded_instances;
}

/// Accumulated measures of one pattern across shards: owned supports and
/// owned clipped-occurrence counts simply add, because window ownership
/// partitions the global window space.
#[derive(Debug, Default, Clone, Copy)]
struct MergeEntry {
    support: usize,
    clipped_occurrences: usize,
}

/// Union of per-shard pattern statistics, accumulated by hash-consed
/// [`PatternId`] instead of by owned [`Pattern`] key.
///
/// The exchange coordinator interns each gate survivor and folds its
/// owned counts in with [`ShardMerge::add_by_id`], records each shard's
/// owned single-event supports and run counters, then calls
/// [`ShardMerge::finish_into`] to apply the global thresholds and emit
/// the merged output into a downstream sink.
#[derive(Debug)]
pub(crate) struct ShardMerge {
    registry: Arc<EventRegistry>,
    /// Total owned windows across all shards — the global `|D_SEQ|`.
    n_sequences: usize,
    /// Owned single-event supports, indexed by master [`EventId`] — the
    /// confidence denominators of the merged output.
    event_supports: Vec<usize>,
    /// The master pattern pool: every distinct gate survivor, interned
    /// once. Roots cover the master registry, so raw event ids
    /// double as root pattern ids.
    pool: PatternPool,
    /// Per-pattern accumulators, aligned with `pool` ids (lazily grown —
    /// prefix entries created only as chain links carry no counts).
    entries: Vec<MergeEntry>,
    /// Ids that have received at least one emission, in first-touch
    /// order — the iteration set for [`ShardMerge::finish_into`].
    touched: Vec<PatternId>,
    stats: MiningStats,
}

impl ShardMerge {
    /// An empty merge over a master registry covering `n_sequences` owned
    /// windows in total. Accepts the registry by value or as a shared
    /// [`Arc`] (the shard planner hands every shard the same allocation).
    pub(crate) fn new(registry: impl Into<Arc<EventRegistry>>, n_sequences: usize) -> Self {
        let registry = registry.into();
        let event_supports = vec![0; registry.len()];
        let pool = PatternPool::with_roots(registry.len());
        ShardMerge {
            registry,
            n_sequences,
            event_supports,
            pool,
            entries: Vec::new(),
            touched: Vec::new(),
            stats: MiningStats::default(),
        }
    }

    /// The master pattern pool (exchange-coordinator seam: the gate
    /// walks parent chains for confidence denominators and interns
    /// survivors by [`crate::pool::DeltaKey`]).
    pub(crate) fn pool(&self) -> &PatternPool {
        &self.pool
    }

    /// Mutable pool access for the exchange coordinator's survivor
    /// interning.
    pub(crate) fn pool_mut(&mut self) -> &mut PatternPool {
        &mut self.pool
    }

    /// Adds one shard's owned support of a single event (confidence
    /// denominator material).
    pub(crate) fn add_event_support(&mut self, event: EventId, support: usize) {
        self.event_supports[event.0 as usize] += support;
    }

    /// Folds owned statistics into the accumulator column of an interned
    /// pattern — the exchange gate lands here with an id, never a cloned
    /// pattern.
    pub(crate) fn add_by_id(&mut self, id: PatternId, support: usize, clipped: usize) {
        let at = id.0 as usize;
        if self.entries.len() <= at {
            self.entries.resize(self.pool.len().max(at + 1), MergeEntry::default());
        }
        let entry = &mut self.entries[at];
        if entry.support == 0 && entry.clipped_occurrences == 0 {
            self.touched.push(id);
        }
        entry.support += support;
        entry.clipped_occurrences += clipped;
    }

    /// Sums one shard's run counters into the merged work statistics.
    pub(crate) fn add_stats(&mut self, stats: MiningStats) {
        merge_stats(&mut self.stats, stats);
    }

    /// Overrides the boundary observability counters: per-shard counts
    /// would include the duplicated overlap windows, so the coordinator
    /// sums the shards' owned-window counts instead.
    pub(crate) fn set_boundary_counts(&mut self, clipped: u64, discarded: u64) {
        self.stats.clipped_instances = clipped;
        self.stats.discarded_instances = discarded;
    }

    /// Applies the *global* thresholds of `cfg` to the merged statistics
    /// and emits the surviving patterns into `sink`, sorted by pattern
    /// (events, then relations) so the merged output is deterministic
    /// regardless of shard interleaving. Only survivors are
    /// resolved from the pool back to full patterns — allocation is
    /// output-proportional. Returns the merged run statistics: work
    /// counters are summed across shards, while the per-level
    /// `patterns_found`/`nodes_kept` describe the merged final output
    /// (one slot per level of `nodes_verified`, `nodes_kept` counting
    /// distinct event lists).
    pub(crate) fn finish_into(self, cfg: &MinerConfig, sink: &mut dyn PatternSink) -> MiningStats {
        let ShardMerge {
            registry,
            n_sequences,
            event_supports,
            pool,
            entries,
            touched,
            mut stats,
        } = self;
        let sigma_abs = cfg.absolute_support(n_sequences);

        let l1: Vec<(EventId, usize)> = registry
            .ids()
            .filter(|e| event_supports[e.0 as usize] >= sigma_abs)
            .map(|e| (e, event_supports[e.0 as usize]))
            .collect();
        sink.begin(&l1);

        let mut rows: Vec<(Pattern, MergeEntry, f64)> = touched
            .into_iter()
            .filter_map(|id| {
                let entry = entries[id.0 as usize];
                if entry.support < sigma_abs {
                    return None;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "structural invariant: patterns always hold at least one event"
                )]
                let max_supp = pool
                    .events_rev(id)
                    .map(|e| event_supports[e.0 as usize])
                    .max()
                    .expect("patterns have events");
                if max_supp == 0 {
                    return None;
                }
                let confidence = entry.support as f64 / max_supp as f64;
                if confidence + CONF_EPS < cfg.delta {
                    return None;
                }
                Some((pool.resolve(id), entry, confidence))
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));

        // One slot per verified level, as the unsharded miner reports. A
        // node is an event list, and rows sort by events first, so a
        // node's patterns are adjacent.
        stats.nodes_kept = vec![0; stats.nodes_verified.len()];
        stats.patterns_found = vec![0; stats.nodes_verified.len()];
        for (i, (pattern, _, _)) in rows.iter().enumerate() {
            let k = pattern.len();
            while stats.patterns_found.len() < k - 1 {
                stats.patterns_found.push(0);
                stats.nodes_kept.push(0);
            }
            stats.patterns_found[k - 2] += 1;
            if i == 0 || rows[i - 1].0.events() != pattern.events() {
                stats.nodes_kept[k - 2] += 1;
            }
        }
        for (pattern, entry, confidence) in rows {
            let k = pattern.len();
            let events = pattern.events().to_vec();
            let fp = FrequentPattern {
                pattern,
                support: entry.support,
                rel_support: entry.support as f64 / n_sequences.max(1) as f64,
                confidence,
                clipped_occurrences: entry.clipped_occurrences,
            };
            sink.node(events, entry.support, k, vec![fp]);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_events::TemporalRelation;
    use ftpm_timeseries::{SymbolId, VariableId};

    use crate::sink::CollectSink;

    fn registry(labels: &[&str]) -> EventRegistry {
        let mut reg = EventRegistry::new();
        for (i, l) in labels.iter().enumerate() {
            reg.intern(VariableId(i as u32), SymbolId(1), || (*l).to_owned());
        }
        reg
    }

    /// Interns `e1 Follow e2` and folds one shard's owned counts in, the
    /// way the exchange gate does.
    fn add(merge: &mut ShardMerge, e1: u32, e2: u32, support: usize, clipped: usize) {
        let pattern = Pattern::pair(EventId(e1), TemporalRelation::Follow, EventId(e2));
        let id = merge.pool_mut().intern(&pattern);
        merge.add_by_id(id, support, clipped);
    }

    #[test]
    fn merge_sums_owned_supports_and_filters() {
        // Master: A=0, B=1.
        let mut merge = ShardMerge::new(registry(&["A", "B"]), 8);
        // Two shards report A -> B with owned supports 3 and 2.
        add(&mut merge, 0, 1, 3, 1);
        add(&mut merge, 0, 1, 2, 0);
        // A pattern below the global sigma: dropped by finish.
        add(&mut merge, 1, 0, 1, 0);
        merge.add_event_support(EventId(0), 5);
        merge.add_event_support(EventId(0), 3);
        merge.add_event_support(EventId(1), 6);
        assert_eq!(merge.touched.len(), 2);

        let cfg = MinerConfig::new(0.5, 0.5); // sigma_abs = 4 of 8
        let mut out = CollectSink::new();
        let stats = merge.finish_into(&cfg, &mut out);
        let result = out.into_result(stats);
        assert_eq!(result.len(), 1, "only the summed A->B survives");
        let p = &result.patterns[0];
        assert_eq!(p.support, 5, "3 + 2 owned windows");
        assert_eq!(p.clipped_occurrences, 1);
        assert!((p.confidence - 5.0 / 8.0).abs() < 1e-12);
        assert!((p.rel_support - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(result.frequent_events, vec![(EventId(0), 8), (EventId(1), 6)]);
        assert_eq!(result.stats.patterns_found, vec![1]);
    }

    #[test]
    fn finish_applies_confidence_with_tolerance() {
        let mut merge = ShardMerge::new(registry(&["A", "B"]), 10);
        add(&mut merge, 0, 1, 7, 0);
        merge.add_event_support(EventId(0), 10);
        merge.add_event_support(EventId(1), 7);
        // conf = 7/10 must pass delta = 0.7 despite float noise.
        let cfg = MinerConfig::new(0.1, 0.7);
        let mut out = CollectSink::new();
        let stats = merge.finish_into(&cfg, &mut out);
        assert_eq!(out.into_result(stats).len(), 1);
    }

    #[test]
    fn nodes_kept_counts_event_lists() {
        let mut merge = ShardMerge::new(registry(&["A", "B"]), 4);
        for r in [TemporalRelation::Follow, TemporalRelation::Contain] {
            let pattern = Pattern::pair(EventId(0), r, EventId(1));
            let id = merge.pool_mut().intern(&pattern);
            merge.add_by_id(id, 4, 0);
        }
        add(&mut merge, 1, 0, 4, 0);
        merge.add_event_support(EventId(0), 4);
        merge.add_event_support(EventId(1), 4);
        merge.add_stats(MiningStats {
            nodes_verified: vec![2, 0],
            ..MiningStats::default()
        });
        let stats = merge.finish_into(&MinerConfig::new(0.5, 0.5), &mut CollectSink::new());
        assert_eq!(stats.patterns_found, vec![3, 0]);
        assert_eq!(stats.nodes_kept, vec![2, 0], "(A, B) holds two patterns");
    }

    #[test]
    fn same_pattern_from_two_shards_interns_once() {
        let mut merge = ShardMerge::new(registry(&["A", "B"]), 4);
        add(&mut merge, 0, 1, 1, 0);
        let pooled = merge.pool().len();
        add(&mut merge, 0, 1, 2, 0);
        assert_eq!(merge.pool().len(), pooled, "second emission is a pool hit");
        assert_eq!(merge.touched.len(), 1);
    }
}
