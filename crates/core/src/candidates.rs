//! Shared candidate engine: the work nodes of the Hierarchical Pattern
//! Graph, the screens a candidate meets first, and the Apriori
//! support/confidence gates (Lemmas 2–3), in one place.
//!
//! L1 nodes are roots ([`WorkNode::root`]): level 2 grows them by one
//! event exactly as level `k` grows a node of level `k − 1`, through the
//! one growth step of [`crate::exact`]. The threaded engine (every
//! unsharded [`crate::MinePlan`], at any thread count) and the exchange
//! executor both drive that step, so the thresholds — including the
//! confidence tolerance [`CONF_EPS`] — are applied identically
//! everywhere; only the [`Screen`] differs between level 2 and above.

use ftpm_bitmap::Bitmap;
use ftpm_events::{EventId, TemporalRelation};

use crate::approx::CorrelationFilter;
use crate::config::MinerConfig;
use crate::index::DatabaseIndex;
use crate::occ::{OccArena, OccRange};
use crate::pattern::Pattern;
use crate::pool::PatternId;
use crate::result::MiningStats;

/// Tolerance for `conf >= delta` comparisons, so that thresholds like 0.7
/// accept patterns whose confidence is exactly 0.7 up to floating noise.
pub(crate) const CONF_EPS: f64 = 1e-9;

/// Final σ/δ check on a verified candidate: returns the confidence iff
/// `support ≥ sigma_abs` and `support / max_supp ≥ delta − CONF_EPS`.
#[inline]
pub(crate) fn passes_thresholds(
    support: usize,
    max_supp: usize,
    sigma_abs: usize,
    delta: f64,
) -> Option<f64> {
    if support < sigma_abs {
        return None;
    }
    let confidence = support as f64 / max_supp as f64;
    if confidence + CONF_EPS < delta {
        return None;
    }
    Some(confidence)
}

/// The Apriori gate (Lemmas 2–3) on a candidate event combination: true
/// iff the candidate must proceed to instance verification. With Apriori
/// pruning off, only empty joint bitmaps are skipped (and not counted as
/// pruned — nothing to scan either way).
#[inline]
pub(crate) fn apriori_gate(
    cfg: &MinerConfig,
    sigma_abs: usize,
    joint_supp: usize,
    max_supp: usize,
    stats: &mut MiningStats,
) -> bool {
    if !cfg.pruning.apriori {
        return joint_supp > 0;
    }
    // Lemma 2: supp(P) <= supp(E_1, …, E_k).
    if joint_supp < sigma_abs {
        stats.apriori_pruned += 1;
        return false;
    }
    // Lemma 3: conf(P) <= conf(E_1, …, E_k).
    if (joint_supp as f64 / max_supp as f64) + CONF_EPS < cfg.delta {
        stats.apriori_pruned += 1;
        return false;
    }
    true
}

/// Working data of one frequent pattern during mining: its occurrence
/// bindings are needed to grow the next level, then dropped.
pub(crate) struct WorkPattern {
    pub(crate) pattern: Pattern,
    pub(crate) support: usize,
    pub(crate) confidence: f64,
    /// The pattern's occurrence bindings: a range of rows in the owning
    /// node's [`WorkNode::occs`] arena.
    pub(crate) occurrences: OccRange,
    /// Pool identity, assigned by the exchange coordinator when this
    /// pattern survives the global gate; [`PatternId::NONE`] in the
    /// non-exchange miners and before gating.
    pub(crate) id: PatternId,
    /// Pool identity of the (k−1)-prefix this pattern was grown from —
    /// with [`WorkPattern::code`], the pattern's [`crate::pool::DeltaKey`]
    /// the exchange executor keys proposals on instead of cloning the
    /// pattern. Level-2 patterns have the first event's root id.
    pub(crate) parent_id: PatternId,
    /// The delta relation column, packed 2 bits per relation (already
    /// computed as the extension grouping key in `extend_node`).
    pub(crate) code: u64,
}

/// Working node: event combination + joint bitmap + patterns, plus the
/// struct-of-arrays arena holding every pattern's occurrence bindings
/// (each binding row: sequence id + instance indices in chronological
/// order). Patterns own disjoint ascending ranges of the arena.
pub(crate) struct WorkNode {
    pub(crate) events: Vec<EventId>,
    pub(crate) bitmap: Bitmap,
    pub(crate) support: usize,
    pub(crate) patterns: Vec<WorkPattern>,
    pub(crate) occs: OccArena,
}

impl WorkNode {
    /// The L1 node of event `e`, a root that level 2 grows from: one
    /// single-event pattern with `e`'s root id, bound to every instance
    /// of `e` in `index`, in sequence order. A root is never archived.
    pub(crate) fn root(index: &DatabaseIndex, e: EventId) -> WorkNode {
        let bitmap = index.bitmap(e).clone();
        let mut occs = OccArena::new(1);
        for seq in bitmap.iter_ones() {
            for &ii in index.instances_in(seq, e) {
                occs.push(seq as u32, &[ii]);
            }
        }
        let support = index.support(e);
        let pattern = WorkPattern {
            pattern: Pattern::root(e),
            support,
            confidence: 1.0,
            occurrences: occs.since(0),
            id: PatternId(e.0),
            parent_id: PatternId::NONE,
            code: 0,
        };
        WorkNode {
            events: vec![e],
            bitmap,
            support,
            patterns: vec![pattern],
            occs,
        }
    }
}

/// What screens a growth step's candidate last events before the
/// Apriori gate.
#[derive(Clone, Copy)]
pub(crate) enum Screen<'a> {
    /// Level 2: the correlation filter's edge gate between the root's
    /// event and the candidate (A-HTPGM, Alg. 2), when the run has one.
    /// A pair it drops is not counted as pruned.
    Edges(Option<&'a CorrelationFilter<'a>>),
    /// Levels `k ≥ 3`: the frequent 2-event relations, for the per-node
    /// Lemma 5 test and the per-triple check of Lemmas 4–7. Both count
    /// in `transitivity_pruned`, and both are off without transitivity
    /// pruning.
    Pairs(&'a PairRelations),
}

/// Dense `events × events` table of frequent 2-event relations: 3 bits
/// per ordered pair, bit `r` set iff `(E_i, r, E_j)` is a frequent,
/// high-confidence 2-event pattern.
pub(crate) struct PairRelations {
    masks: Vec<u8>,
    n_events: usize,
}

impl PairRelations {
    pub(crate) fn new(n_events: usize) -> Self {
        PairRelations {
            masks: vec![0; n_events * n_events],
            n_events,
        }
    }

    pub(crate) fn insert(&mut self, ei: EventId, r: TemporalRelation, ej: EventId) {
        self.masks[ei.0 as usize * self.n_events + ej.0 as usize] |= 1 << r.index();
    }

    #[inline]
    pub(crate) fn contains(&self, ei: EventId, r: TemporalRelation, ej: EventId) -> bool {
        self.masks[ei.0 as usize * self.n_events + ej.0 as usize] & (1 << r.index()) != 0
    }

    /// True iff `ei` forms at least one frequent relation with `ek` —
    /// the per-node Lemma 5 test.
    #[inline]
    pub(crate) fn any(&self, ei: EventId, ek: EventId) -> bool {
        self.masks[ei.0 as usize * self.n_events + ek.0 as usize] != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_relations_dense_table() {
        let mut t = PairRelations::new(4);
        t.insert(EventId(1), TemporalRelation::Contain, EventId(3));
        assert!(t.contains(EventId(1), TemporalRelation::Contain, EventId(3)));
        assert!(!t.contains(EventId(1), TemporalRelation::Follow, EventId(3)));
        assert!(!t.contains(EventId(3), TemporalRelation::Contain, EventId(1)));
        assert!(t.any(EventId(1), EventId(3)));
        assert!(!t.any(EventId(0), EventId(3)));
    }

    /// A root's pattern has the root id, and its occurrences are exactly
    /// the index's instances of the event in sequence order, so under
    /// `Discard` it binds no clipped instance.
    #[test]
    fn a_root_binds_the_indexed_instances_in_sequence_order() {
        use ftpm_events::{
            BoundaryPolicy, EventInstance, EventRegistry, Interval, SequenceDatabase,
            TemporalSequence,
        };
        use ftpm_timeseries::{SymbolId, VariableId};
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        let clipped = EventInstance::with_extent(a, Interval::new(0, 5), Interval::new(-3, 5));
        let s0 = TemporalSequence::new(vec![clipped, EventInstance::new(a, 6, 8)]);
        let s1 = TemporalSequence::new(vec![
            EventInstance::new(b, 0, 2),
            EventInstance::new(a, 1, 3),
            EventInstance::new(a, 4, 9),
        ]);
        let db = SequenceDatabase::new(reg, vec![s0, s1]);
        for (policy, clipped_bound) in [(BoundaryPolicy::Clip, 1), (BoundaryPolicy::Discard, 0)] {
            let index = DatabaseIndex::build_with_policy(&db, policy);
            let root = WorkNode::root(&index, a);
            let [pattern] = &root.patterns[..] else {
                panic!("{policy}: one pattern per root");
            };
            assert_eq!(pattern.id, PatternId(a.0), "{policy}");
            assert_eq!(pattern.pattern.events(), &[a], "{policy}");
            assert_eq!(root.support, index.support(a), "{policy}");
            let bound: Vec<(usize, u32)> = pattern
                .occurrences
                .iter()
                .map(|oi| (root.occs.seq(oi) as usize, root.occs.tuple(oi)[0]))
                .collect();
            let indexed: Vec<(usize, u32)> = (0..db.len())
                .flat_map(|s| index.instances_in(s, a).iter().map(move |&ii| (s, ii)))
                .collect();
            assert_eq!(bound, indexed, "{policy}");
            let clipped = bound
                .iter()
                .filter(|&&(s, ii)| db.sequences()[s].instances()[ii as usize].is_clipped())
                .count();
            assert_eq!(clipped, clipped_bound, "{policy}");
        }
    }

    #[test]
    fn thresholds_tolerate_float_noise() {
        // 7/10 vs delta = 0.7: must pass despite floating representation.
        assert!(passes_thresholds(7, 10, 1, 0.7).is_some());
        assert!(passes_thresholds(6, 10, 1, 0.7).is_none());
        assert!(passes_thresholds(7, 10, 8, 0.7).is_none());
        let conf = passes_thresholds(3, 4, 1, 0.5).expect("passes");
        assert!((conf - 0.75).abs() < 1e-12);
    }

    #[test]
    fn apriori_gate_counts_pruned() {
        let cfg = MinerConfig::new(0.5, 0.5);
        let mut stats = MiningStats::default();
        // Support below sigma: pruned.
        assert!(!apriori_gate(&cfg, 5, 4, 8, &mut stats));
        // Confidence bound below delta: pruned.
        assert!(!apriori_gate(&cfg, 2, 3, 10, &mut stats));
        // Survivor.
        assert!(apriori_gate(&cfg, 2, 6, 8, &mut stats));
        assert_eq!(stats.apriori_pruned, 2);
        // Pruning off: only empty bitmaps are skipped, without counting.
        let no_prune =
            MinerConfig::new(0.5, 0.5).with_pruning(crate::config::PruningConfig::NO_PRUNE);
        assert!(!apriori_gate(&no_prune, 5, 0, 8, &mut stats));
        assert!(apriori_gate(&no_prune, 5, 1, 8, &mut stats));
        assert_eq!(stats.apriori_pruned, 2);
    }
}
