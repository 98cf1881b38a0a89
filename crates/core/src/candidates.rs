//! Shared candidate engine: the Apriori support/confidence gates
//! (Lemmas 2–3) and the L2 pair-verification step, in one place.
//!
//! Both [`crate::mine_exact`] and [`crate::mine_exact_parallel`] drive
//! this engine for candidate generation, and level-`k` growth reuses the
//! same gates, so the thresholds — including the confidence tolerance
//! [`CONF_EPS`] — are applied identically everywhere. (Historically the
//! parallel miner carried its own hard-coded epsilon at the L2 gate,
//! which is exactly the kind of drift this module exists to prevent.)

use std::marker::PhantomData;

use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryKernel, EventId, SequenceDatabase, TemporalRelation};

use crate::config::MinerConfig;
use crate::index::DatabaseIndex;
use crate::occ::{OccArena, OccRange};
use crate::pattern::Pattern;
use crate::pool::{pack_relation, PatternId};
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
    /// pattern. Level-2 patterns use the first event's root id.
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

/// The L2 candidate engine: gates one ordered event pair through Apriori
/// pruning and verifies the survivors on instances. One instance is
/// shared by every L2 code path (sequential loop, parallel shards).
///
/// The engine is monomorphized over the boundary kernel `K` — the
/// [`ftpm_events::BoundaryPolicy`] variant fixed at compile time — so
/// the per-instance interval/order decisions in [`verify_pair`] are
/// straight-line code. Miners pick `K` once per run through
/// [`ftpm_events::BoundaryPolicy::dispatch`] at their entry point.
///
/// [`verify_pair`]: L2Engine::verify_pair
pub(crate) struct L2Engine<'a, K: BoundaryKernel> {
    pub(crate) db: &'a SequenceDatabase,
    pub(crate) index: &'a DatabaseIndex,
    pub(crate) cfg: &'a MinerConfig,
    pub(crate) sigma_abs: usize,
    pub(crate) kernel: PhantomData<K>,
}

impl<K: BoundaryKernel> L2Engine<'_, K> {
    /// The Apriori gate of one ordered candidate pair `(ei, ej)`: returns
    /// the pair's confidence denominator `max(supp(ei), supp(ej))` iff it
    /// proceeds to instance verification, and counts it in
    /// `stats.nodes_verified[0]`.
    #[inline]
    fn gate_pair(&self, ei: EventId, ej: EventId, stats: &mut MiningStats) -> Option<usize> {
        let max_supp = self.index.support(ei).max(self.index.support(ej));
        if self.cfg.pruning.apriori {
            // Gate on the fused AND+popcount first: most candidates die
            // here, and the joint bitmap is only materialized for the
            // survivors.
            let joint_supp = self.index.joint_support(ei, ej);
            if !apriori_gate(self.cfg, self.sigma_abs, joint_supp, max_supp, stats) {
                return None;
            }
        } else if self.index.bitmap(ei).is_disjoint(self.index.bitmap(ej)) {
            // Without Apriori pruning only the zero/nonzero answer gates
            // the pair; the early-exit kernel gives it without a full
            // popcount pass.
            return None;
        }
        stats.nodes_verified[0] += 1;
        Some(max_supp)
    }

    /// Runs one ordered candidate pair `(ei, ej)` end to end: Apriori
    /// gate, then instance verification, binding each frequent
    /// relation's occurrences into the node's arena.
    pub(crate) fn try_pair(
        &self,
        ei: EventId,
        ej: EventId,
        stats: &mut MiningStats,
    ) -> Option<WorkNode> {
        let max_supp = self.gate_pair(ei, ej, stats)?;
        let joint = self.index.bitmap(ei).and(self.index.bitmap(ej));
        // One occurrence accumulator per relation type.
        let mut occs = [OccArena::new(2), OccArena::new(2), OccArena::new(2)];
        let supports = self.verify_pair(ei, ej, joint.iter_ones(), stats, |r, seq, pair| {
            occs[r.index()].push(seq, &pair);
        });

        let mut node_patterns = Vec::new();
        let mut node_occs = OccArena::new(2);
        for r in TemporalRelation::ALL {
            let support = supports[r.index()];
            let Some(confidence) =
                passes_thresholds(support, max_supp, self.sigma_abs, self.cfg.delta)
            else {
                continue;
            };
            let scratch = &occs[r.index()];
            let all = scratch.since(0);
            node_patterns.push(WorkPattern {
                pattern: Pattern::pair(ei, r, ej),
                support,
                confidence,
                occurrences: node_occs.append_from(scratch, all),
                id: PatternId::NONE,
                parent_id: PatternId(ei.0),
                code: pack_relation(0, r),
            });
        }
        if node_patterns.is_empty() {
            return None; // a "brown" node: frequent pair, no frequent pattern.
        }
        Some(WorkNode {
            events: vec![ei, ej],
            support: joint.count_ones(),
            bitmap: joint,
            patterns: node_patterns,
            occs: node_occs,
        })
    }

    /// The count-only twin of [`L2Engine::try_pair`]: the same gate and
    /// instance loop, but nothing is bound — no joint bitmap, arena or
    /// [`Pattern`]. Passes each relation that clears the thresholds to
    /// `propose` as `(relation, support, clipped)`, where `clipped`
    /// counts the occurrences that bind a boundary-clipped instance (0
    /// unless `count_clipped`), and returns how many relations it passed.
    pub(crate) fn count_pair(
        &self,
        ei: EventId,
        ej: EventId,
        count_clipped: bool,
        stats: &mut MiningStats,
        mut propose: impl FnMut(TemporalRelation, usize, usize),
    ) -> usize {
        let Some(max_supp) = self.gate_pair(ei, ej, stats) else {
            return 0;
        };
        let (bitmap_i, bitmap_j) = (self.index.bitmap(ei), self.index.bitmap(ej));
        let joint = bitmap_i.iter_ones().filter(|&seq| bitmap_j.get(seq));
        let seqs = self.db.sequences();
        let mut clipped = [0usize; 3];
        let supports = self.verify_pair(ei, ej, joint, stats, |r, seq, pair| {
            if count_clipped {
                let insts = seqs[seq as usize].instances();
                if pair.iter().any(|&ti| insts[ti as usize].is_clipped()) {
                    clipped[r.index()] += 1;
                }
            }
        });
        let mut proposed = 0;
        for r in TemporalRelation::ALL {
            let support = supports[r.index()];
            if passes_thresholds(support, max_supp, self.sigma_abs, self.cfg.delta).is_some() {
                propose(r, support, clipped[r.index()]);
                proposed += 1;
            }
        }
        proposed
    }

    /// Step 2.2, the one L2 instance loop: checks the instance pairs of
    /// `(ei, ej)` in the sequences `joint` (ascending ids, each holding
    /// both events) and passes every related pair to `record` as
    /// `(relation, sequence, [instance of ei, instance of ej])`. Returns
    /// each relation's support, indexed by [`TemporalRelation::index`]:
    /// the sequences holding one of its occurrences, counted where the
    /// sequence changes, since `joint` ascends.
    #[inline]
    fn verify_pair(
        &self,
        ei: EventId,
        ej: EventId,
        joint: impl Iterator<Item = usize>,
        stats: &mut MiningStats,
        mut record: impl FnMut(TemporalRelation, u32, [u32; 2]),
    ) -> [usize; 3] {
        let mut supports = [0usize; 3];
        let mut last_seq = [usize::MAX; 3];
        let mut prev_seq = None;

        // The boundary kernel `K` decides which interval of each instance
        // the relation model sees (clipped view, true run extent, or none
        // at all). Under `Discard` the index already hides clipped
        // instances, so the `None` arms are just belt-and-braces.
        let rel = &self.cfg.relation;
        for seq_id in joint {
            debug_assert!(
                prev_seq.is_none_or(|prev| prev < seq_id),
                "the joint sequences ascend"
            );
            prev_seq = Some(seq_id);
            let seq = &self.db.sequences()[seq_id];
            for &ii in self.index.instances_in(seq_id, ei) {
                let inst_i = &seq.instances()[ii as usize];
                let Some(iv_i) = K::interval(inst_i) else {
                    continue;
                };
                let key_i = K::key(inst_i);
                for &jj in self.index.instances_in(seq_id, ej) {
                    let inst_j = &seq.instances()[jj as usize];
                    let Some(iv_j) = K::interval(inst_j) else {
                        continue;
                    };
                    // The node (Ei, Ej) binds Ei to the chronologically first
                    // instance; the opposite order belongs to node (Ej, Ei).
                    if key_i >= K::key(inst_j) {
                        continue;
                    }
                    stats.instance_checks += 1;
                    // Maximal-duration constraint (Section III-C). We use the
                    // monotone reading — the whole occurrence must fit inside
                    // a t_max window — so that every prefix of a valid
                    // occurrence is itself valid and level-wise growth stays
                    // complete (see DESIGN.md).
                    let max_end = iv_i.end.max(iv_j.end);
                    if !rel.within_t_max(iv_i.start, max_end) {
                        continue;
                    }
                    if let Some(r) = rel.relate(&iv_i, &iv_j) {
                        let at = r.index();
                        if last_seq[at] != seq_id {
                            supports[at] += 1;
                            last_seq[at] = seq_id;
                        }
                        record(r, seq_id as u32, [ii, jj]);
                    }
                }
            }
        }
        supports
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
        let no_prune = MinerConfig::new(0.5, 0.5)
            .with_pruning(crate::config::PruningConfig::NO_PRUNE);
        assert!(!apriori_gate(&no_prune, 5, 0, 8, &mut stats));
        assert!(apriori_gate(&no_prune, 5, 1, 8, &mut stats));
        assert_eq!(stats.apriori_pruned, 2);
    }
}
