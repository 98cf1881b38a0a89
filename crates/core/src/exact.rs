//! E-HTPGM: exact Hierarchical Temporal Pattern Graph Mining
//! (paper Section IV, Algorithm 1).
//!
//! Mining proceeds level by level. L1 finds frequent single events with
//! one bitmap scan. L2 verifies event pairs: the Apriori filter (Lemmas
//! 2–3) discards pairs whose joint-bitmap support/confidence already
//! misses the thresholds, and the survivors have their instance pairs
//! checked against the relation model. Level `k ≥ 3` grows each
//! pattern-bearing node of level `k−1` by one event that is
//! chronologically last, using the transitivity property (Lemmas 4–7):
//! only single events that appear at level `k−1` are candidates, a node
//! extension is skipped outright when some node event has no frequent
//! relation at all with the new event (Lemma 5), and an individual
//! occurrence extension dies as soon as one of its new triples is not a
//! frequent, high-confidence 2-event pattern (Lemmas 6–7).
//!
//! The L1/L2 loop lives in the one unsharded mining engine,
//! [`crate::parallel`], which runs [`mine_exact`] at `threads = 1` on
//! the calling thread. This module holds the paper-named entry points
//! and the level-`k` growth step that engine and the exchange executor
//! share: the executor's count-only [`count_candidates`] runs the same
//! gates and grouping loop as [`grow_candidates`] and builds no child.
//! Candidate gating (the Apriori support/confidence bounds and the L2
//! verification step) lives in [`crate::candidates`]; output flows
//! through a [`PatternSink`] (see [`crate::sink`]) so finished nodes can
//! be collected, counted or streamed without materializing a global
//! pattern `Vec`.
//!
//! Performance notes: frequent 2-event relations are kept as a dense
//! `events × events` bitmask table (no hashing on the hot path), and the
//! relation column of a candidate extension is packed into a `u64` (2
//! bits per relation) that doubles as the grouping key — both are part of
//! the "efficient data structures" story the paper tells about HTPGM.
//! Growing a node allocates only what its surviving children keep:
//!
//! - **Reused group slots.** [`grow_candidates`] makes one
//!   [`ExtensionGroups`] scratch per node and [`extend_node`] resets its
//!   slots, keeping their capacity, for every parent pattern of every
//!   candidate event.
//! - **Support at sequence changes.** A pattern's occurrences ascend by
//!   sequence id, so a group's support is the number of times the
//!   sequence changes along its occurrences; no per-group bitmap exists.
//! - **Joint bitmaps only for survivors.** Every occurrence lies in a
//!   sequence of the node's bitmap, so `ek`'s own bit is the joint test;
//!   `node.bitmap ∧ bitmap(ek)` is built only for a child that survives.
//! - **Kept emission order.** A parent's surviving groups come out in the
//!   iteration order of a fresh code-keyed FNV map filled in
//!   first-appearance order, the order the one-thread output is pinned
//!   to; the map is built only when two or more groups survive.
//!
//! On the dense perfbench input (one thread, counting sink) a run makes
//! 2.7 M heap allocations instead of 13.8 M.

use std::marker::PhantomData;

use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryKernel, EventId, SequenceDatabase, TemporalRelation};

use crate::candidates::{apriori_gate, passes_thresholds, PairRelations, WorkNode, WorkPattern};
use crate::config::{MinerConfig, MAX_EVENTS_HARD_CAP};
use crate::index::DatabaseIndex;
use crate::occ::{OccArena, OccRange};
use crate::plan::MinePlan;
use crate::pool::{decode_column, pack_relation, DeltaKey, FnvHashMap, PatternId};
use crate::result::{FrequentPattern, MiningResult, MiningStats};
use crate::sink::PatternSink;

/// Mines all frequent temporal patterns of `db` — `E-HTPGM`.
///
/// Returns every pattern `P` with `supp(P) ≥ ⌈σ·|D_SEQ|⌉` and
/// `conf(P) ≥ δ`, plus the frequent single events and run statistics.
///
/// # Examples
///
/// See the crate-level example.
pub fn mine_exact(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    MinePlan::new(db, cfg).collect().0
}

/// Mines like [`mine_exact`] into `sink`: [`MinePlan::run`] on one
/// thread. Kept so the benchmark harness builds; ROADMAP item 1 step 3
/// deletes it once the harness mines through the plan.
pub fn mine_exact_with_sink(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    MinePlan::new(db, cfg).run(sink).0
}

/// Scratch of one extension group: the candidate extensions of one parent
/// pattern that share a packed relation column.
struct GroupSlot {
    code: u64,
    /// Distinct sequences among the group's occurrences.
    support: usize,
    /// Sequence of the group's latest occurrence.
    last_seq: Option<u32>,
    occs: OccArena,
}

/// Reused extension-group slots for growing nodes of one level: one
/// scratch per [`grow_candidates`] call (or per batch of
/// [`count_candidates`] calls), shared by every candidate last event, so a
/// candidate allocates only what a surviving child keeps. Slots are
/// reset without giving back their capacity.
pub(crate) struct ExtensionGroups {
    slots: Vec<GroupSlot>,
    /// The current parent's groups are `slots[..used]`, in the order
    /// their codes first appeared. A parent has a handful of groups (at
    /// most 3 on the dense perfbench input), so codes are looked up by a
    /// linear scan.
    used: usize,
    /// Bound instances per occurrence of the node's children.
    width: usize,
}

impl ExtensionGroups {
    /// Empty slots for children of `width` events.
    pub(crate) fn new(width: usize) -> Self {
        ExtensionGroups {
            slots: Vec::new(),
            used: 0,
            width,
        }
    }

    /// Forgets the previous parent's groups.
    fn start_parent(&mut self) {
        self.used = 0;
    }

    /// Adds the occurrence `tuple` extended by instance `x`, in sequence
    /// `seq`, to the group of relation column `code`. A parent's
    /// occurrences come in ascending sequence order, so the group's
    /// support is the number of times its sequence changes.
    fn push(&mut self, code: u64, seq: u32, tuple: &[u32], x: u32) {
        let i = self.slot_of(code);
        let slot = &mut self.slots[i];
        if slot.last_seq != Some(seq) {
            slot.support += 1;
            slot.last_seq = Some(seq);
        }
        slot.occs.push_extend(seq, tuple, x);
    }

    /// The slot of `code`'s group, opening a reset slot for a new code.
    fn slot_of(&mut self, code: u64) -> usize {
        if let Some(i) = self.slots[..self.used].iter().position(|s| s.code == code) {
            return i;
        }
        let i = self.used;
        self.used += 1;
        match self.slots.get_mut(i) {
            Some(slot) => {
                slot.code = code;
                slot.support = 0;
                slot.last_seq = None;
                slot.occs.clear();
            }
            None => self.slots.push(GroupSlot {
                code,
                support: 0,
                last_seq: None,
                occs: OccArena::new(self.width),
            }),
        }
        i
    }

    /// Passes each of the current parent's groups that `threshold` keeps
    /// to `emit`, with the confidence `threshold` returned for it. The
    /// order is the one in which a fresh code-keyed [`FnvHashMap`], filled
    /// in first-appearance order, iterates the groups: the emission order
    /// the miner's output is pinned to. The map is built only when at
    /// least two groups survive.
    fn for_each_survivor(
        &self,
        threshold: impl Fn(usize) -> Option<f64>,
        mut emit: impl FnMut(&GroupSlot, f64),
    ) {
        let groups = self.current();
        let mut emit_survivor = |slot: &GroupSlot| {
            if let Some(confidence) = threshold(slot.support) {
                emit(slot, confidence);
            }
        };
        let survivors = groups
            .iter()
            .filter(|s| threshold(s.support).is_some())
            .count();
        if survivors < 2 {
            // A lone survivor has no order to keep.
            groups.iter().for_each(emit_survivor);
            return;
        }
        // Filled in slot (that is, first-appearance) order, a fresh map
        // has the layout, and so the iteration order, of one filled while
        // the groups formed.
        let mut order: FnvHashMap<u64, usize> = FnvHashMap::default();
        for (i, slot) in groups.iter().enumerate() {
            order.insert(slot.code, i);
        }
        order.values().for_each(|&i| emit_survivor(&groups[i]));
    }

    /// The current parent's groups, in first-appearance order.
    fn current(&self) -> &[GroupSlot] {
        &self.slots[..self.used]
    }
}

/// The confidence denominator of extending `node` by `ek`: the largest
/// single-event support among the child's events.
#[expect(
    clippy::expect_used,
    reason = "structural invariant: HPG nodes always hold at least one event"
)]
pub(crate) fn max_support(index: &DatabaseIndex, node: &WorkNode, ek: EventId) -> usize {
    node.events
        .iter()
        .map(|&e| index.support(e))
        .max()
        .expect("nodes have events")
        .max(index.support(ek))
}

/// Occurrences in `range` of `occs` that bind a boundary-clipped
/// instance — the per-pattern artifact measure exported through the
/// sinks.
fn clipped_occurrences(db: &SequenceDatabase, occs: &OccArena, range: OccRange) -> usize {
    range
        .iter()
        .filter(|&oi| {
            let insts = db.sequences()[occs.seq(oi) as usize].instances();
            occs.tuple(oi)
                .iter()
                .any(|&ti| insts[ti as usize].is_clipped())
        })
        .count()
}

/// Step 3.2's grouping loop, shared by [`extend_node`] and
/// [`count_candidates`]: extends each occurrence of `parent` (a pattern of
/// `node`) with one instance of `ek` that is chronologically last,
/// verifies the new triples iteratively (pruning through L2 when
/// transitivity pruning is on), and files each valid extension into the
/// reset `groups` by its packed relation column
/// (r(E_1,E_k), …, r(E_{k-1},E_k)).
#[inline]
#[allow(clippy::too_many_arguments)]
fn group_extensions<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    parent: &WorkPattern,
    ek: EventId,
    pair_relations: &PairRelations,
    groups: &mut ExtensionGroups,
) {
    let rel = &cfg.relation;
    let ek_bitmap = index.bitmap(ek);
    groups.start_parent();
    for oi in parent.occurrences.iter() {
        let seq_id = node.occs.seq(oi);
        // verify_pair binds occurrences in ascending sequence order,
        // and growth, `append_from` and `compact` keep it.
        debug_assert!(
            oi == parent.occurrences.start as usize || node.occs.seq(oi - 1) <= seq_id,
            "a pattern's occurrences ascend by sequence id"
        );
        // Every occurrence lies in a sequence of `node.bitmap`, so
        // ek's own bit is the joint-bitmap test.
        debug_assert!(node.bitmap.get(seq_id as usize));
        if !ek_bitmap.get(seq_id as usize) {
            continue;
        }
        let tuple = node.occs.tuple(oi);
        let seq = &db.sequences()[seq_id as usize];
        // Bound instances passed the boundary policy when the parent
        // occurrence was built, so their effective interval exists.
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: binding members passed the boundary policy on entry"
        )]
        let bound_iv = |ti: u32| {
            K::interval(&seq.instances()[ti as usize])
                .expect("bound instances pass the boundary policy")
        };
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: the binding is non-empty on this path"
        )]
        let last_key =
            K::key(&seq.instances()[*tuple.last().expect("non-empty") as usize]);
        let first_start = bound_iv(tuple[0]).start;
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: the binding is non-empty on this path"
        )]
        let tuple_max_end = tuple
            .iter()
            .map(|&ti| bound_iv(ti).end)
            .max()
            .expect("non-empty");
        for &xi in index.instances_in(seq_id as usize, ek) {
            let x = &seq.instances()[xi as usize];
            let Some(x_iv) = K::interval(x) else {
                continue;
            };
            // The new instance must be chronologically last so each
            // occurrence is enumerated exactly once (Lemma 4 adds the
            // new instance at the end of the sequence order).
            if K::key(x) <= last_key {
                continue;
            }
            stats.instance_checks += 1;
            let max_end = tuple_max_end.max(x_iv.end);
            if !rel.within_t_max(first_start, max_end) {
                continue;
            }
            let mut code = 0u64;
            let mut ok = true;
            for (pos, &ti) in tuple.iter().enumerate() {
                match rel.relate(&bound_iv(ti), &x_iv) {
                    Some(r) => {
                        // Lemmas 4–7: the triple (E_pos, r, E_k) must
                        // itself be a frequent, confident 2-event
                        // pattern, or this extension cannot yield one.
                        if cfg.pruning.transitivity
                            && !pair_relations.contains(node.events[pos], r, ek)
                        {
                            stats.transitivity_pruned += 1;
                            ok = false;
                            break;
                        }
                        code = pack_relation(code, r);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            groups.push(code, seq_id, tuple, xi);
        }
    }
}

/// Step 3.2: extend each frequent pattern of `node` with one instance of
/// `ek` that is chronologically last (see [`group_extensions`]) and keep
/// the groups that pass the thresholds as the child's patterns. `groups`
/// is the node's reused scratch; the child's bitmap, arena and patterns
/// are built only when some group survives the thresholds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_node<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    ek: EventId,
    joint_supp: usize,
    max_supp: usize,
    sigma_abs: usize,
    pair_relations: &PairRelations,
    groups: &mut ExtensionGroups,
) -> Option<WorkNode> {
    let mut new_patterns: Vec<WorkPattern> = Vec::new();
    let mut child_occs = OccArena::new(node.events.len() + 1);
    let mut column = [TemporalRelation::Follow; MAX_EVENTS_HARD_CAP];
    let threshold = |support| passes_thresholds(support, max_supp, sigma_abs, cfg.delta);

    for parent in &node.patterns {
        group_extensions::<K>(
            db,
            index,
            cfg,
            stats,
            node,
            parent,
            ek,
            pair_relations,
            groups,
        );
        groups.for_each_survivor(threshold, |group, confidence| {
            let rels = decode_column(group.code, &mut column[..node.events.len()]);
            new_patterns.push(WorkPattern {
                pattern: parent.pattern.extend(ek, rels),
                support: group.support,
                confidence,
                occurrences: child_occs.append_from(&group.occs, group.occs.since(0)),
                id: PatternId::NONE,
                parent_id: parent.id,
                code: group.code,
            });
        });
    }

    if new_patterns.is_empty() {
        return None;
    }
    let mut events = Vec::with_capacity(node.events.len() + 1);
    events.extend_from_slice(&node.events);
    events.push(ek);
    Some(WorkNode {
        events,
        bitmap: node.bitmap.and(index.bitmap(ek)),
        support: joint_supp,
        patterns: new_patterns,
        occs: child_occs,
    })
}

/// Phases 1–3 of growing `node` (level `k` in event count for the
/// children), shared by [`grow_candidates`] and [`count_candidates`]:
/// the Lemma 5 screen, the fused AND-count and the Apriori gate. Calls
/// `verify(stats, ek, joint_supp, max_supp)` for every candidate last
/// event that passes, after counting it in `stats.nodes_verified[k - 2]`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn for_each_gated_candidate(
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    freq_events: &[EventId],
    pair_relations: &PairRelations,
    sigma_abs: usize,
    k: usize,
    mut verify: impl FnMut(&mut MiningStats, EventId, usize, usize),
) {
    // Phase 1 — per-node Lemma 5 screen: every node event must form at
    // least one frequent relation with ek, or no k-event pattern over
    // this combination can be frequent.
    let mut cands: Vec<EventId> = Vec::with_capacity(freq_events.len());
    'candidates: for &ek in freq_events {
        if cfg.pruning.transitivity {
            for &e in &node.events {
                if !pair_relations.any(e, ek) {
                    stats.transitivity_pruned += 1;
                    continue 'candidates;
                }
            }
        }
        cands.push(ek);
    }

    // Phase 2 — fused AND+popcount over all survivors in one pass
    // ([`Bitmap::and_count_many`] re-reads the node bitmap once per
    // 32-word block instead of once per candidate). No candidate pays
    // for a joint-bitmap allocation here: `extend_node` builds one only
    // for a child that survives.
    let partners: Vec<&Bitmap> = cands.iter().map(|&ek| index.bitmap(ek)).collect();
    let mut joint_supps: Vec<usize> = Vec::new();
    node.bitmap.and_count_many(&partners, &mut joint_supps);

    // Phase 3 — Apriori gate, then instance verification per survivor.
    for (&ek, &joint_supp) in cands.iter().zip(&joint_supps) {
        let max_supp = max_support(index, node, ek);
        if !apriori_gate(cfg, sigma_abs, joint_supp, max_supp, stats) {
            continue;
        }
        stats.nodes_verified[k - 2] += 1;
        verify(stats, ek, joint_supp, max_supp);
    }
}

/// Tries every candidate last event `ek` for `node` (level `k` in event
/// count for the children) and returns the surviving children — the
/// candidate-extension loop of the depth-first [`GrowContext::grow_node`],
/// whose gates and grouping loop the exchange executor's count-only
/// [`count_candidates`] shares. Keeping one copy is load-bearing: the two
/// paths must stay semantically identical for the exchange's
/// bit-identical-output guarantee. `stats` must already have level slots
/// up to `k - 1`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_candidates<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    freq_events: &[EventId],
    pair_relations: &PairRelations,
    sigma_abs: usize,
    k: usize,
) -> Vec<WorkNode> {
    // Every candidate verifies on the node's one set of reused
    // extension-group slots.
    let mut children: Vec<WorkNode> = Vec::new();
    let mut groups = ExtensionGroups::new(node.events.len() + 1);
    let verify = |stats: &mut MiningStats, ek, joint_supp, max_supp| {
        if let Some(child) = extend_node::<K>(
            db,
            index,
            cfg,
            stats,
            node,
            ek,
            joint_supp,
            max_supp,
            sigma_abs,
            pair_relations,
            &mut groups,
        ) {
            stats.nodes_kept[k - 2] += 1;
            stats.patterns_found[k - 2] += child.patterns.len();
            children.push(child);
        }
    };
    for_each_gated_candidate(
        index,
        cfg,
        stats,
        node,
        freq_events,
        pair_relations,
        sigma_abs,
        k,
        verify,
    );
    children
}

/// The count-only twin of [`grow_candidates`], for the exchange's
/// propose stage: the same gates, grouping loop and counters, but no
/// child is built. Passes each group that clears the thresholds to
/// `propose` as `(key, support, clipped)`: its [`DeltaKey`], its support
/// read off the slot, and — when `count_clipped` — its occurrences that
/// bind a boundary-clipped instance, counted off the slot's arena.
/// `groups` is the caller's scratch for nodes of this level (width `k`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_candidates<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    freq_events: &[EventId],
    pair_relations: &PairRelations,
    sigma_abs: usize,
    k: usize,
    count_clipped: bool,
    groups: &mut ExtensionGroups,
    mut propose: impl FnMut(DeltaKey, usize, usize),
) {
    let count = |stats: &mut MiningStats, ek, _, max_supp| {
        let mut patterns = 0;
        for parent in &node.patterns {
            group_extensions::<K>(
                db,
                index,
                cfg,
                stats,
                node,
                parent,
                ek,
                pair_relations,
                groups,
            );
            for group in groups.current() {
                if passes_thresholds(group.support, max_supp, sigma_abs, cfg.delta).is_none() {
                    continue;
                }
                let clipped = if count_clipped {
                    clipped_occurrences(db, &group.occs, group.occs.since(0))
                } else {
                    0
                };
                let key = DeltaKey {
                    parent: parent.id,
                    last: ek,
                    code: group.code,
                };
                propose(key, group.support, clipped);
                patterns += 1;
            }
        }
        if patterns > 0 {
            stats.nodes_kept[k - 2] += 1;
            stats.patterns_found[k - 2] += patterns;
        }
    };
    for_each_gated_candidate(
        index,
        cfg,
        stats,
        node,
        freq_events,
        pair_relations,
        sigma_abs,
        k,
        count,
    );
}

/// Depth-first growth of the Hierarchical Pattern Graph below L2.
pub(crate) struct GrowContext<'a, K: BoundaryKernel> {
    pub(crate) db: &'a SequenceDatabase,
    pub(crate) cfg: &'a MinerConfig,
    pub(crate) index: &'a DatabaseIndex,
    pub(crate) pair_relations: &'a PairRelations,
    pub(crate) freq_events: &'a [EventId],
    pub(crate) sigma_abs: usize,
    pub(crate) max_events: usize,
    pub(crate) stats: &'a mut MiningStats,
    pub(crate) sink: &'a mut dyn PatternSink,
    /// Whether the database contains any boundary-clipped instance —
    /// lets [`archive_node`] skip the per-occurrence artifact scan when
    /// every count would be 0.
    pub(crate) db_has_clipped: bool,
    /// The monomorphized boundary kernel (fixed at dispatch).
    pub(crate) kernel: PhantomData<K>,
}

impl<K: BoundaryKernel> GrowContext<'_, K> {
    /// Archives `node` (level `k − 1` in event count) and tries every
    /// candidate last event for level `k`. The node's occurrence
    /// bindings die when this frame returns.
    pub(crate) fn grow_node(&mut self, node: WorkNode, k: usize) {
        if k > self.max_events {
            archive_node(self.sink, self.db, self.db_has_clipped, node, k - 1);
            return;
        }
        self.stats.ensure_levels(k - 1);
        let children = grow_candidates::<K>(
            self.db,
            self.index,
            self.cfg,
            self.stats,
            &node,
            self.freq_events,
            self.pair_relations,
            self.sigma_abs,
            k,
        );
        // The parent's occurrences are no longer needed once all its
        // children have been generated.
        archive_node(self.sink, self.db, self.db_has_clipped, node, k - 1);
        for child in children {
            self.grow_node(child, k + 1);
        }
    }
}

/// Emits a finished node into the sink, dropping occurrence bindings.
/// `k` is the node's event count; its level slot is `k - 2`. Before the
/// bindings die, each pattern counts how many of its occurrences touch a
/// boundary-clipped instance — the per-pattern artifact measure exported
/// through the sinks. `db_has_clipped` (false for unsplit or
/// cleanly-tiled databases) skips that occurrence scan on the hot
/// archive path when the answer can only be 0.
pub(crate) fn archive_node(
    sink: &mut dyn PatternSink,
    db: &SequenceDatabase,
    db_has_clipped: bool,
    node: WorkNode,
    k: usize,
) {
    let n_seqs = db.len();
    let WorkNode {
        events,
        bitmap: _,
        support: node_support,
        patterns,
        occs,
    } = node;
    let patterns: Vec<FrequentPattern> = patterns
        .into_iter()
        .map(|wp| {
            let clipped_occurrences = if db_has_clipped {
                clipped_occurrences(db, &occs, wp.occurrences)
            } else {
                0
            };
            FrequentPattern {
                pattern: wp.pattern,
                support: wp.support,
                rel_support: wp.support as f64 / n_seqs.max(1) as f64,
                confidence: wp.confidence,
                clipped_occurrences,
            }
        })
        .collect();
    sink.node(events, node_support, k, patterns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_column_roundtrip() {
        use ftpm_events::TemporalRelation::*;
        for column in [
            vec![Follow],
            vec![Contain, Overlap],
            vec![Follow, Follow, Contain, Overlap, Follow],
            vec![Overlap; 31],
        ] {
            let mut code = 0u64;
            for &r in &column {
                code = pack_relation(code, r);
            }
            let mut out = [Follow; MAX_EVENTS_HARD_CAP];
            assert_eq!(decode_column(code, &mut out[..column.len()]), column);
        }
    }

    /// One group as `(code, support, confidence, occurrences)`.
    type Emitted = (u64, usize, f64, Vec<(u32, Vec<u32>)>);

    fn rows(occs: &OccArena) -> Vec<(u32, Vec<u32>)> {
        (0..occs.len())
            .map(|i| (occs.seq(i), occs.tuple(i).to_vec()))
            .collect()
    }

    /// The reused slots give each parent the groups, supports and
    /// emission order of the accumulator they replaced: a fresh
    /// code-keyed FNV map per parent holding a sequence bitmap and an
    /// arena per group. Covers slot reuse across parents, map tables that
    /// grow several times, and thresholds that keep none, one or several
    /// groups.
    #[test]
    fn extension_groups_match_a_fresh_map_per_parent() {
        let keep_all = |support: usize| Some(support as f64);
        let keep_even = |support: usize| support.is_multiple_of(2).then_some(support as f64 / 2.0);
        let keep_none = |_: usize| None;
        let thresholds: [&dyn Fn(usize) -> Option<f64>; 3] = [&keep_all, &keep_even, &keep_none];
        for n_codes in [1, 2, 5, 9, 40, 300] {
            let mut groups = ExtensionGroups::new(2);
            for parent in 0..6 {
                let threshold = thresholds[parent % 3];
                groups.start_parent();
                let mut fresh: FnvHashMap<u64, (Bitmap, OccArena)> = FnvHashMap::default();
                for seq in 0..12u32 {
                    for x in 0..n_codes as u32 {
                        if (seq + x + parent as u32).is_multiple_of(3) {
                            continue;
                        }
                        // Codes first appear neither sorted nor in the
                        // map's order.
                        let code =
                            ((x as usize * 7 + seq as usize + parent) % n_codes) as u64 * 3 + 1;
                        groups.push(code, seq, &[seq], x);
                        let (bitmap, occs) = fresh
                            .entry(code)
                            .or_insert_with(|| (Bitmap::new(12), OccArena::new(2)));
                        bitmap.set(seq as usize);
                        occs.push_extend(seq, &[seq], x);
                    }
                }
                let mut got: Vec<Emitted> = Vec::new();
                groups.for_each_survivor(threshold, |group, confidence| {
                    got.push((group.code, group.support, confidence, rows(&group.occs)));
                });
                let want: Vec<Emitted> = fresh
                    .into_iter()
                    .filter_map(|(code, (bitmap, occs))| {
                        let support = bitmap.count_ones();
                        threshold(support)
                            .map(|confidence| (code, support, confidence, rows(&occs)))
                    })
                    .collect();
                assert_eq!(got, want, "{n_codes} codes, parent {parent}");
            }
        }
    }
}
