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
//! The L1/L2 loop lives in the one mining engine, [`crate::parallel`],
//! which runs [`mine_exact`] at `threads = 1` on the calling thread. This
//! module holds the paper-named entry points and the level-`k` growth
//! step that engine and the exchange executor share. Candidate gating
//! (the Apriori support/confidence bounds and the L2 verification step)
//! lives in [`crate::candidates`]; output flows through a
//! [`PatternSink`] (see [`crate::sink`]) so finished nodes can be
//! collected, counted or streamed without materializing a global pattern
//! `Vec`.
//!
//! Performance notes: frequent 2-event relations are kept as a dense
//! `events × events` bitmask table (no hashing on the hot path), and the
//! relation column of a candidate extension is packed into a `u64` (2
//! bits per relation) that doubles as the grouping key — both are part of
//! the "efficient data structures" story the paper tells about HTPGM.

use std::marker::PhantomData;

use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryKernel, EventId, SequenceDatabase};

use crate::candidates::{apriori_gate, passes_thresholds, PairRelations, WorkNode, WorkPattern};
use crate::config::MinerConfig;
use crate::index::DatabaseIndex;
use crate::occ::OccArena;
use crate::parallel::mine_parallel_internal;
use crate::pool::{decode_column, pack_relation, FnvHashMap, PatternId};
use crate::result::{FrequentPattern, MiningResult, MiningStats};
use crate::sink::{CollectSink, PatternSink};

/// Mines all frequent temporal patterns of `db` — `E-HTPGM`.
///
/// Returns every pattern `P` with `supp(P) ≥ ⌈σ·|D_SEQ|⌉` and
/// `conf(P) ≥ δ`, plus the frequent single events and run statistics.
///
/// # Examples
///
/// See the crate-level example.
pub fn mine_exact(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    let mut sink = CollectSink::new();
    let stats = mine_exact_with_sink(db, cfg, &mut sink);
    sink.into_result(stats)
}

/// Mines like [`mine_exact`], but emits each finished Hierarchical
/// Pattern Graph node into `sink` instead of materializing a
/// [`MiningResult`] — the full pattern result is never built up in
/// memory. (Mining working state is still held while needed: all L2
/// nodes exist at once during candidate generation, and a node's
/// occurrence bindings live until its subtree is grown.) Nodes arrive in
/// a fixed order: L2 nodes by event, each followed by its subtree
/// depth-first. Returns the run statistics.
///
/// # Examples
///
/// See the [`crate::sink`] module docs.
pub fn mine_exact_with_sink(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    mine_parallel_internal(db, cfg, 1, None, sink, None)
}

/// Occurrence accumulator: supporting-sequence bitmap + bound tuples
/// (a scratch struct-of-arrays arena, spliced into the child node's
/// arena if the group survives the thresholds).
type OccAccum = (Bitmap, OccArena);

/// Step 3.2: extend each frequent pattern of `node` with one instance of
/// `ek` that is chronologically last, verifying the new triples
/// iteratively (and pruning through L2 when transitivity pruning is on).
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_node<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    ek: EventId,
    joint: &Bitmap,
    joint_supp: usize,
    max_supp: usize,
    sigma_abs: usize,
    pair_relations: &PairRelations,
) -> Option<WorkNode> {
    let n_seqs = db.len();
    let rel = &cfg.relation;
    let width = node.events.len() + 1;
    let mut new_patterns: Vec<WorkPattern> = Vec::new();
    let mut child_occs = OccArena::new(width);

    for parent in &node.patterns {
        // Group candidate extensions by their packed relation column
        // (r(E_1,E_k), …, r(E_{k-1},E_k)). The unseeded FNV map makes the
        // group order, and with it the emission order, the same on every
        // run.
        let mut accum: FnvHashMap<u64, OccAccum> = FnvHashMap::default();
        for oi in parent.occurrences.iter() {
            let seq_id = node.occs.seq(oi);
            if !joint.get(seq_id as usize) {
                continue;
            }
            let tuple = node.occs.tuple(oi);
            let seq = &db.sequences()[seq_id as usize];
            // Bound instances passed the boundary policy when the parent
            // occurrence was built, so their effective interval exists.
            let bound_iv = |ti: u32| {
                K::interval(&seq.instances()[ti as usize])
                    // lint: allow(panic, structural invariant: binding members passed the boundary policy on entry)
                    .expect("bound instances pass the boundary policy")
            };
            let last_key =
                // lint: allow(panic, structural invariant: the binding is non-empty on this path)
                K::key(&seq.instances()[*tuple.last().expect("non-empty") as usize]);
            let first_start = bound_iv(tuple[0]).start;
            let tuple_max_end = tuple
                .iter()
                .map(|&ti| bound_iv(ti).end)
                .max()
                // lint: allow(panic, structural invariant: the binding is non-empty on this path)
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
                let entry = accum
                    .entry(code)
                    .or_insert_with(|| (Bitmap::new(n_seqs), OccArena::new(width)));
                entry.0.set(seq_id as usize);
                entry.1.push_extend(seq_id, tuple, xi);
            }
        }
        for (code, (bitmap, occurrences)) in accum {
            let support = bitmap.count_ones();
            let Some(confidence) =
                passes_thresholds(support, max_supp, sigma_abs, cfg.delta)
            else {
                continue;
            };
            let rels = decode_column(code, node.events.len());
            let all = occurrences.since(0);
            new_patterns.push(WorkPattern {
                pattern: parent.pattern.extend(ek, &rels),
                support,
                confidence,
                occurrences: child_occs.append_from(&occurrences, all),
                id: PatternId::NONE,
                parent_id: parent.id,
                code,
            });
        }
    }

    if new_patterns.is_empty() {
        return None;
    }
    let mut events = Vec::with_capacity(node.events.len() + 1);
    events.extend_from_slice(&node.events);
    events.push(ek);
    Some(WorkNode {
        events,
        bitmap: joint.clone(),
        support: joint_supp,
        patterns: new_patterns,
        occs: child_occs,
    })
}

/// Tries every candidate last event `ek` for `node` (level `k` in event
/// count for the children) and returns the surviving children — the
/// candidate-extension loop shared by the depth-first
/// [`GrowContext::grow_node`] and the exchange executor's propose stage
/// (which passes local `sigma_abs = 1` so only empty joints are gated).
/// Keeping one copy is load-bearing: the two paths must stay
/// semantically identical for the exchange's bit-identical-output
/// guarantee. `stats` must already have level slots up to `k - 1`.
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
    // 32-word block instead of once per candidate). Pruned candidates
    // never pay for a joint-bitmap allocation.
    let partners: Vec<&Bitmap> = cands.iter().map(|&ek| index.bitmap(ek)).collect();
    let mut joint_supps: Vec<usize> = Vec::new();
    node.bitmap.and_count_many(&partners, &mut joint_supps);

    // Phase 3 — Apriori gate + instance verification per survivor.
    let mut children: Vec<WorkNode> = Vec::new();
    for (&ek, &joint_supp) in cands.iter().zip(&joint_supps) {
        let max_supp = node
            .events
            .iter()
            .map(|&e| index.support(e))
            .max()
            // lint: allow(panic, structural invariant: HPG nodes always hold at least one event)
            .expect("nodes have events")
            .max(index.support(ek));
        if !apriori_gate(cfg, sigma_abs, joint_supp, max_supp, stats) {
            continue;
        }
        let joint = node.bitmap.and(index.bitmap(ek));
        stats.nodes_verified[k - 2] += 1;
        if let Some(child) = extend_node::<K>(
            db,
            index,
            cfg,
            stats,
            node,
            ek,
            &joint,
            joint_supp,
            max_supp,
            sigma_abs,
            pair_relations,
        ) {
            stats.nodes_kept[k - 2] += 1;
            stats.patterns_found[k - 2] += child.patterns.len();
            children.push(child);
        }
    }
    children
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
        while self.stats.nodes_verified.len() < k - 1 {
            self.stats.nodes_verified.push(0);
            self.stats.nodes_kept.push(0);
            self.stats.patterns_found.push(0);
        }
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
    let count_clipped = |oi: usize| {
        let insts = db.sequences()[occs.seq(oi) as usize].instances();
        occs.tuple(oi)
            .iter()
            .any(|&ti| insts[ti as usize].is_clipped())
    };
    let patterns: Vec<FrequentPattern> = patterns
        .into_iter()
        .map(|wp| {
            let clipped_occurrences = if db_has_clipped {
                wp.occurrences.iter().filter(|&oi| count_clipped(oi)).count()
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
            assert_eq!(decode_column(code, column.len()), column);
        }
    }
}
