//! E-HTPGM: exact Hierarchical Temporal Pattern Graph Mining
//! (paper Section IV, Algorithm 1).
//!
//! Mining proceeds level by level. L1 finds frequent single events with
//! one bitmap scan; each is a root node whose one pattern binds all its
//! instances. Every level `k ≥ 2` then grows each pattern-bearing node
//! of level `k−1` by one event that is chronologically last: the
//! Apriori filter (Lemmas 2–3) discards extensions whose joint-bitmap
//! support/confidence already misses the thresholds, and the survivors
//! have their instance tuples checked against the relation model.
//! Level 2 grows the roots, under A-HTPGM only by events whose series
//! share a correlation edge. Above it the transitivity property (Lemmas
//! 4–7) prunes: a node extension is skipped outright when some node
//! event has no frequent relation at all with the new event (Lemma 5),
//! and an individual occurrence extension dies as soon as one of its
//! new triples is not a frequent, high-confidence 2-event pattern
//! (Lemmas 6–7).
//!
//! The level loops live in the one unsharded mining engine,
//! [`crate::parallel`], which runs [`mine_exact`] at `threads = 1` on
//! the calling thread. This module holds the paper-named entry points
//! and the growth step that engine and the exchange executor share at
//! every level: one instance loop fills one kind of extension-group
//! scratch, which either binds each extension's occurrence row, for a
//! child that grows further, or only counts it. The threaded engine's
//! last level and the executor's [`count_candidates`] run the same gates
//! and instance loop as [`grow_candidates`] on count-only groups. The
//! gates and screens live in [`crate::candidates`]; output flows through
//! a [`PatternSink`] (see [`crate::sink`]) so finished nodes can be
//! collected, counted or streamed without materializing a global pattern
//! `Vec`.
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
//!   candidate event. The last level's count-only scratch and leaf
//!   buffer live in the worker's [`GrowContext`], reused by every parent
//!   of that level the worker grows.
//! - **Support at sequence changes.** A pattern's occurrences ascend by
//!   sequence id, so a group's support is the number of times the
//!   sequence changes along its occurrences; no per-group bitmap exists.
//! - **Joint bitmaps only for survivors.** Every occurrence lies in a
//!   sequence of the node's bitmap, so `ek`'s own bit is the joint test;
//!   `node.bitmap ∧ bitmap(ek)` is built only for a child that survives.
//! - **A counted last level.** The last level has no next level to grow,
//!   so its groups keep no occurrence row: each tracks its support and,
//!   when the database holds clipped instances, its clipped occurrences.
//!   A leaf's patterns are built straight from its groups, with no arena,
//!   joint bitmap or archive-time row scan. On the dense perfbench input
//!   that level holds 1.33 M of the 1.54 M verified nodes.
//! - **Support-bound walk.** A group gains at most one support per
//!   sequence, so when the instance loop enters a new sequence of the
//!   parent, the best group's support plus the sequences still to walk
//!   bounds every group's final support. Once that falls below the least
//!   support [`passes_thresholds`] accepts, the walk stops and keeps no
//!   group (under Apriori pruning, in the unsharded engine: a shard
//!   cannot know a candidate's global support). On the dense perfbench
//!   input 86.6 % of the last level's verified candidates keep no
//!   pattern; 1.32 M walks stop early, and a one-thread run performs
//!   7.07 M instance checks instead of 11.20 M, for the same patterns.
//! - **Kept emission order.** A parent's surviving groups come out in the
//!   iteration order of a fresh code-keyed FNV map filled in
//!   first-appearance order, the order the one-thread output is pinned
//!   to; the map is built only when two or more groups survive.
//!
//! On the dense perfbench input (one thread, counting sink) a run makes
//! 1.19 M heap allocations: 1.26 M while every last-level parent made
//! its own scratch and leaf buffer, 1.88 M while the last level bound its
//! rows, and 13.8 M before the group slots were reused.

use std::marker::PhantomData;

use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryKernel, EventId, SequenceDatabase, TemporalRelation};

use crate::candidates::{
    apriori_gate, passes_thresholds, support_bound, PairRelations, Screen, WorkNode, WorkPattern,
};
use crate::config::{MinerConfig, MAX_EVENTS_HARD_CAP};
use crate::index::DatabaseIndex;
use crate::occ::{OccArena, OccRange};
use crate::pattern::Pattern;
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
    /// Occurrences that bind a boundary-clipped instance; counted only by
    /// count-only groups that count clipped instances.
    clipped: usize,
    /// The group's occurrence rows; empty in count-only groups.
    occs: OccArena,
}

/// What [`ExtensionGroups`] keep of each extension besides its group's
/// support.
#[derive(Clone, Copy)]
enum Keep {
    /// Every occurrence row, `width` bound instances wide: the groups of
    /// a child that grows further.
    Rows { width: usize },
    /// No row. With `clipped` set, each group counts its occurrences that
    /// bind a boundary-clipped instance instead: the groups of the
    /// threaded engine's last level and of the exchange's count step.
    Counts { clipped: bool },
}

/// Reused extension-group slots for growing nodes of one level: one
/// scratch per [`grow_candidates`] call, per [`GrowContext`] for the
/// last level, or per batch of [`count_candidates`] calls, shared by
/// every candidate last event, so a candidate allocates only what a
/// surviving child keeps. Slots are reset without giving back their
/// capacity.
pub(crate) struct ExtensionGroups {
    slots: Vec<GroupSlot>,
    /// The current parent's groups are `slots[..used]`, in the order
    /// their codes first appeared. A parent has a handful of groups (at
    /// most 3 on the dense perfbench input), so codes are looked up by a
    /// linear scan.
    used: usize,
    keep: Keep,
}

impl ExtensionGroups {
    /// Empty slots that keep the occurrence rows of children of `width`
    /// events.
    pub(crate) fn binding(width: usize) -> Self {
        Self::with(Keep::Rows { width })
    }

    /// Empty count-only slots: each group tracks its support, and its
    /// occurrences that bind a boundary-clipped instance when
    /// `count_clipped`, and stores no occurrence row.
    pub(crate) fn counting(count_clipped: bool) -> Self {
        Self::with(Keep::Counts {
            clipped: count_clipped,
        })
    }

    fn with(keep: Keep) -> Self {
        ExtensionGroups {
            slots: Vec::new(),
            used: 0,
            keep,
        }
    }

    /// Whether [`push`](Self::push) wants to know which extensions bind
    /// a boundary-clipped instance.
    fn counts_clipped(&self) -> bool {
        matches!(self.keep, Keep::Counts { clipped: true })
    }

    /// Forgets the previous parent's groups.
    fn start_parent(&mut self) {
        self.used = 0;
    }

    /// Adds the occurrence `tuple` extended by instance `x`, in sequence
    /// `seq`, to the group of relation column `code`; `clipped` says
    /// whether it binds a boundary-clipped instance. A parent's
    /// occurrences come in ascending sequence order, so the group's
    /// support is the number of times its sequence changes.
    fn push(&mut self, code: u64, seq: u32, tuple: &[u32], x: u32, clipped: bool) {
        let keep = self.keep;
        let i = self.slot_of(code);
        let slot = &mut self.slots[i];
        if slot.last_seq != Some(seq) {
            slot.support += 1;
            slot.last_seq = Some(seq);
        }
        match keep {
            Keep::Rows { .. } => slot.occs.push_extend(seq, tuple, x),
            Keep::Counts { .. } => slot.clipped += usize::from(clipped),
        }
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
                slot.clipped = 0;
                slot.occs.clear();
            }
            None => {
                let width = match self.keep {
                    Keep::Rows { width } => width,
                    Keep::Counts { .. } => 0,
                };
                self.slots.push(GroupSlot {
                    code,
                    support: 0,
                    last_seq: None,
                    clipped: 0,
                    occs: OccArena::new(width),
                });
            }
        }
        i
    }

    /// Passes each of the current parent's groups that `survives` keeps
    /// to `emit`, with what `survives` returned for it. The order is the
    /// one in which a fresh code-keyed [`FnvHashMap`], filled in
    /// first-appearance order, iterates the groups: the emission order
    /// the miner's output is pinned to. The map is built only when at
    /// least two groups survive.
    fn for_each_survivor<T>(
        &self,
        survives: impl Fn(&GroupSlot) -> Option<T>,
        mut emit: impl FnMut(&GroupSlot, T),
    ) {
        let groups = self.current();
        let mut emit_survivor = |slot: &GroupSlot| {
            if let Some(verdict) = survives(slot) {
                emit(slot, verdict);
            }
        };
        let survivors = groups.iter().filter(|s| survives(s).is_some()).count();
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

/// The one instance loop, shared by [`extend_node`], the last level of
/// [`GrowContext::grow_node`] and [`count_candidates`] at every level:
/// extends each occurrence of `parent` (a pattern of `node`) with one
/// instance of `ek` that is chronologically last, verifies the new
/// triples iteratively (above level 2, pruning through L2 when
/// transitivity pruning is on), and files each valid extension into the
/// reset `groups` by its packed relation column (r(E_1,E_k), …,
/// r(E_{k-1},E_k)), flagged when `groups` count clipped instances and it
/// binds one.
///
/// `need` is the least support a group must reach to be kept (see
/// [`support_bound`]). A group gains at most one support per sequence,
/// so at each new sequence of the parent the walk stops, leaving no
/// group, once the best group's support plus the parent's sequences
/// still to walk falls below `need`; the stop counts in
/// `support_bound_pruned`. A `need` of at most 1 never stops a walk.
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
    screen: Screen<'_>,
    need: usize,
    groups: &mut ExtensionGroups,
) {
    let rel = &cfg.relation;
    let ek_bitmap = index.bitmap(ek);
    let triples = match screen {
        Screen::Pairs(pairs) if cfg.pruning.transitivity => Some(pairs),
        Screen::Pairs(_) | Screen::Edges(_) => None,
    };
    let count_clipped = groups.counts_clipped();
    groups.start_parent();
    let bounded = need > 1;
    // Sequences of the parent entered so far, and the latest one.
    let (mut walked, mut walking) = (0usize, None);
    for oi in parent.occurrences.iter() {
        let seq_id = node.occs.seq(oi);
        // A root binds its occurrences in ascending sequence order, and
        // growth and `append_from` keep it.
        debug_assert!(
            oi == parent.occurrences.start as usize || node.occs.seq(oi - 1) <= seq_id,
            "a pattern's occurrences ascend by sequence id"
        );
        if bounded && walking != Some(seq_id) {
            debug_assert!(
                walked < parent.support,
                "a pattern's support counts its sequences"
            );
            let best = groups.current().iter().fold(0, |b, g| b.max(g.support));
            if best + parent.support.saturating_sub(walked) < need {
                groups.start_parent();
                stats.support_bound_pruned += 1;
                return;
            }
            walked += 1;
            walking = Some(seq_id);
        }
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
        let last_key = K::key(&seq.instances()[*tuple.last().expect("non-empty") as usize]);
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
        let tuple_clipped = count_clipped
            && tuple
                .iter()
                .any(|&ti| seq.instances()[ti as usize].is_clipped());
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
            // Maximal-duration constraint (Section III-C), in its
            // monotone reading: the whole occurrence must fit inside a
            // t_max window, so every prefix of a valid occurrence is
            // valid and level-wise growth stays complete.
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
                        if triples.is_some_and(|t| !t.contains(node.events[pos], r, ek)) {
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
            let clipped = count_clipped && (tuple_clipped || x.is_clipped());
            groups.push(code, seq_id, tuple, xi, clipped);
        }
    }
}

/// Extends each pattern of `node` with one instance of `ek` that is
/// chronologically last (see [`group_extensions`]) and passes each group
/// that `survives` keeps to `emit`, parent by parent in the pinned order
/// of [`ExtensionGroups::for_each_survivor`]: the extended pattern, the
/// group, and what `survives` returned for the group's [`DeltaKey`] and
/// support. `survives` keeps no group below `need`, the support bound of
/// [`group_extensions`]. Shared by [`extend_node`] and the last level of
/// [`GrowContext::grow_node`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn for_each_extension<K: BoundaryKernel, T>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    ek: EventId,
    screen: Screen<'_>,
    need: usize,
    groups: &mut ExtensionGroups,
    survives: impl Fn(DeltaKey, usize) -> Option<T>,
    mut emit: impl FnMut(Pattern, &GroupSlot, T),
) {
    let mut column = [TemporalRelation::Follow; MAX_EVENTS_HARD_CAP];
    for parent in &node.patterns {
        group_extensions::<K>(
            db, index, cfg, stats, node, parent, ek, screen, need, groups,
        );
        let key = |code| DeltaKey {
            parent: parent.id,
            last: ek,
            code,
        };
        groups.for_each_survivor(
            |group| survives(key(group.code), group.support),
            |group, verdict| {
                let rels = decode_column(group.code, &mut column[..node.events.len()]);
                emit(parent.pattern.extend(ek, rels), group, verdict);
            },
        );
    }
}

/// Step 3.2: extend each frequent pattern of `node` with one instance of
/// `ek` that is chronologically last and keep the groups that `survives`
/// lets through as the child's patterns, each with the confidence and
/// pool id `survives` gave it, which must keep no group below `need` (see
/// [`group_extensions`]). `groups` is the node's reused binding scratch;
/// the child's bitmap, arena and patterns are built only when some group
/// survives.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_node<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    ek: EventId,
    joint_supp: usize,
    screen: Screen<'_>,
    need: usize,
    groups: &mut ExtensionGroups,
    survives: impl Fn(DeltaKey, usize) -> Option<(f64, PatternId)>,
) -> Option<WorkNode> {
    let mut new_patterns: Vec<WorkPattern> = Vec::new();
    let mut child_occs = OccArena::new(node.events.len() + 1);
    let keep = |pattern, group: &GroupSlot, (confidence, id)| {
        new_patterns.push(WorkPattern {
            pattern,
            support: group.support,
            confidence,
            occurrences: child_occs.append_from(&group.occs, group.occs.since(0)),
            id,
            code: group.code,
        });
    };
    for_each_extension::<K, _>(
        db, index, cfg, stats, node, ek, screen, need, groups, survives, keep,
    );

    if new_patterns.is_empty() {
        return None;
    }
    Some(WorkNode {
        events: child_events(node, ek),
        bitmap: node.bitmap.and(index.bitmap(ek)),
        support: joint_supp,
        patterns: new_patterns,
        occs: child_occs,
    })
}

/// The events of `node` extended by `ek`.
fn child_events(node: &WorkNode, ek: EventId) -> Vec<EventId> {
    let mut events = Vec::with_capacity(node.events.len() + 1);
    events.extend_from_slice(&node.events);
    events.push(ek);
    events
}

/// Phases 1–3 of growing `node` (level `k` in event count for the
/// children), shared by [`grow_candidates`], the last level of
/// [`GrowContext::grow_node`] and [`count_candidates`]:
/// the `screen`, the fused AND-count and the Apriori gate. Calls
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
    screen: Screen<'_>,
    sigma_abs: usize,
    k: usize,
    mut verify: impl FnMut(&mut MiningStats, EventId, usize, usize),
) {
    // Phase 1 — the screen. Level 2: the pair must share a correlation
    // edge. Above: the per-node Lemma 5 test, where every node event
    // must form at least one frequent relation with ek, or no k-event
    // pattern over this combination can be frequent.
    let mut cands: Vec<EventId> = Vec::with_capacity(freq_events.len());
    for &ek in freq_events {
        let screened = match screen {
            Screen::Edges(corr) => corr.is_some_and(|c| !c.allows_pair(node.events[0], ek)),
            Screen::Pairs(pairs) => {
                let lemma5 =
                    cfg.pruning.transitivity && node.events.iter().any(|&e| !pairs.any(e, ek));
                stats.transitivity_pruned += u64::from(lemma5);
                lemma5
            }
        };
        if !screened {
            cands.push(ek);
        }
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
/// growth step of every level `k ≥ 2` whose children grow further: the
/// threaded engine's level-2 loop over the roots and the depth-first
/// [`GrowContext::grow_node`] below it both run it. The last level of
/// `grow_node` and the exchange executor's [`count_candidates`] share its
/// gates and instance loop, on count-only groups. Keeping one copy is
/// load-bearing: the paths must stay semantically identical for the
/// exchange's bit-identical-output guarantee. `stats` must already have
/// level slots up to `k - 1`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow_candidates<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    freq_events: &[EventId],
    screen: Screen<'_>,
    sigma_abs: usize,
    k: usize,
) -> Vec<WorkNode> {
    // Every candidate verifies on the node's one set of reused
    // extension-group slots.
    let mut children: Vec<WorkNode> = Vec::new();
    let mut groups = ExtensionGroups::binding(node.events.len() + 1);
    let verify = |stats: &mut MiningStats, ek, joint_supp, max_supp| {
        let survives = |_, support| {
            passes_thresholds(support, max_supp, sigma_abs, cfg.delta)
                .map(|confidence| (confidence, PatternId::NONE))
        };
        if let Some(child) = extend_node::<K>(
            db,
            index,
            cfg,
            stats,
            node,
            ek,
            joint_supp,
            screen,
            support_bound(cfg, sigma_abs, max_supp),
            &mut groups,
            survives,
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
        screen,
        sigma_abs,
        k,
        verify,
    );
    children
}

/// The count-only twin of [`grow_candidates`], for the exchange's
/// propose stage: the same gates, instance loop and counters, but no
/// child is built and no occurrence row is kept, and no walk is stopped
/// by the support bound, since a shard's groups must reach the gate
/// whatever their local support. Passes each group that
/// clears the thresholds to `propose` as `(key, support, clipped)`: its
/// [`DeltaKey`], its support, and its occurrences that bind a
/// boundary-clipped instance, as far as the count-only `groups` (the
/// caller's scratch for nodes of this level) count them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn count_candidates<K: BoundaryKernel>(
    db: &SequenceDatabase,
    index: &DatabaseIndex,
    cfg: &MinerConfig,
    stats: &mut MiningStats,
    node: &WorkNode,
    freq_events: &[EventId],
    screen: Screen<'_>,
    sigma_abs: usize,
    k: usize,
    groups: &mut ExtensionGroups,
    mut propose: impl FnMut(DeltaKey, usize, usize),
) {
    debug_assert!(matches!(groups.keep, Keep::Counts { .. }));
    let count = |stats: &mut MiningStats, ek, _, max_supp| {
        let mut patterns = 0;
        for parent in &node.patterns {
            group_extensions::<K>(db, index, cfg, stats, node, parent, ek, screen, 1, groups);
            for group in groups.current() {
                if passes_thresholds(group.support, max_supp, sigma_abs, cfg.delta).is_none() {
                    continue;
                }
                let key = DeltaKey {
                    parent: parent.id,
                    last: ek,
                    code: group.code,
                };
                propose(key, group.support, group.clipped);
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
        screen,
        sigma_abs,
        k,
        count,
    );
}

/// One node of the last level, built straight from count-only groups:
/// its events, joint support and patterns.
type Leaf = (Vec<EventId>, usize, Vec<FrequentPattern>);

/// Depth-first growth of the Hierarchical Pattern Graph below L2.
pub(crate) struct GrowContext<'a, K: BoundaryKernel> {
    pub(crate) db: &'a SequenceDatabase,
    pub(crate) cfg: &'a MinerConfig,
    pub(crate) index: &'a DatabaseIndex,
    pub(crate) pair_relations: &'a PairRelations,
    pub(crate) freq_events: &'a [EventId],
    pub(crate) sigma_abs: usize,
    /// The last level: [`MinerConfig::last_level`].
    pub(crate) max_events: usize,
    pub(crate) stats: &'a mut MiningStats,
    pub(crate) sink: &'a mut dyn PatternSink,
    /// Whether the database contains any boundary-clipped instance —
    /// lets [`archive_node`] skip the per-occurrence artifact scan, and
    /// the last level skip the per-extension clip test, when every count
    /// would be 0.
    pub(crate) db_has_clipped: bool,
    /// The last level's count-only groups (counting clipped occurrences
    /// iff `db_has_clipped`), reused by every parent of that level this
    /// context grows.
    pub(crate) leaf_groups: ExtensionGroups,
    /// The current last-level parent's leaves, drained into the sink
    /// right after the parent.
    pub(crate) leaves: Vec<Leaf>,
    /// The monomorphized boundary kernel (fixed at dispatch).
    pub(crate) kernel: PhantomData<K>,
}

impl<K: BoundaryKernel> GrowContext<'_, K> {
    /// Archives `node` (level `k − 1` in event count) and tries every
    /// candidate last event for level `k`. The node's occurrence
    /// bindings die when this frame returns. At the last level the
    /// children are leaves: they keep no occurrence row and are emitted
    /// right after their parent.
    pub(crate) fn grow_node(&mut self, node: WorkNode, k: usize) {
        if k > self.max_events {
            archive_node(self.sink, self.db, self.db_has_clipped, node, k - 1);
            return;
        }
        self.stats.ensure_levels(k - 1);
        if k == self.max_events {
            self.grow_leaves(&node, k);
            archive_node(self.sink, self.db, self.db_has_clipped, node, k - 1);
            for (events, support, patterns) in self.leaves.drain(..) {
                self.sink.node(events, support, k, patterns);
            }
            return;
        }
        let children = grow_candidates::<K>(
            self.db,
            self.index,
            self.cfg,
            self.stats,
            &node,
            self.freq_events,
            Screen::Pairs(self.pair_relations),
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

    /// Fills `self.leaves` with the children of `node` at the last level
    /// `k`, grown through the gates and instance loop of
    /// [`grow_candidates`] on the reused count-only groups: each leaf's
    /// patterns are built straight from its groups, in the pinned order,
    /// with no arena, joint bitmap or row scan.
    fn grow_leaves(&mut self, node: &WorkNode, k: usize) {
        let (db, index, cfg) = (self.db, self.index, self.cfg);
        let (sigma_abs, screen) = (self.sigma_abs, Screen::Pairs(self.pair_relations));
        let n_seqs = db.len().max(1) as f64;
        let (leaves, groups) = (&mut self.leaves, &mut self.leaf_groups);
        debug_assert!(
            leaves.is_empty(),
            "the previous parent's leaves are emitted"
        );
        let verify = |stats: &mut MiningStats, ek, joint_supp, max_supp| {
            let mut patterns: Vec<FrequentPattern> = Vec::new();
            let survives = |_, support| passes_thresholds(support, max_supp, sigma_abs, cfg.delta);
            let keep = |pattern, group: &GroupSlot, confidence| {
                patterns.push(FrequentPattern {
                    pattern,
                    support: group.support,
                    rel_support: group.support as f64 / n_seqs,
                    confidence,
                    clipped_occurrences: group.clipped,
                });
            };
            for_each_extension::<K, _>(
                db,
                index,
                cfg,
                stats,
                node,
                ek,
                screen,
                support_bound(cfg, sigma_abs, max_supp),
                groups,
                survives,
                keep,
            );
            if !patterns.is_empty() {
                stats.nodes_kept[k - 2] += 1;
                stats.patterns_found[k - 2] += patterns.len();
                leaves.push((child_events(node, ek), joint_supp, patterns));
            }
        };
        for_each_gated_candidate(
            index,
            cfg,
            self.stats,
            node,
            self.freq_events,
            screen,
            sigma_abs,
            k,
            verify,
        );
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

    /// One binding group as `(code, support, confidence, occurrences,
    /// clipped occurrences)`.
    type Emitted = (u64, usize, f64, Vec<(u32, Vec<u32>)>, usize);

    fn rows(occs: &OccArena) -> Vec<(u32, Vec<u32>)> {
        (0..occs.len())
            .map(|i| (occs.seq(i), occs.tuple(i).to_vec()))
            .collect()
    }

    /// `n_seqs` sequences of `n_insts` instances of one event, in which
    /// instance `i` of sequence `s` is boundary-clipped iff `(i + s)` is
    /// a multiple of 4.
    fn every_fourth_clipped(n_seqs: u32, n_insts: i64) -> SequenceDatabase {
        use ftpm_events::{EventInstance, EventRegistry, Interval, TemporalSequence};
        use ftpm_timeseries::{SymbolId, VariableId};
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let sequences = (0..n_seqs)
            .map(|s| {
                let instances = (0..n_insts)
                    .map(|i| {
                        let iv = Interval::new(2 * i, 2 * i + 1);
                        let clipped = (i + i64::from(s)) % 4 == 0;
                        let extent = Interval::new(2 * i - i64::from(clipped), 2 * i + 1);
                        EventInstance::with_extent(a, iv, extent)
                    })
                    .collect();
                TemporalSequence::new(instances)
            })
            .collect();
        SequenceDatabase::new(reg, sequences)
    }

    /// Four sequences, each holding two instances of `A`, and in all but
    /// sequence 1 an instance of `B` that both follow: extending the root
    /// `A` by `B` makes one `Follow` group of support 3, whose walk
    /// checks two pairings in each of the sequences 0, 2 and 3.
    fn a_then_b_but_in_sequence_1() -> (SequenceDatabase, EventId, EventId) {
        use ftpm_events::{EventInstance, EventRegistry, TemporalSequence};
        use ftpm_timeseries::{SymbolId, VariableId};
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        let sequences = (0..4)
            .map(|s| {
                let mut instances = vec![EventInstance::new(a, 0, 2), EventInstance::new(a, 3, 4)];
                if s != 1 {
                    instances.push(EventInstance::new(b, 6, 8));
                }
                TemporalSequence::new(instances)
            })
            .collect();
        (SequenceDatabase::new(reg, sequences), a, b)
    }

    /// The support bound stops a walk exactly when no group can still
    /// reach `need`: with 3 of the root's 4 sequences holding the
    /// extension, a `need` of 3 is met on the last sequence (best 2 plus 1
    /// sequence left equals `need`, so the walk goes on), a `need` of 4
    /// stops the walk when it enters sequence 2 (best 1 plus 2 left), and
    /// a `need` of at most 1 never stops it.
    #[test]
    fn the_support_bound_stops_only_hopeless_walks() {
        use ftpm_events::ClipKernel;
        let (db, a, b) = a_then_b_but_in_sequence_1();
        let index = DatabaseIndex::build(&db);
        let cfg = MinerConfig::new(0.5, 0.5);
        let root = WorkNode::root(&index, a);
        let full_walk = 6;
        // need -> (supports of the groups left, checks, stops)
        let cases: [(usize, Vec<usize>, u64, u64); 4] = [
            (3, vec![3], full_walk, 0),
            (4, vec![], 2, 1),
            (1, vec![3], full_walk, 0),
            (0, vec![3], full_walk, 0),
        ];
        for (need, supports, checks, stops) in cases {
            let mut stats = MiningStats::default();
            let mut groups = ExtensionGroups::counting(false);
            group_extensions::<ClipKernel>(
                &db,
                &index,
                &cfg,
                &mut stats,
                &root,
                &root.patterns[0],
                b,
                Screen::Edges(None),
                need,
                &mut groups,
            );
            let got: Vec<usize> = groups.current().iter().map(|g| g.support).collect();
            assert_eq!(got, supports, "need {need}: group supports");
            assert_eq!(stats.instance_checks, checks, "need {need}: checks");
            assert_eq!(stats.support_bound_pruned, stops, "need {need}: stops");
        }
    }

    /// The reused slots give each parent the groups, supports and
    /// emission order of the accumulator they replaced: a fresh
    /// code-keyed FNV map per parent holding a sequence bitmap and an
    /// arena per group. Count-only slots give the same codes, supports,
    /// order and confidences, keep no row, and count as clipped exactly
    /// the rows of the matching binding group that [`clipped_occurrences`]
    /// counts (none when they do not count clipped instances). Covers
    /// slot reuse across parents, map tables that grow several times, and
    /// thresholds that keep none, one or several groups.
    #[test]
    fn extension_groups_match_a_fresh_map_per_parent() {
        let keep_all = |support: usize| Some(support as f64);
        let keep_even = |support: usize| support.is_multiple_of(2).then_some(support as f64 / 2.0);
        let keep_none = |_: usize| None;
        let thresholds: [&dyn Fn(usize) -> Option<f64>; 3] = [&keep_all, &keep_even, &keep_none];
        let db = every_fourth_clipped(12, 300);
        let is_clipped =
            |seq: u32, i: u32| db.sequences()[seq as usize].instances()[i as usize].is_clipped();
        let mut clipped_rows = 0;
        for n_codes in [1, 2, 5, 9, 40, 300] {
            let mut groups = ExtensionGroups::binding(2);
            let mut counting = [
                ExtensionGroups::counting(true),
                ExtensionGroups::counting(false),
            ];
            for parent in 0..6 {
                let threshold = thresholds[parent % 3];
                groups.start_parent();
                counting.iter_mut().for_each(ExtensionGroups::start_parent);
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
                        // What the instance loop passes for the row
                        // (seq, [seq, x]).
                        let clipped = is_clipped(seq, seq) || is_clipped(seq, x);
                        groups.push(code, seq, &[seq], x, false);
                        for c in &mut counting {
                            let flag = c.counts_clipped() && clipped;
                            c.push(code, seq, &[seq], x, flag);
                        }
                        let (bitmap, occs) = fresh
                            .entry(code)
                            .or_insert_with(|| (Bitmap::new(12), OccArena::new(2)));
                        bitmap.set(seq as usize);
                        occs.push_extend(seq, &[seq], x);
                    }
                }
                let emitted = |code, support, confidence, occs: &OccArena| {
                    let clipped = clipped_occurrences(&db, occs, occs.since(0));
                    (code, support, confidence, rows(occs), clipped)
                };
                let survives = |group: &GroupSlot| threshold(group.support);
                let mut got: Vec<Emitted> = Vec::new();
                groups.for_each_survivor(survives, |group, confidence| {
                    got.push(emitted(group.code, group.support, confidence, &group.occs));
                });
                let want: Vec<Emitted> = fresh
                    .into_iter()
                    .filter_map(|(code, (bitmap, occs))| {
                        let support = bitmap.count_ones();
                        threshold(support)
                            .map(|confidence| emitted(code, support, confidence, &occs))
                    })
                    .collect();
                assert_eq!(got, want, "{n_codes} codes, parent {parent}");
                clipped_rows += got.iter().map(|g| g.4).sum::<usize>();
                for c in &counting {
                    let mut counted = Vec::new();
                    c.for_each_survivor(survives, |group, confidence| {
                        assert_eq!(group.occs.len(), 0, "a count-only group keeps no row");
                        counted.push((group.code, group.support, confidence, group.clipped));
                    });
                    let expected: Vec<_> = got
                        .iter()
                        .map(|g| (g.0, g.1, g.2, if c.counts_clipped() { g.4 } else { 0 }))
                        .collect();
                    assert_eq!(
                        counted,
                        expected,
                        "{n_codes} codes, parent {parent}, count clipped: {}",
                        c.counts_clipped()
                    );
                }
            }
        }
        assert!(clipped_rows > 0, "the input must bind clipped instances");
    }
}
