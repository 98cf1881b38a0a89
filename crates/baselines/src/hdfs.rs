//! H-DFS (Papapetrou, Kollios, Sclaroff & Gunopulos, KAIS 2009): hybrid
//! BFS/DFS mining of frequent arrangements of temporal intervals.
//!
//! H-DFS represents each event vertically as an **ID-list** — for every
//! sequence, the list of the event's instances — and produces
//! arrangements by *merging* ID-lists: a breadth-first pass joins every
//! pair of frequent events, then each frequent arrangement is extended
//! depth-first by merging its (fully materialized) occurrence list with
//! another event's ID-list. Every intermediate arrangement keeps its
//! complete occurrence list in memory, which is exactly why the paper
//! finds that H-DFS "does not scale well when the data size increases".
//! There is no bitmap prefilter, no confidence pruning and no
//! transitivity pruning; confidence is applied to the final output only.

use std::collections::{HashMap, HashSet};

use ftpm_core::{MinerConfig, MiningResult, Pattern};
use ftpm_events::{BoundaryKernel, BoundaryVisit, EventId, SequenceDatabase, TemporalRelation};

use crate::common::{assemble, event_supports, relation_column};

/// Per-group accumulator: supporting sequences + occurrence list.
type Accum = (HashSet<u32>, Vec<(u32, Vec<u32>)>);

/// One event's ID-list: per sequence, the indices of its instances.
struct IdList {
    event: EventId,
    /// `(sequence, instance indices)`, ascending by sequence.
    per_seq: Vec<(u32, Vec<u32>)>,
}

/// An arrangement (pattern) under construction with its materialized
/// occurrence list.
struct Arrangement {
    events: Vec<EventId>,
    relations: Vec<TemporalRelation>,
    /// `(sequence, bound instance indices)` — every occurrence.
    occurrences: Vec<(u32, Vec<u32>)>,
    support: usize,
}

/// Mines all frequent temporal patterns with H-DFS. Output is identical
/// to [`ftpm_core::mine_exact`].
pub fn mine_hdfs(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    // Monomorphization seam: fix the boundary kernel once per run.
    struct Run<'a> {
        db: &'a SequenceDatabase,
        cfg: &'a MinerConfig,
    }
    impl BoundaryVisit for Run<'_> {
        type Out = MiningResult;
        fn visit<K: BoundaryKernel>(self) -> MiningResult {
            mine_hdfs_k::<K>(self.db, self.cfg)
        }
    }
    cfg.relation.boundary.dispatch(Run { db, cfg })
}

/// [`mine_hdfs`], monomorphized over the boundary kernel.
fn mine_hdfs_k<K: BoundaryKernel>(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    let sigma_abs = cfg.absolute_support(db.len());
    let supports = event_supports::<K>(db);

    // Vertical transformation: build an ID-list per frequent event.
    let mut id_lists: Vec<IdList> = Vec::new();
    {
        let mut events: Vec<EventId> = supports
            .iter()
            .filter(|(_, &s)| s >= sigma_abs)
            .map(|(&e, _)| e)
            .collect();
        events.sort_unstable();
        for e in events {
            let mut per_seq = Vec::new();
            for (si, seq) in db.sequences().iter().enumerate() {
                // The boundary policy filters the vertical view up front:
                // instances it discards never enter an ID-list.
                let insts: Vec<u32> = seq
                    .instances_of(e)
                    .filter(|&i| K::interval(&seq.instances()[i]).is_some())
                    .map(|i| i as u32)
                    .collect();
                if !insts.is_empty() {
                    per_seq.push((si as u32, insts));
                }
            }
            id_lists.push(IdList { event: e, per_seq });
        }
    }

    let mut counted: Vec<(Pattern, usize)> = Vec::new();

    // BFS step: merge every ordered pair of ID-lists into 2-event
    // arrangements.
    let mut stack: Vec<Arrangement> = Vec::new();
    for a in &id_lists {
        for b in &id_lists {
            for arr in merge_pair::<K>(db, cfg, a, b, sigma_abs) {
                counted.push((
                    Pattern::new(arr.events.clone(), arr.relations.clone()),
                    arr.support,
                ));
                stack.push(arr);
            }
        }
    }

    // DFS step: extend each arrangement by merging with every ID-list.
    while let Some(arr) = stack.pop() {
        if arr.events.len() >= cfg.max_events {
            continue;
        }
        for idl in &id_lists {
            for ext in merge_extend::<K>(db, cfg, &arr, idl, sigma_abs) {
                counted.push((
                    Pattern::new(ext.events.clone(), ext.relations.clone()),
                    ext.support,
                ));
                stack.push(ext);
            }
        }
    }

    assemble(db, cfg, &supports, counted)
}

/// Merge-join two ID-lists over their common sequences, producing one
/// arrangement per frequent relation.
fn merge_pair<K: BoundaryKernel>(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    a: &IdList,
    b: &IdList,
    sigma_abs: usize,
) -> Vec<Arrangement> {
    let mut per_rel: HashMap<TemporalRelation, Accum> = HashMap::new();
    let (mut i, mut j) = (0, 0);
    while i < a.per_seq.len() && j < b.per_seq.len() {
        let (sa, ia) = &a.per_seq[i];
        let (sb, ib) = &b.per_seq[j];
        match sa.cmp(sb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let insts = db.sequences()[*sa as usize].instances();
                let rel = &cfg.relation;
                for &x in ia {
                    for &y in ib {
                        let (fx, fy) = (&insts[x as usize], &insts[y as usize]);
                        // ID-list members passed the boundary policy.
                        #[expect(
                            clippy::expect_used,
                            reason = "structural invariant: id-list members passed the boundary policy"
                        )]
                        let fx_iv = K::interval(fx).expect("in id-list");
                        #[expect(
                            clippy::expect_used,
                            reason = "structural invariant: id-list members passed the boundary policy"
                        )]
                        let fy_iv = K::interval(fy).expect("in id-list");
                        if K::key(fx) >= K::key(fy) {
                            continue; // the opposite order is the pair (b, a)
                        }
                        let max_end = fx_iv.end.max(fy_iv.end);
                        if !rel.within_t_max(fx_iv.start, max_end) {
                            continue;
                        }
                        if let Some(r) = rel.relate(&fx_iv, &fy_iv) {
                            let entry = per_rel.entry(r).or_default();
                            entry.0.insert(*sa);
                            entry.1.push((*sa, vec![x, y]));
                        }
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
    per_rel
        .into_iter()
        .filter(|(_, (seqs, _))| seqs.len() >= sigma_abs)
        .map(|(r, (seqs, occurrences))| Arrangement {
            events: vec![a.event, b.event],
            relations: vec![r],
            support: seqs.len(),
            occurrences,
        })
        .collect()
}

/// Merge an arrangement's occurrence list with an event's ID-list,
/// producing one extended arrangement per frequent relation column.
fn merge_extend<K: BoundaryKernel>(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    arr: &Arrangement,
    idl: &IdList,
    sigma_abs: usize,
) -> Vec<Arrangement> {
    let mut per_col: HashMap<Vec<TemporalRelation>, Accum> = HashMap::new();
    // The ID-list is sorted by sequence; look it up per occurrence.
    let by_seq: HashMap<u32, &Vec<u32>> = idl.per_seq.iter().map(|(s, v)| (*s, v)).collect();
    for (si, binding) in &arr.occurrences {
        let Some(candidates) = by_seq.get(si) else {
            continue;
        };
        let insts = db.sequences()[*si as usize].instances();
        let rel = &cfg.relation;
        // Bound and candidate instances all passed the boundary policy.
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: binding members passed the boundary policy on entry"
        )]
        let bound_iv = |b: u32| {
            K::interval(&insts[b as usize]).expect("bound instances pass the boundary policy")
        };
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: the binding is non-empty on this path"
        )]
        let last_key = K::key(&insts[*binding.last().expect("non-empty") as usize]);
        let first_start = bound_iv(binding[0]).start;
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: the binding is non-empty on this path"
        )]
        let max_end = binding
            .iter()
            .map(|&b| bound_iv(b).end)
            .max()
            .expect("non-empty");
        for &xi in *candidates {
            let x = &insts[xi as usize];
            #[expect(
                clippy::expect_used,
                reason = "structural invariant: id-list members passed the boundary policy"
            )]
            let x_iv = K::interval(x).expect("in id-list");
            if K::key(x) <= last_key {
                continue;
            }
            if !rel.within_t_max(first_start, max_end.max(x_iv.end)) {
                continue;
            }
            let Some(rels) = relation_column::<K>(insts, binding, xi as usize, cfg) else {
                continue;
            };
            let entry = per_col.entry(rels).or_default();
            entry.0.insert(*si);
            let mut nb = binding.clone();
            nb.push(xi);
            entry.1.push((*si, nb));
        }
    }
    per_col
        .into_iter()
        .filter(|(_, (seqs, _))| seqs.len() >= sigma_abs)
        .map(|(col, (seqs, occurrences))| {
            let mut events = arr.events.clone();
            events.push(idl.event);
            let mut relations = arr.relations.clone();
            relations.extend_from_slice(&col);
            Arrangement {
                events,
                relations,
                support: seqs.len(),
                occurrences,
            }
        })
        .collect()
}
