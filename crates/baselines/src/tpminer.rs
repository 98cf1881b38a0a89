//! TPMiner (Chen, Peng & Lee, TKDE 2015): endpoint-representation
//! pattern growth.
//!
//! TPMiner converts interval sequences into endpoint sequences and grows
//! patterns prefix by prefix, projecting the database onto each prefix's
//! occurrences. Our implementation keeps that structure: a depth-first
//! growth where each step appends one chronologically-last event instance
//! to every occurrence of the prefix, grouped by the induced relation
//! column. What it lacks — deliberately, per the original algorithm — is
//! HTPGM's bitmap Apriori filter on event combinations, its
//! confidence-based pruning (Lemma 3), and its transitivity pruning
//! (Lemmas 4–7): support is the only growth criterion, and confidence is
//! applied to the final output.

use std::collections::{HashMap, HashSet};

use ftpm_core::{MinerConfig, MiningResult, Pattern};
use ftpm_events::{BoundaryKernel, BoundaryVisit, EventId, SequenceDatabase};

use crate::common::{assemble, event_supports, relation_column};

/// Occurrences of a prefix: `(sequence, bound instance indices)`.
type Projection = Vec<(u32, Vec<u32>)>;

/// The endpoint view TPMiner preprocesses sequences into: per sequence,
/// the instance indices of each event in endpoint (chronological) order.
struct EndpointIndex {
    per_seq: Vec<HashMap<EventId, Vec<u32>>>,
}

impl EndpointIndex {
    fn build<K: BoundaryKernel>(db: &SequenceDatabase) -> Self {
        let per_seq = db
            .sequences()
            .iter()
            .map(|seq| {
                let mut m: HashMap<EventId, Vec<u32>> = HashMap::new();
                for (i, inst) in seq.instances().iter().enumerate() {
                    // Instances the boundary policy discards never enter
                    // the endpoint view.
                    if K::interval(inst).is_none() {
                        continue;
                    }
                    m.entry(inst.event).or_default().push(i as u32);
                }
                m
            })
            .collect();
        EndpointIndex { per_seq }
    }

    fn instances_of(&self, seq: u32, event: EventId) -> &[u32] {
        self.per_seq[seq as usize]
            .get(&event)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Mines all frequent temporal patterns with TPMiner-style pattern
/// growth. Output is identical to [`ftpm_core::mine_exact`].
pub fn mine_tpminer(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    // Monomorphization seam: fix the boundary kernel once per run.
    struct Run<'a> {
        db: &'a SequenceDatabase,
        cfg: &'a MinerConfig,
    }
    impl BoundaryVisit for Run<'_> {
        type Out = MiningResult;
        fn visit<K: BoundaryKernel>(self) -> MiningResult {
            mine_tpminer_k::<K>(self.db, self.cfg)
        }
    }
    cfg.relation.boundary.dispatch(Run { db, cfg })
}

/// [`mine_tpminer`], monomorphized over the boundary kernel.
fn mine_tpminer_k<K: BoundaryKernel>(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    let sigma_abs = cfg.absolute_support(db.len());
    let supports = event_supports::<K>(db);

    // Per-sequence, per-event instance lists (the vertical endpoint view).
    let frequent: Vec<EventId> = {
        let mut v: Vec<EventId> = supports
            .iter()
            .filter(|(_, &s)| s >= sigma_abs)
            .map(|(&e, _)| e)
            .collect();
        v.sort_unstable();
        v
    };

    let endpoints = EndpointIndex::build::<K>(db);
    let mut counted: Vec<(Pattern, usize)> = Vec::new();
    for &e in &frequent {
        // Project the database onto the 1-event prefix <e>.
        let mut projection: Projection = Vec::new();
        for si in 0..db.len() as u32 {
            for &ii in endpoints.instances_of(si, e) {
                projection.push((si, vec![ii]));
            }
        }
        grow::<K>(
            db,
            &endpoints,
            cfg,
            sigma_abs,
            &frequent,
            &[e],
            &[],
            &projection,
            &mut counted,
        );
    }
    assemble(db, cfg, &supports, counted)
}

/// Extends the prefix `(events, relations)` with every frequent event, in
/// depth-first order.
#[allow(clippy::too_many_arguments)]
fn grow<K: BoundaryKernel>(
    db: &SequenceDatabase,
    endpoints: &EndpointIndex,
    cfg: &MinerConfig,
    sigma_abs: usize,
    frequent: &[EventId],
    events: &[EventId],
    relations: &[ftpm_events::TemporalRelation],
    projection: &Projection,
    counted: &mut Vec<(Pattern, usize)>,
) {
    if events.len() >= cfg.max_events {
        return;
    }
    for &ek in frequent {
        // Group candidate extensions by relation column.
        let mut groups: HashMap<Vec<ftpm_events::TemporalRelation>, (HashSet<u32>, Projection)> =
            HashMap::new();
        for (si, binding) in projection {
            let insts = db.sequences()[*si as usize].instances();
            let rel = &cfg.relation;
            // Projected and candidate instances passed the boundary
            // policy when they entered the endpoint view.
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
            for &xi in endpoints.instances_of(*si, ek) {
                let xi = xi as usize;
                let x = &insts[xi];
                #[expect(
                    clippy::expect_used,
                    reason = "structural invariant: endpoint-view members passed the boundary policy"
                )]
                let x_iv = K::interval(x).expect("in endpoint view");
                if K::key(x) <= last_key {
                    continue;
                }
                if !rel.within_t_max(first_start, max_end.max(x_iv.end)) {
                    continue;
                }
                let Some(rels) = relation_column::<K>(insts, binding, xi, cfg) else {
                    continue;
                };
                let entry = groups.entry(rels).or_default();
                entry.0.insert(*si);
                let mut nb = binding.clone();
                nb.push(xi as u32);
                entry.1.push((*si, nb));
            }
        }
        for (rels, (seqs, next_projection)) in groups {
            if seqs.len() < sigma_abs {
                continue; // support is the only growth pruning TPMiner has
            }
            let mut new_events = events.to_vec();
            new_events.push(ek);
            let mut new_relations = relations.to_vec();
            new_relations.extend_from_slice(&rels);
            counted.push((
                Pattern::new(new_events.clone(), new_relations.clone()),
                seqs.len(),
            ));
            grow::<K>(
                db,
                endpoints,
                cfg,
                sigma_abs,
                frequent,
                &new_events,
                &new_relations,
                &next_projection,
                counted,
            );
        }
    }
}
