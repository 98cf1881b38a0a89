//! A brute-force reference miner: enumerates every chronological instance
//! tuple of every sequence and counts pattern supports directly.
//!
//! Exponential in sequence length — usable only on small databases. It
//! exists as (a) the correctness oracle that E-HTPGM and all baselines are
//! cross-validated against, and (b) the "ground truth including
//! uncorrelated series" needed to study the patterns A-HTPGM prunes
//! (Fig 8).

use std::collections::HashMap;

use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryKernel, BoundaryVisit, SequenceDatabase, TemporalRelation};

use crate::approx::CorrelationFilter;
use crate::config::MinerConfig;
use crate::hpg::HierarchicalPatternGraph;
use crate::index::DatabaseIndex;
use crate::pattern::Pattern;
use crate::result::{FrequentPattern, MiningResult, MiningStats};

/// Mines all frequent temporal patterns by exhaustive enumeration.
///
/// Produces exactly the same pattern set, supports and confidences as
/// [`crate::mine_exact`] (asserted by the cross-validation tests), many
/// orders of magnitude slower. Cap the pattern length with
/// [`MinerConfig::with_max_events`] on all but trivial inputs.
pub fn mine_reference(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    mine_reference_filtered(db, cfg, None)
}

/// [`mine_reference`] under a [`CorrelationFilter`] — the brute-force
/// counterpart of A-HTPGM, so the approximate miners have an oracle too.
///
/// The filter is honored at the same two gates as everywhere else:
/// tuples never start from (L1) or extend with (L2) an event outside the
/// correlated set, and every event pair inside a tuple must share a
/// correlation-graph edge. With transitivity pruning on (the default —
/// the regime every cross-validation suite runs in), this is exactly the
/// pattern set the HPG miners produce under the same filter, because
/// their level-≥3 growth admits a pair only through an edge-gated L2
/// node.
pub fn mine_reference_filtered(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    corr: Option<&CorrelationFilter<'_>>,
) -> MiningResult {
    // Monomorphization seam: fix the boundary kernel once per run (the
    // same dispatch point discipline as `MinePlan::run`).
    struct Run<'a, 'c> {
        db: &'a SequenceDatabase,
        cfg: &'a MinerConfig,
        corr: Option<&'a CorrelationFilter<'c>>,
    }
    impl BoundaryVisit for Run<'_, '_> {
        type Out = MiningResult;
        fn visit<K: BoundaryKernel>(self) -> MiningResult {
            mine_reference_k::<K>(self.db, self.cfg, self.corr)
        }
    }
    cfg.relation.boundary.dispatch(Run { db, cfg, corr })
}

/// [`mine_reference`], monomorphized over the boundary kernel.
fn mine_reference_k<K: BoundaryKernel>(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    corr: Option<&CorrelationFilter<'_>>,
) -> MiningResult {
    let n_seqs = db.len();
    let sigma_abs = cfg.absolute_support(n_seqs);
    let index = DatabaseIndex::build_with_policy(db, cfg.relation.boundary);

    let mut support: HashMap<Pattern, PatternAccum> = HashMap::new();

    for (seq_id, seq) in db.sequences().iter().enumerate() {
        let insts = seq.instances();
        // DFS over chronologically increasing tuples. Every prefix of a
        // valid occurrence is valid (all pairwise relations hold, and the
        // monotone t_max constraint only tightens as the tuple grows), so
        // pruning invalid prefixes is complete.
        let mut tuple: Vec<usize> = Vec::new();
        let mut rels: Vec<TemporalRelation> = Vec::new();
        for start in 0..insts.len() {
            if K::interval(&insts[start]).is_none() {
                continue; // discarded by the boundary policy
            }
            if corr.is_some_and(|c| !c.allows_event(insts[start].event)) {
                continue; // outside the correlated set X_C
            }
            tuple.push(start);
            dfs::<K>(
                db,
                cfg,
                seq_id,
                insts.len(),
                &mut tuple,
                &mut rels,
                &mut support,
                corr,
            );
            tuple.pop();
        }
    }

    let mut patterns: Vec<FrequentPattern> = support
        .into_iter()
        .filter_map(|(pattern, accum)| {
            let supp = accum.bitmap.count_ones();
            if supp < sigma_abs {
                return None;
            }
            #[expect(
                clippy::expect_used,
                reason = "structural invariant: patterns always hold at least one event"
            )]
            let max_evt_supp = pattern
                .events()
                .iter()
                .map(|&e| index.support(e))
                .max()
                .expect("patterns have events");
            let confidence = supp as f64 / max_evt_supp as f64;
            if confidence + 1e-9 < cfg.delta {
                return None;
            }
            Some(FrequentPattern {
                pattern,
                support: supp,
                rel_support: supp as f64 / n_seqs.max(1) as f64,
                confidence,
                clipped_occurrences: accum.clipped_occurrences,
            })
        })
        .collect();
    // Deterministic order: by length, then by events/relations.
    patterns.sort_by(|a, b| {
        (a.pattern.len(), a.pattern.events(), a.pattern.relations()).cmp(&(
            b.pattern.len(),
            b.pattern.events(),
            b.pattern.relations(),
        ))
    });

    let frequent_events = db
        .registry()
        .ids()
        .filter(|&e| corr.is_none_or(|c| c.allows_event(e)))
        .filter(|&e| index.support(e) >= sigma_abs)
        .map(|e| (e, index.support(e)))
        .collect();

    MiningResult {
        patterns,
        frequent_events,
        graph: HierarchicalPatternGraph::default(),
        stats: MiningStats::default(),
    }
}

/// Per-pattern accumulator: supporting-sequence bitmap plus the count of
/// occurrences touching a boundary-clipped instance.
struct PatternAccum {
    bitmap: Bitmap,
    clipped_occurrences: usize,
}

#[allow(clippy::too_many_arguments)]
fn dfs<K: BoundaryKernel>(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    seq_id: usize,
    n_insts: usize,
    tuple: &mut Vec<usize>,
    rels: &mut Vec<TemporalRelation>,
    support: &mut HashMap<Pattern, PatternAccum>,
    corr: Option<&CorrelationFilter<'_>>,
) {
    let insts = db.sequences()[seq_id].instances();
    let rel = &cfg.relation;
    if tuple.len() >= 2 {
        let pattern = Pattern::new(
            tuple.iter().map(|&i| insts[i].event).collect(),
            rels.clone(),
        );
        let accum = support.entry(pattern).or_insert_with(|| PatternAccum {
            bitmap: Bitmap::new(db.len()),
            clipped_occurrences: 0,
        });
        accum.bitmap.set(seq_id);
        if tuple.iter().any(|&i| insts[i].is_clipped()) {
            accum.clipped_occurrences += 1;
        }
    }
    if tuple.len() >= cfg.max_events.min(12) {
        // Hard cap of 12 events keeps accidental misuse from exploding.
        return;
    }
    // Tuple members passed the boundary policy when they were pushed.
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: binding members passed the boundary policy on entry"
    )]
    let bound_iv =
        |i: usize| K::interval(&insts[i]).expect("bound instances pass the boundary policy");
    let first_start = bound_iv(tuple[0]).start;
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: the binding is non-empty on this path"
    )]
    let tuple_max_end = tuple
        .iter()
        .map(|&i| bound_iv(i).end)
        .max()
        .expect("non-empty");
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: the binding is non-empty on this path"
    )]
    let last_key = K::key(&insts[*tuple.last().expect("non-empty")]);

    for (next, x) in insts.iter().enumerate().take(n_insts) {
        let Some(x_iv) = K::interval(x) else {
            continue;
        };
        if K::key(x) <= last_key {
            continue;
        }
        if corr.is_some_and(|c| {
            !c.allows_event(x.event)
                || tuple
                    .iter()
                    .any(|&ti| !c.allows_pair(insts[ti].event, x.event))
        }) {
            continue; // pruned by the correlation graph (L1 / L2 gates)
        }
        if !rel.within_t_max(first_start, tuple_max_end.max(x_iv.end)) {
            continue;
        }
        let mut new_rels = Vec::with_capacity(tuple.len());
        let mut ok = true;
        for &ti in tuple.iter() {
            match rel.relate(&bound_iv(ti), &x_iv) {
                Some(r) => new_rels.push(r),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let depth = rels.len();
        rels.extend_from_slice(&new_rels);
        tuple.push(next);
        dfs::<K>(db, cfg, seq_id, n_insts, tuple, rels, support, corr);
        tuple.pop();
        rels.truncate(depth);
    }
}
