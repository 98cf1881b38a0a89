//! Shared plumbing for the baseline miners: event supports (counted by
//! database scan, not bitmaps), pattern matching against a sequence, and
//! result assembly.
//!
//! All of it is generic over a [`ftpm_events::BoundaryKernel`] — the same
//! monomorphization seam the HPG miners dispatch through — so the
//! baselines honor the configured [`ftpm_events::BoundaryPolicy`] exactly
//! like the HPG miners do (historically they silently mined the clipped
//! view whatever the policy said), with the policy choice compiled out of
//! their instance loops.

use std::collections::{HashMap, HashSet};

use ftpm_core::{FrequentPattern, MinerConfig, MiningResult, MiningStats, Pattern};
use ftpm_events::{
    BoundaryKernel, BoundaryPolicy, EventId, SequenceDatabase, TemporalRelation, TemporalSequence,
};

/// Event supports counted with one horizontal scan of the database.
/// Instances the boundary policy discards are invisible — they feed
/// neither supports nor confidence denominators, matching
/// `DatabaseIndex::build_with_policy`.
pub(crate) fn event_supports<K: BoundaryKernel>(db: &SequenceDatabase) -> HashMap<EventId, usize> {
    let mut supports: HashMap<EventId, usize> = HashMap::new();
    let mut seen: HashSet<EventId> = HashSet::new();
    for seq in db.sequences() {
        seen.clear();
        for inst in seq.instances() {
            if K::interval(inst).is_some() {
                seen.insert(inst.event);
            }
        }
        for &e in &seen {
            *supports.entry(e).or_default() += 1;
        }
    }
    supports
}

/// Confidence denominator: the largest support among the pattern's events
/// (Def 3.16).
#[expect(
    clippy::expect_used,
    reason = "structural invariant: patterns always hold at least one event"
)]
pub(crate) fn max_event_support(pattern: &Pattern, supports: &HashMap<EventId, usize>) -> usize {
    pattern
        .events()
        .iter()
        .map(|e| supports.get(e).copied().unwrap_or(0))
        .max()
        .expect("patterns have events")
}

/// Does `seq` support `pattern`? Backtracking search for a chronological
/// instance binding satisfying every triple and the duration constraint —
/// how IEMiner verifies candidates against the horizontal database.
///
/// "Chronological" means the boundary policy's effective key: under
/// `TrueExtent` the extent order can disagree with the clipped index
/// order the sequence is sorted by, so candidates are gated by key, not
/// by position.
pub(crate) fn sequence_supports<K: BoundaryKernel>(
    seq: &TemporalSequence,
    pattern: &Pattern,
    cfg: &MinerConfig,
) -> bool {
    let mut binding: Vec<usize> = Vec::with_capacity(pattern.len());
    backtrack_from::<K>(seq.instances(), pattern, cfg, &mut binding)
}

fn backtrack_from<K: BoundaryKernel>(
    insts: &[ftpm_events::EventInstance],
    pattern: &Pattern,
    cfg: &MinerConfig,
    binding: &mut Vec<usize>,
) -> bool {
    let rel = &cfg.relation;
    let pos = binding.len();
    if pos == pattern.len() {
        return true;
    }
    // Under Clip/Discard the effective key order equals the sequence's
    // index order, so the scan can skip everything up to the last bound
    // position; only TrueExtent (extent order can disagree with index
    // order) must rescan from the start and rely on the key gate alone.
    // `K::POLICY` is a constant, so the non-matching arm compiles out.
    let start = match K::POLICY {
        BoundaryPolicy::TrueExtent => 0,
        BoundaryPolicy::Clip | BoundaryPolicy::Discard => {
            binding.last().map_or(0, |&last| last + 1)
        }
    };
    let want = pattern.events()[pos];
    for (i, x) in insts.iter().enumerate().skip(start) {
        if x.event != want {
            continue;
        }
        let Some(x_iv) = K::interval(x) else {
            continue; // discarded by the boundary policy
        };
        if let Some(&last) = binding.last() {
            if K::key(x) <= K::key(&insts[last]) {
                continue;
            }
        }
        // Bound instances passed the policy when they were pushed.
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: binding members passed the boundary policy on entry"
        )]
        let bound_iv =
            |b: usize| K::interval(&insts[b]).expect("bound instances pass the boundary policy");
        // Duration constraint: the whole occurrence fits in t_max.
        if !binding.is_empty() {
            let first_start = bound_iv(binding[0]).start;
            #[expect(
                clippy::expect_used,
                reason = "structural invariant: the binding is non-empty on this path"
            )]
            let max_end = binding
                .iter()
                .map(|&b| bound_iv(b).end)
                .max()
                .expect("non-empty")
                .max(x_iv.end);
            if !rel.within_t_max(first_start, max_end) {
                continue;
            }
        }
        // All relations to already-bound instances must match.
        let ok = binding.iter().enumerate().all(|(j, &b)| {
            rel.relate(&bound_iv(b), &x_iv) == Some(pattern.relation_between(j, pos))
        });
        if !ok {
            continue;
        }
        binding.push(i);
        if backtrack_from::<K>(insts, pattern, cfg, binding) {
            binding.pop();
            return true;
        }
        binding.pop();
    }
    false
}

/// Final assembly: apply σ and δ, compute measures, sort, and wrap in a
/// [`MiningResult`].
pub(crate) fn assemble(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    supports: &HashMap<EventId, usize>,
    counted: Vec<(Pattern, usize)>,
) -> MiningResult {
    let n = db.len();
    let sigma_abs = cfg.absolute_support(n);
    let mut patterns: Vec<FrequentPattern> = counted
        .into_iter()
        .filter(|(_, supp)| *supp >= sigma_abs)
        .filter_map(|(pattern, supp)| {
            let confidence = supp as f64 / max_event_support(&pattern, supports) as f64;
            if confidence + 1e-9 < cfg.delta {
                return None;
            }
            Some(FrequentPattern {
                pattern,
                support: supp,
                rel_support: supp as f64 / n.max(1) as f64,
                confidence,
                // Baselines count supporting sequences without keeping
                // bound occurrence tuples, so the per-pattern artifact
                // measure is not available (the policy itself is applied:
                // relations, ordering and t_max all use the effective
                // intervals).
                clipped_occurrences: 0,
            })
        })
        .collect();
    patterns.sort_by(|a, b| {
        (a.pattern.len(), a.pattern.events(), a.pattern.relations()).cmp(&(
            b.pattern.len(),
            b.pattern.events(),
            b.pattern.relations(),
        ))
    });
    let frequent_events = {
        let mut v: Vec<(EventId, usize)> = supports
            .iter()
            .filter(|(_, &s)| s >= sigma_abs)
            .map(|(&e, &s)| (e, s))
            .collect();
        v.sort_unstable();
        v
    };
    MiningResult {
        patterns,
        frequent_events,
        graph: Default::default(),
        stats: MiningStats::default(),
    }
}

/// The ordered relation column appended when a chronologically last
/// instance joins an existing binding; `None` if any pair has no relation.
/// All intervals go through the boundary policy; the caller guarantees
/// `x` and every bound instance pass it.
pub(crate) fn relation_column<K: BoundaryKernel>(
    insts: &[ftpm_events::EventInstance],
    binding: &[u32],
    x: usize,
    cfg: &MinerConfig,
) -> Option<Vec<TemporalRelation>> {
    let rel = &cfg.relation;
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: candidates passed the boundary policy on entry"
    )]
    let x_iv = K::interval(&insts[x]).expect("candidate instances pass the boundary policy");
    let mut rels = Vec::with_capacity(binding.len());
    for &b in binding {
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: binding members passed the boundary policy on entry"
        )]
        let b_iv =
            K::interval(&insts[b as usize]).expect("bound instances pass the boundary policy");
        rels.push(rel.relate(&b_iv, &x_iv)?);
    }
    Some(rels)
}
