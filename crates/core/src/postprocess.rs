//! Post-processing of mining results: redundancy elimination (closed and
//! maximal patterns) and interestingness ranking.
//!
//! Frequent-pattern output is heavily redundant — every prefix of a
//! frequent pattern is itself frequent (Lemma 2/6), so a single long
//! pattern implies a chain of shorter ones. The classical remedies from
//! itemset mining carry over along HTPGM's growth structure, where
//! `P'` is a sub-pattern of `P` when it is a *prefix* (same leading
//! events, same relations among them — [`Pattern::has_prefix`]):
//!
//! * a pattern is **closed** if no frequent one-event extension has the
//!   same support — dropping non-closed patterns loses no support
//!   information;
//! * a pattern is **maximal** if no frequent extension exists at all —
//!   the most aggressive lossless-in-structure summary.

use std::collections::HashMap;

use crate::pool::{FnvHashMap, PatternId, PatternPool};
use crate::result::{FrequentPattern, MiningResult};

/// Computes, for every pattern (by its index in `result.patterns`), the
/// best (maximum) support among its direct frequent extensions, if any.
///
/// Runs over a hash-consed [`PatternPool`]: every pattern interns once,
/// and a pattern's immediate prefix is then just its pooled parent id —
/// no prefix `Pattern` is materialized and no whole-pattern key is
/// hashed per lookup.
fn extension_support(result: &MiningResult) -> Vec<Option<usize>> {
    let n_roots = result
        .patterns
        .iter()
        .flat_map(|p| p.pattern.events())
        .map(|e| e.0 + 1)
        .max()
        .unwrap_or(0);
    let mut pool = PatternPool::with_roots(n_roots as usize);
    let ids: Vec<PatternId> = result
        .patterns
        .iter()
        .map(|p| pool.intern(&p.pattern))
        .collect();
    let index_of: FnvHashMap<PatternId, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut best: Vec<Option<usize>> = vec![None; result.patterns.len()];
    // Every pattern of length >= 3 contributes to its immediate prefix's
    // best extension support — one O(n) pass over parent ids.
    for (fp, &id) in result.patterns.iter().zip(&ids) {
        if fp.pattern.len() < 3 {
            continue;
        }
        if let Some(&at) = index_of.get(&pool.parent(id)) {
            let entry = best[at].get_or_insert(0);
            *entry = (*entry).max(fp.support);
        }
    }
    best
}

/// The closed patterns of a mining result: patterns with no frequent
/// prefix-extension of equal support.
///
/// # Examples
///
/// ```
/// use ftpm_core::{closed_patterns, mine_exact, MinerConfig};
/// use ftpm_datagen::random_sequence_database;
///
/// let db = random_sequence_database(7, 6, 3, 2, 40);
/// let result = mine_exact(&db, &MinerConfig::new(0.3, 0.3).with_max_events(3));
/// let closed = closed_patterns(&result);
/// assert!(closed.len() <= result.patterns.len());
/// ```
pub fn closed_patterns(result: &MiningResult) -> Vec<&FrequentPattern> {
    let best = extension_support(result);
    result
        .patterns
        .iter()
        .zip(&best)
        .filter(|(fp, ext)| match ext {
            Some(ext) => *ext < fp.support,
            None => true,
        })
        .map(|(fp, _)| fp)
        .collect()
}

/// The maximal patterns of a mining result: patterns with no frequent
/// prefix-extension at all.
pub fn maximal_patterns(result: &MiningResult) -> Vec<&FrequentPattern> {
    let best = extension_support(result);
    result
        .patterns
        .iter()
        .zip(&best)
        .filter(|(_, ext)| ext.is_none())
        .map(|(fp, _)| fp)
        .collect()
}

/// Lift of a pattern against the independence baseline of its events:
/// `rel_supp(P) / Π_i rel_supp(E_i)`. A lift well above 1 means the
/// events co-occur (in this temporal arrangement) far more often than
/// independent events would — the natural interestingness score for the
/// habit-style patterns of the paper's Table VI.
///
/// Returns `None` if some event's support is unknown (not in
/// `result.frequent_events`) or zero.
pub fn pattern_lift(result: &MiningResult, fp: &FrequentPattern) -> Option<f64> {
    let n = result
        .frequent_events
        .iter()
        .map(|&(_, s)| s)
        .max()
        .unwrap_or(0);
    if n == 0 {
        return None;
    }
    let supports: HashMap<_, _> = result.frequent_events.iter().copied().collect();
    // Recover |D_SEQ| from any pattern's support / rel_support ratio.
    let n_seqs = if fp.rel_support > 0.0 {
        (fp.support as f64 / fp.rel_support).round()
    } else {
        return None;
    };
    let mut baseline = 1.0;
    for e in fp.pattern.events() {
        let s = *supports.get(e)? as f64 / n_seqs;
        if s == 0.0 {
            return None;
        }
        baseline *= s;
    }
    Some(fp.rel_support / baseline)
}

/// Sort key for ranking mined patterns at the presentation layer — what
/// `ftpm mine --sort` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSort {
    /// Descending by absolute support, ties broken by confidence.
    Support,
    /// Descending by confidence, ties broken by support.
    Confidence,
}

impl std::str::FromStr for PatternSort {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "support" => Ok(PatternSort::Support),
            "confidence" => Ok(PatternSort::Confidence),
            other => Err(format!(
                "unknown sort key {other:?} (expected support|confidence)"
            )),
        }
    }
}

/// References to the patterns of `result`, optionally sorted by `sort`
/// and truncated to the `top` best — makes 920k-pattern runs usable from
/// a terminal. With `sort == None` discovery order is kept.
///
/// The sort key is a *total* order: support/confidence ties break by the
/// pattern itself (events, then relations — the pattern's label order
/// for one registry). Discovery order under `--threads` is
/// nondeterministic, so without the full tie-break the same `--top N`
/// command could print different pattern sets run to run whenever the
/// cut fell inside a tie group.
pub fn rank_patterns(
    result: &MiningResult,
    sort: Option<PatternSort>,
    top: Option<usize>,
) -> Vec<&FrequentPattern> {
    let mut refs: Vec<&FrequentPattern> = result.patterns.iter().collect();
    match sort {
        Some(PatternSort::Support) => refs.sort_by(|a, b| {
            b.support
                .cmp(&a.support)
                .then(b.confidence.total_cmp(&a.confidence))
                .then_with(|| a.pattern.cmp(&b.pattern))
        }),
        Some(PatternSort::Confidence) => refs.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then(b.support.cmp(&a.support))
                .then_with(|| a.pattern.cmp(&b.pattern))
        }),
        None => {}
    }
    if let Some(n) = top {
        refs.truncate(n);
    }
    refs
}

/// The `k` most interesting patterns by lift (ties broken by support,
/// confidence, then the pattern itself, so the selection is a total
/// order and stable across nondeterministic discovery orders).
pub fn top_k_by_lift(result: &MiningResult, k: usize) -> Vec<(&FrequentPattern, f64)> {
    let mut scored: Vec<(&FrequentPattern, f64)> = result
        .patterns
        .iter()
        .filter_map(|fp| pattern_lift(result, fp).map(|l| (fp, l)))
        .collect();
    scored.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then(b.0.support.cmp(&a.0.support))
            .then(b.0.confidence.total_cmp(&a.0.confidence))
            .then_with(|| a.0.pattern.cmp(&b.0.pattern))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine_exact, MinerConfig};
    use ftpm_events::{EventInstance, EventRegistry, SequenceDatabase, TemporalSequence};
    use ftpm_timeseries::{SymbolId, VariableId};

    /// Three sequences where A->B always extends to A->B->C in two of
    /// them: A->B (supp 3) is closed; A->B->C (supp 2) is closed and
    /// maximal; A->B is not maximal.
    fn chain_db() -> SequenceDatabase {
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        let c = reg.intern(VariableId(2), SymbolId(1), || "C".into());
        let full = |off: i64| {
            TemporalSequence::new(vec![
                EventInstance::new(a, off, off + 2),
                EventInstance::new(b, off + 3, off + 5),
                EventInstance::new(c, off + 6, off + 8),
            ])
        };
        let partial = TemporalSequence::new(vec![
            EventInstance::new(a, 0, 2),
            EventInstance::new(b, 3, 5),
        ]);
        SequenceDatabase::new(reg, vec![full(0), full(0), partial])
    }

    #[test]
    fn closed_and_maximal_on_chain() {
        let db = chain_db();
        let result = mine_exact(&db, &MinerConfig::new(0.5, 0.1).with_max_events(3));
        let closed = closed_patterns(&result);
        let maximal = maximal_patterns(&result);
        // A->B has supp 3, its extension A->B->C supp 2: closed, not maximal.
        let ab = result
            .patterns
            .iter()
            .find(|p| p.pattern.len() == 2 && p.support == 3)
            .expect("A->B found");
        assert!(closed.iter().any(|p| p.pattern == ab.pattern));
        assert!(!maximal.iter().any(|p| p.pattern == ab.pattern));
        // Every maximal pattern is closed.
        for m in &maximal {
            assert!(closed.iter().any(|c| c.pattern == m.pattern));
        }
        // The 3-event pattern is maximal.
        assert!(maximal.iter().any(|p| p.pattern.len() == 3));
    }

    #[test]
    fn non_closed_prefix_is_dropped() {
        // If the extension has the SAME support everywhere, the prefix is
        // not closed.
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        let c = reg.intern(VariableId(2), SymbolId(1), || "C".into());
        let seq = || {
            TemporalSequence::new(vec![
                EventInstance::new(a, 0, 2),
                EventInstance::new(b, 3, 5),
                EventInstance::new(c, 6, 8),
            ])
        };
        let db = SequenceDatabase::new(reg, vec![seq(), seq()]);
        let result = mine_exact(&db, &MinerConfig::new(0.5, 0.1).with_max_events(3));
        let closed = closed_patterns(&result);
        let ab = result
            .patterns
            .iter()
            .find(|p| p.pattern.events() == [a, b])
            .expect("A->B mined");
        assert!(
            !closed.iter().any(|p| p.pattern == ab.pattern),
            "A->B always extends to A->B->C with equal support: not closed"
        );
    }

    #[test]
    fn lift_exceeds_one_for_dependent_events() {
        let db = chain_db();
        let result = mine_exact(&db, &MinerConfig::new(0.5, 0.1).with_max_events(2));
        let ab = result
            .patterns
            .iter()
            .find(|p| p.pattern.len() == 2 && p.support == 3)
            .unwrap();
        let lift = pattern_lift(&result, ab).unwrap();
        assert!(
            lift >= 1.0,
            "perfectly co-occurring events: lift {lift} >= 1"
        );
    }

    #[test]
    fn rank_patterns_sorts_and_truncates() {
        let db = chain_db();
        let result = mine_exact(&db, &MinerConfig::new(0.5, 0.1).with_max_events(3));
        assert!(result.len() >= 2);
        let by_supp = rank_patterns(&result, Some(PatternSort::Support), None);
        for w in by_supp.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
        let by_conf = rank_patterns(&result, Some(PatternSort::Confidence), Some(2));
        assert_eq!(by_conf.len(), 2);
        assert!(by_conf[0].confidence >= by_conf[1].confidence);
        // No sort: discovery order preserved.
        let plain = rank_patterns(&result, None, None);
        for (a, b) in plain.iter().zip(&result.patterns) {
            assert!(std::ptr::eq(*a, b));
        }
        assert_eq!("support".parse::<PatternSort>(), Ok(PatternSort::Support));
        assert!("lift".parse::<PatternSort>().is_err());
    }

    #[test]
    fn top_k_truncates_and_sorts() {
        let data = ftpm_datagen::dataport_like(0.01);
        let result = mine_exact(&data.seq, &MinerConfig::new(0.4, 0.4).with_max_events(3));
        let top = top_k_by_lift(&result, 5);
        assert!(top.len() <= 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
