//! IEMiner (Patel, Hsu & Lee, SIGMOD 2008): level-wise Apriori mining
//! over a hierarchical lossless representation of interval events.
//!
//! IEMiner is a classic candidate-generate-and-test algorithm: level `k`
//! candidates are produced by joining level `k−1` patterns with frequent
//! events (keeping only candidates whose new 2-event sub-patterns are all
//! frequent — the Apriori property), and every candidate is then counted
//! by **scanning the horizontal database** and matching it against each
//! sequence with a backtracking search. The repeated full-database scans
//! per level are what the paper's evaluation shows scaling poorly
//! compared to HTPGM's bitmap-indexed verification. Confidence is applied
//! to the final output only.

use std::collections::{HashMap, HashSet};

use ftpm_core::{MinerConfig, MiningResult, Pattern};
use ftpm_events::{BoundaryKernel, BoundaryVisit, EventId, SequenceDatabase, TemporalRelation};

use crate::common::{assemble, event_supports, sequence_supports};

/// Mines all frequent temporal patterns with IEMiner. Output is identical
/// to [`ftpm_core::mine_exact`].
pub fn mine_ieminer(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    // Monomorphization seam: fix the boundary kernel once per run.
    struct Run<'a> {
        db: &'a SequenceDatabase,
        cfg: &'a MinerConfig,
    }
    impl BoundaryVisit for Run<'_> {
        type Out = MiningResult;
        fn visit<K: BoundaryKernel>(self) -> MiningResult {
            mine_ieminer_k::<K>(self.db, self.cfg)
        }
    }
    cfg.relation.boundary.dispatch(Run { db, cfg })
}

/// [`mine_ieminer`], monomorphized over the boundary kernel.
fn mine_ieminer_k<K: BoundaryKernel>(db: &SequenceDatabase, cfg: &MinerConfig) -> MiningResult {
    let sigma_abs = cfg.absolute_support(db.len());
    let supports = event_supports::<K>(db);
    let mut frequent_events: Vec<EventId> = supports
        .iter()
        .filter(|(_, &s)| s >= sigma_abs)
        .map(|(&e, _)| e)
        .collect();
    frequent_events.sort_unstable();

    let mut counted: Vec<(Pattern, usize)> = Vec::new();

    // Level 2: all ordered event pairs x all three relations.
    let mut candidates: Vec<Pattern> = Vec::new();
    for &a in &frequent_events {
        for &b in &frequent_events {
            for r in TemporalRelation::ALL {
                candidates.push(Pattern::pair(a, r, b));
            }
        }
    }

    let mut current: Vec<(Pattern, usize)> =
        count_by_scanning::<K>(db, cfg, &candidates, sigma_abs);
    // Frequent triples, for the Apriori check during candidate join.
    let mut frequent_pairs: HashSet<(EventId, TemporalRelation, EventId)> = current
        .iter()
        .map(|(p, _)| (p.events()[0], p.relations()[0], p.events()[1]))
        .collect();

    let mut level = 2usize;
    while !current.is_empty() && level < cfg.max_events {
        counted.extend(current.iter().cloned());
        // Candidate generation for level k+1: extend each frequent
        // pattern with a frequent event and every relation column whose
        // triples are all frequent 2-event patterns (Apriori property).
        let mut next_candidates: Vec<Pattern> = Vec::new();
        for (p, _) in &current {
            for &ek in &frequent_events {
                let mut columns: Vec<Vec<TemporalRelation>> = vec![Vec::new()];
                for &ei in p.events() {
                    let mut grown = Vec::new();
                    for col in &columns {
                        for r in TemporalRelation::ALL {
                            if frequent_pairs.contains(&(ei, r, ek)) {
                                let mut c = col.clone();
                                c.push(r);
                                grown.push(c);
                            }
                        }
                    }
                    columns = grown;
                    if columns.is_empty() {
                        break;
                    }
                }
                for col in columns {
                    next_candidates.push(p.extend(ek, &col));
                }
            }
        }
        current = count_by_scanning::<K>(db, cfg, &next_candidates, sigma_abs);
        level += 1;
    }
    counted.extend(current);
    // L2 set no longer needed; kept alive until here for the joins.
    frequent_pairs.clear();

    assemble(db, cfg, &supports, counted)
}

/// The horizontal counting pass: for every candidate, scan every sequence
/// and test support with a backtracking match.
fn count_by_scanning<K: BoundaryKernel>(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    candidates: &[Pattern],
    sigma_abs: usize,
) -> Vec<(Pattern, usize)> {
    let mut counts: HashMap<&Pattern, usize> = HashMap::new();
    for candidate in candidates {
        let mut supp = 0usize;
        for seq in db.sequences() {
            if sequence_supports::<K>(seq, candidate, cfg) {
                supp += 1;
            }
        }
        if supp >= sigma_abs {
            counts.insert(candidate, supp);
        }
    }
    counts.into_iter().map(|(p, s)| (p.clone(), s)).collect()
}
