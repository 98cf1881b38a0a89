use std::collections::HashSet;

use ftpm_events::{BoundaryPolicy, EventId, EventRegistry};

use crate::hpg::HierarchicalPatternGraph;
use crate::index::DatabaseIndex;
use crate::pattern::Pattern;

/// A mined frequent temporal pattern together with its measures.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequentPattern {
    /// The pattern itself.
    pub pattern: Pattern,
    /// Absolute support `supp(P)` (Def 3.14): number of supporting
    /// sequences.
    pub support: usize,
    /// Relative support `supp(P)/|D_SEQ|` (Eq. 4).
    pub rel_support: f64,
    /// Confidence (Def 3.16): `supp(P) / max_k supp(E_k)`.
    pub confidence: f64,
    /// How many of the pattern's bound occurrences include at least one
    /// instance clipped at a window boundary — occurrences that may be
    /// boundary artifacts under [`ftpm_events::BoundaryPolicy::Clip`]
    /// (always 0 under `Discard`; under `TrueExtent` the count is real
    /// occurrences that happen to touch a cut). Reported by the HPG
    /// miners; 0 for producers that do not bind occurrences (the
    /// baseline miners).
    pub clipped_occurrences: usize,
}

/// Counters describing one mining run — used by the ablation experiments
/// (Figs 6–7) to show *why* a pruning configuration is faster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningStats {
    /// Nodes whose instances were actually verified, per level (index 0 is
    /// level 2).
    pub nodes_verified: Vec<usize>,
    /// Nodes that ended up with at least one frequent pattern, per level.
    pub nodes_kept: Vec<usize>,
    /// Frequent patterns found, per level.
    pub patterns_found: Vec<usize>,
    /// Instance checks performed: each pairing of a parent occurrence with
    /// a chronologically later instance of the appended event that the
    /// instance loop tests. A walk stopped by the support bound performs,
    /// and counts, only the checks before the stop; a walk it skipped
    /// performs none.
    pub instance_checks: u64,
    /// Candidate event combinations discarded by Apriori pruning
    /// (Lemmas 2–3) before instance verification.
    pub apriori_pruned: u64,
    /// Extension candidates discarded by the transitivity / L2 lookup
    /// (Lemmas 4–7).
    pub transitivity_pruned: u64,
    /// Instance walks the support bound skipped or stopped early, because
    /// no extension group could still reach the least support that passes
    /// `σ` and `δ`. A walk is skipped before it starts when too few of the
    /// parent pattern's sequences hold an instance of the appended event
    /// after the pattern's earliest last instance there (the last-instance
    /// bound), and stops at a new sequence when the best group plus the
    /// sequences left falls short, since a group gains at most one
    /// support per sequence. Only with Apriori pruning on, and only in
    /// unsharded runs: a shard cannot know a candidate's global support.
    pub support_bound_pruned: u64,
    /// Instances of the mined database whose run was clipped at a window
    /// boundary by the split (either side).
    pub clipped_instances: u64,
    /// Clipped instances dropped outright because the run used
    /// [`ftpm_events::BoundaryPolicy::Discard`] (0 under the other
    /// policies).
    pub discarded_instances: u64,
}

impl MiningStats {
    /// Opens zeroed per-level slots until `levels` levels have one.
    pub(crate) fn ensure_levels(&mut self, levels: usize) {
        while self.nodes_verified.len() < levels {
            self.nodes_verified.push(0);
            self.nodes_kept.push(0);
            self.patterns_found.push(0);
        }
    }

    /// Records the boundary counts of the sequences `index` covers, built
    /// under `policy`: the run-level half of the boundary-artifact story
    /// (the per-pattern half is `clipped_occurrences`). Returns whether a
    /// bound occurrence can hold a clipped instance, that is whether the
    /// per-pattern count needs its occurrence scan: `Discard` hides every
    /// clipped instance from the index.
    pub(crate) fn record_boundary(
        &mut self,
        index: &DatabaseIndex,
        policy: BoundaryPolicy,
    ) -> bool {
        let clipped = index.clipped_instances();
        self.clipped_instances = clipped;
        self.discarded_instances = match policy {
            BoundaryPolicy::Discard => clipped,
            BoundaryPolicy::Clip | BoundaryPolicy::TrueExtent => 0,
        };
        clipped > 0 && policy != BoundaryPolicy::Discard
    }
}

/// Sums per-worker / per-shard run counters into `into` — the single
/// stats-merge path shared by the parallel miner's worker shards and the
/// time-range shard merge.
pub(crate) fn merge_stats(into: &mut MiningStats, from: MiningStats) {
    for (i, v) in from.nodes_verified.into_iter().enumerate() {
        if into.nodes_verified.len() <= i {
            into.nodes_verified.push(0);
            into.nodes_kept.push(0);
            into.patterns_found.push(0);
        }
        into.nodes_verified[i] += v;
    }
    for (i, v) in from.nodes_kept.into_iter().enumerate() {
        if into.nodes_kept.len() <= i {
            into.nodes_kept.push(0);
        }
        into.nodes_kept[i] += v;
    }
    for (i, v) in from.patterns_found.into_iter().enumerate() {
        if into.patterns_found.len() <= i {
            into.patterns_found.push(0);
        }
        into.patterns_found[i] += v;
    }
    into.instance_checks += from.instance_checks;
    into.apriori_pruned += from.apriori_pruned;
    into.transitivity_pruned += from.transitivity_pruned;
    into.support_bound_pruned += from.support_bound_pruned;
    // Boundary counts describe the database: a worker's stats carry
    // zeros, and a shard's its owned sequences' counts.
    into.clipped_instances += from.clipped_instances;
    into.discarded_instances += from.discarded_instances;
}

/// The output of a mining run.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// All frequent temporal patterns (`|P| ≥ 2` events), in discovery
    /// order (level by level).
    pub patterns: Vec<FrequentPattern>,
    /// The frequent single events of L1 and their supports.
    pub frequent_events: Vec<(EventId, usize)>,
    /// Summary of the Hierarchical Pattern Graph that was built.
    pub graph: HierarchicalPatternGraph,
    /// Run counters.
    pub stats: MiningStats,
}

impl MiningResult {
    /// The set of pattern identities, for accuracy comparisons between
    /// miners (Table IX: accuracy of A-HTPGM = fraction of E-HTPGM's
    /// patterns that A-HTPGM also finds). Borrows the patterns in place —
    /// building the set clones nothing.
    pub fn pattern_keys(&self) -> HashSet<&Pattern> {
        self.patterns.iter().map(|p| &p.pattern).collect()
    }

    /// Number of frequent patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True iff no pattern was found.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Fraction of `other`'s patterns that this result also contains —
    /// `accuracy(self vs other)` in the Table IX sense. Returns 1.0 when
    /// `other` is empty.
    pub fn accuracy_against(&self, other: &MiningResult) -> f64 {
        if other.patterns.is_empty() {
            return 1.0;
        }
        let mine = self.pattern_keys();
        let found = other
            .patterns
            .iter()
            .filter(|p| mine.contains(&p.pattern))
            .count();
        found as f64 / other.patterns.len() as f64
    }

    /// Renders all patterns as human-readable lines.
    pub fn render(&self, registry: &EventRegistry) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for fp in &self.patterns {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "fmt::Write to String is infallible"
            )]
            let _ = writeln!(
                out,
                "{}  [supp={} ({:.0}%), conf={:.0}%]",
                fp.pattern.display(registry),
                fp.support,
                fp.rel_support * 100.0,
                fp.confidence * 100.0,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_events::TemporalRelation;

    fn fp(e1: u32, e2: u32, support: usize) -> FrequentPattern {
        FrequentPattern {
            pattern: Pattern::pair(EventId(e1), TemporalRelation::Follow, EventId(e2)),
            support,
            rel_support: support as f64 / 4.0,
            confidence: 0.8,
            clipped_occurrences: 0,
        }
    }

    fn result(patterns: Vec<FrequentPattern>) -> MiningResult {
        MiningResult {
            patterns,
            frequent_events: vec![],
            graph: HierarchicalPatternGraph::default(),
            stats: MiningStats::default(),
        }
    }

    #[test]
    fn accuracy_full_and_partial() {
        let exact = result(vec![fp(0, 1, 3), fp(1, 2, 3), fp(2, 3, 3), fp(3, 4, 3)]);
        let approx = result(vec![fp(0, 1, 3), fp(2, 3, 3)]);
        assert_eq!(approx.accuracy_against(&exact), 0.5);
        assert_eq!(exact.accuracy_against(&exact), 1.0);
    }

    #[test]
    fn accuracy_against_empty_is_one() {
        let empty = result(vec![]);
        let some = result(vec![fp(0, 1, 2)]);
        assert_eq!(some.accuracy_against(&empty), 1.0);
        assert_eq!(empty.accuracy_against(&some), 0.0);
    }
}
