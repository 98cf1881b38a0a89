use ftpm_events::RelationConfig;

/// The longest pattern, in events, any miner grows. A level-`k`
/// candidate packs its `k − 1` new relations two bits each into one
/// `u64` grouping key, so [`MinerConfig::max_events`] above this cap is
/// clamped to it; level-wise mining never gets anywhere near it in
/// practice.
pub const MAX_EVENTS_HARD_CAP: usize = 32;

/// Which pruning techniques of E-HTPGM are active — the knobs behind the
/// paper's Fig 6/7 ablation ((NoPrune)/(Apriori)/(Trans)/(All)-E-HTPGM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruningConfig {
    /// Apriori-based pruning (Lemmas 2–3): discard candidate event
    /// combinations whose joint-bitmap support or confidence upper bound
    /// already misses `σ`/`δ`, before any instance-level verification.
    /// It also stops an instance walk once no extension group of the
    /// parent pattern can still reach the least support that passes
    /// `σ`/`δ` (counted in `MiningStats::support_bound_pruned`).
    pub apriori: bool,
    /// Transitivity-based pruning (Lemmas 4–7): restrict the single events
    /// used to grow level `k` to those participating in a frequent pattern
    /// at level `k−1` (Lemma 5), and stop extending an occurrence as soon
    /// as one of its new triples is not a frequent 2-event pattern
    /// (Lemmas 4, 6, 7).
    pub transitivity: bool,
}

impl PruningConfig {
    /// No pruning at all — `(NoPrune)-E-HTPGM`. Level-wise candidate
    /// generation itself is kept (the search would otherwise be unbounded)
    /// but every candidate is verified on instances.
    pub const NO_PRUNE: PruningConfig = PruningConfig {
        apriori: false,
        transitivity: false,
    };
    /// Apriori pruning only — `(Apriori)-E-HTPGM`.
    pub const APRIORI: PruningConfig = PruningConfig {
        apriori: true,
        transitivity: false,
    };
    /// Transitivity pruning only — `(Trans)-E-HTPGM`.
    pub const TRANSITIVITY: PruningConfig = PruningConfig {
        apriori: false,
        transitivity: true,
    };
    /// Both groups — `(All)-E-HTPGM`, the default.
    pub const ALL: PruningConfig = PruningConfig {
        apriori: true,
        transitivity: true,
    };
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig::ALL
    }
}

/// Mining parameters: the FTPMfTS problem is to find every pattern `P`
/// with `supp(P) ≥ σ ∧ conf(P) ≥ δ` (Section III-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinerConfig {
    /// Relative support threshold `σ ∈ (0, 1]`.
    pub sigma: f64,
    /// Confidence threshold `δ ∈ (0, 1]`.
    pub delta: f64,
    /// Relation model parameters (`ε`, `d_o`, `t_max`).
    pub relation: RelationConfig,
    /// Upper bound on pattern length (number of events). The miner stops
    /// on its own once a level yields no frequent patterns; this cap is a
    /// safety valve for pathological inputs. `usize::MAX` by default;
    /// miners clamp it to [`MAX_EVENTS_HARD_CAP`], and mine no pattern
    /// when it is below 2.
    pub max_events: usize,
    /// Pruning ablation switches.
    pub pruning: PruningConfig,
}

impl MinerConfig {
    /// Creates a config with default relation model and all prunings on.
    ///
    /// # Panics
    ///
    /// Panics unless `σ, δ ∈ (0, 1]`.
    pub fn new(sigma: f64, delta: f64) -> Self {
        assert!(sigma > 0.0 && sigma <= 1.0, "sigma must be in (0, 1]");
        assert!(delta > 0.0 && delta <= 1.0, "delta must be in (0, 1]");
        MinerConfig {
            sigma,
            delta,
            relation: RelationConfig::default(),
            max_events: usize::MAX,
            pruning: PruningConfig::default(),
        }
    }

    /// Replaces the relation model.
    pub fn with_relation(mut self, relation: RelationConfig) -> Self {
        self.relation = relation;
        self
    }

    /// Caps the pattern length.
    ///
    /// # Panics
    ///
    /// Panics unless `max_events >= 2` (patterns have at least two events).
    pub fn with_max_events(mut self, max_events: usize) -> Self {
        assert!(max_events >= 2, "patterns have at least two events");
        self.max_events = max_events;
        self
    }

    /// Replaces the pruning switches.
    pub fn with_pruning(mut self, pruning: PruningConfig) -> Self {
        self.pruning = pruning;
        self
    }

    /// The last level a run grows, in events: [`MinerConfig::max_events`]
    /// capped at [`MAX_EVENTS_HARD_CAP`]. Below 2 no pattern is mined,
    /// though the frequent single events are still announced.
    pub(crate) fn last_level(&self) -> usize {
        self.max_events.min(MAX_EVENTS_HARD_CAP)
    }

    /// Absolute support threshold for a database of `n` sequences:
    /// `⌈σ·n⌉`, at least 1.
    pub fn absolute_support(&self, n_sequences: usize) -> usize {
        ((self.sigma * n_sequences as f64).ceil() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_support_rounds_up() {
        let cfg = MinerConfig::new(0.5, 0.5);
        assert_eq!(cfg.absolute_support(5), 3);
        assert_eq!(cfg.absolute_support(4), 2);
        assert_eq!(cfg.absolute_support(0), 1);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn zero_sigma_rejected() {
        let _ = MinerConfig::new(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "at least two events")]
    fn max_events_one_rejected() {
        let _ = MinerConfig::new(0.5, 0.5).with_max_events(1);
    }

    #[test]
    fn pruning_presets() {
        let all = PruningConfig::ALL;
        let none = PruningConfig::NO_PRUNE;
        assert!(all.apriori && all.transitivity);
        assert!(!none.apriori && !none.transitivity);
        assert_eq!(PruningConfig::default(), all);
    }
}
