use ftpm_events::EventId;

/// One node of the Hierarchical Pattern Graph: a frequent event
/// combination and the frequent patterns mined from it (Section IV-C,
/// Fig 4).
///
/// This is the post-mining summary; the working state (bitmaps, event
/// instance bindings) lives inside the miner and is released level by
/// level, exactly like the paper's description of constructing HPG
/// gradually.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The event combination, in chronological role order.
    pub events: Vec<EventId>,
    /// Joint support of the combination (popcount of the ANDed bitmaps).
    pub support: usize,
    /// Indices into [`crate::MiningResult::patterns`] of the frequent
    /// patterns mined from this node. Nodes that are frequent but carry no
    /// frequent pattern (the paper's "brown" nodes) are removed during
    /// mining and never reach the summary.
    pub pattern_indices: Vec<usize>,
}

/// One level `L_k` of the Hierarchical Pattern Graph (`k ≥ 2`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Level {
    /// The surviving (pattern-bearing) nodes of this level.
    pub nodes: Vec<Node>,
}

/// Summary of the Hierarchical Pattern Graph built by a mining run.
/// `levels[0]` is `L_2` (2-event combinations); `L_1` is reported as
/// [`crate::MiningResult::frequent_events`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchicalPatternGraph {
    /// Levels `L_2, L_3, …` in order.
    pub levels: Vec<Level>,
}

impl HierarchicalPatternGraph {
    /// The deepest level with at least one node, as an event count
    /// (e.g. 3 if 3-event patterns were found); 1 if only single events
    /// were frequent.
    pub fn max_pattern_len(&self) -> usize {
        (0..self.levels.len())
            .rev()
            .find(|&i| !self.levels[i].nodes.is_empty())
            .map(|i| i + 2)
            .unwrap_or(1)
    }

    /// Total number of surviving nodes across all levels.
    pub fn n_nodes(&self) -> usize {
        self.levels.iter().map(|l| l.nodes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pattern_len_skips_empty_tail() {
        let g = HierarchicalPatternGraph {
            levels: vec![
                Level {
                    nodes: vec![Node {
                        events: vec![EventId(0), EventId(1)],
                        support: 3,
                        pattern_indices: vec![0],
                    }],
                },
                Level::default(),
            ],
        };
        assert_eq!(g.max_pattern_len(), 2);
        assert_eq!(g.n_nodes(), 1);
    }

    #[test]
    fn empty_graph_len_one() {
        assert_eq!(HierarchicalPatternGraph::default().max_pattern_len(), 1);
    }
}
