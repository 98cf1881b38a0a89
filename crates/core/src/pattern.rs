use ftpm_events::{EventId, EventRegistry, TemporalRelation};

/// A temporal pattern (Def 3.11): `k` events in the chronological order of
/// their bound instances, plus one relation per event pair.
///
/// The relation between event `i` and event `j` (`i < j`, both 0-based) is
/// stored in a flat upper-triangular layout grouped by the *later* event:
///
/// ```text
/// (0,1) | (0,2) (1,2) | (0,3) (1,3) (2,3) | …
/// ```
///
/// so extending a `(k−1)`-event pattern with one more event appends
/// exactly `k−1` relations at the end — the layout mirrors how HTPGM
/// grows patterns level by level.
///
/// The derived `Ord` (events lexicographically, then relations) is a
/// total order used wherever mined output must be deterministic despite
/// nondeterministic parallel discovery order: the shard merge's emission
/// order and the tie-breaks of [`crate::rank_patterns`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pattern {
    events: Vec<EventId>,
    relations: Vec<TemporalRelation>,
}

impl Pattern {
    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics unless `events.len() >= 2` and
    /// `relations.len() == k·(k−1)/2`.
    pub fn new(events: Vec<EventId>, relations: Vec<TemporalRelation>) -> Self {
        assert!(events.len() >= 2, "a temporal pattern has >= 2 events");
        assert_eq!(
            relations.len(),
            events.len() * (events.len() - 1) / 2,
            "need one relation per event pair"
        );
        Pattern { events, relations }
    }

    /// Convenience constructor for a 2-event pattern `(E1, r, E2)`.
    pub fn pair(e1: EventId, relation: TemporalRelation, e2: EventId) -> Self {
        Pattern {
            events: vec![e1, e2],
            relations: vec![relation],
        }
    }

    /// The events, in chronological role order.
    pub fn events(&self) -> &[EventId] {
        &self.events
    }

    /// The relations in the flat layout described on the type.
    pub fn relations(&self) -> &[TemporalRelation] {
        &self.relations
    }

    /// Number of events (`n` for an n-event pattern).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Always false (patterns have at least two events).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The relation between events `i` and `j` (`i < j`).
    ///
    /// # Panics
    ///
    /// Panics unless `i < j < len`.
    pub fn relation_between(&self, i: usize, j: usize) -> TemporalRelation {
        assert!(i < j && j < self.events.len(), "need i < j < len");
        // Pairs with later event j start at offset j*(j-1)/2.
        self.relations[j * (j - 1) / 2 + i]
    }

    /// Iterates over all triples `(i, j, relation)` with `i < j`.
    pub fn triples(&self) -> impl Iterator<Item = (usize, usize, TemporalRelation)> + '_ {
        (1..self.events.len()).flat_map(move |j| {
            (0..j).map(move |i| (i, j, self.relation_between(i, j)))
        })
    }

    /// A new pattern extended with event `event`, whose relations to the
    /// existing events are `new_relations[i] = r(E_i, event)`.
    ///
    /// # Panics
    ///
    /// Panics unless `new_relations.len() == self.len()`.
    pub fn extend(&self, event: EventId, new_relations: &[TemporalRelation]) -> Pattern {
        assert_eq!(new_relations.len(), self.events.len());
        let mut events = Vec::with_capacity(self.events.len() + 1);
        events.extend_from_slice(&self.events);
        events.push(event);
        let mut relations = Vec::with_capacity(self.relations.len() + new_relations.len());
        relations.extend_from_slice(&self.relations);
        relations.extend_from_slice(new_relations);
        Pattern { events, relations }
    }

    /// True iff `other` is a *prefix* sub-pattern of `self` (same first
    /// `other.len()` events with identical relations). This is the
    /// sub-pattern notion along which HTPGM grows patterns.
    pub fn has_prefix(&self, other: &Pattern) -> bool {
        other.events.len() <= self.events.len()
            && self.events[..other.events.len()] == other.events[..]
            && self.relations[..other.relations.len()] == other.relations[..]
    }

    /// Renders the pattern using the paper's triple notation, e.g.
    /// `(K=On Contain T=On), (K=On Follow M=On), (T=On Follow M=On)`.
    pub fn display<'a>(&'a self, registry: &'a EventRegistry) -> impl std::fmt::Display + 'a {
        PatternDisplay {
            pattern: self,
            registry,
        }
    }
}

struct PatternDisplay<'a> {
    pattern: &'a Pattern,
    registry: &'a EventRegistry,
}

impl std::fmt::Display for PatternDisplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (i, j, r) in self.pattern.triples() {
            if !first {
                write!(f, ", ")?;
            }
            write!(
                f,
                "({} {} {})",
                self.registry.label(self.pattern.events()[i]),
                r,
                self.registry.label(self.pattern.events()[j]),
            )?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_timeseries::{SymbolId, VariableId};

    fn e(i: u32) -> EventId {
        EventId(i)
    }

    #[test]
    fn triangular_layout_roundtrip() {
        use TemporalRelation::*;
        // 4 events, relations in layout (0,1)|(0,2)(1,2)|(0,3)(1,3)(2,3)
        let p = Pattern::new(
            vec![e(0), e(1), e(2), e(3)],
            vec![Follow, Contain, Overlap, Follow, Follow, Contain],
        );
        assert_eq!(p.relation_between(0, 1), Follow);
        assert_eq!(p.relation_between(0, 2), Contain);
        assert_eq!(p.relation_between(1, 2), Overlap);
        assert_eq!(p.relation_between(0, 3), Follow);
        assert_eq!(p.relation_between(1, 3), Follow);
        assert_eq!(p.relation_between(2, 3), Contain);
        assert_eq!(p.triples().count(), 6);
    }

    #[test]
    fn extend_appends_relations() {
        use TemporalRelation::*;
        let p = Pattern::pair(e(0), Follow, e(1));
        let q = p.extend(e(2), &[Contain, Overlap]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.relation_between(0, 1), Follow);
        assert_eq!(q.relation_between(0, 2), Contain);
        assert_eq!(q.relation_between(1, 2), Overlap);
        assert!(q.has_prefix(&p));
        assert!(!p.has_prefix(&q));
    }

    #[test]
    fn self_pattern_allowed() {
        // Self-relations (same event twice) are legal (Section III-B).
        let p = Pattern::pair(e(5), TemporalRelation::Follow, e(5));
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "one relation per event pair")]
    fn wrong_relation_count_panics() {
        let _ = Pattern::new(vec![e(0), e(1), e(2)], vec![TemporalRelation::Follow]);
    }

    #[test]
    fn display_uses_registry_labels() {
        let mut reg = EventRegistry::new();
        let k = reg.intern(VariableId(0), SymbolId(1), || "K=On".into());
        let t = reg.intern(VariableId(1), SymbolId(1), || "T=On".into());
        let p = Pattern::pair(k, TemporalRelation::Contain, t);
        assert_eq!(p.display(&reg).to_string(), "(K=On Contain T=On)");
    }
}
