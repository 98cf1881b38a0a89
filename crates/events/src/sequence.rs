use std::sync::Arc;

use crate::event::{EventId, EventRegistry};
use crate::instance::EventInstance;

/// A temporal sequence (Def 3.9): event instances in chronological order
/// by start time (ties broken by end time, then event id).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemporalSequence {
    instances: Vec<EventInstance>,
}

impl TemporalSequence {
    /// Creates a sequence, sorting the instances chronologically.
    pub fn new(mut instances: Vec<EventInstance>) -> Self {
        instances.sort_by_key(EventInstance::chrono_key);
        TemporalSequence { instances }
    }

    /// The instances in chronological order.
    pub fn instances(&self) -> &[EventInstance] {
        &self.instances
    }

    /// Number of instances (`|S|`).
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True iff the sequence has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Indices (into [`TemporalSequence::instances`]) of the instances of
    /// one event, in chronological order.
    pub fn instances_of(&self, event: EventId) -> impl Iterator<Item = usize> + '_ {
        self.instances
            .iter()
            .enumerate()
            .filter(move |(_, inst)| inst.event == event)
            .map(|(i, _)| i)
    }

    /// True iff the sequence has at least one instance of `event`.
    pub fn contains_event(&self, event: EventId) -> bool {
        self.instances.iter().any(|i| i.event == event)
    }

    /// The distinct events occurring in this sequence, ascending.
    pub fn distinct_events(&self) -> Vec<EventId> {
        let mut ids: Vec<EventId> = self.instances.iter().map(|i| i.event).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The temporal sequence database `D_SEQ` (Def 3.10, Table III): a list of
/// temporal sequences plus the registry naming the events that occur in
/// them.
///
/// The registry is held behind an [`Arc`]: sharded mining hands every
/// shard database the same master registry, so K shards share one
/// allocation instead of K deep clones of the label table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SequenceDatabase {
    registry: Arc<EventRegistry>,
    sequences: Vec<TemporalSequence>,
}

impl SequenceDatabase {
    /// Creates a database from parts. Accepts the registry by value or as
    /// an already-shared [`Arc`].
    pub fn new(registry: impl Into<Arc<EventRegistry>>, sequences: Vec<TemporalSequence>) -> Self {
        SequenceDatabase {
            registry: registry.into(),
            sequences,
        }
    }

    /// The event registry.
    pub fn registry(&self) -> &EventRegistry {
        &self.registry
    }

    /// The event registry as a shareable handle (no deep clone).
    pub fn shared_registry(&self) -> Arc<EventRegistry> {
        Arc::clone(&self.registry)
    }

    /// The sequences.
    pub fn sequences(&self) -> &[TemporalSequence] {
        &self.sequences
    }

    /// Number of sequences (`|D_SEQ|`), the denominator of relative
    /// support (Eq. 2/4).
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True iff there are no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// A database restricted to the first `n` sequences — used by the
    /// Fig 10/11 %-of-data scalability experiments.
    pub fn take_sequences(&self, n: usize) -> SequenceDatabase {
        SequenceDatabase {
            registry: Arc::clone(&self.registry),
            sequences: self.sequences[..n.min(self.sequences.len())].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(event: u32, s: i64, e: i64) -> EventInstance {
        EventInstance::new(EventId(event), s, e)
    }

    #[test]
    fn new_sorts_chronologically() {
        let seq = TemporalSequence::new(vec![inst(0, 10, 20), inst(1, 0, 5), inst(2, 0, 3)]);
        let starts: Vec<i64> = seq.instances().iter().map(|i| i.interval.start).collect();
        assert_eq!(starts, vec![0, 0, 10]);
        // Tie at start 0 broken by end time: [0,3) before [0,5).
        assert_eq!(seq.instances()[0].event, EventId(2));
    }

    #[test]
    fn instances_of_filters_by_event() {
        let seq = TemporalSequence::new(vec![inst(0, 0, 5), inst(1, 2, 9), inst(0, 10, 12)]);
        assert_eq!(seq.instances_of(EventId(0)).collect::<Vec<_>>(), vec![0, 2]);
        assert!(seq.contains_event(EventId(1)));
        assert!(!seq.contains_event(EventId(9)));
    }

    #[test]
    fn distinct_events_sorted_unique() {
        let seq = TemporalSequence::new(vec![inst(3, 0, 5), inst(1, 1, 2), inst(3, 6, 8)]);
        assert_eq!(seq.distinct_events(), vec![EventId(1), EventId(3)]);
    }

    #[test]
    fn take_sequences_truncates() {
        let db = SequenceDatabase::new(EventRegistry::new(), vec![TemporalSequence::default(); 5]);
        assert_eq!(db.take_sequences(3).len(), 3);
        assert_eq!(db.take_sequences(10).len(), 5);
    }
}
