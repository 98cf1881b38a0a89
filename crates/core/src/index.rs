use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryPolicy, EventId, SequenceDatabase};

/// Precomputed per-event access structures over a [`SequenceDatabase`]:
/// the single-event bitmaps of HTPGM's L1 (built with one scan of
/// `D_SEQ`, Section IV-C) and, per sequence, the instance indices of each
/// event (the "list of event instances" stored in HPG nodes).
#[derive(Debug)]
pub struct DatabaseIndex {
    /// `bitmaps[event]` — sequences containing at least one instance.
    bitmaps: Vec<Bitmap>,
    /// `instances[seq][event]` — indices into the sequence's instance
    /// vector, chronologically ascending.
    instances: Vec<Vec<Vec<u32>>>,
    /// `supports[event]` — cached popcount of `bitmaps[event]`.
    supports: Vec<usize>,
    /// Boundary-clipped instances of the indexed sequences, hidden or
    /// not.
    clipped: u64,
}

impl DatabaseIndex {
    /// Builds the index with a single pass over the database.
    pub fn build(db: &SequenceDatabase) -> Self {
        DatabaseIndex::build_with_policy(db, BoundaryPolicy::Clip)
    }

    /// Builds the index under a boundary policy. With
    /// [`BoundaryPolicy::Discard`], instances clipped at a window
    /// boundary are invisible: they contribute to neither the bitmaps,
    /// nor the supports (and hence confidence denominators), nor the
    /// per-sequence instance lists — as if the split had never emitted
    /// them. The other policies index every instance.
    pub fn build_with_policy(db: &SequenceDatabase, policy: BoundaryPolicy) -> Self {
        DatabaseIndex::build_masked(db, policy, None)
    }

    /// Builds the index under a boundary policy, optionally restricted to
    /// the sequences whose `mask` entry is `true`. Masked-out sequences
    /// are invisible end to end — no bitmap bits, no supports, no
    /// instance lists — so every structure a miner derives from the index
    /// (joint bitmaps, occurrence bindings, pattern supports) covers only
    /// the masked-in sequences.
    ///
    /// This is how a time-range shard mines only the windows it *owns*:
    /// the overlap-pad windows duplicated from neighbouring shards exist
    /// in the shard's database (their instances carry the run extents the
    /// conversion needed), but mining them would be pure waste — every
    /// pattern statistic they could contribute belongs to the owning
    /// shard, and pattern growth never crosses a window boundary, so
    /// hiding them changes no owned count.
    pub fn build_masked(
        db: &SequenceDatabase,
        policy: BoundaryPolicy,
        mask: Option<&[bool]>,
    ) -> Self {
        let n_events = db.registry().len();
        let n_seqs = db.len();
        let mut bitmaps = vec![Bitmap::new(n_seqs); n_events];
        let mut instances = vec![vec![Vec::new(); n_events]; n_seqs];
        let discard = policy == BoundaryPolicy::Discard;
        let mut clipped = 0;
        for (si, seq) in db.sequences().iter().enumerate() {
            if mask.is_some_and(|m| !m[si]) {
                continue;
            }
            for (ii, inst) in seq.instances().iter().enumerate() {
                if inst.is_clipped() {
                    clipped += 1;
                    if discard {
                        continue;
                    }
                }
                let e = inst.event.0 as usize;
                bitmaps[e].set(si);
                instances[si][e].push(ii as u32);
            }
        }
        let supports = bitmaps.iter().map(Bitmap::count_ones).collect();
        DatabaseIndex {
            bitmaps,
            instances,
            supports,
            clipped,
        }
    }

    /// The occurrence bitmap of an event.
    pub fn bitmap(&self, event: EventId) -> &Bitmap {
        &self.bitmaps[event.0 as usize]
    }

    /// `supp(E)` — number of sequences containing the event (Def 3.13).
    pub fn support(&self, event: EventId) -> usize {
        self.supports[event.0 as usize]
    }

    /// Joint support of two events — the popcount of the AND of their
    /// bitmaps (Alg. 1, line 8) via the fused, non-allocating
    /// [`Bitmap::and_count`]. The Apriori gate calls this for every
    /// candidate pair, pruned or not, so it never pays for the
    /// intermediate bitmap.
    pub fn joint_support(&self, a: EventId, b: EventId) -> usize {
        self.bitmaps[a.0 as usize].and_count(&self.bitmaps[b.0 as usize])
    }

    /// Instance indices of `event` within sequence `seq`, ascending.
    pub fn instances_in(&self, seq: usize, event: EventId) -> &[u32] {
        &self.instances[seq][event.0 as usize]
    }

    /// Boundary-clipped instances of the indexed sequences, counted in
    /// the build pass whether or not the policy hides them.
    pub(crate) fn clipped_instances(&self) -> u64 {
        self.clipped
    }

    /// Number of distinct events indexed.
    pub fn n_events(&self) -> usize {
        self.bitmaps.len()
    }

    /// Number of sequences indexed.
    pub fn n_sequences(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_events::{EventInstance, EventRegistry, TemporalSequence};
    use ftpm_timeseries::{SymbolId, VariableId};

    fn tiny_db() -> SequenceDatabase {
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B".into());
        let s0 = TemporalSequence::new(vec![
            EventInstance::new(a, 0, 5),
            EventInstance::new(b, 5, 9),
            EventInstance::new(a, 10, 12),
        ]);
        let s1 = TemporalSequence::new(vec![EventInstance::new(b, 1, 2)]);
        SequenceDatabase::new(reg, vec![s0, s1])
    }

    #[test]
    fn bitmaps_and_supports() {
        let db = tiny_db();
        let idx = DatabaseIndex::build(&db);
        assert_eq!(idx.n_events(), 2);
        assert_eq!(idx.support(EventId(0)), 1); // A only in seq 0
        assert_eq!(idx.support(EventId(1)), 2); // B in both
        assert!(idx.bitmap(EventId(0)).get(0));
        assert!(!idx.bitmap(EventId(0)).get(1));
    }

    #[test]
    fn instance_lists_are_chronological() {
        let db = tiny_db();
        let idx = DatabaseIndex::build(&db);
        assert_eq!(idx.instances_in(0, EventId(0)), &[0, 2]);
        assert_eq!(idx.instances_in(0, EventId(1)), &[1]);
        assert_eq!(idx.instances_in(1, EventId(0)), &[] as &[u32]);
    }

    #[test]
    fn joint_support_matches_bitmap_and() {
        let db = tiny_db();
        let idx = DatabaseIndex::build(&db);
        let (a, b) = (EventId(0), EventId(1));
        assert_eq!(
            idx.joint_support(a, b),
            idx.bitmap(a).and(idx.bitmap(b)).count_ones()
        );
        assert_eq!(idx.joint_support(a, b), 1); // both only co-occur in seq 0
    }

    #[test]
    fn masked_build_hides_sequences_end_to_end() {
        let db = tiny_db();
        // Mask out sequence 0: only B (in sequence 1) remains visible.
        let idx = DatabaseIndex::build_masked(&db, BoundaryPolicy::Clip, Some(&[false, true]));
        assert_eq!(
            idx.support(EventId(0)),
            0,
            "A lived only in masked-out seq 0"
        );
        assert_eq!(idx.support(EventId(1)), 1);
        assert!(!idx.bitmap(EventId(1)).get(0));
        assert!(idx.bitmap(EventId(1)).get(1));
        assert_eq!(idx.instances_in(0, EventId(0)), &[] as &[u32]);
        assert_eq!(idx.instances_in(0, EventId(1)), &[] as &[u32]);
        assert_eq!(idx.instances_in(1, EventId(1)), &[0]);
        assert_eq!(idx.joint_support(EventId(0), EventId(1)), 0);
    }

    #[test]
    fn discard_policy_hides_clipped_instances() {
        use ftpm_events::{BoundaryPolicy, Interval};
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A".into());
        // Sequence 0: one clipped A; sequence 1: one clean A.
        let clipped = EventInstance::with_extent(a, Interval::new(0, 5), Interval::new(-3, 5));
        let s0 = TemporalSequence::new(vec![clipped]);
        let s1 = TemporalSequence::new(vec![EventInstance::new(a, 1, 2)]);
        let db = SequenceDatabase::new(reg, vec![s0, s1]);

        let full = DatabaseIndex::build(&db);
        assert_eq!(full.support(a), 2);
        let filtered = DatabaseIndex::build_with_policy(&db, BoundaryPolicy::Discard);
        assert_eq!(filtered.support(a), 1, "clipped instance invisible");
        assert!(!filtered.bitmap(a).get(0));
        assert!(filtered.bitmap(a).get(1));
        assert_eq!(filtered.instances_in(0, a), &[] as &[u32]);
    }
}
