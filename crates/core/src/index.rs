use ftpm_bitmap::Bitmap;
use ftpm_events::{BoundaryPolicy, EventId, SequenceDatabase, TemporalSequence};

/// Precomputed per-event access structures over a [`SequenceDatabase`]:
/// the single-event bitmaps of HTPGM's L1 (built with one scan of
/// `D_SEQ`, Section IV-C) and, per sequence, the instance indices of each
/// event (the "list of event instances" stored in HPG nodes).
#[derive(Debug)]
pub struct DatabaseIndex {
    /// `bitmaps[event]` — sequences containing at least one instance.
    bitmaps: Vec<Bitmap>,
    /// The instance list of `(seq, event)` is
    /// `insts[starts[seq * n_events + event]..starts[seq * n_events + event + 1]]`.
    starts: Vec<u32>,
    /// Indices into each sequence's instance vector, sequence by
    /// sequence, event by event, chronologically ascending within each
    /// list.
    insts: Vec<u32>,
    /// `supports[event]` — cached popcount of `bitmaps[event]`.
    supports: Vec<usize>,
    n_seqs: usize,
    /// Boundary-clipped instances of the indexed sequences, hidden or
    /// not.
    clipped: u64,
}

impl DatabaseIndex {
    /// Builds the index under [`BoundaryPolicy::Clip`], which indexes
    /// every instance.
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
    ///
    /// # Panics
    ///
    /// Panics if the database holds more than `u32::MAX` instances: the
    /// lists address them with `u32` offsets.
    pub fn build_masked(
        db: &SequenceDatabase,
        policy: BoundaryPolicy,
        mask: Option<&[bool]>,
    ) -> Self {
        let n_events = db.registry().len();
        let n_seqs = db.len();
        let n_lists = n_seqs * n_events;
        let discard = policy == BoundaryPolicy::Discard;
        let masked_in = |si: usize| mask.is_none_or(|m| m[si]);
        let n_insts: usize = db.sequences().iter().map(TemporalSequence::len).sum();
        assert!(
            u32::try_from(n_insts).is_ok(),
            "{n_insts} instances overflow the index's u32 offsets"
        );
        // Count pass: the length of each (seq, event) list, one slot above
        // the list, summed into list starts.
        let mut starts = vec![0u32; n_lists + 1];
        let mut clipped = 0;
        for (si, seq) in db.sequences().iter().enumerate() {
            if !masked_in(si) {
                continue;
            }
            for inst in seq.instances() {
                if inst.is_clipped() {
                    clipped += 1;
                    if discard {
                        continue;
                    }
                }
                starts[si * n_events + inst.event.0 as usize + 1] += 1;
            }
        }
        for list in 0..n_lists {
            starts[list + 1] += starts[list];
        }
        // Place pass: `starts[list]` serves as the list's cursor, and ends
        // at the next list's start, so the column shifts back one slot.
        let mut bitmaps = vec![Bitmap::new(n_seqs); n_events];
        let mut insts = vec![0u32; starts[n_lists] as usize];
        for (si, seq) in db.sequences().iter().enumerate() {
            if !masked_in(si) {
                continue;
            }
            for (ii, inst) in seq.instances().iter().enumerate() {
                if discard && inst.is_clipped() {
                    continue;
                }
                let e = inst.event.0 as usize;
                bitmaps[e].set(si);
                let cursor = &mut starts[si * n_events + e];
                insts[*cursor as usize] = ii as u32;
                *cursor += 1;
            }
        }
        starts.copy_within(..n_lists, 1);
        starts[0] = 0;
        let supports = bitmaps.iter().map(Bitmap::count_ones).collect();
        DatabaseIndex {
            bitmaps,
            starts,
            insts,
            supports,
            n_seqs,
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

    /// Instance indices of `event` within sequence `seq`, ascending.
    pub fn instances_in(&self, seq: usize, event: EventId) -> &[u32] {
        let list = seq * self.bitmaps.len() + event.0 as usize;
        &self.insts[self.starts[list] as usize..self.starts[list + 1] as usize]
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
        self.n_seqs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_events::{EventInstance, EventRegistry, TemporalSequence};
    use ftpm_timeseries::{SymbolId, VariableId};
    use proptest::prelude::*;

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
        assert_eq!(idx.bitmap(EventId(0)).and_count(idx.bitmap(EventId(1))), 0);
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

    proptest! {
        /// Every list is the scan of its sequence: the indices of the
        /// event's instances, ascending, empty in a masked-out sequence
        /// and without clipped instances under `Discard`. Each drawn code
        /// is one instance: its event, start, length and clipped sides.
        #[test]
        fn instance_lists_match_a_scan_of_the_sequence(
            codes in proptest::collection::vec(
                proptest::collection::vec(0u32..4_000, 0..12),
                0..7,
            ),
            mask_bits in 0u32..128,
        ) {
            use ftpm_events::Interval;
            let n_events = 5;
            let mut reg = EventRegistry::new();
            for e in 0..n_events {
                reg.intern(VariableId(e), SymbolId(1), || format!("E{e}"));
            }
            let instance = |code: u32| {
                let (start, len) = (i64::from(code / 5 % 40), i64::from(code / 200 % 5 + 1));
                let (left, right) = (i64::from(code / 1000 % 2), i64::from(code / 2000));
                let iv = Interval::new(start, start + len);
                let extent = Interval::new(start - left, start + len + right);
                EventInstance::with_extent(EventId(code % 5), iv, extent)
            };
            let sequences = codes
                .iter()
                .map(|seq| TemporalSequence::new(seq.iter().map(|&c| instance(c)).collect()))
                .collect();
            let db = SequenceDatabase::new(reg, sequences);
            let mask: Vec<bool> = (0..db.len()).map(|s| (mask_bits >> s) & 1 == 1).collect();
            let policies = [BoundaryPolicy::Clip, BoundaryPolicy::TrueExtent, BoundaryPolicy::Discard];
            for (policy, mask) in policies.into_iter().flat_map(|p| [(p, None), (p, Some(&mask[..]))]) {
                let idx = DatabaseIndex::build_masked(&db, policy, mask);
                prop_assert_eq!(idx.n_sequences(), db.len());
                for (s, seq) in db.sequences().iter().enumerate() {
                    let visible = mask.is_none_or(|m| m[s]);
                    for e in (0..n_events).map(EventId) {
                        let scan: Vec<u32> = (0..seq.len() as u32)
                            .filter(|&i| {
                                let inst = &seq.instances()[i as usize];
                                let hidden = policy == BoundaryPolicy::Discard && inst.is_clipped();
                                visible && inst.event == e && !hidden
                            })
                            .collect();
                        prop_assert_eq!(idx.instances_in(s, e), &scan[..], "{policy}, seq {s}, {e:?}");
                        prop_assert_eq!(idx.bitmap(e).get(s), !scan.is_empty());
                    }
                }
            }
        }
    }
}
