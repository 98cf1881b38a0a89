//! Hash-consed pattern pool: the Hierarchical Pattern Graph spine as a
//! struct-of-arrays arena.
//!
//! Every layer above the candidate engine used to key on the full
//! [`Pattern`] — two heap `Vec`s per value — so the merge accumulator,
//! the exchange coordinator's proposal/survivor maps and the result
//! surfaces cloned and re-hashed entire event/relation vectors millions
//! of times per run. [`PatternPool`] interns each pattern exactly once
//! and hands out a dense [`PatternId`] (a `u32`): equality is integer
//! equality, hashing is integer hashing, and a pattern on the wire or in
//! a map costs four bytes.
//!
//! The encoding exploits the documented layout invariant of
//! [`Pattern`]: extending a (k−1)-pattern appends exactly one event and
//! one relation column of k−1 entries (the relations of the new event to
//! every earlier one). A level-k entry therefore stores only its *delta*
//! against the parent entry:
//!
//! ```text
//!   parents:    [NONE, NONE, 0,    2,    ...]   parent entry (NONE = level-1 root)
//!   lasts:      [A,    B,    B,    C,    ...]   the appended event
//!   depths:     [1,    1,    2,    3,    ...]   event count of the full pattern
//!   rel_starts: [0,    0,    0,    1,    3 ...] delta column offsets into `rels`
//!   rels:       [ →,   →, o, ...]               flat relation columns (k−1 per entry)
//! ```
//!
//! Following the `parents` chain from any id back to its root replays
//! the pattern's growth history — the pool *is* the HPG spine, and
//! `parent(id)` answers "immediate prefix" in O(1) where the
//! postprocessor used to allocate a fresh prefix `Pattern` per lookup.
//!
//! Interning is hash-consed with an FNV-1a open-addressing table (ids
//! plus one, zero = empty, power-of-two capacity): interning the same
//! `(parent, last, delta)` twice yields the same id, so dedup across
//! shards is a table probe, not a deep comparison. Level-1 roots are
//! pre-interned in registry order by [`PatternPool::with_roots`], making
//! `root(e) == PatternId(e.0)` — the property the exchange executor
//! leans on when it forms [`DeltaKey`]s from raw event ids.

use ftpm_events::{EventId, TemporalRelation};

use crate::config::MAX_EVENTS_HARD_CAP;
use crate::pattern::Pattern;

/// Dense identity of an interned pattern. Equality, ordering and hashing
/// are plain `u32` operations; resolution back to events/relations goes
/// through the [`PatternPool`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(pub u32);

impl PatternId {
    /// Sentinel for "no pattern": the parent of a level-1 root, or a
    /// work item that has not been assigned a pool identity yet.
    pub const NONE: PatternId = PatternId(u32::MAX);

    /// True when this id is the [`PatternId::NONE`] sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

/// Canonical identity of a *candidate* pattern before it is interned:
/// the parent's pool id, the appended event, and the delta relation
/// column packed two bits per entry (see `pack_relation`). Sixteen
/// bytes, `Copy`, and injective for patterns grown from interned parents
/// — the exchange executor keys its cross-shard proposals on this
/// instead of cloning whole patterns. The order (parent, then appended
/// event, then relation column) sorts each shard's proposal run, which
/// the exchange gate merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeltaKey {
    /// Pool id of the (k−1)-event parent pattern.
    pub parent: PatternId,
    /// The appended k-th event.
    pub last: EventId,
    /// The k−1 new relations, packed via `pack_relation`.
    pub code: u64,
}

/// Packs a relation column into 2 bits per entry (values 1..=3 so the
/// packing is injective for a fixed length). Shared by the candidate
/// engine's grouping keys and the pool's [`DeltaKey`]s.
#[inline]
pub(crate) fn pack_relation(code: u64, r: TemporalRelation) -> u64 {
    (code << 2) | (r.index() as u64 + 1)
}

/// Reverses [`pack_relation`] into `out`, one relation per entry (the
/// column's length is `out.len()`), and returns the decoded column.
/// Callers decode into a stack buffer, so this never allocates.
pub(crate) fn decode_column(mut code: u64, out: &mut [TemporalRelation]) -> &[TemporalRelation] {
    for slot in out.iter_mut().rev() {
        *slot = TemporalRelation::ALL[(code & 3) as usize - 1];
        code >>= 2;
    }
    out
}

/// FNV-1a, the workspace's hash for small fixed-width keys: no
/// per-process seeding (ids must be stable within a run across threads
/// reading the same pool) and no allocation.
pub(crate) struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// `HashMap`/`HashSet` with FNV hashing — the right table for the
/// executor's `DeltaKey`- and `PatternId`-keyed maps, where SipHash's
/// DoS resistance buys nothing and its latency is measurable.
pub(crate) type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;
pub(crate) type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuild>;

/// FNV-1a over an entry's identity triple. Roots hash as
/// `(NONE, event, empty delta)`.
#[inline]
fn hash_entry(parent: PatternId, last: EventId, delta: &[TemporalRelation]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(parent.0);
    mix(last.0);
    for &r in delta {
        h ^= r.index() as u64 + 1;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash-consed, struct-of-arrays pattern arena (see the module docs for
/// the layout). All columns are indexed by `PatternId.0`; the open
/// addressing table maps entry hashes back to ids so interning an
/// already-known pattern allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PatternPool {
    /// Parent entry per id; [`PatternId::NONE`] marks a level-1 root.
    parents: Vec<PatternId>,
    /// The appended (last) event per id.
    lasts: Vec<EventId>,
    /// Event count of the full pattern per id.
    depths: Vec<u32>,
    /// Offsets into `rels`: entry `i`'s delta column is
    /// `rels[rel_starts[i] as usize..rel_starts[i + 1] as usize]`.
    rel_starts: Vec<u32>,
    /// Flat delta relation columns, concatenated in intern order.
    rels: Vec<TemporalRelation>,
    /// Stored entry hashes, so growing `table` never re-reads columns.
    hashes: Vec<u64>,
    /// Open-addressing table of `id + 1` (0 = empty); capacity is a
    /// power of two, grown at 7/8 load.
    table: Vec<u32>,
    /// How many leading entries are pre-interned level-1 roots.
    n_roots: u32,
}

impl PatternPool {
    /// An empty pool with `n_events` pre-interned level-1 roots, one per
    /// registry event in id order — so `root(EventId(e)) == PatternId(e)`
    /// and raw event ids double as root pattern ids.
    pub fn with_roots(n_events: usize) -> PatternPool {
        let mut pool = PatternPool {
            rel_starts: vec![0],
            ..PatternPool::default()
        };
        for e in 0..n_events {
            pool.intern_raw(PatternId::NONE, EventId(e as u32), &[]);
        }
        pool.n_roots = n_events as u32;
        pool
    }

    /// Number of interned entries (roots included).
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True when the pool holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Number of pre-interned level-1 roots.
    pub fn n_roots(&self) -> usize {
        self.n_roots as usize
    }

    /// The root id of a registry event.
    ///
    /// # Panics
    ///
    /// Panics if `event` was not covered by [`PatternPool::with_roots`].
    #[inline]
    pub fn root(&self, event: EventId) -> PatternId {
        assert!(
            event.0 < self.n_roots,
            "event {} has no root in this pool",
            event.0
        );
        PatternId(event.0)
    }

    /// Parent (immediate prefix) of `id`, or [`PatternId::NONE`] for a
    /// level-1 root.
    #[inline]
    pub fn parent(&self, id: PatternId) -> PatternId {
        self.parents[id.0 as usize]
    }

    /// The appended (last) event of `id`.
    #[inline]
    pub fn last_event(&self, id: PatternId) -> EventId {
        self.lasts[id.0 as usize]
    }

    /// Event count of the full pattern behind `id`.
    #[inline]
    pub fn event_count(&self, id: PatternId) -> usize {
        self.depths[id.0 as usize] as usize
    }

    /// The delta relation column of `id` (empty for roots): the
    /// relations of the last event to each earlier event, in event
    /// order.
    #[inline]
    pub fn delta_rels(&self, id: PatternId) -> &[TemporalRelation] {
        let i = id.0 as usize;
        &self.rels[self.rel_starts[i] as usize..self.rel_starts[i + 1] as usize]
    }

    /// The pattern's events, yielded last-to-first by walking the parent
    /// chain — no allocation, order-insensitive consumers (support
    /// maxima, label lookups) iterate this directly.
    pub fn events_rev(&self, id: PatternId) -> EventsRev<'_> {
        EventsRev { pool: self, at: id }
    }

    /// Interns the child of `parent` obtained by appending `last` with
    /// relation column `delta` (one relation per event of `parent`, in
    /// event order). Returns the existing id when the entry is already
    /// pooled — the hash-consing guarantee.
    pub fn intern_child(
        &mut self,
        parent: PatternId,
        last: EventId,
        delta: &[TemporalRelation],
    ) -> PatternId {
        debug_assert_eq!(
            delta.len(),
            self.event_count(parent),
            "delta column length must equal the parent's event count"
        );
        self.intern_raw(parent, last, delta)
    }

    /// [`PatternPool::intern_child`] with the delta column packed two
    /// bits per relation (see `pack_relation`) — the form candidates
    /// already carry as their grouping key, so the exchange gate interns
    /// survivors without touching a relation slice.
    pub fn intern_packed(&mut self, key: DeltaKey) -> PatternId {
        let len = self.event_count(key.parent);
        let mut buf = [TemporalRelation::Follow; MAX_EVENTS_HARD_CAP];
        let delta = decode_column(key.code, &mut buf[..len]);
        self.intern_raw(key.parent, key.last, delta)
    }

    /// Interns a fully materialized pattern, level by level, returning
    /// the id of the complete pattern. Bit-identical round-trip:
    /// `resolve(intern(&p)) == p`.
    ///
    /// # Panics
    ///
    /// Panics if an event of `pattern` has no pre-interned root.
    pub fn intern(&mut self, pattern: &Pattern) -> PatternId {
        let events = pattern.events();
        let relations = pattern.relations();
        let mut id = self.root(events[0]);
        for k in 2..=events.len() {
            let lo = (k - 1) * (k - 2) / 2;
            let hi = k * (k - 1) / 2;
            id = self.intern_raw(id, events[k - 1], &relations[lo..hi]);
        }
        id
    }

    /// Materializes the pattern behind `id`. Allocation is
    /// output-proportional — callers resolve lazily, at emission time.
    pub fn resolve(&self, id: PatternId) -> Pattern {
        let k = self.event_count(id);
        let mut events = vec![EventId(0); k];
        let mut relations = Vec::with_capacity(k * (k - 1) / 2);
        let mut at = id;
        let mut slot = k;
        // Collect the chain root-first by filling events backwards...
        let mut chain = Vec::with_capacity(k);
        while !at.is_none() {
            slot -= 1;
            events[slot] = self.last_event(at);
            chain.push(at);
            at = self.parent(at);
        }
        // ...then append delta columns root-first: exactly the flat
        // `Pattern` layout (relations grouped by later event).
        for &link in chain.iter().rev() {
            relations.extend_from_slice(self.delta_rels(link));
        }
        Pattern::new(events, relations)
    }

    /// True when entry `id` is exactly `(parent, last, delta)`.
    #[inline]
    fn entry_matches(
        &self,
        id: u32,
        parent: PatternId,
        last: EventId,
        delta: &[TemporalRelation],
    ) -> bool {
        let i = id as usize;
        self.parents[i] == parent
            && self.lasts[i] == last
            && &self.rels[self.rel_starts[i] as usize..self.rel_starts[i + 1] as usize] == delta
    }

    /// The hash-consing core: probe, return the existing id on a hit,
    /// append a new entry otherwise.
    fn intern_raw(
        &mut self,
        parent: PatternId,
        last: EventId,
        delta: &[TemporalRelation],
    ) -> PatternId {
        let depth = if parent.is_none() {
            1
        } else {
            self.depths[parent.0 as usize] + 1
        };
        self.reserve_table(self.len() + 1);
        let hash = hash_entry(parent, last, delta);
        let mask = self.table.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.table[at];
            if slot == 0 {
                let id = self.push_entry(parent, last, delta, depth);
                self.table[at] = id.0 + 1;
                return id;
            }
            let id = slot - 1;
            if self.hashes[id as usize] == hash && self.entry_matches(id, parent, last, delta) {
                return PatternId(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends a new entry's columns; the caller owns table insertion.
    fn push_entry(
        &mut self,
        parent: PatternId,
        last: EventId,
        delta: &[TemporalRelation],
        depth: u32,
    ) -> PatternId {
        let id = self.parents.len() as u32;
        self.parents.push(parent);
        self.lasts.push(last);
        self.depths.push(depth);
        self.rels.extend_from_slice(delta);
        self.rel_starts.push(self.rels.len() as u32);
        self.hashes.push(hash_entry(parent, last, delta));
        PatternId(id)
    }

    /// Grows the probe table so `entries` fit under 7/8 load, rehashing
    /// from the stored per-entry hashes (columns are never re-read).
    fn reserve_table(&mut self, entries: usize) {
        if self.rel_starts.is_empty() {
            self.rel_starts.push(0);
        }
        let needed = entries + entries / 7 + 1;
        if self.table.len() >= needed {
            return;
        }
        let cap = needed.next_power_of_two().max(16);
        let mask = cap - 1;
        let mut table = vec![0u32; cap];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut at = hash as usize & mask;
            while table[at] != 0 {
                at = (at + 1) & mask;
            }
            table[at] = id as u32 + 1;
        }
        self.table = table;
    }
}

/// Last-to-first event walk over a parent chain — see
/// [`PatternPool::events_rev`].
pub struct EventsRev<'a> {
    pool: &'a PatternPool,
    at: PatternId,
}

impl Iterator for EventsRev<'_> {
    type Item = EventId;

    #[inline]
    fn next(&mut self) -> Option<EventId> {
        if self.at.is_none() {
            return None;
        }
        let e = self.pool.last_event(self.at);
        self.at = self.pool.parent(self.at);
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TemporalRelation::{Contain, Follow, Overlap};

    fn pat(events: &[u32], rels: &[TemporalRelation]) -> Pattern {
        Pattern::new(events.iter().map(|&e| EventId(e)).collect(), rels.to_vec())
    }

    #[test]
    fn roots_are_event_ids() {
        let pool = PatternPool::with_roots(5);
        assert_eq!(pool.len(), 5);
        for e in 0..5u32 {
            let id = pool.root(EventId(e));
            assert_eq!(id, PatternId(e));
            assert_eq!(pool.event_count(id), 1);
            assert_eq!(pool.last_event(id), EventId(e));
            assert!(pool.parent(id).is_none());
            assert!(pool.delta_rels(id).is_empty());
        }
    }

    #[test]
    fn intern_resolve_round_trip() {
        let mut pool = PatternPool::with_roots(4);
        let p = pat(
            &[0, 2, 1, 3],
            &[Follow, Overlap, Contain, Follow, Follow, Overlap],
        );
        let id = pool.intern(&p);
        assert_eq!(pool.resolve(id), p);
        assert_eq!(pool.event_count(id), 4);
        assert_eq!(pool.last_event(id), EventId(3));
        assert_eq!(pool.delta_rels(id), &[Follow, Follow, Overlap]);
        // The parent chain is the prefix chain.
        let prefix = pool.parent(id);
        assert_eq!(
            pool.resolve(prefix),
            pat(&[0, 2, 1], &[Follow, Overlap, Contain])
        );
    }

    #[test]
    fn hash_consing_dedups() {
        let mut pool = PatternPool::with_roots(3);
        let p = pat(&[0, 1, 2], &[Follow, Overlap, Contain]);
        let a = pool.intern(&p);
        let len_after_first = pool.len();
        let b = pool.intern(&p);
        assert_eq!(a, b);
        assert_eq!(
            pool.len(),
            len_after_first,
            "re-interning allocates nothing"
        );
        // Sharing a prefix shares the prefix entries.
        let q = pat(&[0, 1, 2], &[Follow, Overlap, Overlap]);
        let c = pool.intern(&q);
        assert_ne!(a, c);
        assert_eq!(pool.parent(a), pool.parent(c));
    }

    #[test]
    fn parent_delta_chain_equals_flat_construction() {
        let mut pool = PatternPool::with_roots(3);
        let flat = pat(&[0, 1, 2], &[Follow, Overlap, Contain]);
        let by_chain = {
            let l2 = pool.intern_child(pool.root(EventId(0)), EventId(1), &[Follow]);
            pool.intern_child(l2, EventId(2), &[Overlap, Contain])
        };
        assert_eq!(pool.intern(&flat), by_chain);
        assert_eq!(pool.resolve(by_chain), flat);
    }

    #[test]
    fn packed_intern_matches_slice_intern() {
        let mut pool = PatternPool::with_roots(3);
        let l2 = pool.intern_child(pool.root(EventId(1)), EventId(2), &[Overlap]);
        let mut code = 0u64;
        for r in [Contain, Follow] {
            code = pack_relation(code, r);
        }
        let packed = pool.intern_packed(DeltaKey {
            parent: l2,
            last: EventId(0),
            code,
        });
        let sliced = pool.intern_child(l2, EventId(0), &[Contain, Follow]);
        assert_eq!(packed, sliced);
        assert_eq!(decode_column(code, &mut [Follow; 2]), [Contain, Follow]);
    }

    #[test]
    fn table_growth_keeps_ids_stable() {
        let mut pool = PatternPool::with_roots(2);
        let mut ids = Vec::new();
        // Enough distinct chains to force several table growths.
        for i in 0..200u32 {
            let r = TemporalRelation::ALL[(i % 3) as usize];
            let mut id = pool.root(EventId(i % 2));
            let other = EventId((i + 1) % 2);
            id = pool.intern_child(id, other, &[r]);
            for _ in 0..(i % 5) {
                let d = vec![r; pool.event_count(id)];
                id = pool.intern_child(id, other, &d);
            }
            ids.push((id, pool.resolve(id)));
        }
        for (id, p) in ids {
            assert_eq!(pool.intern(&p), id, "ids survive growth and re-intern");
            assert_eq!(pool.resolve(id), p);
        }
    }

    #[test]
    fn events_rev_walks_the_chain() {
        let mut pool = PatternPool::with_roots(3);
        let p = pat(&[2, 0, 1], &[Follow, Overlap, Contain]);
        let id = pool.intern(&p);
        let rev: Vec<u32> = pool.events_rev(id).map(|e| e.0).collect();
        assert_eq!(rev, vec![1, 0, 2]);
    }
}
