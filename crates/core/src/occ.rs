//! Struct-of-arrays occurrence store.
//!
//! Each work node used to bind its pattern occurrences as
//! `Vec<(u32, Vec<u32>)>` — one heap allocation *per occurrence* on the
//! hottest allocation path of the miner (candidate growth). The arena
//! replaces that with two flat columns shared by all patterns of a node:
//!
//! * `seqs[i]` — the sequence id of occurrence `i`;
//! * `insts[i*width .. (i+1)*width]` — the bound instance indices of
//!   occurrence `i`, in chronological order (`width` = the node's event
//!   count).
//!
//! A pattern holds an [`OccRange`] of occurrence indices instead of its
//! own vector, so growing a level appends to the flat columns and
//! dropping a pattern is free.

/// Half-open range of occurrence indices into an [`OccArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OccRange {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl OccRange {
    /// The occurrence indices as a `usize` iterator.
    #[inline]
    pub(crate) fn iter(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Flat occurrence columns of one work node; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct OccArena {
    /// Instance indices per occurrence.
    width: usize,
    seqs: Vec<u32>,
    insts: Vec<u32>,
}

impl OccArena {
    /// An empty arena for occurrences of `width` bound instances.
    pub(crate) fn new(width: usize) -> Self {
        OccArena {
            width,
            seqs: Vec::new(),
            insts: Vec::new(),
        }
    }

    /// Empties the arena but keeps its capacity, so a scratch arena that
    /// is refilled many times allocates only while it grows.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.seqs.clear();
        self.insts.clear();
    }

    /// The bound-instance count per occurrence.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of occurrences stored.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Current end watermark as a range start for the next append run.
    #[inline]
    pub(crate) fn mark(&self) -> u32 {
        self.len() as u32
    }

    /// The range from `mark` to the current end.
    #[inline]
    pub(crate) fn since(&self, mark: u32) -> OccRange {
        OccRange {
            start: mark,
            end: self.mark(),
        }
    }

    /// Sequence id of occurrence `i`.
    #[inline]
    pub(crate) fn seq(&self, i: usize) -> u32 {
        self.seqs[i]
    }

    /// Bound instance indices of occurrence `i`, chronological order.
    #[inline]
    pub(crate) fn tuple(&self, i: usize) -> &[u32] {
        &self.insts[i * self.width..(i + 1) * self.width]
    }

    /// Appends one occurrence.
    #[inline]
    pub(crate) fn push(&mut self, seq: u32, tuple: &[u32]) {
        debug_assert_eq!(tuple.len(), self.width());
        self.seqs.push(seq);
        self.insts.extend_from_slice(tuple);
    }

    /// Appends `prefix` extended by `last` as one occurrence — the
    /// growth step, without materializing the extended tuple.
    #[inline]
    pub(crate) fn push_extend(&mut self, seq: u32, prefix: &[u32], last: u32) {
        debug_assert_eq!(prefix.len() + 1, self.width());
        self.seqs.push(seq);
        self.insts.extend_from_slice(prefix);
        self.insts.push(last);
    }

    /// Splices `range` of `other` (same width) onto the end of `self`,
    /// returning the spliced range.
    pub(crate) fn append_from(&mut self, other: &OccArena, range: OccRange) -> OccRange {
        debug_assert_eq!(self.width, other.width);
        let start = self.mark();
        self.seqs.extend_from_slice(&other.seqs[range.iter()]);
        self.insts.extend_from_slice(
            &other.insts[range.start as usize * self.width..range.end as usize * self.width],
        );
        self.since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut a = OccArena::new(2);
        a.push(4, &[1, 2]);
        a.push_extend(7, &[3], 9);
        assert_eq!(a.len(), 2);
        assert_eq!(a.width(), 2);
        assert_eq!(a.seq(0), 4);
        assert_eq!(a.tuple(0), &[1, 2]);
        assert_eq!(a.seq(1), 7);
        assert_eq!(a.tuple(1), &[3, 9]);
        assert_eq!(a.since(0), OccRange { start: 0, end: 2 });
    }

    #[test]
    fn append_from_splices_ranges() {
        let mut src = OccArena::new(3);
        for i in 0..4u32 {
            src.push(i, &[i, i + 1, i + 2]);
        }
        let mut dst = OccArena::new(3);
        dst.push(99, &[0, 0, 0]);
        let got = dst.append_from(&src, OccRange { start: 1, end: 3 });
        assert_eq!(got, OccRange { start: 1, end: 3 });
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.seq(1), 1);
        assert_eq!(dst.tuple(2), &[2, 3, 4]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut a = OccArena::new(2);
        for i in 0..8u32 {
            a.push_extend(i, &[i], i + 1);
        }
        let (seqs, insts) = (a.seqs.capacity(), a.insts.capacity());
        a.clear();
        assert_eq!(a.len(), 0);
        assert_eq!((a.seqs.capacity(), a.insts.capacity()), (seqs, insts));
        a.push(3, &[4, 5]);
        assert_eq!((a.seq(0), a.tuple(0)), (3, &[4, 5][..]));
    }
}
