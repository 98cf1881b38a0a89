#![forbid(unsafe_code)]
//! Fixed-universe bitmaps used by HTPGM to index which sequences of the
//! temporal sequence database contain an event or pattern.
//!
//! Each bitmap has a fixed length equal to the number of sequences
//! `|D_SEQ|`; bit `i` is set iff the indexed object occurs in sequence `i`
//! (paper, Section IV-C "Efficient bitmap indexing"). Support counting is a
//! popcount, and the joint support of an event combination is the popcount
//! of the AND of the member bitmaps (Alg. 1, line 8): one fused
//! [`Bitmap::and_count`] per candidate, which builds no intermediate
//! bitmap. The word loops behind the operations live in a private kernel
//! module, pinned by property tests to plain scalar loops.

mod kernel;

/// A fixed-length bitmap over sequence identifiers `0..len`.
///
/// # Examples
///
/// ```
/// use ftpm_bitmap::Bitmap;
///
/// let mut a = Bitmap::new(100);
/// a.set(3);
/// a.set(64);
/// let mut b = Bitmap::new(100);
/// b.set(64);
/// b.set(99);
/// assert_eq!(a.and(&b).count_ones(), 1);
/// assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zero bitmap able to hold `len` bits.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a bitmap with the given bits set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut bm = Bitmap::new(len);
        for i in indices {
            bm.set(i);
        }
        bm
    }

    /// Number of bits (the universe size), not the number of set bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the universe is empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits; this is `countBitmap` in Alg. 1 of the paper,
    /// i.e. the (absolute) support of the indexed object.
    pub fn count_ones(&self) -> usize {
        kernel::count_ones_words(&self.words)
    }

    /// Bitwise AND, producing the joint-occurrence bitmap of two objects.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap universe mismatch");
        // Exactly sized: mining keeps these bitmaps in its nodes, and a
        // growing `Vec` would round a one-word bitmap up to four.
        let mut words = Vec::with_capacity(self.words.len());
        kernel::and_words(&self.words, &other.words, &mut words);
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Fused AND + popcount: `self.and(other).count_ones()` without
    /// materializing the intermediate bitmap. This is the support of a
    /// candidate event combination (Alg. 1, line 8), and the Apriori
    /// gates call it for *every* candidate — most of which are pruned, so
    /// never paying the allocation is a hot-path win.
    ///
    /// Mismatched universes are a caller bug, checked in debug builds;
    /// release builds return the saturating answer over the common
    /// prefix instead of panicking (the library crates are panic-free
    /// on their hot paths).
    ///
    /// # Examples
    ///
    /// ```
    /// use ftpm_bitmap::Bitmap;
    ///
    /// let a = Bitmap::from_indices(100, [3, 64, 99]);
    /// let b = Bitmap::from_indices(100, [64, 99]);
    /// assert_eq!(a.and_count(&b), a.and(&b).count_ones());
    /// ```
    pub fn and_count(&self, other: &Bitmap) -> usize {
        debug_assert_eq!(self.len, other.len, "bitmap universe mismatch");
        kernel::and_count_words(&self.words, &other.words)
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter {
                word,
                base: wi * 64,
            })
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap[{}; ", self.len)?;
        let mut first = true;
        for i in self.iter_ones() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_all_zero() {
        let bm = Bitmap::new(130);
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.len(), 130);
        assert!(!bm.get(0));
        assert!(!bm.get(129));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(70);
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(69);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(69));
        assert!(!bm.get(1) && !bm.get(65));
        assert_eq!(bm.count_ones(), 4);
    }

    #[test]
    fn set_is_idempotent() {
        let mut bm = Bitmap::new(10);
        bm.set(5);
        bm.set(5);
        assert_eq!(bm.count_ones(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bm = Bitmap::new(64);
        bm.set(64);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn and_mismatched_lengths_panics() {
        let a = Bitmap::new(10);
        let b = Bitmap::new(11);
        let _ = a.and(&b);
    }

    #[test]
    fn and_intersects() {
        let a = Bitmap::from_indices(200, [1, 100, 150, 199]);
        let b = Bitmap::from_indices(200, [100, 199]);
        let c = a.and(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![100, 199]);
    }

    #[test]
    fn and_count_is_fused_and_popcount() {
        let a = Bitmap::from_indices(200, [1, 100, 150, 199]);
        let b = Bitmap::from_indices(200, [100, 199]);
        assert_eq!(a.and_count(&b), 2);
        assert_eq!(a.and_count(&b), a.and(&b).count_ones());
        assert_eq!(a.and_count(&Bitmap::new(200)), 0);
    }

    /// The universe-mismatch contract on `and_count` is a debug
    /// assertion only: release builds return the saturating
    /// common-prefix answer instead of panicking.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn and_count_mismatched_lengths_panics() {
        let a = Bitmap::new(10);
        let b = Bitmap::new(11);
        let _ = a.and_count(&b);
    }

    #[test]
    fn iter_ones_ascending_across_words() {
        let bm = Bitmap::from_indices(300, [299, 0, 64, 128, 63]);
        assert_eq!(
            bm.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 128, 299]
        );
    }

    #[test]
    fn zero_length_bitmap() {
        let bm = Bitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(bm.iter_ones().count(), 0);
    }

    #[test]
    fn debug_format_lists_bits() {
        let bm = Bitmap::from_indices(8, [1, 3]);
        assert_eq!(format!("{bm:?}"), "Bitmap[8; 1,3]");
    }

    proptest! {
        #[test]
        fn prop_from_indices_count_matches_unique(
            len in 1usize..500,
            raw in proptest::collection::vec(0usize..500, 0..64),
        ) {
            let idx: Vec<usize> = raw.into_iter().map(|i| i % len).collect();
            let bm = Bitmap::from_indices(len, idx.iter().copied());
            let mut uniq = idx.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(bm.count_ones(), uniq.len());
            prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), uniq);
        }

        #[test]
        fn prop_and_is_intersection(
            len in 1usize..300,
            a_raw in proptest::collection::vec(0usize..300, 0..32),
            b_raw in proptest::collection::vec(0usize..300, 0..32),
        ) {
            let a_idx: std::collections::BTreeSet<usize> =
                a_raw.into_iter().map(|i| i % len).collect();
            let b_idx: std::collections::BTreeSet<usize> =
                b_raw.into_iter().map(|i| i % len).collect();
            let a = Bitmap::from_indices(len, a_idx.iter().copied());
            let b = Bitmap::from_indices(len, b_idx.iter().copied());
            let expect: Vec<usize> = a_idx.intersection(&b_idx).copied().collect();
            prop_assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), expect);
        }

        #[test]
        fn prop_and_count_bounded_by_operands(
            len in 1usize..300,
            a_raw in proptest::collection::vec(0usize..300, 0..32),
            b_raw in proptest::collection::vec(0usize..300, 0..32),
        ) {
            let a = Bitmap::from_indices(len, a_raw.into_iter().map(|i| i % len));
            let b = Bitmap::from_indices(len, b_raw.into_iter().map(|i| i % len));
            let c = a.and(&b);
            // This is the bitmap form of Lemma 2 (Apriori): joint support
            // never exceeds individual support.
            prop_assert!(c.count_ones() <= a.count_ones());
            prop_assert!(c.count_ones() <= b.count_ones());
        }

        #[test]
        fn prop_and_count_matches_allocating_path(
            len in 1usize..300,
            a_raw in proptest::collection::vec(0usize..300, 0..32),
            b_raw in proptest::collection::vec(0usize..300, 0..32),
        ) {
            let a = Bitmap::from_indices(len, a_raw.into_iter().map(|i| i % len));
            let b = Bitmap::from_indices(len, b_raw.into_iter().map(|i| i % len));
            prop_assert_eq!(a.and_count(&b), a.and(&b).count_ones());
        }
    }
}
