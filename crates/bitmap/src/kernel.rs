//! Word-level kernels behind the [`crate::Bitmap`] operations.
//!
//! This module is the one place in the workspace where raw `u64` word
//! loops are written out by hand; everything else goes through the
//! `Bitmap` API. Two implementation idioms live here:
//!
//! * **Lane-unrolled loops** (`count_ones_words`, `and_words`,
//!   `or_words`, the assign variants, `is_disjoint_words`): iterate over
//!   [`slice::chunks_exact`] blocks of [`LANES`] words with the lane
//!   body written element-wise over fixed-size arrays, plus a scalar
//!   tail. LLVM turns the fixed-size lane bodies into SSE2 vector ops
//!   on the stable baseline target (no `portable_simd`, no `unsafe`,
//!   no runtime feature detection).
//! * **A carry-save-adder (Harley–Seal) popcount tree**
//!   (`and_count_words`): the fused AND+popcount behind every Apriori
//!   gate. Instead of popcounting each word (≈15 SWAR ops per word on
//!   a baseline x86-64 without `popcnt`), a block of 32 words is
//!   reduced through a tree of carry-save adders (5 cheap bitwise ops
//!   each) so only one two-lane popcount is paid per block. The tree
//!   is written over `[u64; 2]` lanes so the superword-level
//!   vectorizer maps it onto 128-bit registers. Its per-call cost on
//!   real mining operands is the `bitmap.and_count_ns` layer row of
//!   `perfbench/`.
//!
//! Every kernel has a `*_scalar` reference — the loop the pre-kernel
//! `Bitmap` methods used — and property tests in `crate::tests` pin the
//! kernels to those references over arbitrary lengths (zero, sub-lane
//! tails, exact lane multiples).
//!
//! Mismatched operand lengths are tolerated: binary kernels operate on
//! the common word prefix, leaving the length contract (a
//! `debug_assert`) to the `Bitmap` layer.

/// Unroll width, in words, of the lane-unrolled kernels.
pub const LANES: usize = 4;

/// Words per block of the carry-save-adder `and_count` tree. Public so
/// the `Bitmap` layer can route sub-block universes around the batched
/// kernel's per-partner state allocation.
pub const CSA_BLOCK: usize = 32;

/// Two 64-bit lanes — the shape the superword vectorizer folds into one
/// 128-bit register on the SSE2 baseline.
type W2 = [u64; 2];

const W2_ZERO: W2 = [0, 0];

/// Loads lanes `i, i+1` of the fused AND of `a` and `b`.
#[inline(always)]
fn wand(a: &[u64], b: &[u64], i: usize) -> W2 {
    [a[i] & b[i], a[i + 1] & b[i + 1]]
}

/// Carry-save adder over two lanes: returns `(sum, carry)` with
/// `a + b + c = sum + 2·carry` bitwise per lane.
#[inline(always)]
fn csa(a: W2, b: W2, c: W2) -> (W2, W2) {
    let u = [a[0] ^ b[0], a[1] ^ b[1]];
    (
        [u[0] ^ c[0], u[1] ^ c[1]],
        [(a[0] & b[0]) | (u[0] & c[0]), (a[1] & b[1]) | (u[1] & c[1])],
    )
}

/// Popcount of both lanes.
#[inline(always)]
fn wpop(w: W2) -> usize {
    (w[0].count_ones() + w[1].count_ones()) as usize
}

/// Running Harley–Seal state: per-weight carry words accumulated across
/// blocks, popcounted only once at the end of the pass.
#[derive(Clone, Copy)]
struct CsaState {
    ones: W2,
    twos: W2,
    fours: W2,
    eights: W2,
    /// Popcount of the weight-16 carries, accumulated per block.
    pop16: usize,
}

impl CsaState {
    const fn new() -> Self {
        CsaState {
            ones: W2_ZERO,
            twos: W2_ZERO,
            fours: W2_ZERO,
            eights: W2_ZERO,
            pop16: 0,
        }
    }

    /// Folds one 32-word block of `a & b` into the state. `ca` and `cb`
    /// must hold at least [`CSA_BLOCK`] words.
    #[inline(always)]
    fn block(&mut self, ca: &[u64], cb: &[u64]) {
        let (o, t_a) = csa(self.ones, wand(ca, cb, 0), wand(ca, cb, 2));
        let (o, t_b) = csa(o, wand(ca, cb, 4), wand(ca, cb, 6));
        let (t, f_a) = csa(self.twos, t_a, t_b);
        let (o, t_a) = csa(o, wand(ca, cb, 8), wand(ca, cb, 10));
        let (o, t_b) = csa(o, wand(ca, cb, 12), wand(ca, cb, 14));
        let (t, f_b) = csa(t, t_a, t_b);
        let (f, e_a) = csa(self.fours, f_a, f_b);
        let (o, t_a) = csa(o, wand(ca, cb, 16), wand(ca, cb, 18));
        let (o, t_b) = csa(o, wand(ca, cb, 20), wand(ca, cb, 22));
        let (t, f_a2) = csa(t, t_a, t_b);
        let (o, t_a) = csa(o, wand(ca, cb, 24), wand(ca, cb, 26));
        let (o, t_b) = csa(o, wand(ca, cb, 28), wand(ca, cb, 30));
        let (t, f_b2) = csa(t, t_a, t_b);
        let (f, e_b) = csa(f, f_a2, f_b2);
        let (e, sixteens) = csa(self.eights, e_a, e_b);
        self.pop16 += wpop(sixteens);
        self.ones = o;
        self.twos = t;
        self.fours = f;
        self.eights = e;
    }

    /// Total popcount represented by the state.
    #[inline]
    fn finish(self) -> usize {
        16 * self.pop16
            + 8 * wpop(self.eights)
            + 4 * wpop(self.fours)
            + 2 * wpop(self.twos)
            + wpop(self.ones)
    }
}

/// Fused AND + popcount over the common word prefix of `a` and `b`.
pub fn and_count_words(a: &[u64], b: &[u64]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let ac = a.chunks_exact(CSA_BLOCK);
    let bc = b.chunks_exact(CSA_BLOCK);
    let (at, bt) = (ac.remainder(), bc.remainder());
    let mut state = CsaState::new();
    for (ca, cb) in ac.zip(bc) {
        state.block(ca, cb);
    }
    let mut total = state.finish();
    for (x, y) in at.iter().zip(bt) {
        total += (x & y).count_ones() as usize;
    }
    total
}

/// Scalar reference for [`and_count_words`]: the loop `Bitmap::and_count`
/// used before the kernel layer. Kept as the property-test pin and as
/// the tail loop of [`and_count_many_words`].
pub fn and_count_words_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Fused AND + popcount of one candidate against several partners in a
/// single pass: `a` is walked block by block, and for each block every
/// partner folds it into its own carry-save state — the candidate's
/// words stay hot in registers/L1 across all partners instead of being
/// re-streamed once per pair. Returns one count per partner, over each
/// common word prefix.
pub fn and_count_many_words(a: &[u64], partners: &[&[u64]], counts: &mut Vec<usize>) {
    counts.clear();
    if partners.is_empty() {
        return;
    }
    // Only the prefix every partner covers goes through the blocked
    // pass; per-partner leftovers are finished individually below.
    let n_all = partners
        .iter()
        .fold(a.len(), |n, p| n.min(p.len()));
    let blocks = n_all / CSA_BLOCK;
    let mut states = vec![CsaState::new(); partners.len()];
    for blk in 0..blocks {
        let lo = blk * CSA_BLOCK;
        let ca = &a[lo..lo + CSA_BLOCK];
        for (state, p) in states.iter_mut().zip(partners) {
            state.block(ca, &p[lo..lo + CSA_BLOCK]);
        }
    }
    let done = blocks * CSA_BLOCK;
    for (state, p) in states.into_iter().zip(partners) {
        counts.push(state.finish() + and_count_words_scalar(&a[done..], &p[done..]));
    }
}

/// Popcount of a word slice, [`LANES`] independent accumulators per
/// block so the adds do not form one dependency chain.
pub fn count_ones_words(words: &[u64]) -> usize {
    let chunks = words.chunks_exact(LANES);
    let tail = chunks.remainder();
    let mut acc = [0usize; LANES];
    for c in chunks {
        for l in 0..LANES {
            acc[l] += c[l].count_ones() as usize;
        }
    }
    let mut total: usize = acc.iter().sum();
    for w in tail {
        total += w.count_ones() as usize;
    }
    total
}

/// Scalar reference for [`count_ones_words`].
pub fn count_ones_words_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// True iff `a & b` is all-zero on the common word prefix, giving up at
/// the first nonzero lane block — gates that only need a zero/nonzero
/// answer skip the full popcount pass.
pub fn is_disjoint_words(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let ac = a.chunks_exact(LANES);
    let bc = b.chunks_exact(LANES);
    let (at, bt) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        let mut any = 0u64;
        for l in 0..LANES {
            any |= ca[l] & cb[l];
        }
        if any != 0 {
            return false;
        }
    }
    at.iter().zip(bt).all(|(x, y)| x & y == 0)
}

/// `out = a & b`, lane-unrolled. `out` is cleared first.
pub fn and_words(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(a.len().min(b.len()));
    binary_words(a, b, out, |x, y| x & y);
}

/// `out = a | b`, lane-unrolled. `out` is cleared first.
pub fn or_words(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.reserve(a.len().min(b.len()));
    binary_words(a, b, out, |x, y| x | y);
}

#[inline(always)]
fn binary_words(a: &[u64], b: &[u64], out: &mut Vec<u64>, op: impl Fn(u64, u64) -> u64) {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let ac = a.chunks_exact(LANES);
    let bc = b.chunks_exact(LANES);
    let (at, bt) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        let mut lane = [0u64; LANES];
        for l in 0..LANES {
            lane[l] = op(ca[l], cb[l]);
        }
        out.extend_from_slice(&lane);
    }
    for (x, y) in at.iter().zip(bt) {
        out.push(op(*x, *y));
    }
}

/// `a &= b` in place, lane-unrolled over the common prefix.
pub fn and_assign_words(a: &mut [u64], b: &[u64]) {
    assign_words(a, b, |x, y| x & y);
}

/// `a |= b` in place, lane-unrolled over the common prefix.
pub fn or_assign_words(a: &mut [u64], b: &[u64]) {
    assign_words(a, b, |x, y| x | y);
}

#[inline(always)]
fn assign_words(a: &mut [u64], b: &[u64], op: impl Fn(u64, u64) -> u64) {
    let n = a.len().min(b.len());
    let (a, b) = (&mut a[..n], &b[..n]);
    let ac = a.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut tail_at = 0usize;
    for (ca, cb) in ac.zip(&mut bc) {
        for l in 0..LANES {
            ca[l] = op(ca[l], cb[l]);
        }
        tail_at += LANES;
    }
    let bt = bc.remainder();
    for (x, y) in a[tail_at..].iter_mut().zip(bt) {
        *x = op(*x, *y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Word vectors whose lengths sweep 0, sub-lane tails, exact lane
    /// multiples, and several CSA blocks.
    fn words(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0u64..u64::MAX, 0..max_len + 1)
    }

    #[test]
    fn and_count_exact_block_and_tail_lengths() {
        for len in [0, 1, LANES - 1, LANES, CSA_BLOCK - 1, CSA_BLOCK, CSA_BLOCK + 7, 3 * CSA_BLOCK]
        {
            let a: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
            let b: Vec<u64> = (0..len as u64).map(|i| !i ^ 0x0f0f).collect();
            assert_eq!(
                and_count_words(&a, &b),
                and_count_words_scalar(&a, &b),
                "len {len}"
            );
            assert_eq!(count_ones_words(&a), count_ones_words_scalar(&a), "len {len}");
        }
    }

    proptest! {
        #[test]
        fn prop_and_count_matches_scalar(a in words(3 * CSA_BLOCK), b in words(3 * CSA_BLOCK)) {
            let n = a.len().min(b.len());
            prop_assert_eq!(
                and_count_words(&a, &b),
                and_count_words_scalar(&a[..n], &b[..n])
            );
        }

        #[test]
        fn prop_count_ones_matches_scalar(a in words(3 * CSA_BLOCK)) {
            prop_assert_eq!(count_ones_words(&a), count_ones_words_scalar(&a));
        }

        #[test]
        fn prop_and_or_match_scalar(a in words(2 * CSA_BLOCK), b in words(2 * CSA_BLOCK)) {
            let n = a.len().min(b.len());
            let mut out = Vec::new();
            and_words(&a, &b, &mut out);
            let expect: Vec<u64> = a[..n].iter().zip(&b[..n]).map(|(x, y)| x & y).collect();
            prop_assert_eq!(&out, &expect);
            or_words(&a, &b, &mut out);
            let expect: Vec<u64> = a[..n].iter().zip(&b[..n]).map(|(x, y)| x | y).collect();
            prop_assert_eq!(&out, &expect);
        }

        #[test]
        fn prop_assign_kernels_match_scalar(a in words(2 * CSA_BLOCK), b in words(2 * CSA_BLOCK)) {
            let n = a.len().min(b.len());
            let mut got = a.clone();
            and_assign_words(&mut got, &b);
            let mut expect = a.clone();
            for i in 0..n { expect[i] &= b[i]; }
            prop_assert_eq!(&got, &expect);
            let mut got = a.clone();
            or_assign_words(&mut got, &b);
            let mut expect = a.clone();
            for i in 0..n { expect[i] |= b[i]; }
            prop_assert_eq!(&got, &expect);
        }

        #[test]
        fn prop_is_disjoint_matches_and_count(a in words(2 * CSA_BLOCK), b in words(2 * CSA_BLOCK)) {
            // Random words rarely miss each other entirely, so also check
            // a forced-disjoint pair derived from the same lengths.
            prop_assert_eq!(is_disjoint_words(&a, &b), and_count_words(&a, &b) == 0);
            let masked: Vec<u64> = b.iter().zip(&a).map(|(y, x)| y & !x).collect();
            prop_assert!(is_disjoint_words(&a, &masked));
        }

        #[test]
        fn prop_and_count_many_matches_per_pair(
            a in words(2 * CSA_BLOCK),
            ps in proptest::collection::vec(words(2 * CSA_BLOCK), 0..5),
        ) {
            let partners: Vec<&[u64]> = ps.iter().map(|p| p.as_slice()).collect();
            let mut counts = Vec::new();
            and_count_many_words(&a, &partners, &mut counts);
            let expect: Vec<usize> =
                partners.iter().map(|p| and_count_words(&a, p)).collect();
            prop_assert_eq!(counts, expect);
        }
    }
}
