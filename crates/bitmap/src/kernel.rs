//! Word-level kernels behind the [`crate::Bitmap`] operations, private to
//! this crate.
//!
//! This module is the one place in the workspace where raw `u64` word
//! loops are written out by hand; everything else goes through the
//! `Bitmap` API. Two implementation idioms live here:
//!
//! * **Lane-unrolled loops** (`count_ones_words`, `and_words`): iterate
//!   over [`slice::chunks_exact`] blocks of [`LANES`] words with the lane
//!   body written element-wise over fixed-size arrays, plus a scalar
//!   tail. LLVM turns the fixed-size lane bodies into SSE2 vector ops
//!   on the stable baseline target (no `portable_simd`, no `unsafe`,
//!   no runtime feature detection).
//! * **A carry-save-adder (Harley–Seal) popcount tree**
//!   (`and_count_words`): the fused AND+popcount behind every Apriori
//!   gate, one call per candidate. Instead of popcounting each word
//!   (≈15 SWAR ops per word on a baseline x86-64 without `popcnt`), a
//!   block of 32 words is reduced through a tree of carry-save adders
//!   (5 cheap bitwise ops each) so only one two-lane popcount is paid per
//!   block. The tree is written over `[u64; 2]` lanes so the
//!   superword-level vectorizer maps it onto 128-bit registers. Its
//!   per-call cost on real mining operands is the `bitmap.and_count_ns`
//!   layer row of `perfbench/`.
//!
//! The popcount kernels have plain `*_scalar` references, compiled for
//! tests only: property tests pin the kernels to them over arbitrary
//! lengths (zero, sub-lane tails, exact lane multiples, several CSA
//! blocks).
//!
//! Mismatched operand lengths are tolerated: binary kernels operate on
//! the common word prefix, leaving the length contract (a
//! `debug_assert`) to the `Bitmap` layer.

/// Unroll width, in words, of the lane-unrolled kernels.
const LANES: usize = 4;

/// Words per block of the carry-save-adder `and_count` tree.
const CSA_BLOCK: usize = 32;

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
pub(crate) fn and_count_words(a: &[u64], b: &[u64]) -> usize {
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

/// Scalar reference for [`and_count_words`], the property-test pin.
#[cfg(test)]
fn and_count_words_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Popcount of a word slice, [`LANES`] independent accumulators per
/// block so the adds do not form one dependency chain.
pub(crate) fn count_ones_words(words: &[u64]) -> usize {
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
#[cfg(test)]
fn count_ones_words_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// `out = a & b` over the common word prefix, lane-unrolled. `out` is
/// cleared first.
pub(crate) fn and_words(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    out.clear();
    let n = a.len().min(b.len());
    out.reserve(n);
    let (a, b) = (&a[..n], &b[..n]);
    let ac = a.chunks_exact(LANES);
    let bc = b.chunks_exact(LANES);
    let (at, bt) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        let mut lane = [0u64; LANES];
        for l in 0..LANES {
            lane[l] = ca[l] & cb[l];
        }
        out.extend_from_slice(&lane);
    }
    for (x, y) in at.iter().zip(bt) {
        out.push(x & y);
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
        for len in [
            0,
            1,
            LANES - 1,
            LANES,
            CSA_BLOCK - 1,
            CSA_BLOCK,
            CSA_BLOCK + 7,
            3 * CSA_BLOCK,
        ] {
            let a: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9))
                .collect();
            let b: Vec<u64> = (0..len as u64).map(|i| !i ^ 0x0f0f).collect();
            assert_eq!(
                and_count_words(&a, &b),
                and_count_words_scalar(&a, &b),
                "len {len}"
            );
            assert_eq!(
                count_ones_words(&a),
                count_ones_words_scalar(&a),
                "len {len}"
            );
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
        fn prop_and_matches_scalar(a in words(2 * CSA_BLOCK), b in words(2 * CSA_BLOCK)) {
            let n = a.len().min(b.len());
            let mut out = Vec::new();
            and_words(&a, &b, &mut out);
            let expect: Vec<u64> = a[..n].iter().zip(&b[..n]).map(|(x, y)| x & y).collect();
            prop_assert_eq!(&out, &expect);
        }
    }
}
