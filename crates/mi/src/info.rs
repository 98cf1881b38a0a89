use ftpm_timeseries::SymbolicSeries;

/// Shannon entropy `H(X) = −Σ p(x)·ln p(x)` (Def 5.1) of a distribution.
/// Zero-probability outcomes contribute nothing.
///
/// # Examples
///
/// ```
/// use ftpm_mi::entropy;
///
/// assert!((entropy(&[0.5, 0.5]) - std::f64::consts::LN_2).abs() < 1e-12);
/// assert_eq!(entropy(&[1.0, 0.0]), 0.0);
/// ```
pub fn entropy(probs: &[f64]) -> f64 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

/// The empirical joint distribution `p(x, y)` of two aligned symbolic
/// series, as a `|Σ_X| × |Σ_Y|` row-major matrix.
///
/// # Panics
///
/// Panics if the series have different lengths or are empty.
pub fn joint_distribution(x: &SymbolicSeries, y: &SymbolicSeries) -> Vec<Vec<f64>> {
    let counts = joint_counts(x, y);
    let cols = y.alphabet().len();
    let n = x.len() as f64;
    (0..x.alphabet().len())
        .map(|a| (0..cols).map(|b| counts[a * cols + b] as f64 / n).collect())
        .collect()
}

/// The joint symbol counts of two aligned series: a row-major
/// `|Σ_X| × |Σ_Y|` table whose cell `a·|Σ_Y| + b` counts the steps with
/// `X = a` and `Y = b`.
///
/// # Panics
///
/// Panics if the series have different lengths or are empty.
pub(crate) fn joint_counts(x: &SymbolicSeries, y: &SymbolicSeries) -> Vec<usize> {
    assert_eq!(x.len(), y.len(), "series must be aligned");
    assert!(!x.is_empty(), "series must be non-empty");
    let cols = y.alphabet().len();
    let mut counts = vec![0; x.alphabet().len() * cols];
    for (xs, ys) in x.symbols().iter().zip(y.symbols()) {
        counts[xs.0 as usize * cols + ys.0 as usize] += 1;
    }
    counts
}

/// Conditional entropy `H(X|Y) = −Σ p(x,y)·ln(p(x,y)/p(y))` (Def 5.1,
/// Eq. 8).
pub fn conditional_entropy(x: &SymbolicSeries, y: &SymbolicSeries) -> f64 {
    let joint = joint_distribution(x, y);
    let py = y.symbol_probabilities();
    let mut h = 0.0;
    for row in &joint {
        for (j, &pxy) in row.iter().enumerate() {
            if pxy > 0.0 {
                h -= pxy * (pxy / py[j]).ln();
            }
        }
    }
    h
}

/// Mutual information `I(X;Y) = Σ p(x,y)·ln(p(x,y)/(p(x)·p(y)))`
/// (Def 5.2, Eq. 9), in nats.
///
/// Symmetric: `I(X;Y) = I(Y;X)`.
pub fn mutual_information(x: &SymbolicSeries, y: &SymbolicSeries) -> f64 {
    let counts = joint_counts(x, y);
    let (px, py) = (x.symbol_probabilities(), y.symbol_probabilities());
    mi_sum(mi_terms(&counts, x.len() as f64, &px, &py))
}

/// The summands of Eq. 9 over an integer joint count table: `counts` is
/// row-major `px.len() × py.len()` over `n` steps, and cell `(a, b)`
/// becomes `p·ln(p/(p(x)·p(y)))` with `p = count/n`, or `None` for an
/// empty cell, which Eq. 9 skips. A summand is the same float in both
/// directions of a pair (`p(x)·p(y)` and `p(y)·p(x)` round alike), so
/// `I(X;Y)` and `I(Y;X)` sum one table of them, row-major and
/// column-major.
pub(crate) fn mi_terms(counts: &[usize], n: f64, px: &[f64], py: &[f64]) -> Vec<Option<f64>> {
    let cols = py.len();
    let mut terms = Vec::with_capacity(counts.len());
    for (a, &pa) in px.iter().enumerate() {
        for (b, &pb) in py.iter().enumerate() {
            let pxy = counts[a * cols + b] as f64 / n;
            terms.push((pxy > 0.0).then(|| pxy * (pxy / (pa * pb)).ln()));
        }
    }
    terms
}

/// `I` as the sum of its Eq. 9 summands in the order given.
pub(crate) fn mi_sum(terms: impl IntoIterator<Item = Option<f64>>) -> f64 {
    let mut mi = 0.0;
    for term in terms.into_iter().flatten() {
        mi += term;
    }
    // Clamp tiny negative values caused by floating point noise.
    mi.max(0.0)
}

/// Normalized mutual information `Ĩ(X;Y) = I(X;Y)/H(X) = 1 − H(X|Y)/H(X)`
/// (Def 5.3, Eq. 10): the fraction of uncertainty about `X` removed by
/// knowing `Y`. In `[0, 1]`, and **not** symmetric.
///
/// A constant series has `H(X) = 0`; we define `Ĩ(X;Y) = 1` in that case
/// (there is no uncertainty left to explain), which keeps the value in
/// range and makes constant series trivially "correlated" with everything,
/// mirroring the fact that they carry no pattern information to lose.
pub fn normalized_mutual_information(x: &SymbolicSeries, y: &SymbolicSeries) -> f64 {
    let hx = entropy(&x.symbol_probabilities());
    normalized(hx, || mutual_information(x, y))
}

/// Def 5.3 from `H(X)` and a way to compute `I(X;Y)`, which runs only
/// when `H(X) > 0`: the one place the constant-series convention lives.
pub(crate) fn normalized(hx: f64, mi: impl FnOnce() -> f64) -> f64 {
    if hx == 0.0 {
        return 1.0;
    }
    (mi() / hx).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpm_timeseries::{Alphabet, SymbolId};
    use proptest::prelude::*;

    fn onoff(name: &str, bits: &str) -> SymbolicSeries {
        SymbolicSeries::from_labels(
            name,
            Alphabet::on_off(),
            bits.chars().map(|c| if c == '1' { "On" } else { "Off" }),
        )
    }

    #[test]
    fn entropy_uniform_is_ln_k() {
        assert!((entropy(&[0.25; 4]) - 4f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_degenerate_is_zero() {
        assert_eq!(entropy(&[0.0, 1.0, 0.0]), 0.0);
    }

    #[test]
    fn identical_series_mi_equals_entropy() {
        let x = onoff("X", "1101001011");
        let mi = mutual_information(&x, &x);
        let h = entropy(&x.symbol_probabilities());
        assert!((mi - h).abs() < 1e-12);
        assert!((normalized_mutual_information(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_series_mi_is_zero() {
        // y cycles through both values identically under each x value.
        let x = onoff("X", "11110000");
        let y = onoff("Y", "11001100");
        assert!(mutual_information(&x, &y).abs() < 1e-12);
        assert!(normalized_mutual_information(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn mi_is_symmetric() {
        let x = onoff("X", "110100101101");
        let y = onoff("Y", "011100110010");
        assert!((mutual_information(&x, &y) - mutual_information(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn conditional_entropy_identity() {
        // I(X;Y) = H(X) - H(X|Y)
        let x = onoff("X", "1101001011010011");
        let y = onoff("Y", "0111001011110001");
        let lhs = mutual_information(&x, &y);
        let rhs = entropy(&x.symbol_probabilities()) - conditional_entropy(&x, &y);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn constant_series_nmi_is_one() {
        let x = onoff("X", "1111");
        let y = onoff("Y", "0101");
        assert_eq!(normalized_mutual_information(&x, &y), 1.0);
    }

    #[test]
    fn joint_distribution_sums_to_one() {
        let x = onoff("X", "110100");
        let y = onoff("Y", "011010");
        let joint = joint_distribution(&x, &y);
        let total: f64 = joint.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn mismatched_lengths_panic() {
        let x = onoff("X", "11");
        let y = onoff("Y", "110");
        let _ = joint_distribution(&x, &y);
    }

    #[test]
    fn multi_state_alphabet_mi() {
        let abc = Alphabet::new(["A", "B", "C"]).unwrap();
        let x = SymbolicSeries::new(
            "X",
            abc.clone(),
            vec![
                SymbolId(0),
                SymbolId(1),
                SymbolId(2),
                SymbolId(0),
                SymbolId(1),
                SymbolId(2),
            ],
        );
        // y is a deterministic function of x → NMI(Y;X) = 1.
        let y = SymbolicSeries::new(
            "Y",
            Alphabet::on_off(),
            vec![
                SymbolId(0),
                SymbolId(1),
                SymbolId(1),
                SymbolId(0),
                SymbolId(1),
                SymbolId(1),
            ],
        );
        assert!((normalized_mutual_information(&y, &x) - 1.0).abs() < 1e-12);
        // But x is not determined by y, so NMI(X;Y) < 1.
        assert!(normalized_mutual_information(&x, &y) < 1.0);
    }

    proptest! {
        #[test]
        fn prop_nmi_in_unit_interval(
            xs in proptest::collection::vec(0u16..2, 4..64),
            ys in proptest::collection::vec(0u16..2, 4..64),
        ) {
            let n = xs.len().min(ys.len());
            let mk = |name: &str, v: &[u16]| SymbolicSeries::new(
                name,
                Alphabet::on_off(),
                v[..n].iter().map(|&s| SymbolId(s)).collect(),
            );
            let x = mk("X", &xs);
            let y = mk("Y", &ys);
            let nmi = normalized_mutual_information(&x, &y);
            prop_assert!((0.0..=1.0).contains(&nmi));
        }

        #[test]
        fn prop_mi_nonnegative_and_bounded(
            xs in proptest::collection::vec(0u16..3, 6..64),
            ys in proptest::collection::vec(0u16..3, 6..64),
        ) {
            let n = xs.len().min(ys.len());
            let abc = Alphabet::new(["A", "B", "C"]).unwrap();
            let x = SymbolicSeries::new("X", abc.clone(),
                xs[..n].iter().map(|&s| SymbolId(s)).collect());
            let y = SymbolicSeries::new("Y", abc.clone(),
                ys[..n].iter().map(|&s| SymbolId(s)).collect());
            let mi = mutual_information(&x, &y);
            let hx = entropy(&x.symbol_probabilities());
            let hy = entropy(&y.symbol_probabilities());
            // 0 <= I(X;Y) <= min(H(X), H(Y)) (Cover & Thomas).
            prop_assert!(mi >= 0.0);
            prop_assert!(mi <= hx.min(hy) + 1e-9);
        }
    }
}
