use crate::alphabet::{Alphabet, SymbolId};

/// Maps raw time series values to symbols of a fixed alphabet — the mapping
/// function `f : X → Σ_X` of Def 3.2.
pub trait Symbolizer {
    /// The alphabet this symbolizer maps into.
    fn alphabet(&self) -> &Alphabet;

    /// Maps a single value to a symbol.
    fn symbolize(&self, value: f64) -> SymbolId;

    /// Maps a whole slice of values.
    fn symbolize_all(&self, values: &[f64]) -> Vec<SymbolId> {
        values.iter().map(|&v| self.symbolize(v)).collect()
    }
}

/// Binary `{Off, On}` symbolizer: `On` iff `value >= threshold`.
///
/// This is the encoding used for the energy datasets in the paper
/// (Section VI-A2, threshold 0.05 W).
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::{Symbolizer, ThresholdSymbolizer};
///
/// let s = ThresholdSymbolizer::new(0.5);
/// assert_eq!(s.alphabet().label(s.symbolize(1.61)), "On");
/// assert_eq!(s.alphabet().label(s.symbolize(0.41)), "Off");
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdSymbolizer {
    threshold: f64,
    alphabet: Alphabet,
}

impl ThresholdSymbolizer {
    /// Creates a threshold symbolizer with the `{Off, On}` alphabet.
    pub fn new(threshold: f64) -> Self {
        ThresholdSymbolizer {
            threshold,
            alphabet: Alphabet::on_off(),
        }
    }

    /// The On/Off decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Symbolizer for ThresholdSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn symbolize(&self, value: f64) -> SymbolId {
        if value >= self.threshold {
            SymbolId(1) // On
        } else {
            SymbolId(0) // Off
        }
    }
}

/// Multi-state symbolizer based on the percentile distribution of the data
/// (paper Section VI-A2: weather/collision variables with 3–5 states).
///
/// Values below `breaks[0]` map to symbol 0, values in
/// `[breaks[i-1], breaks[i])` to symbol `i`, and values `>= breaks.last()`
/// to the last symbol.
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::{QuantileSymbolizer, Symbolizer};
///
/// // Temperature → {VeryCold, Cold, Mild, Hot, VeryHot}
/// let data: Vec<f64> = (0..100).map(f64::from).collect();
/// let s = QuantileSymbolizer::from_data(
///     ["VeryCold", "Cold", "Mild", "Hot", "VeryHot"], &data).unwrap();
/// assert_eq!(s.alphabet().label(s.symbolize(-3.0)), "VeryCold");
/// assert_eq!(s.alphabet().label(s.symbolize(99.0)), "VeryHot");
///
/// // Constant data has no quantile breakpoints.
/// assert!(QuantileSymbolizer::from_data(["Low", "Mid", "High"], &[1.0; 10]).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct QuantileSymbolizer {
    breaks: Vec<f64>,
    alphabet: Alphabet,
}

impl QuantileSymbolizer {
    /// Creates a symbolizer from explicit ascending breakpoints. For `k`
    /// labels there must be exactly `k - 1` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if the breakpoint count does not match the label count, or
    /// the breakpoints are not strictly ascending.
    pub fn with_breaks<S: Into<String>>(
        labels: impl IntoIterator<Item = S>,
        breaks: Vec<f64>,
    ) -> Self {
        let alphabet = Alphabet::new(labels);
        assert_eq!(
            breaks.len(),
            alphabet.len() - 1,
            "need exactly |alphabet|-1 breakpoints"
        );
        assert!(
            breaks.windows(2).all(|w| w[0] < w[1]),
            "breakpoints must be strictly ascending"
        );
        QuantileSymbolizer { breaks, alphabet }
    }

    /// Derives breakpoints from the empirical quantiles of `data` at evenly
    /// spaced probabilities `1/k, …, (k-1)/k` for `k` labels.
    ///
    /// The paper uses hand-picked percentiles per variable (e.g. 10th/25th/
    /// 50th/75th/95th); [`QuantileSymbolizer::with_breaks`] supports that
    /// directly, while this constructor is the generic k-quantile version.
    ///
    /// # Errors
    ///
    /// Returns a [`QuantileError`] if `data` is empty, holds a NaN or
    /// infinite sample, or has quantiles that collide (e.g. constant
    /// data, or fewer distinct values than labels).
    ///
    /// # Panics
    ///
    /// Panics if `labels` is not a valid [`Alphabet`] (empty, duplicated
    /// or more than `u16::MAX` labels).
    pub fn from_data<S: Into<String>>(
        labels: impl IntoIterator<Item = S>,
        data: &[f64],
    ) -> Result<Self, QuantileError> {
        let alphabet = Alphabet::new(labels);
        if data.is_empty() {
            return Err(QuantileError::EmptyData);
        }
        if let Some(index) = data.iter().position(|v| !v.is_finite()) {
            return Err(QuantileError::NonFinite {
                index,
                value: data[index],
            });
        }
        let mut sorted: Vec<f64> = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let k = alphabet.len();
        let breaks: Vec<f64> = (1..k)
            .map(|i| {
                let rank = (i as f64 / k as f64) * (sorted.len() - 1) as f64;
                sorted[rank.round() as usize]
            })
            .collect();
        if let Some(w) = breaks.windows(2).find(|w| w[0] >= w[1]) {
            return Err(QuantileError::CollidingQuantiles {
                states: k,
                value: w[0],
            });
        }
        Ok(QuantileSymbolizer { breaks, alphabet })
    }

    /// The ascending breakpoints separating the bins.
    pub fn breaks(&self) -> &[f64] {
        &self.breaks
    }
}

/// Why [`QuantileSymbolizer::from_data`] could not derive breakpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantileError {
    /// The data has no samples.
    EmptyData,
    /// The sample at `index` is NaN or infinite.
    NonFinite {
        /// Position of the first non-finite sample.
        index: usize,
        /// The sample itself.
        value: f64,
    },
    /// Two adjacent quantiles are equal, so a bin would be empty: the
    /// data has fewer distinct values than `states` needs.
    CollidingQuantiles {
        /// The requested number of states (labels).
        states: usize,
        /// The quantile value shared by two breakpoints.
        value: f64,
    },
}

impl std::fmt::Display for QuantileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QuantileError::EmptyData => write!(f, "cannot derive quantiles from empty data"),
            QuantileError::NonFinite { index, value } => {
                write!(
                    f,
                    "sample {index} is {value}; quantile states need finite data"
                )
            }
            QuantileError::CollidingQuantiles { states, value } => write!(
                f,
                "data quantiles collide at {value}: too few distinct values for {states} states; \
                 use fewer states or explicit breakpoints"
            ),
        }
    }
}

impl std::error::Error for QuantileError {}

impl Symbolizer for QuantileSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn symbolize(&self, value: f64) -> SymbolId {
        let bin = self.breaks.partition_point(|&b| b <= value);
        SymbolId(bin as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn threshold_boundary_is_on() {
        let s = ThresholdSymbolizer::new(0.05);
        assert_eq!(s.symbolize(0.05), SymbolId(1));
        assert_eq!(s.symbolize(0.049999), SymbolId(0));
    }

    #[test]
    fn paper_example_symbolization() {
        // Paper Section III-A: X = 1.61, 1.21, 0.41, 0.0 with threshold 0.5
        // gives On, On, Off, Off.
        let s = ThresholdSymbolizer::new(0.5);
        let syms = s.symbolize_all(&[1.61, 1.21, 0.41, 0.0]);
        let labels: Vec<&str> = syms.iter().map(|&id| s.alphabet().label(id)).collect();
        assert_eq!(labels, vec!["On", "On", "Off", "Off"]);
    }

    #[test]
    fn quantile_bins_cover_range() {
        let s = QuantileSymbolizer::with_breaks(["Low", "Mid", "High"], vec![10.0, 20.0]);
        assert_eq!(s.symbolize(-5.0), SymbolId(0));
        assert_eq!(s.symbolize(9.99), SymbolId(0));
        assert_eq!(s.symbolize(10.0), SymbolId(1));
        assert_eq!(s.symbolize(19.99), SymbolId(1));
        assert_eq!(s.symbolize(20.0), SymbolId(2));
        assert_eq!(s.symbolize(1e9), SymbolId(2));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_breaks_panic() {
        let _ = QuantileSymbolizer::with_breaks(["A", "B", "C"], vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "|alphabet|-1 breakpoints")]
    fn wrong_break_count_panics() {
        let _ = QuantileSymbolizer::with_breaks(["A", "B"], vec![1.0, 2.0]);
    }

    #[test]
    fn from_data_splits_uniform_data_evenly() {
        let data: Vec<f64> = (0..1000).map(f64::from).collect();
        let s =
            QuantileSymbolizer::from_data(["Q1", "Q2", "Q3", "Q4"], &data).expect("uniform data");
        let counts = {
            let mut c = [0usize; 4];
            for &v in &data {
                c[s.symbolize(v).0 as usize] += 1;
            }
            c
        };
        for count in counts {
            assert!((200..=300).contains(&count), "unbalanced bins: {counts:?}");
        }
    }

    #[test]
    fn from_data_rejects_empty_data() {
        let err = QuantileSymbolizer::from_data(["A", "B"], &[]).unwrap_err();
        assert_eq!(err, QuantileError::EmptyData);
        assert!(err.to_string().contains("empty data"), "{err}");
    }

    #[test]
    fn from_data_rejects_a_non_finite_sample() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = QuantileSymbolizer::from_data(["A", "B"], &[1.0, 2.0, bad, 3.0]).unwrap_err();
            assert!(
                matches!(err, QuantileError::NonFinite { index: 2, value } if value.to_bits() == bad.to_bits()),
                "{err:?}"
            );
            assert!(err.to_string().starts_with("sample 2 is "), "{err}");
        }
    }

    #[test]
    fn from_data_rejects_colliding_quantiles() {
        let err = QuantileSymbolizer::from_data(["A", "B", "C"], &[1.0; 5]).unwrap_err();
        assert_eq!(
            err,
            QuantileError::CollidingQuantiles {
                states: 3,
                value: 1.0
            }
        );
        assert!(err.to_string().contains("3 states"), "{err}");
        let error: &dyn std::error::Error = &err;
        assert!(error.source().is_none());
    }

    proptest! {
        #[test]
        fn prop_quantile_symbol_in_alphabet(v in -1e6f64..1e6) {
            let s = QuantileSymbolizer::with_breaks(
                ["A", "B", "C", "D"], vec![-10.0, 0.0, 10.0]);
            let id = s.symbolize(v);
            prop_assert!((id.0 as usize) < s.alphabet().len());
        }

        #[test]
        fn prop_quantile_monotone(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let s = QuantileSymbolizer::with_breaks(
                ["A", "B", "C"], vec![-1.0, 1.0]);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(s.symbolize(lo) <= s.symbolize(hi));
        }
    }
}

/// SAX-style symbolizer: z-normalizes against the training data's mean
/// and standard deviation, then bins by the standard-normal breakpoints
/// that make each symbol equiprobable under a Gaussian assumption
/// (Lin et al.'s Symbolic Aggregate approXimation, the de-facto standard
/// symbolic representation in time series mining — a natural drop-in for
/// the paper's mapping function `f : X → Σ_X`).
///
/// Supports alphabet sizes 2–10.
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::{SaxSymbolizer, Symbolizer};
///
/// let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin()).collect();
/// let sax = SaxSymbolizer::from_data(4, &data);
/// assert_eq!(sax.alphabet().len(), 4);
/// // Very negative values map to the first symbol, very positive to the last.
/// assert_eq!(sax.symbolize(-10.0).0, 0);
/// assert_eq!(sax.symbolize(10.0).0, 3);
/// ```
#[derive(Debug, Clone)]
pub struct SaxSymbolizer {
    mean: f64,
    std: f64,
    breaks: Vec<f64>,
    alphabet: Alphabet,
}

impl SaxSymbolizer {
    /// Standard-normal breakpoints for alphabet sizes 2..=10 (values from
    /// the SAX paper's lookup table).
    fn gaussian_breaks(size: usize) -> Vec<f64> {
        match size {
            2 => vec![0.0],
            3 => vec![-0.43, 0.43],
            4 => vec![-0.67, 0.0, 0.67],
            5 => vec![-0.84, -0.25, 0.25, 0.84],
            6 => vec![-0.97, -0.43, 0.0, 0.43, 0.97],
            7 => vec![-1.07, -0.57, -0.18, 0.18, 0.57, 1.07],
            8 => vec![-1.15, -0.67, -0.32, 0.0, 0.32, 0.67, 1.15],
            9 => vec![-1.22, -0.76, -0.43, -0.14, 0.14, 0.43, 0.76, 1.22],
            10 => vec![-1.28, -0.84, -0.52, -0.25, 0.0, 0.25, 0.52, 0.84, 1.28],
            other => panic!("SAX alphabet size {other} unsupported (2..=10)"),
        }
    }

    /// Fits mean and standard deviation on `data` and builds an
    /// `alphabet_size`-symbol SAX symbolizer with labels `a, b, c, …`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, constant, or `alphabet_size ∉ 2..=10`.
    pub fn from_data(alphabet_size: usize, data: &[f64]) -> Self {
        assert!(!data.is_empty(), "cannot fit SAX on empty data");
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt();
        assert!(std > 0.0, "cannot fit SAX on constant data");
        let labels: Vec<String> = (0..alphabet_size)
            .map(|i| ((b'a' + i as u8) as char).to_string())
            .collect();
        SaxSymbolizer {
            mean,
            std,
            breaks: Self::gaussian_breaks(alphabet_size),
            alphabet: Alphabet::new(labels),
        }
    }
}

impl Symbolizer for SaxSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn symbolize(&self, value: f64) -> SymbolId {
        let z = (value - self.mean) / self.std;
        SymbolId(self.breaks.partition_point(|&b| b <= z) as u16)
    }
}

/// Trend symbolizer: encodes the *change* between consecutive samples as
/// `Down` / `Steady` / `Up`, with `Steady` covering changes within
/// `±tolerance`. Useful for weather-style variables where the paper's
/// patterns talk about rising/falling conditions.
///
/// Because a trend needs a predecessor, use
/// [`TrendSymbolizer::symbolize_series`]; the pointwise
/// [`Symbolizer::symbolize`] interprets its input as an already-computed
/// delta.
#[derive(Debug, Clone)]
pub struct TrendSymbolizer {
    tolerance: f64,
    alphabet: Alphabet,
}

impl TrendSymbolizer {
    /// Creates a trend symbolizer.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is negative.
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        TrendSymbolizer {
            tolerance,
            alphabet: Alphabet::new(["Down", "Steady", "Up"]),
        }
    }

    /// Symbolizes a value series into trends; the first sample has no
    /// predecessor and is encoded `Steady`.
    pub fn symbolize_series(&self, values: &[f64]) -> Vec<SymbolId> {
        let mut out = Vec::with_capacity(values.len());
        for (i, &v) in values.iter().enumerate() {
            let delta = if i == 0 { 0.0 } else { v - values[i - 1] };
            out.push(self.symbolize(delta));
        }
        out
    }
}

impl Symbolizer for TrendSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Interprets `value` as a delta between consecutive samples.
    fn symbolize(&self, value: f64) -> SymbolId {
        if value < -self.tolerance {
            SymbolId(0) // Down
        } else if value > self.tolerance {
            SymbolId(2) // Up
        } else {
            SymbolId(1) // Steady
        }
    }
}

#[cfg(test)]
mod extra_symbolizer_tests {
    use super::*;

    #[test]
    fn sax_bins_are_roughly_equiprobable_on_gaussian_data() {
        // Deterministic pseudo-gaussian via sum of uniforms.
        let mut state = 0x12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let data: Vec<f64> = (0..4000)
            .map(|_| (0..12).map(|_| next()).sum::<f64>() - 6.0)
            .collect();
        let sax = SaxSymbolizer::from_data(4, &data);
        let mut counts = [0usize; 4];
        for &v in &data {
            counts[sax.symbolize(v).0 as usize] += 1;
        }
        for c in counts {
            assert!(
                (700..=1300).contains(&c),
                "expected roughly equiprobable bins, got {counts:?}"
            );
        }
    }

    #[test]
    fn sax_monotone_in_value() {
        let data: Vec<f64> = (0..100).map(f64::from).collect();
        let sax = SaxSymbolizer::from_data(6, &data);
        let mut prev = sax.symbolize(-1e3);
        for v in [-50.0, 0.0, 25.0, 50.0, 75.0, 99.0, 1e3] {
            let cur = sax.symbolize(v);
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    #[should_panic(expected = "constant data")]
    fn sax_rejects_constant_data() {
        let _ = SaxSymbolizer::from_data(4, &[3.0; 10]);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn sax_rejects_huge_alphabet() {
        let _ = SaxSymbolizer::from_data(11, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn trend_series_encoding() {
        let t = TrendSymbolizer::new(0.5);
        let syms = t.symbolize_series(&[10.0, 10.2, 12.0, 11.0, 11.1]);
        let labels: Vec<&str> = syms.iter().map(|&s| t.alphabet().label(s)).collect();
        assert_eq!(labels, vec!["Steady", "Steady", "Up", "Down", "Steady"]);
    }

    #[test]
    fn trend_tolerance_boundary() {
        let t = TrendSymbolizer::new(1.0);
        assert_eq!(t.alphabet().label(t.symbolize(1.0)), "Steady");
        assert_eq!(t.alphabet().label(t.symbolize(1.0001)), "Up");
        assert_eq!(t.alphabet().label(t.symbolize(-1.0001)), "Down");
    }
}
