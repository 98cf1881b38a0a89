use crate::alphabet::{Alphabet, AlphabetError, SymbolId};

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
    /// # Errors
    ///
    /// Returns a [`QuantileError`] if `labels` is not a valid
    /// [`Alphabet`], the breakpoint count does not match the label count,
    /// a breakpoint is NaN or infinite, or the breakpoints are not
    /// strictly ascending.
    pub fn with_breaks<S: Into<String>>(
        labels: impl IntoIterator<Item = S>,
        breaks: Vec<f64>,
    ) -> Result<Self, QuantileError> {
        let alphabet = Alphabet::new(labels)?;
        if breaks.len() != alphabet.len() - 1 {
            return Err(QuantileError::BreakCount {
                states: alphabet.len(),
                breaks: breaks.len(),
            });
        }
        if let Some(index) = breaks.iter().position(|b| !b.is_finite()) {
            return Err(QuantileError::NonFiniteBreak {
                index,
                value: breaks[index],
            });
        }
        if let Some(index) = breaks.windows(2).position(|w| w[0] >= w[1]) {
            return Err(QuantileError::UnorderedBreaks { index: index + 1 });
        }
        Ok(QuantileSymbolizer { breaks, alphabet })
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
    /// Returns a [`QuantileError`] if `labels` is not a valid
    /// [`Alphabet`], `data` is empty, holds a NaN or infinite sample, or
    /// has quantiles that collide (e.g. constant data, or fewer distinct
    /// values than labels).
    pub fn from_data<S: Into<String>>(
        labels: impl IntoIterator<Item = S>,
        data: &[f64],
    ) -> Result<Self, QuantileError> {
        let alphabet = Alphabet::new(labels)?;
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

/// Why [`QuantileSymbolizer::from_data`] could not derive breakpoints,
/// or [`QuantileSymbolizer::with_breaks`] could not use them.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantileError {
    /// The labels do not make an [`Alphabet`].
    Alphabet(AlphabetError),
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
    /// `states` labels need `states - 1` breakpoints, not `breaks`.
    BreakCount {
        /// The number of states (labels).
        states: usize,
        /// The number of breakpoints given.
        breaks: usize,
    },
    /// The breakpoint at `index` is NaN or infinite.
    NonFiniteBreak {
        /// Position of the first non-finite breakpoint.
        index: usize,
        /// The breakpoint itself.
        value: f64,
    },
    /// The breakpoint at `index` is not above the one before it.
    UnorderedBreaks {
        /// Position of the first breakpoint out of order.
        index: usize,
    },
}

impl From<AlphabetError> for QuantileError {
    fn from(err: AlphabetError) -> Self {
        QuantileError::Alphabet(err)
    }
}

impl std::fmt::Display for QuantileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QuantileError::Alphabet(ref err) => err.fmt(f),
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
            QuantileError::BreakCount { states, breaks } => write!(
                f,
                "the breakpoint count is {breaks}, but {states} states need {}",
                states - 1
            ),
            QuantileError::NonFiniteBreak { index, value } => {
                write!(
                    f,
                    "breakpoint {index} is {value}; breakpoints must be finite"
                )
            }
            QuantileError::UnorderedBreaks { index } => write!(
                f,
                "breakpoint {index} is not above breakpoint {}; breakpoints must be strictly \
                 ascending",
                index - 1
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
        let s = QuantileSymbolizer::with_breaks(["Low", "Mid", "High"], vec![10.0, 20.0]).unwrap();
        assert_eq!(s.symbolize(-5.0), SymbolId(0));
        assert_eq!(s.symbolize(9.99), SymbolId(0));
        assert_eq!(s.symbolize(10.0), SymbolId(1));
        assert_eq!(s.symbolize(19.99), SymbolId(1));
        assert_eq!(s.symbolize(20.0), SymbolId(2));
        assert_eq!(s.symbolize(1e9), SymbolId(2));
    }

    #[test]
    fn unsorted_breaks_are_an_error() {
        for breaks in [vec![2.0, 1.0], vec![1.0, 1.0]] {
            let err = QuantileSymbolizer::with_breaks(["A", "B", "C"], breaks).unwrap_err();
            assert_eq!(err, QuantileError::UnorderedBreaks { index: 1 });
            assert!(err.to_string().contains("strictly ascending"), "{err}");
        }
    }

    #[test]
    fn a_wrong_break_count_is_an_error() {
        let err = QuantileSymbolizer::with_breaks(["A", "B"], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            QuantileError::BreakCount {
                states: 2,
                breaks: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "the breakpoint count is 2, but 2 states need 1"
        );
        let err = QuantileSymbolizer::with_breaks(["A", "B", "C"], vec![]).unwrap_err();
        assert_eq!(
            err,
            QuantileError::BreakCount {
                states: 3,
                breaks: 0
            }
        );
    }

    #[test]
    fn a_non_finite_break_is_an_error() {
        // One breakpoint has no pair to compare, so only the finiteness
        // check catches a NaN (which would map every sample to symbol 0).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = QuantileSymbolizer::with_breaks(["A", "B"], vec![bad]).unwrap_err();
            assert!(
                matches!(err, QuantileError::NonFiniteBreak { index: 0, value } if value.to_bits() == bad.to_bits()),
                "{err:?}"
            );
            assert!(err.to_string().starts_with("breakpoint 0 is "), "{err}");
        }
        let err =
            QuantileSymbolizer::with_breaks(["A", "B", "C"], vec![1.0, f64::NAN]).unwrap_err();
        assert!(
            matches!(err, QuantileError::NonFiniteBreak { index: 1, .. }),
            "{err:?}"
        );
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

    /// Labels that make no alphabet are a typed error from both
    /// constructors, checked before the breakpoints or the data.
    #[test]
    fn quantile_constructors_reject_invalid_labels() {
        let duplicate = QuantileError::Alphabet(AlphabetError::Duplicate {
            label: "A".to_owned(),
        });
        let errors = [
            QuantileSymbolizer::with_breaks(["A", "A"], vec![1.0]).unwrap_err(),
            QuantileSymbolizer::from_data(["A", "A"], &[1.0, 2.0]).unwrap_err(),
        ];
        for err in errors {
            assert_eq!(err, duplicate);
            assert_eq!(
                err.to_string(),
                "the label \"A\" appears twice in the alphabet"
            );
        }
        let empty = QuantileSymbolizer::from_data(Vec::<String>::new(), &[]).unwrap_err();
        assert_eq!(empty, QuantileError::Alphabet(AlphabetError::Empty));
    }

    proptest! {
        #[test]
        fn prop_quantile_symbol_in_alphabet(v in -1e6f64..1e6) {
            let s = QuantileSymbolizer::with_breaks(
                ["A", "B", "C", "D"], vec![-10.0, 0.0, 10.0]).unwrap();
            let id = s.symbolize(v);
            prop_assert!((id.0 as usize) < s.alphabet().len());
        }

        #[test]
        fn prop_quantile_monotone(a in -1e6f64..1e6, b in -1e6f64..1e6) {
            let s = QuantileSymbolizer::with_breaks(
                ["A", "B", "C"], vec![-1.0, 1.0]).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(s.symbolize(lo) <= s.symbolize(hi));
        }
    }
}
