/// Index of a symbol within an [`Alphabet`] (`ω ∈ Σ_X` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u16);

/// A finite, ordered set of symbol labels — the symbol alphabet `Σ_X` of a
/// time series (Def 3.2).
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::Alphabet;
///
/// let onoff = Alphabet::on_off();
/// assert_eq!(onoff.len(), 2);
/// assert_eq!(onoff.label(onoff.lookup("On").unwrap()), "On");
///
/// // A label may appear only once.
/// assert!(Alphabet::new(["Low", "Low"]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    labels: Vec<String>,
}

impl Alphabet {
    /// Builds an alphabet from symbol labels.
    ///
    /// # Errors
    ///
    /// Returns an [`AlphabetError`] if `labels` is empty, has more than
    /// `u16::MAX` entries, or repeats a label.
    pub fn new<S: Into<String>>(
        labels: impl IntoIterator<Item = S>,
    ) -> Result<Self, AlphabetError> {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        if labels.is_empty() {
            return Err(AlphabetError::Empty);
        }
        if labels.len() > u16::MAX as usize {
            return Err(AlphabetError::TooLarge {
                labels: labels.len(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        if let Some(label) = labels.iter().find(|l| !seen.insert(l.as_str())) {
            return Err(AlphabetError::Duplicate {
                label: label.clone(),
            });
        }
        Ok(Alphabet { labels })
    }

    /// The binary `{Off, On}` alphabet used for the energy datasets
    /// (paper Section VI-A2). `Off` is symbol 0, `On` is symbol 1.
    pub fn on_off() -> Self {
        Alphabet {
            labels: vec!["Off".to_owned(), "On".to_owned()],
        }
    }

    /// Number of symbols (`n_x` in Theorem 1).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the alphabet has no symbols (never true for constructed
    /// alphabets; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn label(&self, id: SymbolId) -> &str {
        &self.labels[id.0 as usize]
    }

    /// Finds a symbol by label.
    pub fn lookup(&self, label: &str) -> Option<SymbolId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| SymbolId(i as u16))
    }

    /// Iterates over all symbol ids in order.
    pub fn ids(&self) -> impl Iterator<Item = SymbolId> {
        (0..self.labels.len() as u16).map(SymbolId)
    }
}

/// Why [`Alphabet::new`] rejected its labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlphabetError {
    /// No label was given.
    Empty,
    /// More labels than the `u16::MAX` a [`SymbolId`] can number.
    TooLarge {
        /// The number of labels given.
        labels: usize,
    },
    /// A label appears more than once.
    Duplicate {
        /// The first label that repeats an earlier one.
        label: String,
    },
}

impl std::fmt::Display for AlphabetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlphabetError::Empty => write!(f, "an alphabet needs at least one label"),
            AlphabetError::TooLarge { labels } => write!(
                f,
                "{labels} labels are too many for an alphabet; at most {} fit",
                u16::MAX
            ),
            AlphabetError::Duplicate { label } => {
                write!(f, "the label {label:?} appears twice in the alphabet")
            }
        }
    }
}

impl std::error::Error for AlphabetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_off_layout() {
        let a = Alphabet::on_off();
        assert_eq!(a.lookup("Off"), Some(SymbolId(0)));
        assert_eq!(a.lookup("On"), Some(SymbolId(1)));
        assert_eq!(a.lookup("Maybe"), None);
    }

    #[test]
    fn ids_are_dense() {
        let a = Alphabet::new(["Low", "Mid", "High"]).unwrap();
        assert_eq!(
            a.ids().collect::<Vec<_>>(),
            vec![SymbolId(0), SymbolId(1), SymbolId(2)]
        );
    }

    #[test]
    fn on_off_is_a_valid_alphabet() {
        assert_eq!(Alphabet::new(["Off", "On"]), Ok(Alphabet::on_off()));
    }

    #[test]
    fn duplicate_labels_are_an_error() {
        let err = Alphabet::new(["A", "B", "A", "B"]).unwrap_err();
        assert_eq!(
            err,
            AlphabetError::Duplicate {
                label: "A".to_owned()
            }
        );
        assert_eq!(
            err.to_string(),
            "the label \"A\" appears twice in the alphabet"
        );
    }

    #[test]
    fn empty_alphabet_is_an_error() {
        let err = Alphabet::new(Vec::<String>::new()).unwrap_err();
        assert_eq!(err, AlphabetError::Empty);
        assert_eq!(err.to_string(), "an alphabet needs at least one label");
    }

    /// `u16::MAX` labels fit; one more is an error.
    #[test]
    fn too_many_labels_are_an_error() {
        let labels = |n: usize| (0..n).map(|i| i.to_string());
        let max = u16::MAX as usize;
        assert_eq!(Alphabet::new(labels(max)).map(|a| a.len()), Ok(max));
        let err = Alphabet::new(labels(max + 1)).unwrap_err();
        assert_eq!(err, AlphabetError::TooLarge { labels: max + 1 });
        assert_eq!(
            err.to_string(),
            "65536 labels are too many for an alphabet; at most 65535 fit"
        );
    }
}
