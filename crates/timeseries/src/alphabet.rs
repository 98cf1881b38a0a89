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
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    labels: Vec<String>,
}

impl Alphabet {
    /// Builds an alphabet from symbol labels.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty, contains duplicates, or has more than
    /// `u16::MAX` entries.
    pub fn new<S: Into<String>>(labels: impl IntoIterator<Item = S>) -> Self {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        assert!(!labels.is_empty(), "alphabet must not be empty");
        assert!(labels.len() <= u16::MAX as usize, "alphabet too large");
        let mut seen = std::collections::HashSet::new();
        for l in &labels {
            assert!(seen.insert(l.as_str()), "duplicate symbol label {l:?}");
        }
        Alphabet { labels }
    }

    /// The binary `{Off, On}` alphabet used for the energy datasets
    /// (paper Section VI-A2). `Off` is symbol 0, `On` is symbol 1.
    pub fn on_off() -> Self {
        Alphabet::new(["Off", "On"])
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
        let a = Alphabet::new(["Low", "Mid", "High"]);
        assert_eq!(a.ids().collect::<Vec<_>>(), vec![SymbolId(0), SymbolId(1), SymbolId(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate symbol label")]
    fn duplicate_labels_panic() {
        let _ = Alphabet::new(["A", "A"]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_alphabet_panics() {
        let _ = Alphabet::new(Vec::<String>::new());
    }
}
