use crate::alphabet::{Alphabet, SymbolId};
use crate::series::TimeSeries;
use crate::symbolizer::Symbolizer;

/// Index of a variable (one symbolic series) within a [`SymbolicDatabase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VariableId(pub u32);

/// The symbolic representation `X_S` of one time series (Def 3.2): one
/// symbol per sampling step.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicSeries {
    name: String,
    alphabet: Alphabet,
    symbols: Vec<SymbolId>,
}

impl SymbolicSeries {
    /// Creates a symbolic series from pre-computed symbols.
    ///
    /// # Panics
    ///
    /// Panics if any symbol is outside the alphabet.
    pub fn new(name: impl Into<String>, alphabet: Alphabet, symbols: Vec<SymbolId>) -> Self {
        assert!(
            symbols.iter().all(|s| (s.0 as usize) < alphabet.len()),
            "symbol outside alphabet"
        );
        SymbolicSeries {
            name: name.into(),
            alphabet,
            symbols,
        }
    }

    /// Symbolizes a raw time series.
    pub fn from_time_series(ts: &TimeSeries, symbolizer: &dyn Symbolizer) -> Self {
        SymbolicSeries {
            name: ts.name().to_owned(),
            alphabet: symbolizer.alphabet().clone(),
            symbols: symbolizer.symbolize_all(ts.values()),
        }
    }

    /// Parses a series from symbol labels, e.g. `["On", "Off", "On"]`.
    ///
    /// # Panics
    ///
    /// Panics if a label is not in the alphabet.
    pub fn from_labels(
        name: impl Into<String>,
        alphabet: Alphabet,
        labels: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented # Panics contract: labels of the alphabet"
        )]
        let symbols = labels
            .into_iter()
            .map(|l| {
                let l = l.as_ref();
                alphabet
                    .lookup(l)
                    .unwrap_or_else(|| panic!("label {l:?} not in alphabet"))
            })
            .collect();
        SymbolicSeries {
            name: name.into(),
            alphabet,
            symbols,
        }
    }

    /// Variable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The alphabet `Σ_X`.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The symbols, one per time step.
    pub fn symbols(&self) -> &[SymbolId] {
        &self.symbols
    }

    /// Number of time steps.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True iff the series has no steps.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Relative frequency of each symbol — the marginal distribution
    /// `p(x)` used by the entropy and MI computations (Defs 5.1–5.2).
    ///
    /// Returns one probability per alphabet symbol (zero for unused ones).
    pub fn symbol_probabilities(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.alphabet.len()];
        for s in &self.symbols {
            counts[s.0 as usize] += 1;
        }
        let n = self.symbols.len().max(1) as f64;
        counts.into_iter().map(|c| c as f64 / n).collect()
    }
}

/// Why [`SymbolicDatabase::try_new`] rejected a clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockError {
    /// The step is zero or negative.
    NonPositiveStep {
        /// The offending step.
        step: i64,
    },
    /// The clock's span `n_steps × step`, or its end `start + span`,
    /// does not fit in `i64`.
    EndOverflows {
        /// Timestamp of step 0.
        start: i64,
        /// Step duration in ticks.
        step: i64,
        /// Number of steps.
        n_steps: usize,
    },
}

impl std::fmt::Display for ClockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ClockError::NonPositiveStep { step } => {
                write!(f, "step must be positive, got {step}")
            }
            ClockError::EndOverflows {
                start,
                step,
                n_steps,
            } => write!(
                f,
                "clock overflows i64: {n_steps} steps of {step} from {start}"
            ),
        }
    }
}

impl std::error::Error for ClockError {}

/// The symbolic database `D_SYB` (Def 3.3, Table I): a set of symbolic
/// series aligned on a common clock.
///
/// All series share the same number of steps, start time and step duration,
/// so step `i` of every series describes the same wall-clock interval
/// `[start + i·step, start + (i+1)·step)`. The whole clock, up to its end
/// `start + n_steps·step`, lies in the `i64` tick range, so every step
/// boundary and every duration between two of them is representable.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicDatabase {
    series: Vec<SymbolicSeries>,
    start: i64,
    step: i64,
    n_steps: usize,
}

impl SymbolicDatabase {
    /// Creates an empty database on the given clock.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`, or if the clock's end `start + n_steps·step`
    /// does not fit in `i64`; [`SymbolicDatabase::try_new`] is the
    /// fallible path.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; try_new is the fallible path"
    )]
    pub fn new(start: i64, step: i64, n_steps: usize) -> Self {
        SymbolicDatabase::try_new(start, step, n_steps).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`SymbolicDatabase::new`] for clocks that
    /// come from user input.
    ///
    /// # Errors
    ///
    /// Returns a [`ClockError`] if `step <= 0`, or if the span
    /// `n_steps·step` or the end `start + n_steps·step` does not fit in
    /// `i64` (a clock may end exactly at `i64::MAX`).
    pub fn try_new(start: i64, step: i64, n_steps: usize) -> Result<Self, ClockError> {
        if step <= 0 {
            return Err(ClockError::NonPositiveStep { step });
        }
        let end = i64::try_from(n_steps)
            .ok()
            .and_then(|n| n.checked_mul(step))
            .and_then(|span| start.checked_add(span));
        if end.is_none() {
            return Err(ClockError::EndOverflows {
                start,
                step,
                n_steps,
            });
        }
        Ok(SymbolicDatabase {
            series: Vec::new(),
            start,
            step,
            n_steps,
        })
    }

    /// Symbolizes and adds a raw time series.
    ///
    /// # Panics
    ///
    /// Panics if the series clock or length disagrees with the database.
    pub fn add_time_series(
        &mut self,
        ts: &TimeSeries,
        symbolizer: &dyn Symbolizer,
    ) -> VariableId {
        assert_eq!(ts.start(), self.start, "series start mismatch");
        assert_eq!(ts.step(), self.step, "series step mismatch");
        self.push(SymbolicSeries::from_time_series(ts, symbolizer))
    }

    /// Adds an already-symbolic series.
    ///
    /// # Panics
    ///
    /// Panics if the length disagrees with the database.
    pub fn push(&mut self, series: SymbolicSeries) -> VariableId {
        assert_eq!(
            series.len(),
            self.n_steps,
            "series {} has {} steps, database expects {}",
            series.name(),
            series.len(),
            self.n_steps,
        );
        let id = VariableId(self.series.len() as u32);
        self.series.push(series);
        id
    }

    /// Number of variables.
    pub fn n_variables(&self) -> usize {
        self.series.len()
    }

    /// Number of time steps per series.
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// Timestamp of step 0.
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Step duration in ticks.
    pub fn step(&self) -> i64 {
        self.step
    }

    /// Timestamp at which step `i` begins.
    pub fn time_at(&self, i: usize) -> i64 {
        self.start + self.step * i as i64
    }

    /// The series of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn series(&self, id: VariableId) -> &SymbolicSeries {
        &self.series[id.0 as usize]
    }

    /// Iterates over `(id, series)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VariableId, &SymbolicSeries)> {
        self.series
            .iter()
            .enumerate()
            .map(|(i, s)| (VariableId(i as u32), s))
    }

    /// Finds a variable by name.
    pub fn lookup(&self, name: &str) -> Option<VariableId> {
        self.series
            .iter()
            .position(|s| s.name() == name)
            .map(|i| VariableId(i as u32))
    }

    /// Returns a copy restricted to the step range `[lo, hi)`, keeping
    /// every variable and the absolute clock: step 0 of the slice is step
    /// `lo` of this database and starts at the same wall-clock time. Used
    /// by shard-by-time-range mining, where each shard converts and mines
    /// only its own slice of the data.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi <= n_steps`.
    pub fn slice_steps(&self, lo: usize, hi: usize) -> SymbolicDatabase {
        assert!(
            lo < hi && hi <= self.n_steps,
            "invalid step slice [{lo}, {hi}) of {} steps",
            self.n_steps
        );
        SymbolicDatabase {
            series: self
                .series
                .iter()
                .map(|s| {
                    SymbolicSeries::new(
                        s.name(),
                        s.alphabet().clone(),
                        s.symbols()[lo..hi].to_vec(),
                    )
                })
                .collect(),
            start: self.time_at(lo),
            step: self.step,
            n_steps: hi - lo,
        }
    }

    /// Returns a copy restricted to the given variables, preserving order.
    /// Used by A-HTPGM to mine only the correlated subset `X_C` and by the
    /// Fig 12/13 attribute-scalability experiments.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn project(&self, vars: &[VariableId]) -> SymbolicDatabase {
        SymbolicDatabase {
            series: vars
                .iter()
                .map(|v| self.series[v.0 as usize].clone())
                .collect(),
            start: self.start,
            step: self.step,
            n_steps: self.n_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolizer::ThresholdSymbolizer;

    fn db_with(names: &[&str], rows: &[&str]) -> SymbolicDatabase {
        let mut db = SymbolicDatabase::new(0, 5, rows[0].len());
        for (name, row) in names.iter().zip(rows) {
            let labels: Vec<String> = row
                .chars()
                .map(|c| if c == '1' { "On".into() } else { "Off".into() })
                .collect();
            db.push(SymbolicSeries::from_labels(*name, Alphabet::on_off(), labels));
        }
        db
    }

    #[test]
    fn push_and_lookup() {
        let db = db_with(&["K", "T"], &["1100", "0110"]);
        assert_eq!(db.n_variables(), 2);
        assert_eq!(db.lookup("T"), Some(VariableId(1)));
        assert_eq!(db.lookup("Z"), None);
        assert_eq!(db.series(VariableId(0)).name(), "K");
    }

    #[test]
    #[should_panic(expected = "steps")]
    fn mismatched_length_panics() {
        let mut db = SymbolicDatabase::new(0, 5, 4);
        db.push(SymbolicSeries::from_labels(
            "K",
            Alphabet::on_off(),
            ["On", "Off"],
        ));
    }

    #[test]
    fn add_time_series_symbolizes() {
        let mut db = SymbolicDatabase::new(0, 5, 4);
        let ts = TimeSeries::new("k", 0, 5, vec![1.61, 1.21, 0.41, 0.0]);
        let id = db.add_time_series(&ts, &ThresholdSymbolizer::new(0.5));
        let s = db.series(id);
        let labels: Vec<&str> = s.symbols().iter().map(|&x| s.alphabet().label(x)).collect();
        assert_eq!(labels, vec!["On", "On", "Off", "Off"]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let db = db_with(&["K"], &["110010"]);
        let p = db.series(VariableId(0)).symbol_probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12); // three Ons out of six
    }

    #[test]
    fn project_preserves_order_and_clock() {
        let db = db_with(&["A", "B", "C"], &["10", "01", "11"]);
        let sub = db.project(&[VariableId(2), VariableId(0)]);
        assert_eq!(sub.n_variables(), 2);
        assert_eq!(sub.series(VariableId(0)).name(), "C");
        assert_eq!(sub.series(VariableId(1)).name(), "A");
        assert_eq!(sub.step(), db.step());
    }

    #[test]
    fn slice_steps_keeps_clock_and_variables() {
        let db = db_with(&["K", "T"], &["110010", "011011"]);
        let slice = db.slice_steps(2, 5);
        assert_eq!(slice.n_variables(), 2);
        assert_eq!(slice.n_steps(), 3);
        assert_eq!(slice.step(), db.step());
        // Absolute clock preserved: slice step 0 == db step 2.
        assert_eq!(slice.start(), db.time_at(2));
        assert_eq!(slice.time_at(1), db.time_at(3));
        assert_eq!(
            slice.series(VariableId(0)).symbols(),
            &db.series(VariableId(0)).symbols()[2..5]
        );
    }

    #[test]
    #[should_panic(expected = "invalid step slice")]
    fn slice_steps_rejects_reversed_range() {
        let db = db_with(&["K"], &["1100"]);
        let _ = db.slice_steps(3, 3);
    }

    #[test]
    fn try_new_rejects_a_clock_that_ends_past_i64() {
        let max = i64::MAX;
        assert_eq!(
            SymbolicDatabase::try_new(max - 5, 5, 2),
            Err(ClockError::EndOverflows {
                start: max - 5,
                step: 5,
                n_steps: 2
            })
        );
        // The span alone overflows, although the end would fit.
        assert!(SymbolicDatabase::try_new(i64::MIN, 1 << 62, 3).is_err());
        assert!(SymbolicDatabase::try_new(0, 1, usize::MAX).is_err());
        assert_eq!(
            SymbolicDatabase::try_new(0, 0, 4),
            Err(ClockError::NonPositiveStep { step: 0 })
        );
        assert!(SymbolicDatabase::try_new(0, -5, 4).is_err());
        // Clocks at either end of the range that fit.
        let db = SymbolicDatabase::try_new(max - 10, 5, 2).expect("ends exactly at i64::MAX");
        assert_eq!(db.time_at(2), max);
        let db = SymbolicDatabase::try_new(i64::MIN, 1 << 62, 1).expect("starts at i64::MIN");
        assert_eq!(db.time_at(1), i64::MIN + (1 << 62));
    }

    #[test]
    #[should_panic(expected = "clock overflows")]
    fn new_panics_on_a_clock_that_ends_past_i64() {
        let _ = SymbolicDatabase::new(i64::MAX - 5, 5, 2);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn new_panics_on_a_non_positive_step() {
        let _ = SymbolicDatabase::new(0, 0, 2);
    }

    #[test]
    fn time_at_follows_clock() {
        let db = SymbolicDatabase::new(600, 5, 36);
        assert_eq!(db.time_at(0), 600);
        assert_eq!(db.time_at(35), 600 + 35 * 5);
    }
}
