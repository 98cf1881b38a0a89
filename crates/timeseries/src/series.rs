/// A univariate time series `X = x_1, …, x_n` (Def 3.1): chronologically
/// ordered numeric samples at a regular interval.
///
/// Timestamps are abstract integer ticks: sample `i` is observed at
/// `start + i * step`. Callers choose the unit (the examples use minutes).
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::TimeSeries;
///
/// let ts = TimeSeries::new("kitchen", 0, 5, vec![1.61, 1.21, 0.41, 0.0]);
/// assert_eq!(ts.len(), 4);
/// assert_eq!(ts.time_at(2), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    start: i64,
    step: i64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a time series.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn new(name: impl Into<String>, start: i64, step: i64, values: Vec<f64>) -> Self {
        assert!(step > 0, "sampling step must be positive");
        TimeSeries {
            name: name.into(),
            start,
            step,
            values,
        }
    }

    /// Variable name (e.g. the appliance or sensor this series measures).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Timestamp of the first sample.
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Sampling interval in ticks.
    pub fn step(&self) -> i64 {
        self.step
    }

    /// The raw sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamp of sample `i`.
    pub fn time_at(&self, i: usize) -> i64 {
        self.start + self.step * i as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_follow_step() {
        let ts = TimeSeries::new("x", 100, 15, vec![0.0; 3]);
        assert_eq!(ts.time_at(0), 100);
        assert_eq!(ts.time_at(1), 115);
        assert_eq!(ts.time_at(2), 130);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = TimeSeries::new("x", 0, 0, vec![]);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new("x", 0, 1, vec![]);
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
    }
}
