use ftpm_timeseries::{SymbolId, SymbolicDatabase, SymbolicSeries};

use crate::event::EventRegistry;
use crate::instance::{EventInstance, Interval};
use crate::sequence::{SequenceDatabase, TemporalSequence};

/// Configuration of the D_SYB → D_SEQ conversion (Section IV-B2, Fig 3).
///
/// The symbolic database is cut into windows of `window` ticks; consecutive
/// windows overlap by `overlap` ticks (`t_ov`). `overlap = 0` is the plain
/// equal-length split (no redundancy, possible pattern loss at the cut
/// points); `overlap = t_max` guarantees that every pattern of duration at
/// most `t_max` survives in some window (Fig 3b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitConfig {
    /// Window length `t` in ticks.
    pub window: i64,
    /// Overlap `t_ov ∈ [0, window)` between consecutive windows, in ticks.
    pub overlap: i64,
}

impl SplitConfig {
    /// Creates a split config.
    ///
    /// # Panics
    ///
    /// Panics unless `window > 0` and `0 ≤ overlap < window`.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; try_new is the fallible path"
    )]
    pub fn new(window: i64, overlap: i64) -> Self {
        SplitConfig::try_new(window, overlap).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`SplitConfig::new`] for values that come
    /// from user input: returns a message instead of panicking when
    /// `window <= 0` or `overlap ∉ [0, window)`.
    pub fn try_new(window: i64, overlap: i64) -> Result<Self, String> {
        if window <= 0 {
            return Err(format!("window must be positive, got {window}"));
        }
        if !(0..window).contains(&overlap) {
            return Err(format!(
                "overlap must be in [0, window), got overlap {overlap} with window {window}"
            ));
        }
        Ok(SplitConfig { window, overlap })
    }

    /// Distance between consecutive window starts.
    pub fn stride(&self) -> i64 {
        self.window - self.overlap
    }

    /// The config actually applied to a database sampled every `step`
    /// ticks: windows are aligned to whole sampling steps, so `window`
    /// and `overlap` are each rounded *down* to step boundaries (window
    /// to at least one step, overlap to at most `window − step` so the
    /// stride stays positive).
    ///
    /// Rounding the window and the stride independently — the historical
    /// behaviour — could silently *grow* the effective overlap beyond
    /// the requested one (e.g. `window = 20, overlap = 9, step = 10`
    /// yielded a 10-tick overlap). Rounding window and overlap down
    /// keeps `effective.overlap ≤ overlap` always. Use this to report
    /// the geometry a run really used.
    ///
    /// # Panics
    ///
    /// Panics unless `step > 0`.
    pub fn effective(&self, step: i64) -> SplitConfig {
        assert!(step > 0, "step must be positive, got {step}");
        let win_steps = (self.window / step).max(1);
        let ov_steps = (self.overlap / step).min(win_steps - 1);
        SplitConfig {
            window: win_steps * step,
            overlap: ov_steps * step,
        }
    }
}

impl std::fmt::Display for SplitConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "window {} overlap {}", self.window, self.overlap)
    }
}

/// The geometry of one time-range shard of a sharded mining run: which
/// slice of the symbolic database the shard converts and mines, and which
/// of the resulting windows it *owns* for support counting.
///
/// Shard slices overlap their neighbours: each slice is padded by at
/// least `t_ov` ticks on both sides (the left pad rounded up to a whole
/// stride so the shard's windows stay on the global window grid). The
/// padding serves two purposes: windows near the shard cut exist complete
/// in at least one shard, and run extents truncated at a slice edge are
/// guaranteed longer than `t_ov` — so with `t_ov = t_max` and
/// [`crate::BoundaryPolicy::TrueExtent`] no truncated extent can ever
/// satisfy the `t_max` duration constraint, which is what makes
/// shard-by-time-range mining lossless (the PR 3 window lemma, one level
/// up). Windows inside the padding are *duplicated* across the two
/// adjacent shards; ownership ranges partition the global window index
/// space, so a merge that counts only owned windows counts every window
/// exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpan {
    /// Step range `[lo, hi)` of the symbolic slice this shard converts.
    /// `lo` is always a whole number of strides, so the slice's windows
    /// coincide with the global window grid.
    pub slice_steps: (usize, usize),
    /// Global window indices `[lo, hi)` this shard owns. Ownership ranges
    /// of consecutive shards tile `0..n_windows` without gaps or overlap.
    pub owned_windows: (usize, usize),
    /// Global index of the first window the shard's slice emits (its
    /// windows are `first_window, first_window + 1, …` in order).
    pub first_window: usize,
}

impl SplitConfig {
    /// Number of full windows this split emits over `n_steps` samples of
    /// `step` ticks (after [`SplitConfig::effective`] rounding).
    ///
    /// # Panics
    ///
    /// Panics unless `step > 0`.
    pub fn n_windows(&self, step: i64, n_steps: usize) -> usize {
        let eff = self.effective(step);
        let win = (eff.window / step) as usize;
        let stride = (eff.stride() / step) as usize;
        if n_steps < win {
            0
        } else {
            (n_steps - win) / stride + 1
        }
    }

    /// Cuts a database of `n_steps` samples into (at most) `shards`
    /// time-range shards whose slices overlap by at least `t_ov` ticks —
    /// the shard-level counterpart of the window overlap of Fig 3.
    ///
    /// The window index space is split into contiguous, near-equal owned
    /// ranges; each shard's slice covers its owned windows plus a pad of
    /// at least `max(t_ov, 1 step)` ticks on both sides (clamped at the
    /// database edges, where the global conversion has nothing more to
    /// see either). Asking for more shards than there are windows yields
    /// one shard per window.
    ///
    /// Returns an error when `step <= 0`, `t_ov < 0`, `shards == 0`, or
    /// no full window fits in `n_steps`.
    pub fn shard_spans(
        &self,
        step: i64,
        n_steps: usize,
        shards: usize,
        t_ov: i64,
    ) -> Result<Vec<ShardSpan>, String> {
        if step <= 0 {
            return Err(format!("step must be positive, got {step}"));
        }
        if t_ov < 0 {
            return Err(format!(
                "shard overlap t_ov must be non-negative, got {t_ov}"
            ));
        }
        if shards == 0 {
            return Err("need at least one shard".into());
        }
        let eff = self.effective(step);
        let win = (eff.window / step) as usize;
        let stride = (eff.stride() / step) as usize;
        if n_steps < win {
            return Err(format!(
                "no full window fits: window {} needs {win} steps, database has {n_steps}",
                eff.window
            ));
        }
        let n_windows = (n_steps - win) / stride + 1;
        let k = shards.min(n_windows);
        // Overlap in steps, rounded up; clamping to n_steps keeps the
        // arithmetic small even for "unconstrained" t_max-sized overlaps.
        let t_ov_steps = ((t_ov as u128).div_ceil(step as u128)).min(n_steps as u128) as usize;
        // The pads guarantee >= 1 step beyond every owned window (so the
        // slice reproduces the global clipped-side flags) and >= t_ov
        // ticks (so truncated extents exceed t_ov). The left pad rounds
        // up to whole strides to stay on the window grid.
        let pad_right = t_ov_steps.max(1);
        let pad_left = t_ov_steps.div_ceil(stride).max(1) * stride;
        let mut spans = Vec::with_capacity(k);
        for s in 0..k {
            let lo_w = s * n_windows / k;
            let hi_w = (s + 1) * n_windows / k;
            let owned_start_step = lo_w * stride;
            let owned_end_step = (hi_w - 1) * stride + win;
            let slice_lo = owned_start_step.saturating_sub(pad_left);
            let slice_hi = (owned_end_step + pad_right).min(n_steps);
            spans.push(ShardSpan {
                slice_steps: (slice_lo, slice_hi),
                owned_windows: (lo_w, hi_w),
                first_window: slice_lo / stride,
            });
        }
        Ok(spans)
    }
}

/// Converts a symbolic database into a temporal sequence database —
/// the second half of the paper's Data Transformation phase.
///
/// For every window and every variable, runs of identical consecutive
/// symbols are merged into one event instance (Def 3.4), clipped to the
/// window boundaries. A sample at time `t` is considered to hold during
/// `[t, t + step)`.
///
/// Every instance also carries the **true extent** of its run — the full
/// `[run start, run end)` interval in the underlying data, looking across
/// window boundaries (and across the overlap region) — plus flags saying
/// which side(s) the window clipped. The extent is what
/// [`crate::BoundaryPolicy::TrueExtent`] mines on; with the default
/// [`crate::BoundaryPolicy::Clip`] the clipped interval is used and the
/// output is unchanged from previous versions.
///
/// Windows are aligned to whole sampling steps: `window` and `overlap`
/// are rounded down to step boundaries as reported by
/// [`SplitConfig::effective`]. Only full windows are emitted, matching
/// the paper's equal-length sequences. Events are named by
/// [`event_registry`].
///
/// # Examples
///
/// ```
/// use ftpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};
/// use ftpm_events::{to_sequence_database, SplitConfig};
///
/// let mut db = SymbolicDatabase::new(0, 5, 8);
/// db.push(SymbolicSeries::from_labels(
///     "K", Alphabet::on_off(),
///     ["On", "On", "Off", "Off", "On", "On", "Off", "Off"]));
/// // Two windows of 20 ticks, no overlap.
/// let seq_db = to_sequence_database(&db, SplitConfig::new(20, 0));
/// assert_eq!(seq_db.len(), 2);
/// assert_eq!(seq_db.sequences()[0].len(), 2); // K=On [0,10), K=Off [10,20)
/// ```
pub fn to_sequence_database(db: &SymbolicDatabase, split: SplitConfig) -> SequenceDatabase {
    let mut registry = event_registry(db, split);
    let sequences = to_sequences(db, split, &mut registry);
    SequenceDatabase::new(registry, sequences)
}

/// The registry of every event that occurs in a full window of `db`
/// under `split`, in the order the windows first show them: by the first
/// window holding the event's first run, then by column, then by that
/// run's start. An event whose first run starts after the last full
/// window occurs in no window and is absent.
///
/// [`to_sequence_database`] names its events by this registry, and a
/// shard slice of `db` converted with [`to_sequences`] against it gets
/// the same ids, so every conversion of `db` under `split` agrees on
/// them.
pub fn event_registry(db: &SymbolicDatabase, split: SplitConfig) -> EventRegistry {
    let step = db.step();
    let eff = split.effective(step);
    let win = (eff.window / step) as usize;
    let stride = (eff.stride() / step) as usize;
    // The steps the full windows cover.
    let covered = match split.n_windows(step, db.n_steps()) {
        0 => 0,
        n => (n - 1) * stride + win,
    };
    // The first window holding step `s` is the first that ends after it.
    let first_window = |s: usize| if s < win { 0 } else { (s - win) / stride + 1 };
    let mut firsts = Vec::new();
    for (var, series) in db.iter() {
        // A symbol's first step is the start of its first run.
        let mut seen = vec![false; series.alphabet().len()];
        let mut unseen = seen.len();
        for (s, &sym) in series.symbols().iter().take(covered).enumerate() {
            if !seen[sym.0 as usize] {
                seen[sym.0 as usize] = true;
                firsts.push((first_window(s), var, s, sym));
                unseen -= 1;
                if unseen == 0 {
                    break;
                }
            }
        }
    }
    firsts.sort_unstable();
    let mut registry = EventRegistry::new();
    for (_, var, _, sym) in firsts {
        registry.intern(var, sym, || event_label(db.series(var), sym));
    }
    registry
}

/// Converts `db` into the temporal sequences of its full windows under
/// `split` (see [`to_sequence_database`]), naming events by `registry`.
///
/// With [`event_registry`]`(db, split)`, or with the registry of a
/// database that `db` is a window-aligned step slice of (a shard slice,
/// [`SplitConfig::shard_spans`]), every event is already interned, so
/// the conversion only looks ids up. An event the registry lacks is
/// appended to it.
pub fn to_sequences(
    db: &SymbolicDatabase,
    split: SplitConfig,
    registry: &mut EventRegistry,
) -> Vec<TemporalSequence> {
    let step = db.step();
    let eff = split.effective(step);
    let win_steps = (eff.window / step) as usize;
    let stride_steps = (eff.stride() / step) as usize;
    let n_steps = db.n_steps();

    // Per-series maximal runs over the whole database, computed once so
    // every window can report the true extent of each clipped run. Entry
    // `starts[r]` is the step where run `r` begins; run `r` ends where
    // run `r + 1` begins (or at `n_steps`).
    let run_starts: Vec<Vec<usize>> = db
        .iter()
        .map(|(_, series)| {
            let symbols = series.symbols();
            let mut starts = Vec::new();
            for i in 0..symbols.len() {
                if i == 0 || symbols[i] != symbols[i - 1] {
                    starts.push(i);
                }
            }
            starts
        })
        .collect();

    let mut sequences = Vec::with_capacity(split.n_windows(step, n_steps));
    // One buffer for every window; each sequence gets an exact-size copy.
    let mut instances = Vec::new();
    let mut first = 0usize;
    while first + win_steps <= n_steps {
        let window_end = first + win_steps;
        for ((var, series), starts) in db.iter().zip(&run_starts) {
            let symbols = series.symbols();
            // Index of the run containing step `first`.
            let mut ri = starts.partition_point(|&s| s <= first) - 1;
            while ri < starts.len() && starts[ri] < window_end {
                let run_start = starts[ri];
                let run_end = starts.get(ri + 1).copied().unwrap_or(n_steps);
                let sym = symbols[run_start];
                let event = registry.intern(var, sym, || event_label(series, sym));
                instances.push(EventInstance::with_extent(
                    event,
                    Interval::new(
                        db.time_at(run_start.max(first)),
                        db.time_at(run_end.min(window_end)),
                    ),
                    Interval::new(db.time_at(run_start), db.time_at(run_end)),
                ));
                ri += 1;
            }
        }
        sequences.push(TemporalSequence::new(instances.to_vec()));
        instances.clear();
        first += stride_steps;
    }
    sequences
}

/// The display label of `sym` in `series`, e.g. `"K=On"`.
fn event_label(series: &SymbolicSeries, sym: SymbolId) -> String {
    format!("{}={}", series.name(), series.alphabet().label(sym))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use ftpm_timeseries::{Alphabet, VariableId};
    use proptest::prelude::*;

    fn onoff_db(rows: &[(&str, &str)], step: i64) -> SymbolicDatabase {
        let n = rows[0].1.len();
        let mut db = SymbolicDatabase::new(0, step, n);
        for (name, bits) in rows {
            let labels: Vec<&str> = bits
                .chars()
                .map(|c| if c == '1' { "On" } else { "Off" })
                .collect();
            db.push(SymbolicSeries::from_labels(
                *name,
                Alphabet::on_off(),
                labels,
            ));
        }
        db
    }

    #[test]
    fn runs_are_merged_into_instances() {
        let db = onoff_db(&[("K", "11001")], 1);
        let seq_db = to_sequence_database(&db, SplitConfig::new(5, 0));
        assert_eq!(seq_db.len(), 1);
        let seq = &seq_db.sequences()[0];
        assert_eq!(seq.len(), 3);
        let reg = seq_db.registry();
        let descr: Vec<(String, i64, i64)> = seq
            .instances()
            .iter()
            .map(|i| {
                (
                    reg.label(i.event).to_owned(),
                    i.interval.start,
                    i.interval.end,
                )
            })
            .collect();
        assert_eq!(
            descr,
            vec![
                ("K=On".to_owned(), 0, 2),
                ("K=Off".to_owned(), 2, 4),
                ("K=On".to_owned(), 4, 5),
            ]
        );
        assert!(
            seq.instances().iter().all(|i| !i.is_clipped()),
            "single full window clips nothing"
        );
    }

    #[test]
    fn no_overlap_split_partitions_time() {
        let db = onoff_db(&[("K", "11110000")], 5);
        let seq_db = to_sequence_database(&db, SplitConfig::new(20, 0));
        assert_eq!(seq_db.len(), 2);
        // First window: one On run [0,20); second: one Off run [20,40).
        assert_eq!(seq_db.sequences()[0].len(), 1);
        assert_eq!(seq_db.sequences()[0].instances()[0].interval.start, 0);
        assert_eq!(seq_db.sequences()[0].instances()[0].interval.end, 20);
        assert_eq!(seq_db.sequences()[1].instances()[0].interval.start, 20);
    }

    #[test]
    fn runs_are_clipped_at_window_boundaries() {
        // One long On run split across two windows.
        let db = onoff_db(&[("K", "1111")], 5);
        let seq_db = to_sequence_database(&db, SplitConfig::new(10, 0));
        assert_eq!(seq_db.len(), 2);
        assert_eq!(seq_db.sequences()[0].instances()[0].interval.end, 10);
        assert_eq!(seq_db.sequences()[1].instances()[0].interval.start, 10);
    }

    #[test]
    fn clipped_instances_carry_the_true_extent() {
        // One 20-tick On run cut into two 10-tick windows: each half
        // keeps the full [0, 20) run as its extent.
        let db = onoff_db(&[("K", "1111")], 5);
        let seq_db = to_sequence_database(&db, SplitConfig::new(10, 0));
        let left = &seq_db.sequences()[0].instances()[0];
        assert_eq!(left.interval, Interval::new(0, 10));
        assert_eq!(left.extent, Interval::new(0, 20));
        assert!(!left.clipped_left && left.clipped_right);
        let right = &seq_db.sequences()[1].instances()[0];
        assert_eq!(right.interval, Interval::new(10, 20));
        assert_eq!(right.extent, Interval::new(0, 20));
        assert!(right.clipped_left && !right.clipped_right);
    }

    #[test]
    fn extent_reaches_across_the_overlap_region() {
        // Run [2, 8) in windows of 4 with overlap 2 (stride 2): window
        // [4, 8) sees [4, 8) clipped left; its extent is the full run,
        // which begins inside the *previous* window's exclusive region.
        let db = onoff_db(&[("K", "00111111")], 1);
        let seq_db = to_sequence_database(&db, SplitConfig::new(4, 2));
        assert_eq!(seq_db.len(), 3);
        let last = &seq_db.sequences()[2];
        assert_eq!(last.len(), 1);
        let on = &last.instances()[0];
        assert_eq!(on.interval, Interval::new(4, 8));
        assert_eq!(on.extent, Interval::new(2, 8));
        assert!(on.clipped_left && !on.clipped_right);
        // The middle window [2, 6) sees the same run clipped right only.
        let mid = seq_db.sequences()[1]
            .instances()
            .iter()
            .find(|i| i.interval == Interval::new(2, 6))
            .expect("On instance in window [2, 6)");
        assert_eq!(mid.extent, Interval::new(2, 8));
        assert!(!mid.clipped_left && mid.clipped_right);
    }

    #[test]
    fn overlapping_windows_share_instances() {
        let db = onoff_db(&[("K", "10101010")], 1);
        let seq_db = to_sequence_database(&db, SplitConfig::new(4, 2));
        // Windows at steps 0,2,4 -> 3 windows of 4 steps.
        assert_eq!(seq_db.len(), 3);
        // Window 1 covers steps 2..6; its first instance starts at t=2.
        assert_eq!(seq_db.sequences()[1].instances()[0].interval.start, 2);
    }

    #[test]
    fn partial_trailing_window_is_dropped() {
        let db = onoff_db(&[("K", "111110")], 1);
        let seq_db = to_sequence_database(&db, SplitConfig::new(4, 0));
        assert_eq!(seq_db.len(), 1, "only one full 4-step window fits");
    }

    #[test]
    fn multiple_variables_interleave_chronologically() {
        let db = onoff_db(&[("K", "1100"), ("T", "0110")], 1);
        let seq_db = to_sequence_database(&db, SplitConfig::new(4, 0));
        let seq = &seq_db.sequences()[0];
        // K=On [0,2), T=Off [0,1), T=On [1,3), K=Off [2,4), T=Off [3,4)
        assert_eq!(seq.len(), 5);
        let starts: Vec<i64> = seq.instances().iter().map(|i| i.interval.start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    }

    fn labels(registry: &EventRegistry) -> Vec<&str> {
        registry.ids().map(|e| registry.label(e)).collect()
    }

    #[test]
    fn the_registry_orders_events_by_first_window_then_column_then_start() {
        // Windows of 4 steps with overlap 1: [0, 4), [3, 7), [6, 10); the
        // eleventh step is in no full window.
        let mut db = SymbolicDatabase::new(0, 1, 11);
        db.push(SymbolicSeries::from_labels(
            "K",
            Alphabet::new(["a", "b", "c"]).unwrap(),
            ["a", "a", "a", "a", "b", "b", "b", "b", "b", "b", "c"],
        ));
        db.push(SymbolicSeries::from_labels(
            "T",
            Alphabet::on_off(),
            [
                "Off", "Off", "Off", "On", "On", "On", "On", "On", "On", "On", "On",
            ],
        ));
        let split = SplitConfig::new(4, 1);
        let registry = event_registry(&db, split);
        // T=On first runs at step 3, in the overlap of the first two
        // windows: the first window holds it, so it precedes K=b, whose
        // first run starts in the second window, although K is the
        // earlier column. K=c first runs at step 10, after the last full
        // window, and is absent.
        assert_eq!(labels(&registry), ["K=a", "T=Off", "T=On", "K=b"]);
        let seq_db = to_sequence_database(&db, split);
        assert_eq!(seq_db.len(), 3);
        assert_eq!(seq_db.registry(), &registry);
    }

    #[test]
    fn a_slice_converted_against_the_registry_equals_the_whole_conversion() {
        // A's first On run starts after B's, so the late slice's own
        // registry would number A=On before B=On (and lack B=Off).
        let db = onoff_db(&[("A", "0000000011000000"), ("B", "0000001111111111")], 1);
        let split = SplitConfig::new(4, 2);
        let whole = to_sequence_database(&db, split);
        assert_eq!(labels(whole.registry()), ["A=Off", "B=Off", "B=On", "A=On"]);
        let mut registry = event_registry(&db, split);
        let spans = split.shard_spans(1, 16, 3, 1).expect("valid geometry");
        let last = spans.last().expect("three shards");
        let late = db.slice_steps(last.slice_steps.0, last.slice_steps.1);
        assert_eq!(
            labels(&event_registry(&late, split)),
            ["A=Off", "A=On", "B=On"]
        );
        let view = |seq: &TemporalSequence| -> Vec<(EventId, Interval)> {
            seq.instances()
                .iter()
                .map(|i| (i.event, i.interval))
                .collect()
        };
        for span in &spans {
            let slice = db.slice_steps(span.slice_steps.0, span.slice_steps.1);
            let sequences = to_sequences(&slice, split, &mut registry);
            assert!(!sequences.is_empty());
            for (j, seq) in sequences.iter().enumerate() {
                let global = &whole.sequences()[span.first_window + j];
                assert_eq!(view(seq), view(global), "{span:?} window {j}");
            }
        }
        assert_eq!(&registry, whole.registry(), "no slice adds an event");
    }

    /// The rule's oracle: events in the order a walk over the windows,
    /// column by column and step by step, first meets them.
    fn first_appearances(db: &SymbolicDatabase, split: SplitConfig) -> Vec<(VariableId, SymbolId)> {
        let eff = split.effective(db.step());
        let win = (eff.window / db.step()) as usize;
        let stride = (eff.stride() / db.step()) as usize;
        let mut order = Vec::new();
        let mut first = 0;
        while first + win <= db.n_steps() {
            for (var, series) in db.iter() {
                for &sym in &series.symbols()[first..first + win] {
                    if !order.contains(&(var, sym)) {
                        order.push((var, sym));
                    }
                }
            }
            first += stride;
        }
        order
    }

    proptest! {
        /// The sort-key rule equals the order of first appearance, and
        /// the conversion interns nothing beyond it.
        #[test]
        fn prop_registry_is_the_order_of_first_appearance(
            cells in collection::vec(0u16..3, 3..90),
            vars in 1usize..4,
            step in 1i64..3,
            window in 1i64..12,
            overlap in 0i64..12,
        ) {
            prop_assume!(overlap < window && cells.len() >= vars);
            let n_steps = cells.len() / vars;
            let mut db = SymbolicDatabase::new(0, step, n_steps);
            for (v, chunk) in cells.chunks_exact(n_steps).take(vars).enumerate() {
                db.push(SymbolicSeries::new(
                    format!("v{v}"),
                    Alphabet::new(["x", "y", "z"]).unwrap(),
                    chunk.iter().map(|&c| SymbolId(c)).collect(),
                ));
            }
            let split = SplitConfig::new(window, overlap);
            let registry = event_registry(&db, split);
            let ids: Vec<(VariableId, SymbolId)> = registry
                .ids()
                .map(|e| (registry.variable(e), registry.symbol(e)))
                .collect();
            prop_assert_eq!(ids, first_appearances(&db, split));
            prop_assert_eq!(to_sequence_database(&db, split).registry(), &registry);
        }
    }

    #[test]
    #[should_panic(expected = "overlap must be in")]
    fn overlap_ge_window_panics() {
        let _ = SplitConfig::new(10, 10);
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        assert!(SplitConfig::try_new(10, 0).is_ok());
        assert!(SplitConfig::try_new(0, 0)
            .expect_err("zero window")
            .contains("positive"));
        assert!(SplitConfig::try_new(10, 10)
            .expect_err("overlap == window")
            .contains("[0, window)"));
        assert!(SplitConfig::try_new(10, -1).is_err());
    }

    #[test]
    fn effective_rounds_down_consistently() {
        // Exact multiples pass through untouched.
        assert_eq!(
            SplitConfig::new(360, 60).effective(5),
            SplitConfig::new(360, 60)
        );
        // The historical bug: window 20 / overlap 9 at step 10 used to
        // produce an *effective* overlap of 10 > 9. Both values now
        // round down.
        assert_eq!(
            SplitConfig::new(20, 9).effective(10),
            SplitConfig::new(20, 0)
        );
        // window=360, step=7: window rounds to 357 (51 steps).
        assert_eq!(
            SplitConfig::new(360, 0).effective(7),
            SplitConfig::new(357, 0)
        );
        // Overlap is capped so the stride stays at least one step.
        let eff = SplitConfig::new(15, 12).effective(10);
        assert_eq!(eff, SplitConfig::new(10, 0));
        assert_eq!(eff.stride(), 10);
        // A window smaller than one step is promoted to one step.
        assert_eq!(SplitConfig::new(3, 0).effective(10).window, 10);
    }

    #[test]
    fn shard_spans_partition_ownership_and_stay_on_grid() {
        let split = SplitConfig::new(20, 0);
        // 40 steps of 5 ticks => 10 windows of 4 steps, stride 4.
        let spans = split.shard_spans(5, 40, 3, 15).expect("valid geometry");
        assert_eq!(spans.len(), 3);
        // Ownership tiles 0..10 exactly.
        let mut next = 0usize;
        for span in &spans {
            assert_eq!(span.owned_windows.0, next);
            next = span.owned_windows.1;
            // Slices start on the window grid.
            assert_eq!(span.slice_steps.0 % 4, 0);
            assert_eq!(span.first_window, span.slice_steps.0 / 4);
            // Every owned window lies fully inside the slice.
            let last_end = (span.owned_windows.1 - 1) * 4 + 4;
            assert!(span.slice_steps.0 <= span.owned_windows.0 * 4);
            assert!(last_end <= span.slice_steps.1);
        }
        assert_eq!(next, 10);
        // Interior shards are padded by at least t_ov = 15 ticks (3 steps,
        // rounded up to one stride = 4 steps on the left).
        assert_eq!(spans[1].slice_steps.0, spans[1].owned_windows.0 * 4 - 4);
        assert_eq!(
            spans[1].slice_steps.1,
            (spans[1].owned_windows.1 - 1) * 4 + 4 + 3
        );
        // Edge shards clamp at the database bounds.
        assert_eq!(spans[0].slice_steps.0, 0);
        assert_eq!(spans[2].slice_steps.1, 40);
    }

    #[test]
    fn shard_spans_clamp_shard_count_and_reject_bad_input() {
        let split = SplitConfig::new(20, 0);
        // Only 2 windows fit: asking for 8 shards yields 2.
        let spans = split.shard_spans(5, 8, 8, 0).expect("valid");
        assert_eq!(spans.len(), 2);
        assert!(split.shard_spans(5, 3, 2, 0).is_err(), "no full window");
        assert!(split.shard_spans(5, 40, 0, 0).is_err(), "zero shards");
        assert!(split.shard_spans(5, 40, 2, -1).is_err(), "negative t_ov");
        // A huge (unconstrained-t_max-sized) overlap degrades gracefully
        // to whole-database slices.
        let all = split.shard_spans(5, 40, 2, i64::MAX / 4).expect("valid");
        assert_eq!(all[0].slice_steps, (0, 40));
        assert_eq!(all[1].slice_steps, (0, 40));
        assert_eq!(split.n_windows(5, 40), 10);
        assert_eq!(split.n_windows(5, 3), 0);
    }

    #[test]
    fn non_multiple_overlap_no_longer_inflates_the_effective_overlap() {
        // 8 steps of 10 ticks; window 20 (2 steps), requested overlap 9.
        // The old rounding gave stride (20-9)/10 = 1 step => overlap 10;
        // now the overlap rounds down to 0 => stride 2, 4 windows.
        let db = onoff_db(&[("K", "10101010")], 10);
        let seq_db = to_sequence_database(&db, SplitConfig::new(20, 9));
        assert_eq!(seq_db.len(), 4);
        assert_eq!(seq_db.sequences()[1].instances()[0].interval.start, 20);
    }
}
