//! The overlapping splitting strategy of Section IV-B2 (Fig 3): a
//! splitting point can cut a pattern into different sequences and lose
//! it; overlapping consecutive windows by t_ov = t_max preserves every
//! pattern of duration at most t_max.

use ftpm::*;

/// Builds the Fig 3 scenario: a 4-event cascade (K, T, M, C switch on in
/// succession) placed so that a non-overlapping split at t = 40 separates
/// K,T from M,C. One sample per tick.
fn fig3_database() -> SymbolicDatabase {
    let n = 80usize;
    let mut rows = vec![vec!['0'; n]; 4];
    // The cascade straddles the boundary at 40: K [30,36), T [33,39),
    // M [41,47), C [44,50). Repeat it in every 80-tick super-period so
    // the pattern is frequent.
    let marks: [(usize, usize); 4] = [(30, 36), (33, 39), (41, 47), (44, 50)];
    for (row, (s, e)) in rows.iter_mut().zip(marks) {
        for slot in &mut row[s..e] {
            *slot = '1';
        }
    }
    let names = ["K", "T", "M", "C"];
    let mut syb = SymbolicDatabase::new(0, 1, n);
    for (name, row) in names.iter().zip(rows) {
        let labels = row
            .iter()
            .map(|&c| if c == '1' { "On" } else { "Off" });
        syb.push(SymbolicSeries::from_labels(*name, Alphabet::on_off(), labels));
    }
    syb
}

fn mine_keys(seq_db: &SequenceDatabase, events: &[&str]) -> Vec<Pattern> {
    // Sigma small enough that a single supporting sequence suffices.
    let cfg = MinerConfig::new(0.01, 0.01)
        .with_max_events(4)
        .with_relation(RelationConfig::new(0, 1, 40));
    let result = mine_exact(seq_db, &cfg);
    let reg = seq_db.registry();
    let wanted: Vec<EventId> = events
        .iter()
        .map(|n| reg.lookup_label(&format!("{n}=On")).expect("event exists"))
        .collect();
    result
        .patterns
        .iter()
        .filter(|p| p.pattern.len() == 4 && {
            let mut evs = p.pattern.events().to_vec();
            evs.sort_unstable();
            let mut want = wanted.clone();
            want.sort_unstable();
            evs == want
        })
        .map(|p| p.pattern.clone())
        .collect()
}

#[test]
fn non_overlapping_split_loses_the_cascade() {
    let syb = fig3_database();
    // Windows of 40 ticks, no overlap: the boundary at 40 cuts the
    // cascade (K,T before; M,C after) — Fig 3a.
    let seq_db = to_sequence_database(&syb, SplitConfig::new(40, 0));
    assert_eq!(seq_db.len(), 2);
    assert!(
        mine_keys(&seq_db, &["K", "T", "M", "C"]).is_empty(),
        "the 4-event pattern must be lost without overlap"
    );
}

#[test]
fn overlap_t_max_preserves_the_cascade() {
    let syb = fig3_database();
    // Same windows overlapped by t_ov = t_max = 40... window must be
    // larger than overlap; use window 60 with overlap 40 (stride 20):
    // every 40-tick span lies inside some window — Fig 3b.
    let seq_db = to_sequence_database(&syb, SplitConfig::new(60, 40));
    let found = mine_keys(&seq_db, &["K", "T", "M", "C"]);
    assert!(
        !found.is_empty(),
        "overlapping split must preserve the 4-event cascade"
    );
}

#[test]
fn overlap_preserves_all_short_patterns_generically() {
    // Generic preservation (Fig 3b): every pattern of the *underlying
    // data* with duration at most t_max must survive a split whose
    // windows overlap by t_ov = t_max. The ground truth is the unsplit
    // database mined as one sequence: an occurrence of duration ≤ 40
    // starting at s lies wholly inside window [0, 60) when s < 20 and
    // inside [20, 80) otherwise, so none of its instances is clipped and
    // every relation carries over verbatim. (Comparing against a
    // *clipped* non-overlapping split instead would be wrong: cutting a
    // run at a window boundary can fabricate short occurrences that
    // exist in no window of any other split.)
    let syb = fig3_database();
    let unsplit = to_sequence_database(&syb, SplitConfig::new(80, 0));
    let overlapped = to_sequence_database(&syb, SplitConfig::new(60, 40));
    let cfg = MinerConfig::new(0.01, 0.01)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, 40));
    let base = mine_exact(&unsplit, &cfg);
    assert!(!base.is_empty(), "the unsplit data must contain patterns");
    let with_overlap = mine_exact(&overlapped, &cfg);
    let better = with_overlap.pattern_keys();
    for p in &base.patterns {
        assert!(
            better.contains(&p.pattern),
            "pattern lost despite overlap: {:?}",
            p.pattern
        );
    }
}

/// Mines `syb` through windows of `window` ticks overlapped by
/// t_ov = t_max, and as the one unsplit sequence covering the
/// full-window prefix those windows tile. Under `TrueExtent` the two
/// must find the same patterns (compared by label: the two conversions
/// intern events in different orders). Returns the pattern count.
fn assert_true_extent_split_equals_unsplit(
    syb: &SymbolicDatabase,
    window: i64,
    t_max: i64,
    max_events: usize,
) -> usize {
    let step = syb.step();
    let overlapped = SplitConfig::new(window, t_max);
    // Derive the geometry from the rounding the split itself applies, so
    // the baseline prefix cannot drift from it.
    let eff = overlapped.effective(step);
    assert_eq!(eff.overlap, t_max, "t_max must survive step rounding");
    let win_steps = (eff.window / step) as usize;
    let stride_steps = (eff.stride() / step) as usize;
    let n_steps = syb.n_steps();
    assert!(n_steps >= win_steps, "the data must fill one window");
    let covered_steps = ((n_steps - win_steps) / stride_steps) * stride_steps + win_steps;
    let unsplit = SplitConfig::new(covered_steps as i64 * step, 0);
    let cfg = MinerConfig::new(0.01, 0.01)
        .with_max_events(max_events)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(BoundaryPolicy::TrueExtent));
    let labels = |split: SplitConfig| -> std::collections::BTreeSet<String> {
        let db = to_sequence_database(syb, split);
        mine_exact(&db, &cfg)
            .patterns
            .iter()
            .map(|p| p.pattern.display(db.registry()).to_string())
            .collect()
    };
    let base = labels(unsplit);
    let split = labels(overlapped);
    assert!(!base.is_empty(), "the unsplit data must contain patterns");
    assert_eq!(base, split, "true-extent split must equal the baseline");
    base.len()
}

#[test]
fn true_extent_overlap_split_matches_the_unsplit_baseline_exactly() {
    // Under BoundaryPolicy::TrueExtent with t_ov = t_max, the overlapped
    // split finds *exactly* the unsplit database's patterns of duration
    // <= t_max — not just the lower bound the overlap lemma guarantees.
    // First on the Fig 3 cascade: 60-tick windows at stride 20 tile all
    // 80 ticks.
    assert_true_extent_split_equals_unsplit(&fig3_database(), 60, 40, 4);
    // Then on the 8-appliance energy demo: 6 h windows overlapped by
    // t_max = 3 h.
    let demo = nist_like(0.01).project_variables(8);
    let n = assert_true_extent_split_equals_unsplit(&demo.syb, 6 * 60, 3 * 60, 3);
    eprintln!("energy demo: {n} patterns, split = unsplit");
}

#[test]
fn clip_policy_default_reproduces_historical_results() {
    // BoundaryPolicy::Clip is the default and must not change anything:
    // same pattern set, supports and confidences as a config that never
    // mentions the policy.
    let syb = fig3_database();
    let seq_db = to_sequence_database(&syb, SplitConfig::new(40, 0));
    let plain = MinerConfig::new(0.01, 0.01)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, 40));
    let explicit = plain
        .with_relation(RelationConfig::new(0, 1, 40).with_boundary(BoundaryPolicy::Clip));
    let a = mine_exact(&seq_db, &plain);
    let b = mine_exact(&seq_db, &explicit);
    assert_eq!(a.patterns, b.patterns);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn more_overlap_never_finds_fewer_patterns_here() {
    let syb = fig3_database();
    let cfg = MinerConfig::new(0.01, 0.01)
        .with_max_events(4)
        .with_relation(RelationConfig::new(0, 1, 40));
    let mut counts = Vec::new();
    for overlap in [0, 20, 40] {
        let seq_db = to_sequence_database(&syb, SplitConfig::new(60, overlap));
        counts.push(mine_exact(&seq_db, &cfg).len());
    }
    assert!(
        counts.windows(2).all(|w| w[0] <= w[1]),
        "pattern count should grow with overlap on the cascade data: {counts:?}"
    );
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    /// Builds a two-variable binary symbolic database from one bit
    /// vector (the second variable is the negation, so both always have
    /// runs everywhere) at the given step.
    fn two_var_db(bits: &[u8], step: i64) -> SymbolicDatabase {
        let mut syb = SymbolicDatabase::new(0, step, bits.len());
        for (name, flip) in [("K", 0u8), ("T", 1u8)] {
            let labels = bits
                .iter()
                .map(|&b| if b ^ flip == 1 { "On" } else { "Off" });
            syb.push(SymbolicSeries::from_labels(name, Alphabet::on_off(), labels));
        }
        syb
    }

    /// The pre-extent splitting algorithm, reimplemented verbatim: slice
    /// each window's symbols, merge runs, clip to the window. Returns
    /// per-window sorted `(label, start, end)` triples.
    fn naive_clip_split(
        db: &SymbolicDatabase,
        win_steps: usize,
        stride_steps: usize,
    ) -> Vec<Vec<(String, i64, i64)>> {
        let mut windows = Vec::new();
        let mut first = 0usize;
        while first + win_steps <= db.n_steps() {
            let mut rows = Vec::new();
            for (_, series) in db.iter() {
                let symbols = &series.symbols()[first..first + win_steps];
                let mut run_start = 0usize;
                while run_start < symbols.len() {
                    let sym = symbols[run_start];
                    let mut run_end = run_start + 1;
                    while run_end < symbols.len() && symbols[run_end] == sym {
                        run_end += 1;
                    }
                    rows.push((
                        format!("{}={}", series.name(), series.alphabet().label(sym)),
                        db.time_at(first + run_start),
                        db.time_at(first + run_end),
                    ));
                    run_start = run_end;
                }
            }
            rows.sort();
            windows.push(rows);
            first += stride_steps;
        }
        windows
    }

    proptest! {
        /// (a) The emitted windows tile exactly the full-window prefix
        /// of the data: per window and variable, the clipped intervals
        /// partition the window span — no gaps, no spill-over — and
        /// every extent contains its clipped interval, agreeing with
        /// the clip flags.
        #[test]
        fn windows_cover_exactly_the_full_window_prefix(
            bits in proptest::collection::vec(0u8..2, 8..64),
            win in 2usize..9,
            ov_seed in 0usize..8,
            step in 1i64..4,
        ) {
            let ov = ov_seed % win;
            let stride = win - ov;
            let syb = two_var_db(&bits, step);
            let seq_db = to_sequence_database(
                &syb,
                SplitConfig::new(win as i64 * step, ov as i64 * step),
            );
            let n = bits.len();
            let expected = if n >= win { (n - win) / stride + 1 } else { 0 };
            prop_assert_eq!(seq_db.len(), expected, "window count");
            let reg = seq_db.registry();
            for (k, seq) in seq_db.sequences().iter().enumerate() {
                let span_start = (k * stride) as i64 * step;
                let span_end = span_start + win as i64 * step;
                for var in ["K", "T"] {
                    let mut ivs: Vec<&EventInstance> = seq
                        .instances()
                        .iter()
                        .filter(|i| reg.label(i.event).starts_with(var))
                        .collect();
                    ivs.sort_by_key(|i| i.interval.start);
                    prop_assert!(!ivs.is_empty());
                    prop_assert_eq!(ivs[0].interval.start, span_start);
                    prop_assert_eq!(ivs.last().expect("non-empty").interval.end, span_end);
                    for pair in ivs.windows(2) {
                        prop_assert_eq!(pair[0].interval.end, pair[1].interval.start);
                    }
                    for i in &ivs {
                        prop_assert!(i.extent.contains(&i.interval));
                        prop_assert_eq!(i.clipped_left, i.extent.start < i.interval.start);
                        prop_assert_eq!(i.clipped_right, i.extent.end > i.interval.end);
                    }
                }
            }
        }

        /// (b) The overlap lemma, made exact: with
        /// `BoundaryPolicy::TrueExtent` and `t_ov = t_max`, every
        /// pattern of true duration ≤ t_max of the unsplit database is
        /// found in some window — and the split fabricates nothing, so
        /// the two pattern sets are equal. (Baselines compare by label:
        /// the two conversions intern events in different orders.)
        #[test]
        fn true_extent_overlap_preserves_all_short_patterns(
            bits in proptest::collection::vec(0u8..2, 16..56),
            t_max in 3i64..8,
            extra in 1i64..6,
        ) {
            let win = t_max + extra;
            let stride = extra;
            let n = bits.len() as i64;
            prop_assume!(n >= win);
            let syb = two_var_db(&bits, 1);
            // The split emits only full windows; the baseline is the
            // full-window prefix those windows tile.
            let covered = ((n - win) / stride) * stride + win;
            let unsplit = to_sequence_database(&syb, SplitConfig::new(covered, 0));
            let overlapped =
                to_sequence_database(&syb, SplitConfig::new(win, t_max));
            let cfg = MinerConfig::new(0.01, 0.01)
                .with_max_events(3)
                .with_relation(
                    RelationConfig::new(0, 1, t_max)
                        .with_boundary(BoundaryPolicy::TrueExtent),
                );
            let labels = |db: &SequenceDatabase| -> std::collections::BTreeSet<String> {
                mine_exact(db, &cfg)
                    .patterns
                    .iter()
                    .map(|p| p.pattern.display(db.registry()).to_string())
                    .collect()
            };
            let base = labels(&unsplit);
            let split = labels(&overlapped);
            for missing in base.difference(&split) {
                prop_assert!(false, "pattern lost despite overlap: {missing}");
            }
            for extra in split.difference(&base) {
                prop_assert!(false, "fabricated pattern: {extra}");
            }
        }

        /// (c) `Clip` is the default and must reproduce the historical
        /// split bit-for-bit: same windows, same clipped intervals, same
        /// labels as the pre-extent algorithm.
        #[test]
        fn clip_reproduces_the_historical_split_exactly(
            bits in proptest::collection::vec(0u8..2, 8..64),
            win in 2usize..9,
            ov_seed in 0usize..8,
            step in 1i64..4,
        ) {
            let ov = ov_seed % win;
            let syb = two_var_db(&bits, step);
            let seq_db = to_sequence_database(
                &syb,
                SplitConfig::new(win as i64 * step, ov as i64 * step),
            );
            let golden = naive_clip_split(&syb, win, win - ov);
            prop_assert_eq!(seq_db.len(), golden.len());
            let reg = seq_db.registry();
            for (seq, want) in seq_db.sequences().iter().zip(&golden) {
                let mut got: Vec<(String, i64, i64)> = seq
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
                got.sort();
                prop_assert_eq!(&got, want);
            }
        }
    }
}
