//! Workspace smoke test: the quickstart pipeline end-to-end —
//! symbolize → split → mine — asserting each stage produces real output.

use ftpm::*;

/// Builds the paper's running example (Fig 1 / Table I): six appliances,
/// 36 samples at 5-minute steps, On/Off symbolization.
fn table1_symbolic_database() -> SymbolicDatabase {
    let step = 5;
    let rows = [
        ("Kitchen", "111100011000000111000011100110011100"),
        ("Toaster", "011100011001100111000011100110001110"),
        ("Microwave", "000011100111011000110110011001110011"),
        ("Coffee", "000011100110111000110110011001110011"),
        ("Ironer", "000000000110000011000000000110001100"),
        ("Blender", "000000011000000000110000000110000011"),
    ];
    let mut syb = SymbolicDatabase::new(0, step, rows[0].1.len());
    let symbolizer = ThresholdSymbolizer::new(0.05);
    for (name, bits) in rows {
        let values: Vec<f64> = bits
            .chars()
            .map(|c| if c == '1' { 120.0 } else { 0.01 })
            .collect();
        let ts = TimeSeries::new(name, 0, step, values);
        syb.add_time_series(&ts, &symbolizer);
    }
    syb
}

#[test]
fn quickstart_pipeline_end_to_end() {
    // Symbolize.
    let syb = table1_symbolic_database();
    assert_eq!(syb.n_variables(), 6);
    assert_eq!(syb.n_steps(), 36);

    // Split into 45-minute windows, no overlap: four sequences (Table III).
    let seq_db = to_sequence_database(&syb, SplitConfig::new(45, 0));
    assert_eq!(seq_db.len(), 4);
    assert!(
        seq_db.sequences().iter().all(|s| !s.is_empty()),
        "every window of the running example contains event instances"
    );

    // Mine exactly.
    let cfg = MinerConfig::new(0.7, 0.7).with_max_events(3);
    let exact = mine_exact(&seq_db, &cfg);
    assert!(
        !exact.frequent_events.is_empty(),
        "σ = 70% keeps frequent single events on the running example"
    );
    assert!(
        !exact.patterns.is_empty(),
        "the running example yields frequent temporal patterns"
    );
    // Every reported pattern respects the thresholds it was mined with.
    for p in &exact.patterns {
        assert!(p.rel_support >= cfg.sigma - 1e-12);
        assert!(p.confidence >= cfg.delta - 1e-12);
    }

    // Mine approximately; A-HTPGM searches a subgraph, so it can only
    // return a subset of E-HTPGM's patterns.
    let approx = mine_approximate_with_density(&syb, &seq_db, 0.4, &cfg)
        .expect("the graph is built on the same data");
    assert!(approx.result.len() <= exact.len());
    let accuracy = approx.result.accuracy_against(&exact);
    assert!((0.0..=1.0).contains(&accuracy));
}
