//! End-to-end pipeline tests: raw numeric series in, frequent temporal
//! patterns out, across both application domains.

use ftpm::*;

#[test]
fn energy_pipeline_end_to_end() {
    let series = generate_energy(&EnergyConfig {
        n_appliances: 8,
        days: 20,
        ..EnergyConfig::default()
    });
    let n_steps = series[0].len();
    let mut syb = SymbolicDatabase::new(0, 5, n_steps);
    let symbolizer = ThresholdSymbolizer::new(0.05);
    for ts in &series {
        syb.add_time_series(ts, &symbolizer);
    }
    let seq_db = to_sequence_database(&syb, SplitConfig::new(360, 0));
    assert_eq!(seq_db.len(), 20 * 4, "four 6-hour windows per day");

    let result = mine_exact(&seq_db, &MinerConfig::new(0.3, 0.3).with_max_events(3));
    assert!(!result.is_empty(), "routines must produce patterns");

    // Group members (appliance_00..03 share a routine) must co-occur in
    // some frequent On-pattern.
    let reg = seq_db.registry();
    let cross_group_on = result.patterns.iter().any(|p| {
        let labels: Vec<&str> = p.pattern.events().iter().map(|&e| reg.label(e)).collect();
        labels.iter().all(|l| l.ends_with("=On"))
            && labels.iter().any(|l| l.starts_with("appliance_00"))
            && labels.iter().any(|l| l.starts_with("appliance_01"))
    });
    assert!(
        cross_group_on,
        "appliances of the same routine group should form frequent On patterns"
    );
}

#[test]
fn city_pipeline_end_to_end() {
    let data = smartcity_like(0.02);
    let result = mine_exact(&data.seq, &MinerConfig::new(0.2, 0.2).with_max_events(2));
    assert!(!result.is_empty());
    // Multi-state alphabets: some pattern must involve a non-binary
    // symbol (anything not On/Off).
    let reg = data.seq.registry();
    assert!(result.patterns.iter().any(|p| {
        p.pattern
            .events()
            .iter()
            .any(|&e| !reg.label(e).ends_with("=On") && !reg.label(e).ends_with("=Off"))
    }));
}

#[test]
fn render_lists_every_pattern() {
    let data = dataport_like(0.01);
    let result = mine_exact(&data.seq, &MinerConfig::new(0.4, 0.4).with_max_events(2));
    let text = result.render(data.seq.registry());
    assert_eq!(text.lines().count(), result.len());
    for line in text.lines() {
        assert!(line.contains("supp="), "{line}");
        assert!(line.contains("conf="), "{line}");
    }
}

#[test]
fn relative_support_matches_definition() {
    let data = dataport_like(0.01);
    let n = data.seq.len() as f64;
    let result = mine_exact(&data.seq, &MinerConfig::new(0.3, 0.3).with_max_events(2));
    for p in &result.patterns {
        assert!((p.rel_support - p.support as f64 / n).abs() < 1e-12);
    }
}

#[test]
fn higher_sigma_yields_subset() {
    let data = dataport_like(0.01);
    let lo = mine_exact(&data.seq, &MinerConfig::new(0.2, 0.2).with_max_events(3));
    let hi = mine_exact(&data.seq, &MinerConfig::new(0.5, 0.2).with_max_events(3));
    let lo_keys = lo.pattern_keys();
    assert!(hi.len() <= lo.len());
    for p in &hi.patterns {
        assert!(lo_keys.contains(&p.pattern), "sigma-monotonicity violated");
    }
}

#[test]
fn higher_delta_yields_subset() {
    let data = dataport_like(0.01);
    let lo = mine_exact(&data.seq, &MinerConfig::new(0.2, 0.2).with_max_events(3));
    let hi = mine_exact(&data.seq, &MinerConfig::new(0.2, 0.6).with_max_events(3));
    let lo_keys = lo.pattern_keys();
    assert!(hi.len() <= lo.len());
    for p in &hi.patterns {
        assert!(lo_keys.contains(&p.pattern), "delta-monotonicity violated");
    }
}
