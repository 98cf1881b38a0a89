//! Quickstart: the full FTPMfTS pipeline on the paper's running example
//! (Fig 1 / Table I): six household appliances, raw watt readings →
//! symbolic database → temporal sequences → frequent temporal patterns.
//!
//! Run with: `cargo run --example quickstart`

use ftpm::*;

fn main() -> Result<(), GraphMismatch> {
    // --- 1. Raw time series -------------------------------------------
    // Six appliances sampled every 5 minutes over 3 hours (36 samples),
    // mimicking Table I: Kitchen, Toaster, Microwave, Coffee machine,
    // clothes Ironer, Blender.
    let step = 5; // minutes
    let on_off = |bits: &str| -> Vec<f64> {
        bits.chars()
            .map(|c| if c == '1' { 120.0 } else { 0.01 })
            .collect()
    };
    let rows = [
        ("Kitchen", "111100011000000111000011100110011100"),
        ("Toaster", "011100011001100111000011100110001110"),
        ("Microwave", "000011100111011000110110011001110011"),
        ("Coffee", "000011100110111000110110011001110011"),
        ("Ironer", "000000000110000011000000000110001100"),
        ("Blender", "000000011000000000110000000110000011"),
    ];

    let n_steps = rows[0].1.len();
    let mut syb = SymbolicDatabase::new(0, step, n_steps);
    let symbolizer = ThresholdSymbolizer::new(0.05); // paper Section VI-A2
    for (name, bits) in rows {
        let ts = TimeSeries::new(name, 0, step, on_off(bits));
        syb.add_time_series(&ts, &symbolizer);
    }
    println!(
        "D_SYB: {} variables x {} steps of {} minutes",
        syb.n_variables(),
        syb.n_steps(),
        syb.step()
    );

    // --- 2. Convert to the temporal sequence database ------------------
    // 45-minute windows, no overlap: four sequences, like Table III.
    let split = SplitConfig::new(45, 0);
    let seq_db = to_sequence_database(&syb, split);
    println!("D_SEQ: {} sequences", seq_db.len());
    for (i, seq) in seq_db.sequences().iter().enumerate() {
        println!("  sequence {}: {} event instances", i + 1, seq.len());
    }

    // --- 3. Mine frequent temporal patterns ---------------------------
    let cfg = MinerConfig::new(0.7, 0.7).with_max_events(3);
    let result = mine_exact(&seq_db, &cfg);

    println!(
        "\nE-HTPGM with sigma = delta = 70%: {} frequent single events, {} patterns",
        result.frequent_events.len(),
        result.len()
    );
    println!("\nFrequent temporal patterns:");
    print!("{}", result.render(seq_db.registry()));

    // --- 4. The same, approximately ------------------------------------
    let approx = mine_approximate_with_density(&syb, &seq_db, 0.4, &cfg)?;
    println!(
        "\nA-HTPGM at 40% graph density (mu = {:.2}): {} patterns, accuracy {:.0}%",
        approx.mu,
        approx.result.len(),
        100.0 * approx.result.accuracy_against(&result)
    );
    println!(
        "correlation graph kept {} of {} possible edges",
        approx.graph.n_edges(),
        syb.n_variables() * (syb.n_variables() - 1) / 2
    );
    Ok(())
}
