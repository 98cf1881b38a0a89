//! Seeded CSV inputs, written in the CLI's CSV shape (a tick column,
//! then one column per appliance).
//!
//! Every input is the `nist_like` household: `generate_energy` with 72
//! appliances and the demo's generator seed. Seed 0 writes it as the
//! generator made it, so the 8-day input of seed 0 is exactly the
//! `--demo nist --scale 0.02` data. Any other seed shuffles the names
//! over the columns and redraws every reading inside its On or Off
//! range: the bytes, the event labels and so every exported row change,
//! while the symbolized data — and with it the amount of mining work —
//! stays the same. Two cheaper-looking alternatives move the work too
//! much to measure anything: a different generator seed moves the 8-day
//! pattern count between 618k and 1.17M, and a different column order
//! moves its 5-event pattern count alone between 572k and 861k (the
//! column order fixes the event ids, which break ties between instances
//! that start and end together).

use std::io::Write as _;
use std::path::Path;

use ftpm::{generate_energy, EnergyConfig};

/// The `nist_like` demo's generator seed.
pub const DEMO_SEED: u64 = 0x4e157;

/// Appliances (variables) of every generated input, as in the demo.
pub const APPLIANCES: usize = 72;

/// The generator's reading ranges: On draws watts in `[40, 250)`, Off a
/// standby trickle in `[0, 0.02)`, either side of the CLI's default
/// 0.05 threshold.
const ON_RANGE: (f64, f64) = (40.0, 250.0);
const OFF_RANGE: (f64, f64) = (0.0, 0.02);
const THRESHOLD: f64 = 0.05;

/// Shape of one generated input file.
#[derive(Debug, Clone, Copy)]
pub struct InputShape {
    pub rows: usize,
    pub columns: usize,
    pub bytes: u64,
}

/// SplitMix64: a small, fixed PRNG so inputs never depend on a crate's
/// stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, (lo, hi): (f64, f64)) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Writes `days` of the household's data for `seed` to `path`.
pub fn write_energy_csv(path: &Path, days: usize, seed: u64) -> Result<InputShape, String> {
    let cfg = EnergyConfig {
        n_appliances: APPLIANCES,
        days,
        seed: DEMO_SEED,
        ..EnergyConfig::default()
    };
    let mut columns: Vec<(String, Vec<f64>)> = generate_energy(&cfg)
        .into_iter()
        .map(|s| (s.name().to_string(), s.values().to_vec()))
        .collect();
    if seed != 0 {
        let mut rng = SplitMix(seed);
        // Fisher–Yates over the names, then fresh readings.
        let mut names: Vec<String> = columns.iter().map(|(n, _)| n.clone()).collect();
        for i in (1..names.len()).rev() {
            names.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        for ((name, _), shuffled) in columns.iter_mut().zip(names) {
            *name = shuffled;
        }
        for (_, values) in &mut columns {
            for v in values {
                *v = rng.uniform(if *v >= THRESHOLD { ON_RANGE } else { OFF_RANGE });
            }
        }
    }
    let rows = columns.first().map_or(0, |(_, v)| v.len());
    let mut text = String::with_capacity(rows * columns.len() * 20);
    text.push_str("time");
    for (name, _) in &columns {
        text.push(',');
        text.push_str(name);
    }
    text.push('\n');
    for row in 0..rows {
        use std::fmt::Write as _;
        let _ = write!(text, "{}", row as i64 * cfg.step_minutes);
        for (_, values) in &columns {
            // `{}` prints the shortest text that parses back to the same
            // f64, so the CLI symbolizes exactly these readings.
            let _ = write!(text, ",{}", values[row]);
        }
        text.push('\n');
    }
    let mut file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(InputShape {
        rows,
        columns: columns.len() + 1,
        bytes: text.len() as u64,
    })
}
