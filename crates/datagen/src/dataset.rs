//! Ready-made dataset presets mirroring the paper's Table IV, at a
//! configurable scale.
//!
//! | dataset    | #sequences | #variables | #distinct events |
//! |------------|-----------:|-----------:|-----------------:|
//! | NIST       | 1460       | 72         | 144              |
//! | UKDALE     | 1520       | 53         | 106              |
//! | DataPort   | 1210       | 21         | 42               |
//! | Smart City | 1216       | 59         | 266              |
//!
//! `scale ∈ (0, 1]` shrinks the sequence count (days simulated); the
//! variable count is kept so the search-space shape is preserved. The
//! Fig 12/13 attribute-scalability experiments subset variables through
//! [`Dataset::project_variables`].

use ftpm_events::{to_sequence_database, SequenceDatabase, SplitConfig};
use ftpm_timeseries::{
    QuantileSymbolizer, SymbolicDatabase, SymbolicSeries, ThresholdSymbolizer, VariableId,
};

use crate::city::{generate_city, CityConfig};
use crate::energy::{generate_energy, EnergyConfig};

/// A generated dataset: the symbolic database (input to MI / A-HTPGM)
/// and the temporal sequence database (input to all miners), plus the
/// split geometry used.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name, e.g. `"nist-like"`.
    pub name: String,
    /// The symbolic database `D_SYB`.
    pub syb: SymbolicDatabase,
    /// The temporal sequence database `D_SEQ`.
    pub seq: SequenceDatabase,
    /// The split used to produce `seq` from `syb`.
    pub split: SplitConfig,
}

impl Dataset {
    /// Rebuilds the dataset restricted to the first `n_vars` variables —
    /// the x-axis of the Fig 12/13 attribute-scalability experiments.
    pub fn project_variables(&self, n_vars: usize) -> Dataset {
        let vars: Vec<VariableId> = (0..n_vars.min(self.syb.n_variables()) as u32)
            .map(VariableId)
            .collect();
        let syb = self.syb.project(&vars);
        let seq = to_sequence_database(&syb, self.split);
        Dataset {
            name: format!("{}[{} vars]", self.name, vars.len()),
            syb,
            seq,
            split: self.split,
        }
    }

    /// A copy keeping only the first `n` sequences — the x-axis of the
    /// Fig 10/11 data-scalability experiments.
    pub fn take_sequences(&self, n: usize) -> Dataset {
        Dataset {
            name: format!("{}[{} seqs]", self.name, n),
            syb: self.syb.clone(),
            seq: self.seq.take_sequences(n),
            split: self.split,
        }
    }
}

fn energy_dataset(
    name: &str,
    n_appliances: usize,
    full_days: usize,
    scale: f64,
    seed: u64,
) -> Dataset {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let days = ((full_days as f64 * scale).ceil() as usize).max(2);
    let cfg = EnergyConfig {
        n_appliances,
        days,
        seed,
        ..EnergyConfig::default()
    };
    let series = generate_energy(&cfg);
    let n_steps = series[0].len();
    let mut syb = SymbolicDatabase::new(0, cfg.step_minutes, n_steps);
    // Paper Section VI-A2: On iff value >= 0.05.
    let symbolizer = ThresholdSymbolizer::new(0.05);
    for ts in &series {
        syb.add_time_series(ts, &symbolizer);
    }
    // Four 6-hour sequences per day (step 5 min ⇒ 72 steps per window).
    let split = SplitConfig::new(6 * 60, 0);
    let seq = to_sequence_database(&syb, split);
    Dataset {
        name: name.to_owned(),
        syb,
        seq,
        split,
    }
}

/// NIST-like smart-home dataset: 72 binary appliances, 4 sequences per
/// day, 1460 sequences at `scale = 1.0`.
pub fn nist_like(scale: f64) -> Dataset {
    energy_dataset("nist-like", 72, 365, scale, 0x4e157)
}

/// UKDALE-like smart-home dataset: 53 binary appliances, ~1520 sequences
/// at `scale = 1.0`.
pub fn ukdale_like(scale: f64) -> Dataset {
    energy_dataset("ukdale-like", 53, 380, scale, 0x0cda1e)
}

/// DataPort-like smart-home dataset: 21 binary appliances, ~1210
/// sequences at `scale = 1.0`.
pub fn dataport_like(scale: f64) -> Dataset {
    energy_dataset("dataport-like", 21, 303, scale, 0xda7a9027)
}

/// Smart-city-like dataset: 59 variables (weather with 5 states,
/// collisions with 4 — 266 distinct events), 2 sequences per day, ~1216
/// sequences at `scale = 1.0`.
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1`.
pub fn smartcity_like(scale: f64) -> Dataset {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let full_days = 608usize;
    let days = ((full_days as f64 * scale).ceil() as usize).max(2);
    let cfg = CityConfig {
        n_weather: 38,
        n_collision: 21,
        days,
        seed: 0x5c17,
        ..CityConfig::default()
    };
    let series = generate_city(&cfg);
    let n_steps = series[0].len();
    let mut syb = SymbolicDatabase::new(0, cfg.step_minutes, n_steps);
    let weather_labels = ["VeryLow", "Low", "Mild", "High", "VeryHigh"];
    let collision_labels = ["None", "Low", "Medium", "High"];
    for ts in &series {
        if ts.name().starts_with("weather") {
            #[expect(
                clippy::expect_used,
                reason = "five distinct labels, and generated weather readings are finite and \
                          continuously distributed, so their quantiles never collide"
            )]
            let q = QuantileSymbolizer::from_data(weather_labels, ts.values())
                .expect("generated weather readings have distinct quantiles");
            syb.push(SymbolicSeries::from_time_series(ts, &q));
        } else {
            // Collision counts are heavily zero-inflated; quantiles would
            // collide, so use fixed count breakpoints.
            #[expect(
                clippy::expect_used,
                reason = "three finite ascending breakpoints for four distinct labels are valid"
            )]
            let q = QuantileSymbolizer::with_breaks(collision_labels, vec![1.0, 3.0, 6.0])
                .expect("fixed collision breakpoints are valid");
            syb.push(SymbolicSeries::from_time_series(ts, &q));
        }
    }
    // Two 12-hour sequences per day (hourly steps ⇒ 12 steps per window).
    let split = SplitConfig::new(12 * 60, 0);
    let seq = to_sequence_database(&syb, split);
    Dataset {
        name: "smartcity-like".to_owned(),
        syb,
        seq,
        split,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_like_shape_at_small_scale() {
        let d = nist_like(0.02); // ~8 days -> ~32 sequences
        assert_eq!(d.syb.n_variables(), 72);
        assert!(d.seq.len() >= 28, "got {} sequences", d.seq.len());
        // Binary appliances: at most 144 distinct events.
        assert!(d.seq.registry().len() <= 144);
    }

    #[test]
    fn smartcity_like_has_multistate_events() {
        let d = smartcity_like(0.02);
        assert_eq!(d.syb.n_variables(), 59);
        // 38 weather x 5 + 21 collision x 4 = 274 possible; most observed.
        assert!(
            d.seq.registry().len() > 150,
            "only {} distinct events",
            d.seq.registry().len()
        );
    }

    #[test]
    fn project_variables_shrinks_registry() {
        let d = dataport_like(0.02);
        let half = d.project_variables(10);
        assert_eq!(half.syb.n_variables(), 10);
        assert!(half.seq.registry().len() <= 20);
        assert_eq!(half.seq.len(), d.seq.len());
    }

    #[test]
    fn take_sequences_preserves_registry() {
        let d = dataport_like(0.02);
        let sub = d.take_sequences(5);
        assert_eq!(sub.seq.len(), 5);
        assert_eq!(sub.seq.registry().len(), d.seq.registry().len());
    }

    #[test]
    fn average_instances_per_sequence_is_plausible() {
        // Table IV reports 126-163 instances/sequence on the full
        // datasets; the simulators should land in the same order of
        // magnitude.
        let d = dataport_like(0.05);
        let total: usize = d.seq.sequences().iter().map(|s| s.len()).sum();
        let avg = total as f64 / d.seq.len() as f64;
        assert!(
            (20.0..400.0).contains(&avg),
            "avg instances/sequence = {avg}"
        );
    }
}
