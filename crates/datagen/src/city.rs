//! Smart-city simulator: weather condition series driving vehicle
//! collision series, like the paper's NYC Open Data weather + collision
//! datasets. Weather variables are smooth signals around shared latent
//! factors (so within-factor NMI is high); collision variables respond to
//! the extremes of one factor with a one-step lag (so weather→collision
//! temporal patterns such as the paper's P12–P17 exist).

use ftpm_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the smart-city simulator.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Number of weather variables (temperature/wind/visibility/… style).
    pub n_weather: usize,
    /// Number of collision variables (injury/death counts per group).
    pub n_collision: usize,
    /// Number of simulated days.
    pub days: usize,
    /// Sampling step in minutes (hourly by default).
    pub step_minutes: i64,
    /// Number of latent weather factors; weather variables attach to a
    /// factor round-robin and collision variables respond to the factor
    /// of the same index modulo the factor count.
    pub n_factors: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            n_weather: 12,
            n_collision: 6,
            days: 60,
            step_minutes: 60,
            n_factors: 4,
            seed: 11,
        }
    }
}

/// Generates weather and collision time series (weather first, then
/// collision). Weather values are continuous; collision values are small
/// non-negative counts. Symbolize weather with 5 quantile states and
/// collisions with 4, as the paper does (Section VI-A2).
pub fn generate_city(cfg: &CityConfig) -> Vec<TimeSeries> {
    assert!(cfg.n_weather > 0 && cfg.n_collision > 0 && cfg.days > 0 && cfg.n_factors > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let steps_per_day = (24 * 60 / cfg.step_minutes) as usize;
    let n_steps = steps_per_day * cfg.days;

    // Latent factors: AR(1) random walks with a daily cycle.
    let factors: Vec<Vec<f64>> = (0..cfg.n_factors)
        .map(|f| {
            let phase = f as f64 * 1.3;
            let mut value = 0.0f64;
            (0..n_steps)
                .map(|s| {
                    let daily = ((s as f64 / steps_per_day as f64) * std::f64::consts::TAU
                        + phase)
                        .sin();
                    value = 0.85 * value + rng.gen_range(-1.0..1.0);
                    value + 2.0 * daily
                })
                .collect()
        })
        .collect();

    let mut out = Vec::with_capacity(cfg.n_weather + cfg.n_collision);
    for w in 0..cfg.n_weather {
        let factor = &factors[w % cfg.n_factors];
        let gain = rng.gen_range(0.8..1.2);
        let values: Vec<f64> = factor
            .iter()
            .map(|&x| gain * x + rng.gen_range(-0.4..0.4))
            .collect();
        out.push(TimeSeries::new(
            format!("weather_{w:02}"),
            0,
            cfg.step_minutes,
            values,
        ));
    }

    // Collision counts spike one step after their factor is extreme.
    for c in 0..cfg.n_collision {
        let factor = &factors[c % cfg.n_factors];
        let values: Vec<f64> = (0..n_steps)
            .map(|s| {
                let driver = if s == 0 { factor[0] } else { factor[s - 1] };
                let extremeness = (driver.abs() - 2.0).max(0.0);
                let base: f64 = rng.gen_range(0.0..2.0);
                (base + 3.0 * extremeness + rng.gen_range(0.0f64..0.5)).floor()
            })
            .collect();
        out.push(TimeSeries::new(
            format!("collision_{c:02}"),
            0,
            cfg.step_minutes,
            values,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_shaped() {
        let cfg = CityConfig {
            days: 5,
            ..CityConfig::default()
        };
        let a = generate_city(&cfg);
        let b = generate_city(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.n_weather + cfg.n_collision);
        assert_eq!(a[0].len(), 5 * 24);
    }

    #[test]
    fn collision_counts_nonnegative_integers() {
        let series = generate_city(&CityConfig {
            days: 10,
            ..CityConfig::default()
        });
        for s in series.iter().filter(|s| s.name().starts_with("collision")) {
            for &v in s.values() {
                assert!(v >= 0.0 && v.fract() == 0.0, "{v} in {}", s.name());
            }
        }
    }

    #[test]
    fn same_factor_weather_vars_correlate() {
        use ftpm_mi::normalized_mutual_information;
        use ftpm_timeseries::{QuantileSymbolizer, SymbolicSeries};
        let cfg = CityConfig {
            days: 90,
            ..CityConfig::default()
        };
        let series = generate_city(&cfg);
        let labels = ["VL", "L", "M", "H", "VH"];
        let sym: Vec<SymbolicSeries> = series[..cfg.n_weather]
            .iter()
            .map(|ts| {
                let q = QuantileSymbolizer::from_data(labels, ts.values())
                    .expect("generated weather readings have distinct quantiles");
                SymbolicSeries::from_time_series(ts, &q)
            })
            .collect();
        // weather_00 and weather_04 share factor 0; weather_01 uses factor 1.
        let same = normalized_mutual_information(&sym[0], &sym[4]);
        let diff = normalized_mutual_information(&sym[0], &sym[1]);
        assert!(
            same > diff,
            "same-factor NMI {same} should exceed cross-factor {diff}"
        );
    }
}
