//! Smart-home energy simulator: appliances activated in correlated
//! groups following daily routines, producing watt-level time series like
//! the NIST/UKDALE/DataPort smart-meter data.

use ftpm_timeseries::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the energy simulator.
#[derive(Debug, Clone)]
pub struct EnergyConfig {
    /// Number of appliances (variables).
    pub n_appliances: usize,
    /// Number of simulated days.
    pub days: usize,
    /// Sampling step in minutes (the paper's smart meters report every
    /// few minutes; 5 is a realistic default).
    pub step_minutes: i64,
    /// Appliances per correlated routine group. Groups activate together;
    /// appliances in different groups are (nearly) independent.
    pub group_size: usize,
    /// Probability that a group member joins a given activation of its
    /// group — controls how tight the within-group correlation is.
    pub participation: f64,
    /// Probability per day of a spurious solo activation of an appliance
    /// — uncorrelated noise.
    pub noise_activation: f64,
    /// RNG seed; identical configs generate identical data.
    pub seed: u64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            n_appliances: 24,
            days: 30,
            step_minutes: 5,
            group_size: 4,
            participation: 0.9,
            noise_activation: 0.3,
            seed: 7,
        }
    }
}

/// Generates appliance power-draw time series (watts).
///
/// Each group of appliances has two characteristic activation times per
/// day in distinct occupancy blocks (e.g. a "morning routine" around
/// 06:30 plus a midday one, with per-day jitter). During an activation,
/// participating appliances switch on in a staggered cascade — the first
/// member contains or overlaps the later ones — which is exactly the kind
/// of structure the paper's example patterns (P1–P11) describe. Off
/// periods draw a few milliwatts of standby noise, below the paper's
/// 0.05 W symbolization threshold.
///
/// # Panics
///
/// Panics if `n_appliances`, `days` or `group_size` is zero.
pub fn generate_energy(cfg: &EnergyConfig) -> Vec<TimeSeries> {
    assert!(cfg.n_appliances > 0 && cfg.days > 0 && cfg.group_size > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let steps_per_day = (24 * 60 / cfg.step_minutes) as usize;
    let n_steps = steps_per_day * cfg.days;
    let n_groups = cfg.n_appliances.div_ceil(cfg.group_size);

    // The household has a shared daily rhythm: activity happens inside
    // three occupancy blocks (morning / afternoon / evening) and nothing
    // runs overnight. Every group draws its routine anchors inside two
    // of these blocks. This layering mirrors real smart-home data and
    // gives the MI structure A-HTPGM relies on: same-group pairs
    // correlate most, same-block pairs moderately, and the shared
    // off-hours keep co-occurring events and correlated series aligned.
    // The blocks deliberately sit in distinct quarters of the day: with
    // the common 6-hour analysis window, a group whose two blocks share
    // a window can never exceed ~25% relative support no matter how
    // tightly its appliances correlate.
    const BLOCKS: [(i64, i64); 3] = [(6 * 60, 9 * 60), (13 * 60, 16 * 60), (18 * 60, 22 * 60)];
    // Two anchors per group, in distinct occupancy blocks. Both are
    // always present: a routine firing only once per day sits in 1 of
    // the 4 daily 6-hour windows (~25% relative support, before the
    // participation draw), which is below any useful σ and would leave
    // group structure undetectable — two anchors keep within-group
    // co-occurrence around 40% of windows. Anchors stay at least the
    // maximal day jitter (15) above the block's lower edge: the edges
    // coincide with 6-hour window boundaries, and an activation pushed
    // across a boundary gets its starts clipped to the window edge,
    // destroying the Contain relation the cascade is built to produce.
    let routines: Vec<[i64; 2]> = (0..n_groups)
        .map(|g| {
            // Rotate block pairs so consecutive groups share at most one
            // block: g=0 → {morning, afternoon}, g=1 → {afternoon,
            // evening}, g=2 → {evening, morning}. (A formula that hands
            // two groups the same pair makes their leaders — both
            // long-running and anchored in the same narrow ranges —
            // correlate more strongly across groups than within.)
            let block = BLOCKS[g % BLOCKS.len()];
            let block2 = BLOCKS[(g + 1) % BLOCKS.len()];
            [
                rng.gen_range(block.0 + 15..block.1 - 90),
                rng.gen_range(block2.0 + 15..block2.1 - 90),
            ]
        })
        .collect();

    // on[i][step] — appliance i drawing power at this step.
    let mut on = vec![vec![false; n_steps]; cfg.n_appliances];
    let turn_on =
        |on: &mut Vec<Vec<bool>>, appliance: usize, day: usize, start_min: i64, dur_min: i64| {
            let day_base = day as i64 * 24 * 60;
            let from = ((day_base + start_min.max(0)) / cfg.step_minutes) as usize;
            let to = ((day_base + (start_min + dur_min).min(24 * 60)) / cfg.step_minutes) as usize;
            for slot in &mut on[appliance][from..to.min(n_steps)] {
                *slot = true;
            }
        };

    for day in 0..cfg.days {
        for (g, anchors) in routines.iter().enumerate() {
            for &anchor in anchors {
                // Day-level jitter of the routine as a whole.
                let jitter = rng.gen_range(-15i64..=15);
                let members =
                    (g * cfg.group_size)..((g + 1) * cfg.group_size).min(cfg.n_appliances);
                // Staggered nested cascade: whoever participates first
                // becomes the leader; every later member starts strictly
                // after the previous one and ends strictly inside the
                // leader's interval, so the leader Contains every
                // follower. Keeping the relation type fixed matters: if
                // followers could start before the leader or outlive it,
                // each activation would randomly land on Contain or
                // Overlap and the per-relation support of the group
                // pattern would drop to roughly half the group's
                // co-occurrence rate.
                let mut outer_end: Option<i64> = None;
                let mut last_start = i64::MIN;
                for (rank, appliance) in members.enumerate() {
                    if !rng.gen_bool(cfg.participation) {
                        continue;
                    }
                    // Each per-rank step is drawn independently, so clamp
                    // against the previous participant: a later rank must
                    // never start at or before an earlier one (equal or
                    // inverted starts have no relation under ε = 0).
                    let start = (anchor + jitter + (rank as i64) * rng.gen_range(5i64..=15))
                        .max(last_start + 5);
                    last_start = start;
                    let mut dur = rng.gen_range(15i64..=90) - (rank as i64) * 5;
                    match outer_end {
                        None => {
                            // The leader runs long enough that the last
                            // member (staggered by at most 15 ticks per
                            // rank) still fits inside with room to spare,
                            // whatever the configured group size.
                            dur = dur.max(15 * cfg.group_size as i64 + 15);
                            outer_end = Some(start + dur);
                        }
                        Some(end) => dur = dur.clamp(10, (end - start - 2).max(10)),
                    }
                    turn_on(&mut on, appliance, day, start, dur);
                }
            }
        }
        // Uncorrelated solo activations, still inside occupancy hours.
        for appliance in 0..cfg.n_appliances {
            if rng.gen_bool(cfg.noise_activation) {
                let block = BLOCKS[rng.gen_range(0..BLOCKS.len())];
                let start = rng.gen_range(block.0..block.1 - 45);
                let dur = rng.gen_range(10..=45);
                turn_on(&mut on, appliance, day, start, dur);
            }
        }
    }

    (0..cfg.n_appliances)
        .map(|i| {
            let watts: Vec<f64> = (0..n_steps)
                .map(|s| {
                    if on[i][s] {
                        rng.gen_range(40.0..250.0)
                    } else {
                        rng.gen_range(0.0..0.02) // standby, below threshold
                    }
                })
                .collect();
            TimeSeries::new(format!("appliance_{i:02}"), 0, cfg.step_minutes, watts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = EnergyConfig {
            n_appliances: 6,
            days: 3,
            ..EnergyConfig::default()
        };
        let a = generate_energy(&cfg);
        let b = generate_energy(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let base = EnergyConfig {
            n_appliances: 6,
            days: 3,
            ..EnergyConfig::default()
        };
        let a = generate_energy(&base);
        let b = generate_energy(&EnergyConfig { seed: 8, ..base });
        assert_ne!(a, b);
    }

    #[test]
    fn shapes_match_config() {
        let cfg = EnergyConfig {
            n_appliances: 5,
            days: 2,
            step_minutes: 10,
            ..EnergyConfig::default()
        };
        let series = generate_energy(&cfg);
        assert_eq!(series.len(), 5);
        for s in &series {
            assert_eq!(s.len(), 2 * 24 * 6);
            assert_eq!(s.step(), 10);
        }
    }

    #[test]
    fn appliances_actually_activate() {
        let series = generate_energy(&EnergyConfig::default());
        for s in &series {
            let on_steps = s.values().iter().filter(|&&v| v >= 0.05).count();
            assert!(on_steps > 0, "{} never turns on", s.name());
            assert!(on_steps < s.len(), "{} never turns off", s.name());
        }
    }

    #[test]
    fn group_members_correlate_more_than_strangers() {
        use ftpm_mi::normalized_mutual_information;
        use ftpm_timeseries::{SymbolicSeries, ThresholdSymbolizer};
        let cfg = EnergyConfig {
            n_appliances: 8,
            days: 60,
            group_size: 4,
            noise_activation: 0.1,
            ..EnergyConfig::default()
        };
        let series = generate_energy(&cfg);
        let symbolizer = ThresholdSymbolizer::new(0.05);
        let sym: Vec<SymbolicSeries> = series
            .iter()
            .map(|ts| SymbolicSeries::from_time_series(ts, &symbolizer))
            .collect();
        // 0 and 1 share a group; 0 and 4 do not (groups of 4).
        let within = normalized_mutual_information(&sym[0], &sym[1]);
        let across = normalized_mutual_information(&sym[0], &sym[4]);
        assert!(
            within > across,
            "within-group NMI {within} should exceed cross-group {across}"
        );
    }
}
