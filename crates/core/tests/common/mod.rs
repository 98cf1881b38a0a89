//! Helpers shared by the equivalence suites: a deterministic random
//! symbolic database and label-keyed comparison of mining results. Event
//! ids differ across conversions (each slice interns events in its own
//! order), so results are compared by rendered label.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use std::collections::HashMap;

use ftpm_core::{MinerConfig, MiningResult};
use ftpm_events::{BoundaryPolicy, EventRegistry, RelationConfig};
use ftpm_timeseries::{Alphabet, SymbolId, SymbolicDatabase, SymbolicSeries};

/// Deterministic pseudo-random on/off symbolic database (xorshift64*)
/// with run lengths in `1..=max_run` — long runs cross window and shard
/// boundaries, which is exactly what the shard pads and the exchange must
/// survive.
pub fn random_syb(
    seed: u64,
    vars: usize,
    n_steps: usize,
    step: i64,
    max_run: u64,
) -> SymbolicDatabase {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545f4914f6cdd1d)
    };
    let mut db = SymbolicDatabase::new(0, step, n_steps);
    for v in 0..vars {
        let mut symbols = Vec::with_capacity(n_steps);
        let mut sym = SymbolId((next() % 2) as u16);
        while symbols.len() < n_steps {
            let run = 1 + (next() % max_run) as usize;
            for _ in 0..run.min(n_steps - symbols.len()) {
                symbols.push(sym);
            }
            sym = SymbolId(1 - sym.0);
        }
        db.push(SymbolicSeries::new(
            format!("V{v}"),
            Alphabet::on_off(),
            symbols,
        ));
    }
    db
}

/// A result keyed by rendered label: `(support, confidence, clipped
/// occurrences)` per pattern.
pub type Labelled = HashMap<String, (usize, f64, usize)>;

pub fn labelled(result: &MiningResult, reg: &EventRegistry) -> Labelled {
    result
        .patterns
        .iter()
        .map(|p| {
            (
                p.pattern.display(reg).to_string(),
                (p.support, p.confidence, p.clipped_occurrences),
            )
        })
        .collect()
}

/// Asserts that `other` holds exactly the patterns of `base`, with equal
/// supports, confidences and clipped-occurrence counts.
#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
pub fn assert_equivalent(base: &Labelled, other: &Labelled, context: &str) {
    for (label, (supp, conf, clipped)) in base {
        match other.get(label) {
            None => panic!("{context}: lost {label}"),
            Some((s, c, cl)) => {
                assert_eq!(supp, s, "{context}: support mismatch on {label}");
                assert!(
                    (conf - c).abs() < 1e-9,
                    "{context}: confidence mismatch on {label}"
                );
                assert_eq!(clipped, cl, "{context}: clipped count mismatch on {label}");
            }
        }
    }
    assert_eq!(base.len(), other.len(), "{context}: fabricated patterns");
}

/// Patterns of up to three events under `policy`, with duration cap
/// `t_max`.
pub fn policy_cfg(sigma: f64, delta: f64, t_max: i64, policy: BoundaryPolicy) -> MinerConfig {
    MinerConfig::new(sigma, delta)
        .with_max_events(3)
        .with_relation(RelationConfig::new(0, 1, t_max).with_boundary(policy))
}
