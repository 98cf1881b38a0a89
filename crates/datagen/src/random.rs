//! Small random sequence databases for property-based and
//! cross-validation testing.

use ftpm_events::{EventInstance, EventRegistry, SequenceDatabase, TemporalSequence};
use ftpm_timeseries::{SymbolId, VariableId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random [`SequenceDatabase`] directly (bypassing the time
/// series pipeline): `n_seqs` sequences over `n_vars` binary variables,
/// with up to `max_instances` instances per variable per sequence inside
/// a `[0, horizon)` tick range.
///
/// Instances may overlap arbitrarily — including across symbols of the
/// same variable — which stresses the relation logic harder than
/// pipeline-produced databases (where same-variable instances abut).
/// Duplicate `(event, interval)` pairs are removed so instance identity
/// stays unambiguous.
///
/// # Panics
///
/// Panics if `horizon < 4`.
pub fn random_sequence_database(
    seed: u64,
    n_seqs: usize,
    n_vars: usize,
    max_instances: usize,
    horizon: i64,
) -> SequenceDatabase {
    assert!(horizon >= 4, "horizon too small");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut registry = EventRegistry::new();
    // Intern all events up front so ids are stable across seeds.
    for v in 0..n_vars as u32 {
        for s in 0..2u16 {
            registry.intern(VariableId(v), SymbolId(s), || {
                format!("V{v}={}", if s == 1 { "On" } else { "Off" })
            });
        }
    }
    let sequences = (0..n_seqs)
        .map(|_| {
            let mut instances = Vec::new();
            for v in 0..n_vars as u32 {
                for s in 0..2u16 {
                    #[expect(clippy::expect_used, reason = "every event is interned up front")]
                    let event = registry.get(VariableId(v), SymbolId(s)).expect("interned");
                    for _ in 0..rng.gen_range(0..=max_instances) {
                        let start = rng.gen_range(0..horizon - 1);
                        let end = rng.gen_range(start + 1..=(start + horizon / 2).min(horizon));
                        instances.push(EventInstance::new(event, start, end));
                    }
                }
            }
            instances.sort_by_key(EventInstance::chrono_key);
            instances.dedup();
            TemporalSequence::new(instances)
        })
        .collect();
    SequenceDatabase::new(registry, sequences)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = random_sequence_database(3, 5, 3, 2, 50);
        let b = random_sequence_database(3, 5, 3, 2, 50);
        assert_eq!(a.sequences().len(), b.sequences().len());
        assert_eq!(a.sequences()[0], b.sequences()[0]);
    }

    #[test]
    fn no_duplicate_instances() {
        let db = random_sequence_database(9, 10, 4, 4, 30);
        for seq in db.sequences() {
            let mut seen = std::collections::HashSet::new();
            for inst in seq.instances() {
                assert!(
                    seen.insert((inst.event, inst.interval)),
                    "duplicate {inst:?}"
                );
            }
        }
    }

    #[test]
    fn instances_chronological() {
        let db = random_sequence_database(4, 8, 3, 3, 40);
        for seq in db.sequences() {
            let keys: Vec<_> = seq.instances().iter().map(|i| i.chrono_key()).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
