//! Every baseline must produce exactly the same pattern set, supports and
//! confidences as E-HTPGM — the property that makes the paper's runtime
//! comparison meaningful ("both E-HTPGM and the baselines provide the
//! same exact solutions", Section VI-A3).

use std::collections::HashMap;

use ftpm_baselines::{mine_hdfs, mine_ieminer, mine_tpminer};
use ftpm_core::{mine_exact, MinerConfig, MiningResult, Pattern};
use ftpm_datagen::random_sequence_database;

fn as_map(result: &MiningResult) -> HashMap<Pattern, (usize, f64)> {
    result
        .patterns
        .iter()
        .map(|p| (p.pattern.clone(), (p.support, p.confidence)))
        .collect()
}

#[expect(clippy::panic, reason = "a test helper fails its test by panicking")]
fn assert_equivalent(exact: &MiningResult, other: &MiningResult, who: &str) {
    let me = as_map(exact);
    let mo = as_map(other);
    for (pat, (supp, conf)) in &me {
        match mo.get(pat) {
            None => panic!("{who}: missing pattern {pat:?}"),
            Some((s, c)) => {
                assert_eq!(supp, s, "{who}: support mismatch on {pat:?}");
                assert!(
                    (conf - c).abs() < 1e-9,
                    "{who}: confidence mismatch on {pat:?}"
                );
            }
        }
    }
    assert_eq!(
        me.len(),
        mo.len(),
        "{who}: found {} patterns, exact found {}",
        mo.len(),
        me.len()
    );
}

#[test]
fn baselines_match_exact_on_random_databases() {
    for seed in 0..12u64 {
        let db = random_sequence_database(seed, 6, 3, 2, 40);
        for &(sigma, delta) in &[(0.3, 0.3), (0.5, 0.6)] {
            let cfg = MinerConfig::new(sigma, delta).with_max_events(4);
            let exact = mine_exact(&db, &cfg);
            assert_equivalent(&exact, &mine_tpminer(&db, &cfg), "tpminer");
            assert_equivalent(&exact, &mine_hdfs(&db, &cfg), "hdfs");
            assert_equivalent(&exact, &mine_ieminer(&db, &cfg), "ieminer");
        }
    }
}

#[test]
fn baselines_match_exact_on_structured_data() {
    let data = ftpm_datagen::dataport_like(0.01);
    let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
    let exact = mine_exact(&data.seq, &cfg);
    assert!(!exact.is_empty(), "structured data should yield patterns");
    assert_equivalent(&exact, &mine_tpminer(&data.seq, &cfg), "tpminer");
    assert_equivalent(&exact, &mine_hdfs(&data.seq, &cfg), "hdfs");
    assert_equivalent(&exact, &mine_ieminer(&data.seq, &cfg), "ieminer");
}

#[test]
fn baselines_match_exact_with_buffered_relations() {
    use ftpm_events::RelationConfig;
    let relation = RelationConfig::new(2, 3, 30);
    for seed in 50..56u64 {
        let db = random_sequence_database(seed, 5, 3, 2, 40);
        let cfg = MinerConfig::new(0.3, 0.3)
            .with_relation(relation)
            .with_max_events(3);
        let exact = mine_exact(&db, &cfg);
        assert_equivalent(&exact, &mine_tpminer(&db, &cfg), "tpminer");
        assert_equivalent(&exact, &mine_hdfs(&db, &cfg), "hdfs");
        assert_equivalent(&exact, &mine_ieminer(&db, &cfg), "ieminer");
    }
}

#[test]
fn empty_database_yields_no_patterns() {
    let db = random_sequence_database(1, 0, 2, 2, 20);
    let cfg = MinerConfig::new(0.5, 0.5).with_max_events(3);
    assert!(mine_tpminer(&db, &cfg).is_empty());
    assert!(mine_hdfs(&db, &cfg).is_empty());
    assert!(mine_ieminer(&db, &cfg).is_empty());
}

/// The baselines must honor the boundary policy — historically they
/// silently mined the clipped view whatever `RelationConfig.boundary`
/// said. Cross-validate every policy on a database whose runs really
/// cross window boundaries, against the brute-force reference oracle.
#[test]
fn baselines_honor_boundary_policies() {
    use ftpm_core::mine_reference;
    use ftpm_events::{BoundaryPolicy, RelationConfig};

    // An overlapped split of a small energy demo: plenty of clipped
    // instances, and TrueExtent genuinely differs from Clip.
    let data = ftpm_datagen::dataport_like(0.01).project_variables(4);
    let clipped_total: usize = data
        .seq
        .sequences()
        .iter()
        .flat_map(|s| s.instances())
        .filter(|i| i.is_clipped())
        .count();
    assert!(clipped_total > 0, "need boundary-clipped instances");

    let mut distinct_sets = 0usize;
    let mut previous: Option<usize> = None;
    for policy in [
        BoundaryPolicy::Clip,
        BoundaryPolicy::TrueExtent,
        BoundaryPolicy::Discard,
    ] {
        let cfg = MinerConfig::new(0.4, 0.4)
            .with_max_events(3)
            .with_relation(RelationConfig::new(0, 1, 360).with_boundary(policy));
        let reference = mine_reference(&data.seq, &cfg);
        let who = |name: &str| format!("{name}[{policy}]");
        assert_equivalent(&reference, &mine_tpminer(&data.seq, &cfg), &who("tpminer"));
        assert_equivalent(&reference, &mine_hdfs(&data.seq, &cfg), &who("hdfs"));
        assert_equivalent(&reference, &mine_ieminer(&data.seq, &cfg), &who("ieminer"));
        // The exact miner agrees too, closing the loop.
        assert_equivalent(&reference, &mine_exact(&data.seq, &cfg), &who("exact"));
        if previous != Some(reference.len()) {
            distinct_sets += 1;
        }
        previous = Some(reference.len());
    }
    assert!(
        distinct_sets >= 2,
        "policies should actually change the mined set on clipped data"
    );
}
