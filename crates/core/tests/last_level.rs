//! The last level a run grows: [`MinerConfig::max_events`] capped at the
//! hard cap. Both engines verify that level's candidates on count-only
//! extension groups, which keep no occurrence row, and every level below
//! it on binding groups. These tests pin that the two agree, and that a
//! last level below 2 mines nothing in either engine.

mod common;

use std::collections::HashMap;

use common::{assert_equivalent, random_syb, runs, Layout, Run};
use ftpm_core::{Correlation, MinePlan, MinerConfig, ShardPlanner};
use ftpm_events::{BoundaryPolicy, RelationConfig, SplitConfig};

/// The patterns of at most `max_len` events of a run, by label:
/// `(support, confidence, clipped occurrences)`.
fn up_to(run: &Run, max_len: usize) -> HashMap<String, (usize, f64, usize)> {
    run.result
        .patterns
        .iter()
        .filter(|p| p.pattern.len() <= max_len)
        .map(|p| {
            (
                p.pattern.display(&run.registry).to_string(),
                (p.support, p.confidence, p.clipped_occurrences),
            )
        })
        .collect()
}

/// On a split database whose long runs cross window and shard
/// boundaries, a `max_events = 3` run counts its 3-event patterns on
/// count-only groups, while a `max_events = 4` run binds level 3 and
/// scans its rows for clipped instances when it archives them. The
/// patterns of up to 3 events — supports, confidences and clipped
/// occurrences — must agree at 1 and 2 threads, unsharded and with 2
/// shards, under both policies that mine clipped instances.
#[test]
fn the_counted_last_level_equals_the_bound_one() {
    let syb = random_syb(5, 5, 160, 5, 5);
    let split = SplitConfig::new(50, 20);
    let layouts = [Layout::Unsharded, Layout::Shards(2)];
    let exact = [Correlation::None];
    for policy in [BoundaryPolicy::Clip, BoundaryPolicy::TrueExtent] {
        let cfg = |max_events| {
            MinerConfig::new(0.1, 0.1)
                .with_max_events(max_events)
                .with_relation(RelationConfig::new(0, 1, 50).with_boundary(policy))
        };
        let (bound_cfg, counted_cfg) = (cfg(4), cfg(3));
        let bound = &runs(&syb, split, &bound_cfg, &[1], &layouts[..1], &exact)[0];
        let want = up_to(bound, 3);
        assert!(
            bound.result.patterns.iter().any(|p| p.pattern.len() == 4),
            "{policy}: level 3 must grow further when bound"
        );
        assert!(
            bound
                .result
                .patterns
                .iter()
                .any(|p| p.pattern.len() == 3 && p.clipped_occurrences > 0),
            "{policy}: some 3-event pattern must bind a clipped instance"
        );
        for run in runs(&syb, split, &counted_cfg, &[1, 2], &layouts, &exact) {
            let context = format!("{policy}, {}", run.context);
            let got = up_to(&run, 3);
            assert_eq!(got.len(), run.result.len(), "{context}: no pattern above 3");
            assert_equivalent(&want, &got, &context);
        }
    }
}

/// A hand-built config can skip the builder's check on `max_events`.
/// Below 2 no pattern can exist, so both engines mine none, and still
/// announce the frequent single events.
#[test]
fn a_last_level_below_two_mines_no_pattern() {
    let data = ftpm_datagen::nist_like(0.005).project_variables(4);
    let cfg = MinerConfig {
        max_events: 1,
        ..MinerConfig::new(0.1, 0.1)
    };
    let (unsharded, _) = MinePlan::new(&data.seq, &cfg).collect();
    let shards = ShardPlanner::new(2)
        .plan(&data.syb, data.split, cfg.relation.t_max)
        .expect("valid geometry");
    let (sharded, reports) = MinePlan::new(&shards, &cfg).with_threads(2).collect();
    for (result, context) in [(&unsharded, "unsharded"), (&sharded, "2 shards")] {
        assert_eq!(result.len(), 0, "{context}: patterns");
        assert!(!result.frequent_events.is_empty(), "{context}: L1 events");
    }
    assert_eq!(
        unsharded.frequent_events.len(),
        sharded.frequent_events.len()
    );
    assert!(reports.iter().all(|r| r.candidates_proposed == 0));
}
