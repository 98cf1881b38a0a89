//! Shard-by-time-range mining: cut the symbolic database into K
//! overlapping time-range shards, mine them concurrently through the
//! candidate-exchange executor, and merge the per-shard statistics
//! losslessly (see [`crate::executor`] and [`crate::merge`]).
//!
//! # Geometry and the `t_ov = t_max` lemma
//!
//! A shard boundary is a window boundary: the window index space of the
//! global split is partitioned into K contiguous *owned* ranges, and each
//! shard converts (and mines) a step slice covering its owned windows
//! plus a pad of at least `t_ov` ticks on both sides
//! ([`SplitConfig::shard_spans`]). Windows inside a pad are mined by both
//! adjacent shards — the *overlap region* — and are deduplicated at merge
//! time by counting only the windows a shard owns.
//!
//! Each shard computes run extents *within its own slice*, exactly as an
//! independent service node holding only its time range (± the pad)
//! would. This is lossless for [`ftpm_events::BoundaryPolicy::TrueExtent`]
//! with `t_ov = t_max` by an extension of the window lemma: a run extent
//! truncated at a slice edge necessarily spans more than `t_ov ≥ t_max`
//! ticks, so no occurrence involving a truncated extent can ever satisfy
//! the duration constraint — in the shard *or* in the unsharded baseline
//! (where the true extent is even longer). Every other extent, clip flag
//! and clipped interval of an owned window is bit-identical to the global
//! conversion's. `Clip` and `Discard` never look past the clipped
//! interval / clip flags, so they shard losslessly as well.
//!
//! # Why shards exchange candidates
//!
//! A pattern's global support is the sum of its owned supports across
//! shards, so a shard cannot apply the global σ/δ locally — a pattern
//! frequent overall may sit below threshold in every single shard. A
//! [`crate::MinePlan`] over a shard plan therefore mines through the
//! two-phase candidate-exchange executor ([`crate::executor`]): shards
//! propose level-`k` candidates with owned supports, a coordinator
//! applies the global σ/δ gate to the sums, and only the survivors are
//! grown to level `k + 1` — exact output with per-shard pruning, and the
//! shards run concurrently.

use std::sync::Arc;

use ftpm_events::{
    event_registry, to_sequences, EventRegistry, SequenceDatabase, ShardSpan, SplitConfig,
};
use ftpm_mi::CorrelationGraph;
use ftpm_timeseries::SymbolicDatabase;

use crate::config::MinerConfig;
use crate::executor::ShardReport;
use crate::plan::{Correlation, MinePlan};
use crate::result::MiningStats;
use crate::sink::PatternSink;

/// Plans shard-by-time-range mining runs.
///
/// # Examples
///
/// ```
/// use ftpm_core::{MinePlan, MinerConfig, ShardPlanner};
/// use ftpm_events::{BoundaryPolicy, RelationConfig, SplitConfig};
/// use ftpm_datagen::nist_like;
///
/// let data = nist_like(0.01).project_variables(5);
/// let cfg = MinerConfig::new(0.4, 0.4)
///     .with_max_events(3)
///     .with_relation(
///         RelationConfig::new(0, 1, 180).with_boundary(BoundaryPolicy::TrueExtent),
///     );
/// let plan = ShardPlanner::new(4)
///     .plan(&data.syb, data.split, cfg.relation.t_max)
///     .expect("valid geometry");
/// let (result, reports) = MinePlan::new(&plan, &cfg).collect();
/// assert!(!result.is_empty());
/// assert_eq!(reports.len(), plan.shards().len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardPlanner {
    shards: usize,
}

impl ShardPlanner {
    /// A planner cutting the data into (at most) `shards` time-range
    /// shards.
    pub fn new(shards: usize) -> Self {
        ShardPlanner { shards }
    }

    /// Cuts `syb` into time-range shards whose slices overlap by at least
    /// `t_ov` ticks, converts each slice with `split`, and builds the
    /// master registry the merged output is expressed in.
    ///
    /// For a lossless run under
    /// [`ftpm_events::BoundaryPolicy::TrueExtent`], pass the miner's
    /// `t_max` as `t_ov` (the Fig 3 lemma, one level up); `Clip` and
    /// `Discard` are lossless for any `t_ov ≥ 0`.
    pub fn plan(
        &self,
        syb: &SymbolicDatabase,
        split: SplitConfig,
        t_ov: i64,
    ) -> Result<ShardPlan, String> {
        let spans = split.shard_spans(syb.step(), syb.n_steps(), self.shards, t_ov)?;
        let n_windows = split.n_windows(syb.step(), syb.n_steps());
        // Every slice converts against one master registry, the one the
        // unsharded conversion names its events by. This is load-bearing
        // for exactness, not cosmetic: the chronological tie-break for
        // instances with identical (start, end) is the EventId, so a
        // shard mining under its slice's own intern order could bind a
        // tied pair in the opposite orientation from the unsharded
        // baseline and emit the mirrored pattern. (A distributed
        // deployment would ship this shared event dictionary to the
        // shards the same way.) Shard windows are global windows, so the
        // conversion only looks ids up; it would extend the registry
        // only on a geometry bug, which is why the registry is frozen
        // after every slice is converted.
        let mut registry = event_registry(syb, split);
        let converted: Vec<_> = spans
            .into_iter()
            .map(|span| {
                let slice = syb.slice_steps(span.slice_steps.0, span.slice_steps.1);
                (span, to_sequences(&slice, split, &mut registry))
            })
            .collect();
        // The registry is final: freeze it into an `Arc` and hand every
        // shard database the same allocation (K shards, one label table).
        let registry = Arc::new(registry);
        let mut shards = Vec::with_capacity(converted.len());
        for (index, (span, sequences)) in converted.into_iter().enumerate() {
            let db = SequenceDatabase::new(Arc::clone(&registry), sequences);
            let owned: Vec<bool> = (0..db.len())
                .map(|j| {
                    let g = span.first_window + j;
                    (span.owned_windows.0..span.owned_windows.1).contains(&g)
                })
                .collect();
            debug_assert_eq!(
                owned.iter().filter(|&&o| o).count(),
                span.owned_windows.1 - span.owned_windows.0,
                "every owned window must be emitted by its shard's slice"
            );
            shards.push(Shard {
                index,
                db,
                owned,
                span,
            });
        }
        Ok(ShardPlan {
            shards,
            registry,
            n_windows,
        })
    }
}

/// One time-range shard: its converted sequence database (owned windows
/// plus the duplicated overlap-pad windows) and the ownership mask that
/// the merge deduplicates by.
#[derive(Debug)]
pub struct Shard {
    /// Position in the plan, `0..K`.
    pub index: usize,
    /// The shard's windows, converted from its own slice of the data.
    pub db: SequenceDatabase,
    /// `owned[i]` — window `i` of `db` is owned by this shard (exactly
    /// one shard owns each global window).
    pub owned: Vec<bool>,
    /// The step/window geometry behind `db`.
    pub span: ShardSpan,
}

/// A planned sharded mining run: per-shard databases, ownership masks,
/// and the master registry merged patterns are expressed in.
#[derive(Debug)]
pub struct ShardPlan {
    shards: Vec<Shard>,
    /// Shared with every shard database (see [`ShardPlanner::plan`]).
    registry: Arc<EventRegistry>,
    /// Global window count — the merged `|D_SEQ|`.
    n_windows: usize,
}

impl ShardPlan {
    /// The master registry of the merged output. Build display paths and
    /// writer sinks against this registry, not the shards' own.
    pub fn registry(&self) -> &EventRegistry {
        &self.registry
    }

    /// The master registry as a shareable handle (no deep clone) — the
    /// merge accumulator and the shard databases all hold this same
    /// allocation.
    pub fn shared_registry(&self) -> Arc<EventRegistry> {
        Arc::clone(&self.registry)
    }

    /// The planned shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Global number of windows (the merged support denominator).
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    /// The candidate exchange into `sink`: a [`MinePlan`] over this
    /// shard plan. Kept so the benchmark harness builds; ROADMAP item 1
    /// step 3 deletes it once the harness mines through the plan.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn mine_exchange_into(
        &self,
        cfg: &MinerConfig,
        threads: usize,
        sink: &mut (dyn PatternSink + Send),
    ) -> (MiningStats, Vec<ShardReport>) {
        MinePlan::new(self, cfg).with_threads(threads).run(sink)
    }

    /// A-HTPGM over the candidate exchange into `sink`: a [`MinePlan`]
    /// over this shard plan with [`Correlation::Series`]. Kept so the
    /// benchmark harness builds; ROADMAP item 1 step 3 deletes it once
    /// the harness mines through the plan.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, or if `graph` does not fit the master
    /// registry (see [`crate::GraphMismatch`]).
    pub fn mine_approximate_exchange_into(
        &self,
        graph: &CorrelationGraph,
        cfg: &MinerConfig,
        threads: usize,
        sink: &mut (dyn PatternSink + Send),
    ) -> (MiningStats, Vec<ShardReport>) {
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract of a wrapper kept with its signature"
        )]
        let plan = MinePlan::new(self, cfg)
            .with_correlation(Correlation::Series(graph))
            .expect("the correlation graph fits the master registry");
        plan.with_threads(threads).run(sink)
    }
}
