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
//! frequent overall may sit below threshold in every single shard. The
//! plan therefore mines through the two-phase candidate-exchange executor
//! ([`ShardPlan::mine_exchange_into`], see [`crate::executor`]): shards
//! propose level-`k` candidates with owned supports, a coordinator
//! applies the global σ/δ gate to the sums, and only the survivors are
//! grown to level `k + 1` — exact output with per-shard pruning, and the
//! shards run concurrently.

use std::sync::Arc;

use ftpm_events::{
    to_sequence_database, EventId, EventInstance, EventRegistry, SequenceDatabase, ShardSpan,
    SplitConfig, TemporalSequence,
};
use ftpm_mi::CorrelationGraph;
use ftpm_timeseries::SymbolicDatabase;

use crate::config::MinerConfig;
use crate::executor::{mine_exchange_internal, ShardReport};
use crate::result::{MiningResult, MiningStats};
use crate::sink::{CollectSink, PatternSink};

/// Plans shard-by-time-range mining runs.
///
/// # Examples
///
/// ```
/// use ftpm_core::{MinerConfig, ShardPlanner};
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
/// let (result, _reports) = plan.mine_exchange(&cfg, 1);
/// assert!(!result.is_empty());
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
        // The master registry uses the *global* conversion's intern
        // order, and every shard database is remapped onto it before
        // mining. This is load-bearing for exactness, not cosmetic: the
        // chronological tie-break for instances with identical
        // (start, end) is the EventId, so a shard mining under its
        // slice's own intern order could bind a tied pair in the
        // opposite orientation from the unsharded baseline and emit the
        // mirrored pattern. (A distributed deployment would ship this
        // shared event dictionary to the shards the same way.)
        let mut registry = to_sequence_database(syb, split).registry().clone();
        // Pass 1: convert every slice and build its remap onto the master
        // registry — the only stage that may (on a geometry bug) still
        // extend the registry, so it runs before the registry is frozen.
        let mut converted = Vec::with_capacity(spans.len());
        for span in spans {
            let slice = syb.slice_steps(span.slice_steps.0, span.slice_steps.1);
            let slice_db = to_sequence_database(&slice, split);
            // Shard windows are global windows, so every slice event
            // exists in the master registry; intern is a lookup (it
            // would only extend the registry on a geometry bug).
            let remap: Vec<EventId> = slice_db
                .registry()
                .ids()
                .map(|e| {
                    registry.intern(
                        slice_db.registry().variable(e),
                        slice_db.registry().symbol(e),
                        || slice_db.registry().label(e).to_owned(),
                    )
                })
                .collect();
            converted.push((span, slice_db, remap));
        }
        // Pass 2: the registry is final — freeze it into an `Arc` and
        // hand every shard database the same allocation (K shards, one
        // label table; the per-shard deep clone used to dominate plan
        // memory).
        let registry = Arc::new(registry);
        let mut shards = Vec::with_capacity(converted.len());
        for (index, (span, slice_db, remap)) in converted.into_iter().enumerate() {
            let sequences = slice_db
                .sequences()
                .iter()
                .map(|seq| {
                    // TemporalSequence::new re-sorts, so tied instances
                    // land in the baseline's order under the master ids.
                    TemporalSequence::new(
                        seq.instances()
                            .iter()
                            .map(|inst| EventInstance {
                                event: remap[inst.event.0 as usize],
                                ..*inst
                            })
                            .collect(),
                    )
                })
                .collect();
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
            t_ov,
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
    t_ov: i64,
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

    /// The shard-slice overlap in ticks.
    pub fn t_ov(&self) -> i64 {
        self.t_ov
    }

    /// Mines the plan through the two-phase candidate-exchange executor
    /// (see [`crate::executor`]): shards run *concurrently*, propose
    /// level-`k` candidates with owned supports, and only candidates
    /// passing the global σ/δ gate are grown to level `k + 1`. The
    /// merged output is identical to the unsharded [`crate::mine_exact`];
    /// per-shard candidate and timing observability comes back as
    /// [`ShardReport`]s.
    ///
    /// `threads` is the total worker budget, split between concurrent
    /// shards and intra-shard parallelism.
    pub fn mine_exchange_into(
        &self,
        cfg: &MinerConfig,
        threads: usize,
        sink: &mut dyn PatternSink,
    ) -> (MiningStats, Vec<ShardReport>) {
        mine_exchange_internal(self, cfg, threads, None, sink, None)
    }

    /// Like [`ShardPlan::mine_exchange_into`], collecting into a
    /// [`MiningResult`] (expressed in [`ShardPlan::registry`]).
    pub fn mine_exchange(
        &self,
        cfg: &MinerConfig,
        threads: usize,
    ) -> (MiningResult, Vec<ShardReport>) {
        let mut sink = CollectSink::new();
        let (stats, reports) = self.mine_exchange_into(cfg, threads, &mut sink);
        (sink.into_result(stats), reports)
    }

    /// A-HTPGM over the candidate-exchange executor: the coordinator
    /// holds the one globally-built filter and the `G_C` edge gate is
    /// applied *at propose time*, so shards never verify (or ship) an
    /// MI-pruned pair — the multiplicative composition of the two
    /// pruning families. The merged output equals the unsharded
    /// [`crate::mine_approximate`] run with the same graph exactly.
    pub fn mine_approximate_exchange_into(
        &self,
        graph: &CorrelationGraph,
        cfg: &MinerConfig,
        threads: usize,
        sink: &mut dyn PatternSink,
    ) -> (MiningStats, Vec<ShardReport>) {
        let filter = crate::approx::correlation_filter(graph, &self.registry);
        mine_exchange_internal(self, cfg, threads, Some(&filter), sink, None)
    }

    /// Like [`ShardPlan::mine_approximate_exchange_into`], collecting
    /// into a [`MiningResult`] (expressed in [`ShardPlan::registry`]).
    pub fn mine_approximate_exchange(
        &self,
        graph: &CorrelationGraph,
        cfg: &MinerConfig,
        threads: usize,
    ) -> (MiningResult, Vec<ShardReport>) {
        let mut sink = CollectSink::new();
        let (stats, reports) = self.mine_approximate_exchange_into(graph, cfg, threads, &mut sink);
        (sink.into_result(stats), reports)
    }
}

/// The result of [`mine_sharded_exchange`] and
/// [`mine_approximate_sharded_exchange`]: the merged mining result plus
/// the master registry its event ids refer to (shard slices intern events
/// in their own orders, so the caller's registry does not apply).
#[derive(Debug)]
pub struct ShardedMining {
    /// The merged, globally-thresholded result.
    pub result: MiningResult,
    /// The registry [`ShardedMining::result`] is expressed in (shared
    /// with the plan's shard databases, not a deep clone).
    pub registry: Arc<EventRegistry>,
    /// Number of shards actually mined (≤ the requested count).
    pub shards: usize,
    /// Shard-slice overlap in ticks (`t_max` of the miner config).
    pub t_ov: i64,
}

/// One-call sharded mining: plans `shards` time-range shards over
/// `syb`/`split` with `t_ov = cfg.relation.t_max` and mines them through
/// the two-phase candidate-exchange executor (concurrent shards, global
/// apriori gate between levels — see [`crate::executor`]) with `threads`
/// workers. Equals the unsharded [`crate::mine_exact`] run on the same
/// split — by label, support, confidence and clipped-occurrence count —
/// for every [`ftpm_events::BoundaryPolicy`] (for `TrueExtent` this needs
/// the `t_ov = t_max` pad, which is why the overlap is taken from the
/// config's `t_max`). The [`ShardReport`]s expose how many candidates
/// each shard proposed and how many the gate pruned.
pub fn mine_sharded_exchange(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    cfg: &MinerConfig,
    shards: usize,
    threads: usize,
) -> Result<(ShardedMining, Vec<ShardReport>), String> {
    let plan = ShardPlanner::new(shards).plan(syb, split, cfg.relation.t_max)?;
    let (result, reports) = plan.mine_exchange(cfg, threads);
    let n_shards = plan.shards.len();
    Ok((
        ShardedMining {
            result,
            registry: plan.registry,
            shards: n_shards,
            t_ov: plan.t_ov,
        },
        reports,
    ))
}

/// One-call approximate sharded mining through the candidate-exchange
/// executor: builds the plan, mines every shard under the caller's
/// globally-built correlation `graph` (the MI edge gate applies at
/// propose time), and merges. Output equals the unsharded
/// [`crate::mine_approximate`] run with the same graph exactly.
pub fn mine_approximate_sharded_exchange(
    syb: &SymbolicDatabase,
    split: SplitConfig,
    graph: &CorrelationGraph,
    cfg: &MinerConfig,
    shards: usize,
    threads: usize,
) -> Result<(ShardedMining, Vec<ShardReport>), String> {
    let plan = ShardPlanner::new(shards).plan(syb, split, cfg.relation.t_max)?;
    let (result, reports) = plan.mine_approximate_exchange(graph, cfg, threads);
    let n_shards = plan.shards.len();
    Ok((
        ShardedMining {
            result,
            registry: plan.registry,
            shards: n_shards,
            t_ov: plan.t_ov,
        },
        reports,
    ))
}
