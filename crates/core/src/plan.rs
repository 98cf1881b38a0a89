//! One mining plan for every run.
//!
//! A run is chosen along three axes: which windows are mined (one
//! sequence database, or a [`ShardPlan`] of time-range shards), which
//! correlation gate applies (none for E-HTPGM, a series-level graph for
//! A-HTPGM, or an event-level graph, the paper's Section VII future
//! work), and how many worker threads mine. [`MinePlan`] holds one
//! choice per axis, and [`MinePlan::run`] is the only place an engine is
//! picked: unsharded data goes to the threaded engine
//! ([`crate::parallel`]), sharded data to the candidate exchange
//! ([`crate::executor`]). Both engines take the same correlation filter,
//! so every composition yields the pattern set of the one-thread,
//! unsharded run with the same gate.
//!
//! ```
//! use ftpm_core::{Correlation, MinePlan, MinerConfig, ShardPlanner};
//! use ftpm_mi::CorrelationGraph;
//!
//! let data = ftpm_datagen::nist_like(0.01).project_variables(5);
//! let cfg = MinerConfig::new(0.4, 0.4).with_max_events(3);
//! let graph = CorrelationGraph::build_with_density(&data.syb, 0.8);
//! let (unsharded, _) = MinePlan::new(&data.seq, &cfg)
//!     .with_correlation(Correlation::Series(&graph))
//!     .expect("the graph is built on the same data")
//!     .collect();
//! let shards = ShardPlanner::new(2)
//!     .plan(&data.syb, data.split, cfg.relation.t_max)
//!     .expect("valid geometry");
//! let (sharded, reports) = MinePlan::new(&shards, &cfg)
//!     .with_correlation(Correlation::Series(&graph))
//!     .expect("the graph is built on the same data")
//!     .with_threads(2)
//!     .collect();
//! assert_eq!(unsharded.len(), sharded.len());
//! assert_eq!(reports.len(), shards.shards().len());
//! ```

use ftpm_events::{BoundaryKernel, BoundaryVisit, EventRegistry, SequenceDatabase};
use ftpm_mi::CorrelationGraph;

use crate::approx::{check_graph, plan_filter, GraphMismatch};
use crate::config::MinerConfig;
use crate::executor::{mine_exchange, ShardReport};
use crate::parallel::mine_parallel;
use crate::result::{MiningResult, MiningStats};
use crate::schedule::SimCtl;
use crate::shard::ShardPlan;
use crate::sink::{CollectSink, PatternSink};

/// The windows a [`MinePlan`] mines.
#[derive(Debug, Clone, Copy)]
pub enum MineData<'a> {
    /// One sequence database, mined by the threaded engine.
    Unsharded(&'a SequenceDatabase),
    /// Time-range shards, mined by the candidate exchange; the output is
    /// expressed in the plan's master registry.
    Sharded(&'a ShardPlan),
}

impl<'a> From<&'a SequenceDatabase> for MineData<'a> {
    fn from(db: &'a SequenceDatabase) -> Self {
        MineData::Unsharded(db)
    }
}

impl<'a> From<&'a ShardPlan> for MineData<'a> {
    fn from(plan: &'a ShardPlan) -> Self {
        MineData::Sharded(plan)
    }
}

/// The correlation gate of a [`MinePlan`] (see [`crate::CorrelationFilter`]).
#[derive(Debug, Clone, Copy)]
pub enum Correlation<'a> {
    /// No gate: E-HTPGM (Alg. 1).
    None,
    /// A-HTPGM (Alg. 2): one graph vertex per series, built on the
    /// symbolic database with [`CorrelationGraph::build`] or
    /// [`CorrelationGraph::build_with_density`].
    Series(&'a CorrelationGraph),
    /// Event-level A-HTPGM, the extension the paper names as future work
    /// (Section VII): one graph vertex per event, built on
    /// [`crate::event_indicator_database`]. L1 keeps correlated events,
    /// and L2 needs an edge between the two events of a pair, so a
    /// variable pair correlated through one symbol pair can still lose
    /// its other symbol pairs.
    ///
    /// Vertex `i` must be `EventId(i)` of [`MinePlan::registry`]
    /// ([`MinePlan::with_correlation`] checks the vertex count). Build
    /// the indicators over `ftpm_events::event_registry(syb, split)`:
    /// `to_sequence_database(syb, split)` and every shard plan over the
    /// same split name their events by it, so one graph serves the
    /// unsharded and every sharded layout.
    Events(&'a CorrelationGraph),
}

/// One mining run: data, correlation gate, configuration and threads.
/// Build it with [`MinePlan::new`] (one thread, no gate) and the `with_`
/// methods, then [`MinePlan::run`] it into a sink or
/// [`MinePlan::collect`] it.
#[derive(Debug, Clone, Copy)]
pub struct MinePlan<'a> {
    data: MineData<'a>,
    correlation: Correlation<'a>,
    cfg: &'a MinerConfig,
    threads: usize,
}

impl<'a> MinePlan<'a> {
    /// E-HTPGM over `data` on one thread.
    pub fn new(data: impl Into<MineData<'a>>, cfg: &'a MinerConfig) -> Self {
        MinePlan {
            data: data.into(),
            correlation: Correlation::None,
            cfg,
            threads: 1,
        }
    }

    /// Mines under `correlation` instead of exactly.
    ///
    /// # Errors
    ///
    /// Returns [`GraphMismatch`] when the graph does not fit
    /// [`MinePlan::registry`]: a series-level graph needs a vertex for
    /// every variable of the registry's events, an event-level graph
    /// exactly one vertex per event.
    pub fn with_correlation(self, correlation: Correlation<'a>) -> Result<Self, GraphMismatch> {
        check_graph(correlation, self.registry())?;
        Ok(MinePlan {
            correlation,
            ..self
        })
    }

    /// Mines with `threads` workers. Unsharded, one worker runs on the
    /// calling thread; sharded, the budget splits between concurrent
    /// shards and workers inside a shard.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        MinePlan { threads, ..self }
    }

    /// The registry the output is expressed in: the database's own, or a
    /// shard plan's master registry. Build writer sinks and labels
    /// against it.
    pub fn registry(&self) -> &'a EventRegistry {
        match self.data {
            MineData::Unsharded(db) => db.registry(),
            MineData::Sharded(plan) => plan.registry(),
        }
    }

    /// The number of windows mined, `|D_SEQ|`: the support denominator.
    pub fn n_windows(&self) -> usize {
        match self.data {
            MineData::Unsharded(db) => db.len(),
            MineData::Sharded(plan) => plan.n_windows(),
        }
    }

    /// Mines into `sink` and returns the run statistics, plus one
    /// [`ShardReport`] per shard of a sharded plan (none unsharded).
    /// Unsharded, one thread emits nodes in a fixed order (L2 nodes by
    /// event, each subtree depth-first); more threads interleave whole
    /// nodes. Sharded, the gate's survivors are emitted sorted by pattern.
    pub fn run(&self, sink: &mut (dyn PatternSink + Send)) -> (MiningStats, Vec<ShardReport>) {
        self.run_under(self.threads, sink, None)
    }

    /// [`MinePlan::run`] into a [`CollectSink`]: the result (expressed in
    /// [`MinePlan::registry`]) and the shard reports.
    pub fn collect(&self) -> (MiningResult, Vec<ShardReport>) {
        self.collect_under(self.threads, None)
    }

    /// [`MinePlan::collect`] with `threads` workers, and with every task
    /// claim sequenced by `sched` when set (see [`crate::Schedule`]).
    pub(crate) fn collect_under(
        &self,
        threads: usize,
        sched: Option<&SimCtl>,
    ) -> (MiningResult, Vec<ShardReport>) {
        let mut sink = CollectSink::new();
        let (stats, reports) = self.run_under(threads, &mut sink, sched);
        (sink.into_result(stats), reports)
    }

    /// Fixes the boundary kernel once per run, the monomorphization
    /// seam of both engines: every instance-level decision below it
    /// compiles branch-free.
    fn run_under(
        &self,
        threads: usize,
        sink: &mut (dyn PatternSink + Send),
        sched: Option<&SimCtl>,
    ) -> (MiningStats, Vec<ShardReport>) {
        struct Run<'p, 'a, 's> {
            plan: &'p MinePlan<'a>,
            threads: usize,
            sink: &'s mut (dyn PatternSink + Send),
            sched: Option<&'s SimCtl>,
        }
        impl BoundaryVisit for Run<'_, '_, '_> {
            type Out = (MiningStats, Vec<ShardReport>);
            fn visit<K: BoundaryKernel>(self) -> Self::Out {
                let Run {
                    plan,
                    threads,
                    sink,
                    sched,
                } = self;
                let filter = plan_filter(plan.correlation, plan.registry());
                let (cfg, corr) = (plan.cfg, filter.as_ref());
                match plan.data {
                    MineData::Unsharded(db) => (
                        mine_parallel::<K>(db, cfg, threads, corr, sink, sched),
                        Vec::new(),
                    ),
                    MineData::Sharded(shards) => {
                        mine_exchange::<K>(shards, cfg, threads, corr, sink, sched)
                    }
                }
            }
        }
        self.cfg.relation.boundary.dispatch(Run {
            plan: self,
            threads,
            sink,
            sched,
        })
    }
}
