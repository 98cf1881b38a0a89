//! The E-HTPGM engine, on one thread or many.
//!
//! HTPGM parallelizes naturally along the Hierarchical Pattern Graph:
//! each L1 root grows into its L2 nodes independently of the others, and
//! from L3 onward every L2 node's subtree grows independently of its
//! siblings (the only cross-node structure, the frequent-relation table
//! of Lemmas 4–7, is complete once L2 is done and read-only afterwards).
//! Both phases run the one growth step of [`crate::exact`] on
//! `std::thread::scope` workers, which emit finished nodes into a shared
//! [`PatternSink`]. It is the only unsharded miner:
//! [`crate::mine_exact`] is this engine at `threads = 1`, where the one
//! worker runs on the calling thread and the emission order is fixed (L2
//! nodes in event order, each subtree depth-first before the next). With
//! more workers, node emission interleaves, so the order varies run to
//! run, but the set, supports and confidences do not (asserted by the
//! equivalence tests, and across seeded interleavings by the
//! [`crate::schedule`] harness). Run statistics are summed across
//! workers.
//!
//! Panic discipline: a panicking task must neither deadlock the pool nor
//! silently drop sibling results. All scopes therefore join *every*
//! worker before re-raising the first panic payload (see [`join_all`]),
//! and lock acquisitions recover from poisoning — the panic is already
//! being propagated at the join; cascading a second one out of a
//! poisoned `Mutex` would only mask it.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the worker pools own the miner's threads, locks and atomics"
)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::ScopedJoinHandle;

use ftpm_events::{BoundaryKernel, EventId, SequenceDatabase};

use crate::approx::CorrelationFilter;
use crate::candidates::{PairRelations, Screen, WorkNode};
use crate::config::MinerConfig;
use crate::exact::{grow_candidates, ExtensionGroups, GrowContext, LastInstanceRanks, LatestRanks};
use crate::index::DatabaseIndex;
use crate::plan::MinePlan;
use crate::result::{merge_stats, FrequentPattern, MiningStats};
use crate::schedule::{Retire, SimCtl};
use crate::sink::{PatternSink, RowEncoder};

/// Mines like [`crate::mine_exact`] into `sink` with `n_threads`
/// workers: [`MinePlan::run`] with [`MinePlan::with_threads`]. Kept so
/// the benchmark harness builds; ROADMAP item 1 step 3 deletes it once
/// the harness mines through the plan.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub fn mine_exact_parallel_with_sink(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    n_threads: usize,
    sink: &mut (dyn PatternSink + Send),
) -> MiningStats {
    MinePlan::new(db, cfg).with_threads(n_threads).run(sink).0
}

/// Joins every handle, then re-raises the first panic payload if any
/// worker panicked. Joining everything first is what keeps a panicking
/// task from silently discarding its siblings' results (they have all
/// been produced by the time the panic propagates) and what lets the
/// scheduled mode drain its sequencer cleanly before unwinding.
fn join_all<T>(handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut results = Vec::with_capacity(handles.len());
    let mut first_panic = None;
    for handle in handles {
        match handle.join() {
            Ok(value) => results.push(value),
            Err(payload) => first_panic = first_panic.or(Some(payload)),
        }
    }
    if let Some(payload) = first_panic {
        // Re-raise the original payload rather than panicking with a
        // generic message, so callers see the true failure.
        std::panic::resume_unwind(payload);
    }
    results
}

/// Recovers a lock even when a worker panicked while holding it: the
/// panic is already propagating via [`join_all`], and these critical
/// sections leave no half-written state a sibling could observe (slot
/// mutexes guard disjoint items; the node queue hands out whole nodes;
/// the sink lock batches whole nodes).
fn lock_clean<'a, T: ?Sized>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `body(worker)` for workers `0..n` and returns the results in
/// worker order. Workers run on scoped OS threads, except that a single
/// worker runs on the calling thread: one-thread mining pays for no
/// spawn. With `sched` set, the sequencer is armed for the phase first
/// and each worker retires from it on exit, normal or unwinding (see
/// [`crate::schedule`]).
fn run_workers<T, F>(n: usize, sched: Option<&SimCtl>, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if let Some(ctl) = sched {
        ctl.phase(n);
    }
    let run = |worker: usize| {
        let _retire = sched.map(|ctl| Retire::new(ctl, worker));
        body(worker)
    };
    if n == 1 {
        return vec![run(0)];
    }
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = (0..n)
            .map(|worker| scope.spawn(move || run(worker)))
            .collect();
        join_all(handles)
    })
}

/// How many L2 candidate pairs a worker claims at once, at least: it
/// claims whole roots, each one pair per frequent event. Batched work
/// stealing keeps workers balanced even when a few pairs dominate the
/// cost.
const PAIR_BATCH: usize = 16;

/// The engine behind every unsharded [`MinePlan`], monomorphized over
/// the boundary kernel `K` that [`MinePlan::run`] picked (`corr` is the
/// plan's correlation filter, see [`crate::approx`]) — and, with `sched`
/// set, the engine under [`crate::Schedule::collect`], where every task
/// claim goes through the seeded sequencer instead of racing on the
/// atomic alone.
///
/// # Panics
///
/// Panics if `n_threads == 0`.
pub(crate) fn mine_parallel<K: BoundaryKernel>(
    db: &SequenceDatabase,
    cfg: &MinerConfig,
    n_threads: usize,
    corr: Option<&CorrelationFilter<'_>>,
    sink: &mut (dyn PatternSink + Send),
    sched: Option<&SimCtl>,
) -> MiningStats {
    assert!(n_threads > 0, "need at least one thread");
    let sigma_abs = cfg.absolute_support(db.len());
    let max_events = cfg.last_level();
    let index = DatabaseIndex::build_with_policy(db, cfg.relation.boundary);
    let mut stats = MiningStats::default();
    let db_has_clipped = stats.record_boundary(&index, cfg.relation.boundary);

    // ---- L1: frequent single events (Alg. 1 lines 1–4) ----
    let freq_events: Vec<EventId> = db
        .registry()
        .ids()
        .filter(|&e| corr.is_none_or(|c| c.allows_event(e)))
        .filter(|&e| index.support(e) >= sigma_abs)
        .collect();
    let l1: Vec<(EventId, usize)> = freq_events.iter().map(|&e| (e, index.support(e))).collect();
    sink.begin(&l1);
    // `latest(ek, s)` of the last-instance bound, shared by every worker.
    let latest = LatestRanks::build::<K>(db, &index, &freq_events);

    // ---- L2: frequent 2-event patterns (Alg. 1 lines 5–14): each L1
    // root grows by one event, workers claiming batches of roots. Below
    // a last level of 2, no root grows ----
    let n_freq = freq_events.len();
    let n_roots = if max_events >= 2 { n_freq } else { 0 };
    let roots_per_claim = PAIR_BATCH.div_ceil(n_freq.max(1));
    let next_root = AtomicUsize::new(0);
    let screen = Screen::Edges(corr);
    let l2_outputs = run_workers(n_threads, sched, |worker| {
        let mut nodes = Vec::new();
        let mut stats = MiningStats::default();
        stats.ensure_levels(1);
        let mut ranks = LastInstanceRanks::new(&latest);
        loop {
            if let Some(ctl) = sched {
                ctl.turn(worker);
            }
            let at = next_root.fetch_add(roots_per_claim, Ordering::Relaxed);
            if at >= n_roots {
                break;
            }
            for &e in &freq_events[at..(at + roots_per_claim).min(n_roots)] {
                let root = WorkNode::root(&index, e);
                nodes.extend(grow_candidates::<K>(
                    db,
                    &index,
                    cfg,
                    &mut stats,
                    &root,
                    &freq_events,
                    screen,
                    sigma_abs,
                    2,
                    &mut ranks,
                ));
            }
        }
        (nodes, stats)
    });

    let mut level2: Vec<WorkNode> = Vec::new();
    for (nodes, worker_stats) in l2_outputs {
        merge_stats(&mut stats, worker_stats);
        // Take over the first worker's vector rather than copying it:
        // with one worker it is the whole level.
        if level2.is_empty() {
            level2 = nodes;
        } else {
            level2.extend(nodes);
        }
    }
    // Canonical order so work distribution is deterministic across runs
    // (event pairs are unique, so an in-place unstable sort suffices),
    // and each node's patterns by relation, the order the one-thread
    // output is pinned to.
    level2.sort_unstable_by(|a, b| a.events.cmp(&b.events));
    for node in &mut level2 {
        node.patterns.sort_unstable_by_key(|p| p.code);
    }

    let mut pair_relations = PairRelations::new(db.registry().len());
    for node in &level2 {
        for p in &node.patterns {
            pair_relations.insert(node.events[0], p.pattern.relations()[0], node.events[1]);
        }
    }

    // ---- Lk (k ≥ 3): grow nodes (Alg. 1 lines 15–20) ----
    // Workers claim L2 nodes and grow each to exhaustion depth-first
    // against the shared read-only L2 relation table, emitting finished
    // nodes into the shared sink. The level-wise semantics (k-event
    // patterns derived from (k-1)-event patterns and the L1/L2
    // structures) are unchanged, but a node's occurrence bindings are
    // released as soon as its subtree is done, and the last level's
    // nodes never bind theirs — this is what keeps HTPGM's memory
    // footprint below the list-materializing baselines (Table VIII).
    let queue = Mutex::new(level2.into_iter());
    let encoder = sink.encoder();
    let shared = Mutex::new(sink);
    // A lone worker has no one to contend with for the sink lock, so it
    // passes every node straight through instead of holding a batch.
    let batch = if n_threads == 1 { 0 } else { SHARED_SINK_BATCH };
    let grow_outputs = run_workers(n_threads, sched, |worker| {
        let mut worker_sink = SharedSink::new(&shared, encoder.clone(), batch);
        let mut worker_stats = MiningStats::default();
        // One context per worker, so its last-level and last-instance
        // scratch serve every node the worker claims.
        let mut grow = GrowContext::<K> {
            db,
            cfg,
            index: &index,
            pair_relations: &pair_relations,
            freq_events: &freq_events,
            sigma_abs,
            max_events,
            stats: &mut worker_stats,
            sink: &mut worker_sink,
            db_has_clipped,
            leaf_groups: ExtensionGroups::counting(db_has_clipped),
            leaves: Vec::new(),
            ranks: LastInstanceRanks::new(&latest),
            kernel: PhantomData,
        };
        loop {
            if let Some(ctl) = sched {
                ctl.turn(worker);
            }
            let Some(node) = lock_clean(&queue).next() else {
                break;
            };
            grow.grow_node(node, 3);
        }
        worker_sink.flush();
        worker_stats
    });

    for worker_stats in grow_outputs {
        merge_stats(&mut stats, worker_stats);
    }
    stats
}

/// Runs `f(index, &mut item)` for every item, distributing items over up
/// to `threads` scoped workers with atomic work stealing. With one thread — or one
/// item — it degrades to a plain loop with no spawn at all. Items are
/// processed exactly once; completion order is unspecified, but every
/// call has returned when this function returns. With `sched` set, each
/// claim goes through the seeded sequencer (see [`crate::schedule`]).
///
/// This is the shard executor's outer loop: each exchange round runs one
/// stage on every [`crate::executor`] worker concurrently.
pub(crate) fn par_for_each<T, F>(items: &mut [T], threads: usize, sched: Option<&SimCtl>, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    run_workers(threads, sched, |worker| loop {
        if let Some(ctl) = sched {
            ctl.turn(worker);
        }
        let at = next.fetch_add(1, Ordering::Relaxed);
        if at >= slots.len() {
            break;
        }
        let mut item = lock_clean(&slots[at]);
        f(at, &mut item);
    });
}

/// Maps `f` over `items` with up to `threads` scoped workers, preserving
/// input order in the output. Built on [`par_for_each`]; single-threaded
/// calls stay allocation- and spawn-free. Used for the intra-shard
/// parallelism of the exchange executor's count and re-derive stages
/// (chunks of parent nodes), composing with the shard-level concurrency
/// the way `--threads` composes with `--shards`.
#[expect(
    clippy::expect_used,
    reason = "structural invariant: par_for_each visits every slot exactly once"
)]
pub(crate) fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<(Option<T>, Option<R>)> =
        items.into_iter().map(|t| (Some(t), None)).collect();
    par_for_each(&mut slots, threads, None, |_, slot| {
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: the atomic counter hands each slot index out once"
        )]
        let item = slot.0.take().expect("each item mapped once");
        slot.1 = Some(f(item));
    });
    slots
        .into_iter()
        .map(|(_, r)| r.expect("every slot filled"))
        .collect()
}

/// One buffered node emission awaiting the shared-sink lock.
type PendingNode = (Vec<EventId>, usize, usize, Vec<FrequentPattern>);

/// How many patterns each of several workers buffers before taking the
/// shared-sink lock. Amortizes contention when many small nodes finish in
/// bursts; worker-resident pattern memory stays bounded by this plus one
/// node.
const SHARED_SINK_BATCH: usize = 1024;

/// How many rendered bytes a worker buffers before taking the
/// shared-sink lock to append them.
const ROW_BUFFER_BYTES: usize = 64 << 10;

/// What a worker holds between two acquisitions of the sink lock.
enum Pending {
    /// Rows rendered on the worker with the sink's encoder. `open`
    /// turns false once the sink has latched an I/O error, and the
    /// worker stops rendering.
    Rows {
        encoder: RowEncoder,
        bytes: Vec<u8>,
        rows: u64,
        open: bool,
    },
    /// Whole nodes for a sink without an encoder; drained once
    /// `patterns` reaches `batch`.
    Nodes {
        nodes: Vec<PendingNode>,
        patterns: usize,
        batch: usize,
    },
}

/// Per-worker handle on the shared sink. When the sink offers a
/// [`RowEncoder`], the worker renders each finished node's rows into its
/// own buffer and takes the lock only to append about
/// [`ROW_BUFFER_BYTES`] of finished bytes; otherwise it buffers whole
/// nodes and drains them under one lock acquisition. Either way a node's
/// rows land contiguously, and one worker appends in emission order.
struct SharedSink<'a, 'b> {
    shared: &'a Mutex<&'b mut (dyn PatternSink + Send)>,
    pending: Pending,
}

impl<'a, 'b> SharedSink<'a, 'b> {
    fn new(
        shared: &'a Mutex<&'b mut (dyn PatternSink + Send)>,
        encoder: Option<RowEncoder>,
        batch: usize,
    ) -> Self {
        let pending = match encoder {
            Some(encoder) => Pending::Rows {
                encoder,
                bytes: Vec::new(),
                rows: 0,
                open: true,
            },
            None => Pending::Nodes {
                nodes: Vec::new(),
                patterns: 0,
                batch,
            },
        };
        SharedSink { shared, pending }
    }

    /// Hands everything pending to the shared sink under one lock.
    fn flush(&mut self) {
        match &mut self.pending {
            Pending::Rows {
                bytes, rows, open, ..
            } => {
                if bytes.is_empty() {
                    return;
                }
                *open = lock_clean(self.shared).append_rows(bytes, *rows);
                bytes.clear();
                *rows = 0;
            }
            Pending::Nodes {
                nodes, patterns, ..
            } => {
                if nodes.is_empty() {
                    return;
                }
                let mut sink = lock_clean(self.shared);
                for (events, support, k, node_patterns) in nodes.drain(..) {
                    sink.node(events, support, k, node_patterns);
                }
                *patterns = 0;
            }
        }
    }
}

impl PatternSink for SharedSink<'_, '_> {
    fn node(
        &mut self,
        events: Vec<EventId>,
        support: usize,
        k: usize,
        node_patterns: Vec<FrequentPattern>,
    ) {
        let full = match &mut self.pending {
            Pending::Rows {
                encoder,
                bytes,
                rows,
                open,
            } => {
                if !*open {
                    return;
                }
                encoder.encode_node(k, &node_patterns, bytes);
                *rows += node_patterns.len() as u64;
                bytes.len() >= ROW_BUFFER_BYTES
            }
            Pending::Nodes {
                nodes,
                patterns,
                batch,
            } => {
                *patterns += node_patterns.len();
                nodes.push((events, support, k, node_patterns));
                *patterns >= *batch
            }
        };
        if full {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_for_each_with_more_threads_than_items() {
        // threads is clamped to the item count; surplus workers are
        // never spawned and every item is still processed exactly once.
        let mut items = vec![0u32; 3];
        par_for_each(&mut items, 64, None, |i, item| *item += i as u32 + 1);
        assert_eq!(items, vec![1, 2, 3]);
    }

    #[test]
    fn par_for_each_with_empty_work_list() {
        let mut items: Vec<u32> = Vec::new();
        par_for_each(&mut items, 8, None, |_, _| panic!("no items"));
        assert!(items.is_empty());
    }

    #[test]
    fn par_map_edge_cases() {
        let empty: Vec<u32> = par_map(Vec::new(), 8, |x: u32| x);
        assert!(empty.is_empty());
        // Single item: stays on the calling thread.
        assert_eq!(par_map(vec![7u32], 8, |x| x * 2), vec![14]);
        // More threads than items, order preserved.
        assert_eq!(par_map(vec![1u32, 2, 3], 64, |x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock_or_dropped_siblings() {
        // Item 3 panics; the pool must (a) unwind out of par_for_each
        // rather than hang, (b) re-raise the original payload, and (c)
        // have processed every sibling item — a panicking task must not
        // silently drop its siblings' results.
        let processed = AtomicUsize::new(0);
        let mut items: Vec<u32> = (0..8).collect();
        // Silence the worker's default panic-to-stderr backtrace for the
        // duration of this test; restore the hook after.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_for_each(&mut items, 2, None, |_, item| {
                if *item == 3 {
                    panic!("task failure on item {item}");
                }
                processed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        std::panic::set_hook(prev_hook);
        let payload = result.expect_err("the worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("original panic payload");
        assert!(
            msg.contains("task failure on item 3"),
            "payload was {msg:?}"
        );
        assert_eq!(
            processed.load(Ordering::Relaxed),
            7,
            "all sibling items processed despite the panic"
        );
    }

    #[test]
    fn shared_sink_flushes_on_batch_boundary() {
        use crate::sink::CountingSink;
        let mut target = CountingSink::default();
        {
            let boxed: &mut (dyn PatternSink + Send) = &mut target;
            let shared = Mutex::new(boxed);
            let mut sink = SharedSink::new(&shared, None, SHARED_SINK_BATCH);
            sink.node(vec![EventId(0)], 1, 2, Vec::new());
            sink.flush();
        }
        assert_eq!(target.nodes(), 1);
    }

    #[test]
    fn shared_sink_renders_rows_and_stops_after_an_io_error() {
        use crate::pattern::Pattern;
        use crate::sink::JsonlSink;
        use ftpm_events::{EventRegistry, TemporalRelation};
        use ftpm_timeseries::{SymbolId, VariableId};

        /// Accepts this many writes, then fails.
        struct Failing(usize);
        impl std::io::Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("closed"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut reg = EventRegistry::new();
        let a = reg.intern(VariableId(0), SymbolId(1), || "A=On".into());
        let b = reg.intern(VariableId(1), SymbolId(1), || "B=On".into());
        let node = || {
            let pattern = Pattern::pair(a, TemporalRelation::Follow, b);
            vec![FrequentPattern {
                pattern,
                support: 1,
                rel_support: 0.5,
                confidence: 1.0,
                clipped_occurrences: 0,
            }]
        };
        let mut target = JsonlSink::new(Failing(1), &reg);
        {
            let encoder = target.encoder();
            assert!(encoder.is_some(), "a writer sink offers its encoder");
            let boxed: &mut (dyn PatternSink + Send) = &mut target;
            let shared = Mutex::new(boxed);
            let mut sink = SharedSink::new(&shared, encoder, 0);
            sink.node(vec![a, b], 1, 2, node());
            // Below the byte threshold: nothing reached the sink yet.
            assert!(matches!(&sink.pending, Pending::Rows { rows: 1, .. }));
            sink.flush();
            sink.node(vec![a, b], 1, 2, node());
            sink.flush();
            assert!(matches!(&sink.pending, Pending::Rows { open: false, .. }));
            // The worker learned of the error and renders no more.
            sink.node(vec![a, b], 1, 2, node());
            assert!(matches!(&sink.pending, Pending::Rows { rows: 0, .. }));
        }
        assert_eq!(target.written(), 1, "the failed append counts no row");
        assert!(target.finish().is_err(), "the error is reported at finish");
    }
}
