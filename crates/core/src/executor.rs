//! Two-phase candidate-exchange shard executor — the one sharded path.
//!
//! A shard cannot apply the global σ/δ locally: a globally frequent
//! pattern may sit below threshold in every single shard, so each shard
//! enumerates its candidates *support-complete* (local `σ_abs = 1`).
//! Left at that, every shard would enumerate its whole support-1 pattern
//! space. This module restores real pruning with the classic
//! scatter/gather split: shards and a coordinator walk the Hierarchical
//! Pattern Graph *in lockstep, one level at a time*.
//!
//! Each round `k`:
//!
//! 1. **Propose** — every shard enumerates its level-`k` candidates
//!    (support-complete locally, grown only from the previous round's
//!    survivors) and reports each with its **owned** support and owned
//!    clipped-occurrence count: "what do you see, and how often?".
//! 2. **Gate** — the coordinator sums owned supports across shards
//!    (window ownership partitions the window space, so the sums are the
//!    exact global statistics) and applies the *global* σ/δ Apriori gate.
//!    A pattern that cannot reach the global thresholds dies here — in
//!    every shard at once — before level `k + 1` is ever enumerated.
//!    This is sound for the same reason single-machine Apriori is: an
//!    occurrence of a `(k+1)`-pattern contains an occurrence of its
//!    `k`-prefix in the same window, so `supp(prefix) ≥ supp(P)` and
//!    `conf(prefix) ≥ conf(P)` hold on the *summed* statistics.
//! 3. **Retain/expand** — shards drop the losers' occurrence bindings
//!    and grow only the survivors into round `k + 1`.
//!
//! The surviving candidates accumulate into a [`crate::merge::ShardMerge`],
//! which keeps the final confidence/stats pass and the deterministic
//! sorted emission — the merged output is bit-identical to the unsharded
//! [`crate::mine_exact`].
//!
//! Shards run their propose/expand stages concurrently on the scoped
//! worker machinery of [`crate::parallel`]; the thread budget is split
//! between shard-level concurrency and intra-shard workers (L2 pair
//! chunks, level-`k` node growth), so `--threads` composes with
//! `--shards`. The propose/recount calls on `ShardWorker` are the seam
//! a cross-machine deployment would turn into RPC messages: the
//! coordinator only ever sees `(candidate key, owned support, owned
//! clipped)` triples and broadcasts survivor sets.
//!
//! The exchange wire is *id-keyed*: a candidate is identified by its
//! [`DeltaKey`] — `(parent pattern id, appended event, packed delta
//! relation column)` — never by a cloned [`crate::Pattern`]. The
//! coordinator's [`crate::merge::ShardMerge`] owns the hash-consed
//! [`crate::PatternPool`]; parents are prior-round survivors whose pool
//! ids the coordinator broadcast back in its verdict, so proposing,
//! summing, gating and retaining are all 16-byte-key map operations with
//! zero pattern allocation. Patterns materialize exactly once: in the
//! merge's final sorted emission.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use ftpm_events::{BoundaryKernel, BoundaryPolicy, BoundaryVisit, EventId};

use crate::candidates::{CorrelationFilter, L2Engine, PairRelations, WorkNode, WorkPattern, CONF_EPS};
use crate::config::{MinerConfig, MAX_EVENTS_HARD_CAP};
use crate::exact::grow_candidates;
use crate::index::DatabaseIndex;
use crate::merge::{merge_stats, ShardMerge};
use crate::occ::OccRange;
use crate::parallel::{par_for_each, par_map};
use crate::pool::{decode_column, DeltaKey, FnvHashMap, PatternId};
use crate::result::MiningStats;
use crate::shard::{Shard, ShardPlan};
use crate::sink::PatternSink;

/// How a shard behaved during one sharded mining run — the per-shard
/// observability the CLI and the `repro_exchange` gate report.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard position in the plan, `0..K`.
    pub shard: usize,
    /// Windows this shard owns (its share of the global `|D_SEQ|`).
    pub windows_owned: usize,
    /// Candidate patterns the shard proposed across all levels — only
    /// patterns grown from globally surviving parents.
    pub candidates_proposed: usize,
    /// Proposed candidates killed by the global σ/δ gate.
    pub candidates_pruned: usize,
    /// Wall time the shard spent in its mining stages.
    pub wall: Duration,
}

/// Owned statistics of one proposed candidate: `(support, clipped)`.
type OwnedStats = (usize, usize);

/// The survivor verdict the coordinator broadcasts after each gate:
/// every surviving candidate key mapped to its master pool id (the
/// parent id of next round's extensions).
type Verdict = FnvHashMap<DeltaKey, PatternId>;

/// A work pattern's canonical exchange identity, read off the fields the
/// miner already tracks (prefix id, appended event, packed delta column).
fn delta_key(wp: &WorkPattern) -> DeltaKey {
    let events = wp.pattern.events();
    DeltaKey {
        parent: wp.parent_id,
        last: events[events.len() - 1],
        code: wp.code,
    }
}

/// Per-shard worker of the exchange executor: holds the shard's masked
/// index and the current level's occurrence bindings, and answers the
/// two protocol questions — [`propose`](ShardWorker::propose_l2) ("what
/// do you see?") and [`recount`](ShardWorker::recount) ("how often do
/// you see these?") — as independent calls.
pub(crate) struct ShardWorker<'a, K: BoundaryKernel> {
    shard: &'a Shard,
    /// Support-complete local config: global relation model and pruning
    /// switches, but `σ`/`δ` ≈ 0 — only the coordinator may threshold.
    local_cfg: MinerConfig,
    boundary: BoundaryPolicy,
    /// Intra-shard worker threads for the propose stages.
    threads: usize,
    /// Masked to the shard's owned windows (built by [`ShardWorker::l1`]
    /// in the first concurrent round): overlap-pad windows are invisible
    /// to mining — they exist only for the conversion's run extents — so
    /// every enumerated occurrence is an owned occurrence and local
    /// supports *are* owned supports.
    index: Option<DatabaseIndex>,
    /// Whether any owned instance is boundary-clipped (and visible under
    /// the active policy) — gates the per-occurrence clip scan.
    has_clipped: bool,
    /// Owned single-event supports reported by [`ShardWorker::l1`].
    l1_supports: Vec<usize>,
    /// Owned `(clipped, discarded)` instance counts from the L1 scan.
    l1_boundary: (u64, u64),
    /// Current level's nodes with occurrence bindings (survivors only,
    /// once the coordinator's verdict is in).
    level: Vec<WorkNode>,
    /// The A-HTPGM gate, built once globally by the coordinator (from
    /// the *global* correlation graph over the master registry — never
    /// per shard): L2 proposals skip MI-pruned pairs outright, so a
    /// pruned pair costs no verification in any shard.
    corr: Option<&'a CorrelationFilter<'a>>,
    /// The last propose round's candidates with owned statistics, keyed
    /// by [`DeltaKey`] — parents carry the master pool ids the
    /// coordinator assigned last round (shard databases speak the master
    /// registry, so level-2 parents are master root ids), which makes the
    /// key canonical across shards without any pattern cloning.
    proposals: FnvHashMap<DeltaKey, OwnedStats>,
    stats: MiningStats,
    proposed_total: usize,
    pruned_total: usize,
    wall: Duration,
    /// The monomorphized boundary kernel (fixed at dispatch).
    kernel: PhantomData<K>,
}

impl<'a, K: BoundaryKernel> ShardWorker<'a, K> {
    fn new(
        shard: &'a Shard,
        cfg: &MinerConfig,
        threads: usize,
        corr: Option<&'a CorrelationFilter<'a>>,
    ) -> Self {
        ShardWorker {
            shard,
            local_cfg: MinerConfig {
                sigma: f64::MIN_POSITIVE,
                delta: f64::MIN_POSITIVE,
                ..*cfg
            },
            boundary: cfg.relation.boundary,
            threads,
            corr,
            index: None,
            has_clipped: false,
            l1_supports: Vec::new(),
            l1_boundary: (0, 0),
            level: Vec::new(),
            proposals: FnvHashMap::default(),
            stats: MiningStats::default(),
            proposed_total: 0,
            pruned_total: 0,
            wall: Duration::ZERO,
            kernel: PhantomData,
        }
    }

    /// Builds the masked index and records the shard's owned single-event
    /// supports plus owned boundary counts — the L1 half of the exchange,
    /// and the merge's confidence denominators.
    fn l1(&mut self) {
        let index =
            DatabaseIndex::build_masked(&self.shard.db, self.boundary, Some(&self.shard.owned));
        let mut clipped = 0u64;
        for (si, seq) in self.shard.db.sequences().iter().enumerate() {
            if !self.shard.owned[si] {
                continue;
            }
            clipped += seq.instances().iter().filter(|i| i.is_clipped()).count() as u64;
        }
        let discarded = if self.boundary == BoundaryPolicy::Discard {
            clipped
        } else {
            0
        };
        // Under Discard the index hides clipped instances, so occurrence
        // tuples can never contain one and the clip scan is pointless.
        self.has_clipped = clipped > 0 && self.boundary != BoundaryPolicy::Discard;
        self.l1_supports = (0..self.shard.db.registry().len())
            .map(|e| index.support(EventId(e as u32)))
            .collect();
        self.l1_boundary = (clipped, discarded);
        self.index = Some(index);
    }

    /// Propose round for level 2: enumerates candidate pairs over the
    /// globally frequent events, support-complete locally, and records
    /// each resulting pattern with its owned statistics.
    fn propose_l2(&mut self, freq: &[EventId]) {
        // lint: allow(panic, structural invariant: the executor always runs l1 before later rounds)
        let index = self.index.as_ref().expect("l1 ran first");
        // Only locally present events can contribute an occurrence.
        let local: Vec<EventId> = freq
            .iter()
            .copied()
            .filter(|&e| index.support(e) > 0)
            .collect();
        // The G_C edge gate applies *at propose time*: an MI-pruned pair
        // is never enumerated, so no shard ever verifies it — strictly
        // fewer proposals than filtering the exchange output post hoc.
        let corr = self.corr;
        let pairs: Vec<(EventId, EventId)> = local
            .iter()
            .flat_map(|&ei| local.iter().map(move |&ej| (ei, ej)))
            .filter(|&(ei, ej)| corr.is_none_or(|c| c.allows_pair(ei, ej)))
            .collect();
        let engine = L2Engine::<K> {
            db: &self.shard.db,
            index,
            cfg: &self.local_cfg,
            sigma_abs: 1,
            kernel: PhantomData,
        };
        // Chunked by index range over the shared pair list (no per-chunk
        // copies) so the scoped workers amortize their bookkeeping.
        let starts: Vec<usize> = (0..pairs.len()).step_by(32).collect();
        let pairs = &pairs;
        let outputs = par_map(starts, self.threads, |start| {
            let mut stats = MiningStats::default();
            stats.nodes_verified.push(0);
            let mut nodes = Vec::new();
            for &(ei, ej) in &pairs[start..(start + 32).min(pairs.len())] {
                if let Some(node) = engine.try_pair(ei, ej, &mut stats) {
                    nodes.push(node);
                }
            }
            (nodes, stats)
        });
        self.stats.nodes_verified.push(0);
        self.stats.nodes_kept.push(0);
        self.stats.patterns_found.push(0);
        self.level.clear();
        for (nodes, stats) in outputs {
            merge_stats(&mut self.stats, stats);
            self.level.extend(nodes);
        }
        self.stats.nodes_kept[0] += self.level.len();
        self.stats.patterns_found[0] +=
            self.level.iter().map(|n| n.patterns.len()).sum::<usize>();
        self.collect_proposals();
    }

    /// Propose round for level `k ≥ 3`: grows the retained survivors by
    /// one chronologically-last event each, support-complete locally.
    fn propose_next(&mut self, freq: &[EventId], pair_relations: &PairRelations, k: usize) {
        let nodes = std::mem::take(&mut self.level);
        let db = &self.shard.db;
        // lint: allow(panic, structural invariant: the executor always runs l1 before later rounds)
        let index = self.index.as_ref().expect("l1 ran first");
        let cfg = &self.local_cfg;
        let outputs = par_map(nodes, self.threads, |node| {
            let mut stats = MiningStats::default();
            while stats.nodes_verified.len() < k - 1 {
                stats.nodes_verified.push(0);
                stats.nodes_kept.push(0);
                stats.patterns_found.push(0);
            }
            // The exact same extension loop as the unsharded miner —
            // local σ_abs = 1 gates only empty joints, and the Lemma 5
            // table is the *global* one the coordinator broadcast.
            let children = grow_candidates::<K>(
                db,
                index,
                cfg,
                &mut stats,
                &node,
                freq,
                pair_relations,
                1,
                k,
            );
            (children, stats)
        });
        for (children, stats) in outputs {
            merge_stats(&mut self.stats, stats);
            self.level.extend(children);
        }
        self.collect_proposals();
    }

    /// Records the current level's patterns as this round's proposals,
    /// with owned support (the masked index makes every occurrence an
    /// owned occurrence, so the pattern's support *is* its owned support)
    /// and owned clipped-occurrence count.
    fn collect_proposals(&mut self) {
        self.proposals.clear();
        for node in &self.level {
            for wp in &node.patterns {
                let clipped = if self.has_clipped {
                    let seqs = self.shard.db.sequences();
                    wp.occurrences
                        .iter()
                        .filter(|&oi| {
                            let insts = seqs[node.occs.seq(oi) as usize].instances();
                            node.occs
                                .tuple(oi)
                                .iter()
                                .any(|&ti| insts[ti as usize].is_clipped())
                        })
                        .count()
                } else {
                    0
                };
                self.proposals.insert(delta_key(wp), (wp.support, clipped));
            }
        }
        self.proposed_total += self.proposals.len();
    }

    /// Answers "how often do you see these?" for an arbitrary candidate
    /// set at the last proposed level: owned `(support, clipped)` per
    /// candidate, `(0, 0)` for candidates this shard has no owned
    /// occurrence of. Local propose rounds are support-complete, so a
    /// candidate absent from the proposals genuinely has owned support 0
    /// — this is the recount half of the exchange wire protocol.
    pub(crate) fn recount(&self, candidates: &[DeltaKey]) -> Vec<OwnedStats> {
        candidates
            .iter()
            .map(|key| self.proposals.get(key).copied().unwrap_or((0, 0)))
            .collect()
    }

    /// Applies the coordinator's verdict: drops every pattern (and every
    /// emptied node) the global gate killed, releasing their occurrence
    /// bindings before the next round, and stamps each survivor with the
    /// master pool id the coordinator assigned it — next round's
    /// extensions inherit it as their [`DeltaKey`] parent.
    fn retain(&mut self, verdict: &Verdict) {
        let before: usize = self.level.iter().map(|n| n.patterns.len()).sum();
        for node in &mut self.level {
            node.patterns.retain_mut(|wp| match verdict.get(&delta_key(wp)) {
                Some(&id) => {
                    wp.id = id;
                    true
                }
                None => false,
            });
            // Drop the losers' occurrence bindings: patterns hold
            // ascending disjoint arena ranges, so releasing them is one
            // compaction sweep over the node's flat columns.
            let mut kept: Vec<OccRange> =
                node.patterns.iter().map(|wp| wp.occurrences).collect();
            node.occs.compact(&mut kept);
            for (wp, range) in node.patterns.iter_mut().zip(kept) {
                wp.occurrences = range;
            }
        }
        self.level.retain(|n| !n.patterns.is_empty());
        let after: usize = self.level.iter().map(|n| n.patterns.len()).sum();
        self.pruned_total += before - after;
    }
}

/// Runs one stage on every worker, shards concurrent up to `outer`
/// threads, accumulating per-shard wall time. With `sched` set, shard
/// claims go through the seeded sequencer (see [`crate::schedule`]).
fn run_round<'a, K: BoundaryKernel, F>(
    workers: &mut [ShardWorker<'a, K>],
    outer: usize,
    sched: Option<&crate::schedule::SimCtl>,
    f: F,
) where
    F: Fn(&mut ShardWorker<'a, K>) + Sync,
{
    par_for_each(workers, outer, sched, |_, worker| {
        let started = Instant::now();
        f(worker);
        worker.wall += started.elapsed();
    });
}

/// Sums the workers' proposals, applies the global σ/δ gate, interns the
/// survivors into the merge's pattern pool and folds their statistics
/// into the id-indexed accumulator, then returns the verdict to
/// broadcast. Every map in the round is keyed by the 16-byte
/// [`DeltaKey`]; the only per-survivor pool work is one delta
/// interning (parents are already pooled prior-round survivors), and the
/// confidence numerator walks the pooled parent chain instead of an
/// events slice — no pattern is cloned or hashed vector-wide anywhere.
fn gate_round<K: BoundaryKernel>(
    workers: &[ShardWorker<'_, K>],
    event_supports: &[usize],
    sigma_abs: usize,
    delta: f64,
    merge: &mut ShardMerge,
) -> Verdict {
    let mut sums: FnvHashMap<DeltaKey, OwnedStats> = FnvHashMap::default();
    for worker in workers {
        for (key, (support, clipped)) in &worker.proposals {
            let entry = sums.entry(*key).or_insert((0, 0));
            entry.0 += support;
            entry.1 += clipped;
        }
    }
    let mut verdict = Verdict::default();
    for (key, (support, clipped)) in sums {
        if support < sigma_abs {
            continue;
        }
        let max_supp = merge
            .pool()
            .events_rev(key.parent)
            .map(|e| event_supports[e.0 as usize])
            .max()
            // lint: allow(panic, structural invariant: patterns always hold at least one event)
            .expect("patterns have events")
            .max(event_supports[key.last.0 as usize]);
        if (support as f64 / max_supp as f64) + CONF_EPS < delta {
            continue;
        }
        let id = merge.pool_mut().intern_packed(key);
        merge.add_by_id(id, support, clipped);
        verdict.insert(key, id);
    }
    verdict
}

/// Debug cross-check of the exchange protocol: recounting each survivor
/// against every shard must find its owned support somewhere — i.e. the
/// propose and recount answers agree as independent calls.
fn debug_assert_recount<K: BoundaryKernel>(
    workers: &[ShardWorker<'_, K>],
    verdict: &Verdict,
) {
    if cfg!(debug_assertions) {
        for candidate in verdict.keys() {
            let total: usize = workers
                .iter()
                .map(|w| w.recount(std::slice::from_ref(candidate))[0].0)
                .sum();
            debug_assert!(total > 0, "a survivor must have owned support somewhere");
        }
    }
}

/// Drives the two-phase exchange over a [`ShardPlan`]: concurrent shard
/// workers, a level-lockstep propose → gate → expand loop, and the final
/// [`ShardMerge`] confidence/emission pass into `sink`. Returns the
/// merged run statistics and one [`ShardReport`] per shard.
///
/// `corr` is the A-HTPGM composition seam: the coordinator holds the one
/// globally-built [`CorrelationFilter`] (see [`crate::approx`]) and
/// applies it exactly where the unsharded miner would — the round-1
/// global frequent-event list keeps only `X_C` events, and every
/// worker's L2 propose skips MI-pruned pairs — so the merged output
/// equals unsharded [`crate::mine_approximate`] identically.
pub(crate) fn mine_exchange_internal(
    plan: &ShardPlan,
    cfg: &MinerConfig,
    threads: usize,
    corr: Option<&CorrelationFilter<'_>>,
    sink: &mut dyn PatternSink,
    sched: Option<&crate::schedule::SimCtl>,
) -> (MiningStats, Vec<ShardReport>) {
    // Monomorphization seam: fix the boundary kernel once per run (the
    // same dispatch point discipline as `parallel::mine_parallel_internal`).
    struct Run<'a, 'b, 'c> {
        plan: &'a ShardPlan,
        cfg: &'a MinerConfig,
        threads: usize,
        corr: Option<&'a CorrelationFilter<'c>>,
        sink: &'a mut dyn PatternSink,
        sched: Option<&'b crate::schedule::SimCtl>,
    }
    impl BoundaryVisit for Run<'_, '_, '_> {
        type Out = (MiningStats, Vec<ShardReport>);
        fn visit<K: BoundaryKernel>(self) -> Self::Out {
            mine_exchange_internal_k::<K>(
                self.plan,
                self.cfg,
                self.threads,
                self.corr,
                self.sink,
                self.sched,
            )
        }
    }
    cfg.relation.boundary.dispatch(Run {
        plan,
        cfg,
        threads,
        corr,
        sink,
        sched,
    })
}

/// [`mine_exchange_internal`], monomorphized over the boundary kernel.
fn mine_exchange_internal_k<K: BoundaryKernel>(
    plan: &ShardPlan,
    cfg: &MinerConfig,
    threads: usize,
    corr: Option<&CorrelationFilter<'_>>,
    sink: &mut dyn PatternSink,
    sched: Option<&crate::schedule::SimCtl>,
) -> (MiningStats, Vec<ShardReport>) {
    let shards = plan.shards();
    let n_shards = shards.len().max(1);
    let threads = threads.max(1);
    // The thread budget splits between shard-level concurrency and
    // intra-shard workers: up to K concurrent shards, each with its share
    // of the remaining parallelism (a single shard gets the full budget).
    let outer = threads.min(n_shards);
    // Scheduled runs force intra-shard parallelism to 1: the exchange
    // protocol's concurrency story is the shard-level round loop, and the
    // sequencer must be the only source of interleaving.
    let inner = if sched.is_some() {
        1
    } else {
        (threads / n_shards).max(1)
    };
    let mut workers: Vec<ShardWorker<'_, K>> = shards
        .iter()
        .map(|shard| ShardWorker::new(shard, cfg, inner, corr))
        .collect();
    let mut merge = ShardMerge::new(plan.shared_registry(), plan.n_windows());
    let sigma_abs = cfg.absolute_support(plan.n_windows());
    let max_events = cfg.max_events.min(MAX_EVENTS_HARD_CAP);

    // ---- Round 1: owned L1 supports and boundary counts ----
    run_round(&mut workers, outer, sched, |w| w.l1());
    let mut event_supports = vec![0usize; plan.registry().len()];
    let (mut clipped_total, mut discarded_total) = (0u64, 0u64);
    for worker in &workers {
        for (e, &s) in worker.l1_supports.iter().enumerate() {
            event_supports[e] += s;
        }
        clipped_total += worker.l1_boundary.0;
        discarded_total += worker.l1_boundary.1;
    }
    // Events outside X_C are invisible to the whole run — the merge's
    // frequent-event list and confidence denominators must match the
    // unsharded approximate miner's filtered L1, and filtered patterns
    // only ever reference allowed events.
    for (e, &s) in event_supports.iter().enumerate() {
        if corr.is_none_or(|c| c.allows_event(EventId(e as u32))) {
            merge.add_event_support(EventId(e as u32), s);
        }
    }
    merge.set_boundary_counts(clipped_total, discarded_total);
    let freq: Vec<EventId> = (0..event_supports.len())
        .filter(|&e| corr.is_none_or(|c| c.allows_event(EventId(e as u32))))
        .filter(|&e| event_supports[e] >= sigma_abs)
        .map(|e| EventId(e as u32))
        .collect();

    // ---- Round 2: L2 propose → global gate → retain ----
    run_round(&mut workers, outer, sched, |w| w.propose_l2(&freq));
    let mut verdict = gate_round(&workers, &event_supports, sigma_abs, cfg.delta, &mut merge);
    debug_assert_recount(&workers, &verdict);
    run_round(&mut workers, outer, sched, |w| w.retain(&verdict));

    // The survivors are by construction the globally frequent 2-event
    // patterns — the transitivity table of Lemmas 4–7, identical to the
    // one the unsharded miner builds, shared read-only by every shard.
    // A level-2 key decodes in place: the parent is a root (so its id is
    // the first event's id) and the packed column holds one relation.
    let mut pair_relations = PairRelations::new(plan.registry().len());
    for key in verdict.keys() {
        pair_relations.insert(
            EventId(key.parent.0),
            decode_column(key.code, 1)[0],
            key.last,
        );
    }

    // ---- Rounds 3+: lockstep growth of the surviving candidates ----
    for k in 3..=max_events {
        if verdict.is_empty() {
            break;
        }
        run_round(&mut workers, outer, sched, |w| {
            w.propose_next(&freq, &pair_relations, k);
        });
        verdict = gate_round(&workers, &event_supports, sigma_abs, cfg.delta, &mut merge);
        debug_assert_recount(&workers, &verdict);
        run_round(&mut workers, outer, sched, |w| w.retain(&verdict));
    }

    // ---- Final pass: merged stats, thresholds (idempotent here — the
    // gate already applied them), deterministic sorted emission ----
    let mut reports = Vec::with_capacity(workers.len());
    for worker in workers {
        merge.add_stats(worker.stats);
        reports.push(ShardReport {
            shard: worker.shard.index,
            windows_owned: worker.shard.owned.iter().filter(|&&o| o).count(),
            candidates_proposed: worker.proposed_total,
            candidates_pruned: worker.pruned_total,
            wall: worker.wall,
        });
    }
    (merge.finish_into(cfg, sink), reports)
}
