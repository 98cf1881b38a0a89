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
//! Each round `k` has three steps:
//!
//! 1. **Count** — every shard counts its level-`k` candidates
//!    (support-complete locally, grown only from the previous round's
//!    survivors, or at level 2 from the L1 roots of the frequent events
//!    it holds) straight from the reused count-only extension-group
//!    slots of [`count_candidates`], the growth step of every level. The
//!    slots keep no occurrence row: each group counts its support, and
//!    its occurrences that bind a clipped instance when the shard holds
//!    any, as the instance loop files them. The shard reports each
//!    candidate with its **owned** support and owned clipped-occurrence
//!    count — "what do you see, and how often?" — and builds nothing for
//!    it: no [`crate::Pattern`], joint bitmap, occurrence range or row.
//! 2. **Gate** — the coordinator sums owned supports across shards
//!    (window ownership partitions the window space, so the sums are the
//!    exact global statistics) and applies the *global* σ/δ Apriori gate.
//!    A pattern that cannot reach the global thresholds dies here — in
//!    every shard at once — before level `k + 1` is ever enumerated.
//!    This is sound for the same reason single-machine Apriori is: an
//!    occurrence of a `(k+1)`-pattern contains an occurrence of its
//!    `k`-prefix in the same window, so `supp(prefix) ≥ supp(P)` and
//!    `conf(prefix) ≥ conf(P)` hold on the *summed* statistics.
//! 3. **Re-derive** — each shard re-runs [`extend_node`] only where it
//!    proposed a survivor. The growth step builds only the verdict's
//!    patterns, each stamped with its master pool id as it is built, and
//!    they become the parents of round `k + 1` with their occurrence
//!    bindings. Nothing is re-derived after the last round.
//!
//! Between rounds a shard therefore holds survivors only — about 7 % of
//! its proposals on the long perfbench input, where 215,471 of 230,783
//! die at the gate. Re-deriving repeats the survivors' instance loops;
//! holding every proposal's bindings until the verdict instead would
//! keep a whole level of them alive in every shard. The re-derivation's
//! counters go to a scratch [`MiningStats`], since the count already
//! recorded that work.
//!
//! The gate decides each candidate once. It interns every survivor into
//! the master [`crate::PatternPool`] and pushes the survivor's summed
//! statistics onto one column, so the pool's entries past the roots are
//! the survivor list. After the last round the survivors are emitted
//! sorted by pattern — the output is bit-identical to the unsharded
//! [`crate::mine_exact`].
//!
//! Shards run their stages concurrently on the scoped worker machinery
//! of [`crate::parallel`]; the thread budget is split between
//! shard-level concurrency and intra-shard workers (chunks of parent
//! nodes), so `--threads` composes with `--shards`. The
//! propose/recount calls on `ShardWorker` are the seam a cross-machine
//! deployment would turn into RPC messages: the coordinator only ever
//! sees `(candidate key, owned support, owned clipped)` triples and
//! broadcasts survivor sets.
//!
//! The exchange wire is *id-keyed*: a candidate is identified by its
//! [`DeltaKey`] — `(parent pattern id, appended event, packed delta
//! relation column)` — never by a cloned [`crate::Pattern`]. The
//! coordinator owns the hash-consed pool; parents are prior-round
//! survivors whose pool ids the coordinator broadcast back in its
//! verdict. Each shard hands the gate its proposals as one *sorted run*
//! — a vector of unique keys in ascending order, trimmed to its length —
//! and the coordinator merges the K runs in one pass with K cursors,
//! summing each key's owned statistics as it passes and gating it on the
//! spot. No map of proposals is built anywhere: not per shard, and not
//! for the union. A shard builds a pattern only for a survivor it
//! re-derives, and the coordinator resolves each output pattern once, in
//! its final sorted emission.

use std::marker::PhantomData;
use std::ops::Range;
use std::time::{Duration, Instant};

use ftpm_events::{BoundaryKernel, BoundaryPolicy, EventId, TemporalRelation};

use crate::approx::CorrelationFilter;
use crate::candidates::{passes_thresholds, PairRelations, Screen, WorkNode};
use crate::config::MinerConfig;
use crate::exact::{count_candidates, extend_node, max_support, ExtensionGroups, SupportBound};
use crate::index::DatabaseIndex;
use crate::parallel::{par_for_each, par_map};
use crate::pattern::Pattern;
use crate::pool::{decode_column, DeltaKey, FnvHashMap, PatternId, PatternPool};
use crate::result::{merge_stats, FrequentPattern, MiningStats};
use crate::shard::{Shard, ShardPlan};
use crate::sink::PatternSink;

/// How a shard behaved during one sharded mining run — the per-shard
/// observability the CLI reports and the exchange tests assert on.
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

/// One gate survivor's statistics, summed over the shards:
/// `(support, clipped, confidence)`. The gate pushes one per survivor as
/// it interns the survivor, so survivor `i` is pool entry `n_roots + i`.
type Survivor = (usize, usize, f64);

/// The survivor verdict the coordinator broadcasts after each gate:
/// every surviving candidate key mapped to its master pool id (the
/// parent id of next round's extensions).
type Verdict = FnvHashMap<DeltaKey, PatternId>;

/// How many parent nodes (L1 roots, or level-`k` nodes) one
/// intra-shard work unit takes: the scoped workers amortize their
/// bookkeeping over a chunk.
const CHUNK: usize = 32;

/// Per-shard worker of the exchange executor: holds the shard's masked
/// index and the previous round's survivors, and answers the two
/// protocol questions — [`propose`](ShardWorker::propose) ("what do
/// you see?") and [`recount`](ShardWorker::recount) ("how often do you
/// see these?") — as independent calls.
pub(crate) struct ShardWorker<'a, K: BoundaryKernel> {
    shard: &'a Shard,
    /// Support-complete local config: global relation model and pruning
    /// switches, but `σ`/`δ` ≈ 0 — only the coordinator may threshold.
    local_cfg: MinerConfig,
    boundary: BoundaryPolicy,
    /// Intra-shard worker threads for the propose and re-derive stages.
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
    /// The parents of the next propose round: the L1 roots in round 2.
    /// A round counts its proposals without building them, the
    /// coordinator gates them, and the shard then re-derives only the
    /// verdict's survivors among its own proposals: they are kept here
    /// with their occurrence bindings, stamped with their master pool
    /// ids. Nothing else is ever built.
    level: Vec<WorkNode>,
    /// The last propose round's candidates with owned statistics, as a
    /// sorted run: unique [`DeltaKey`]s in ascending order, held from the
    /// count until the shard has listed the survivors it re-derives.
    /// Parents carry the master pool ids the coordinator assigned last
    /// round (shard databases speak the master registry, so level-2
    /// parents are master root ids), which makes the key canonical across
    /// shards without any pattern cloning.
    proposals: Vec<(DeltaKey, OwnedStats)>,
    /// The shard's work counters, and its owned boundary counts.
    stats: MiningStats,
    proposed_total: usize,
    pruned_total: usize,
    wall: Duration,
    /// The monomorphized boundary kernel (fixed at dispatch).
    kernel: PhantomData<K>,
}

impl<'a, K: BoundaryKernel> ShardWorker<'a, K> {
    fn new(shard: &'a Shard, cfg: &MinerConfig, threads: usize) -> Self {
        ShardWorker {
            shard,
            local_cfg: MinerConfig {
                sigma: f64::MIN_POSITIVE,
                delta: f64::MIN_POSITIVE,
                ..*cfg
            },
            boundary: cfg.relation.boundary,
            threads,
            index: None,
            has_clipped: false,
            l1_supports: Vec::new(),
            level: Vec::new(),
            proposals: Vec::new(),
            stats: MiningStats::default(),
            proposed_total: 0,
            pruned_total: 0,
            wall: Duration::ZERO,
            kernel: PhantomData,
        }
    }

    /// Builds the masked index and records the shard's owned single-event
    /// supports plus owned boundary counts — the L1 half of the exchange,
    /// and the gate's confidence denominators.
    fn l1(&mut self) {
        let index =
            DatabaseIndex::build_masked(&self.shard.db, self.boundary, Some(&self.shard.owned));
        self.has_clipped = self.stats.record_boundary(&index, self.boundary);
        self.l1_supports = (0..self.shard.db.registry().len())
            .map(|e| index.support(EventId(e as u32)))
            .collect();
        self.index = Some(index);
    }

    /// The masked index.
    #[expect(
        clippy::expect_used,
        reason = "structural invariant: the executor always runs l1 before later rounds"
    )]
    fn index(&self) -> &DatabaseIndex {
        self.index.as_ref().expect("l1 ran first")
    }

    /// Propose round for level `k`: counts the extensions of the parents
    /// by one chronologically-last event each, support-complete locally,
    /// building nothing. Level 2's parents are the roots of the frequent
    /// events this shard holds, grown by those events only: a pair with
    /// an event the shard lacks has no local occurrence, and trying it
    /// would count it as Apriori-pruned.
    fn propose(&mut self, freq: &[EventId], screen: Screen<'_>, k: usize) {
        let local: Vec<EventId>;
        let cands = if k == 2 {
            let index = self.index();
            local = freq
                .iter()
                .copied()
                .filter(|&e| index.support(e) > 0)
                .collect();
            let roots = local.iter().map(|&e| WorkNode::root(index, e)).collect();
            self.level = roots;
            &local
        } else {
            freq
        };
        let mut proposals = std::mem::take(&mut self.proposals);
        let mut stats = std::mem::take(&mut self.stats);
        let (db, index, cfg) = (&self.shard.db, self.index(), &self.local_cfg);
        let (level, count_clipped) = (&self.level, self.has_clipped);
        // The same gates and grouping loop as the unsharded miner —
        // local σ_abs = 1 gates only empty joints, and the Lemma 5 table
        // is the *global* one the coordinator broadcast. One set of
        // count-only extension-group slots serves a whole chunk of nodes.
        let count = |range: Range<usize>, stats: &mut MiningStats, propose: &mut Propose<'_>| {
            let mut groups = ExtensionGroups::counting(count_clipped);
            for node in &level[range] {
                count_candidates::<K>(
                    db,
                    index,
                    cfg,
                    stats,
                    node,
                    cands,
                    screen,
                    1,
                    k,
                    &mut groups,
                    |key, support, clipped| propose(key, (support, clipped)),
                );
            }
        };
        count_proposals(
            level.len(),
            k,
            self.threads,
            count,
            &mut proposals,
            &mut stats,
        );
        self.proposals = proposals;
        self.stats = stats;
        self.proposed_total += self.proposals.len();
    }

    /// Answers "how often do you see these?" for an arbitrary candidate
    /// set at the last proposed level, between the count and the
    /// re-derivation: owned `(support, clipped)` per candidate, `(0, 0)`
    /// for candidates this shard has no owned occurrence of. Local
    /// propose rounds are support-complete, so a candidate absent from
    /// the proposals genuinely has owned support 0 — this is the recount
    /// half of the exchange wire protocol.
    pub(crate) fn recount(&self, candidates: &[DeltaKey]) -> Vec<OwnedStats> {
        candidates
            .iter()
            .map(|key| self.proposed(key).map_or((0, 0), |at| self.proposals[at].1))
            .collect()
    }

    /// Position of `key` in the sorted proposal run, if this shard
    /// proposed it.
    fn proposed(&self, key: &DeltaKey) -> Option<usize> {
        self.proposals.binary_search_by(|(k, _)| k.cmp(key)).ok()
    }

    /// The verdict's survivors among this shard's proposals.
    fn proposed_survivors<'v>(
        &'v self,
        verdict: &'v Verdict,
    ) -> impl Iterator<Item = &'v DeltaKey> + 'v {
        verdict.keys().filter(|key| self.proposed(key).is_some())
    }

    /// Counts this round's proposals that the coordinator's gate killed.
    fn count_pruned(&mut self, verdict: &Verdict) {
        let survived = self.proposed_survivors(verdict).count();
        self.pruned_total += self.proposals.len() - survived;
    }

    /// Re-derives the level-`k` survivors this shard proposed: each
    /// surviving `(parent node, appended event)` pair re-runs
    /// [`extend_node`] on the node's reused extension-group slots, which
    /// builds only the verdict's patterns, each stamped with the master
    /// pool id the coordinator assigned it (next round's extensions
    /// inherit it as their [`DeltaKey`] parent). The parents are released
    /// afterwards; the proposal already counted this work, so its
    /// counters go to a scratch [`MiningStats`].
    fn rederive(&mut self, verdict: &Verdict, screen: Screen<'_>, k: usize) {
        let parents = std::mem::take(&mut self.level);
        // Every proposal's parent is a pattern of one of these nodes.
        let node_of: FnvHashMap<PatternId, usize> = parents
            .iter()
            .enumerate()
            .flat_map(|(i, node)| node.patterns.iter().map(move |wp| (wp.id, i)))
            .collect();
        let mut work: Vec<(usize, EventId)> = self
            .proposed_survivors(verdict)
            .filter_map(|key| node_of.get(&key.parent).map(|&i| (i, key.last)))
            .collect();
        work.sort_unstable();
        work.dedup();
        // The run has answered every question of this round: free it
        // before the survivors' bindings are built.
        self.proposals = Vec::new();
        let (db, index, cfg) = (&self.shard.db, self.index(), &self.local_cfg);
        let per_node: Vec<&[(usize, EventId)]> = work.chunk_by(|a, b| a.0 == b.0).collect();
        let outputs = par_map(per_node, self.threads, |run| {
            let node = &parents[run[0].0];
            let mut scratch = MiningStats::default();
            let mut groups = ExtensionGroups::binding(k);
            run.iter()
                .filter_map(|&(_, ek)| {
                    let joint_supp = node.bitmap.and_count(index.bitmap(ek));
                    let max_supp = max_support(index, node, ek);
                    let survives = |key, support| {
                        let id = *verdict.get(&key)?;
                        Some((support as f64 / max_supp as f64, id))
                    };
                    // Support bound 1: the verdict, not the local
                    // support, decides which groups survive.
                    extend_node::<K>(
                        db,
                        index,
                        cfg,
                        &mut scratch,
                        node,
                        ek,
                        joint_supp,
                        screen,
                        SupportBound::NONE,
                        &mut groups,
                        survives,
                    )
                })
                .collect::<Vec<_>>()
        });
        self.level = outputs.into_iter().flatten().collect();
    }
}

/// Where a count-only proposal loop sends its rows.
type Propose<'p> = dyn FnMut(DeltaKey, OwnedStats) + 'p;

/// Runs `count` over the work items `0..n` of a level-`k` propose round,
/// on up to `threads` workers, and collects the rows it proposes into
/// `proposals` (cleared first) and its counters into `stats`. A single
/// worker counts every item at once, pushing its rows straight into the
/// run; several take chunks of [`CHUNK`] items and buffer each chunk's
/// rows, appended in item order. The run is then sorted by key and
/// trimmed to its length, the form the gate merges.
fn count_proposals(
    n: usize,
    k: usize,
    threads: usize,
    count: impl Fn(Range<usize>, &mut MiningStats, &mut Propose<'_>) + Sync,
    proposals: &mut Vec<(DeltaKey, OwnedStats)>,
    stats: &mut MiningStats,
) {
    proposals.clear();
    let fresh = || {
        let mut stats = MiningStats::default();
        stats.ensure_levels(k - 1);
        stats
    };
    if n > 0 && threads <= 1 {
        let mut local = fresh();
        count(0..n, &mut local, &mut |key, owned| {
            proposals.push((key, owned))
        });
        merge_stats(stats, local);
    } else if n > 0 {
        let starts: Vec<usize> = (0..n).step_by(CHUNK).collect();
        let outputs = par_map(starts, threads, |start| {
            let mut local = fresh();
            let mut rows = Vec::new();
            let end = (start + CHUNK).min(n);
            count(start..end, &mut local, &mut |key, owned| {
                rows.push((key, owned))
            });
            (rows, local)
        });
        for (rows, local) in outputs {
            merge_stats(stats, local);
            proposals.extend(rows);
        }
    }
    proposals.sort_unstable_by_key(|&(key, _)| key);
    debug_assert!(
        proposals.windows(2).all(|w| w[0].0 < w[1].0),
        "a shard proposes each candidate key once"
    );
    proposals.shrink_to_fit();
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

/// The coordinator's gate over one round's sorted proposal runs, one per
/// shard: merges them, summing each key's owned statistics as it passes,
/// decides σ/δ with [`passes_thresholds`], interns each survivor into
/// the master `pool` — in key order — and pushes its statistics onto
/// `survivors`, then returns the verdict to broadcast. The merge keeps
/// one cursor per run and holds no union of the proposals; the only
/// per-survivor pool work is one delta interning (parents are already
/// pooled prior-round survivors), and the confidence denominator walks
/// the pooled parent chain instead of an events slice — no pattern is
/// cloned or hashed vector-wide anywhere.
fn gate_round(
    runs: &[&[(DeltaKey, OwnedStats)]],
    event_supports: &[usize],
    sigma_abs: usize,
    delta: f64,
    pool: &mut PatternPool,
    survivors: &mut Vec<Survivor>,
) -> Verdict {
    let mut cursors = vec![0usize; runs.len()];
    let mut verdict = Verdict::default();
    // Each pass takes the smallest key under any cursor and advances
    // every cursor that holds it: runs are sorted and unique, so a key's
    // owned statistics are complete once it has passed.
    while let Some(key) = runs
        .iter()
        .zip(&cursors)
        .filter_map(|(run, &at)| run.get(at).map(|&(key, _)| key))
        .min()
    {
        let (mut support, mut clipped) = (0, 0);
        for (run, at) in runs.iter().zip(&mut cursors) {
            if let Some(&(k, (s, c))) = run.get(*at) {
                if k == key {
                    support += s;
                    clipped += c;
                    *at += 1;
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "structural invariant: patterns always hold at least one event"
        )]
        let max_supp = pool
            .events_rev(key.parent)
            .map(|e| event_supports[e.0 as usize])
            .max()
            .expect("patterns have events")
            .max(event_supports[key.last.0 as usize]);
        let Some(confidence) = passes_thresholds(support, max_supp, sigma_abs, delta) else {
            continue;
        };
        verdict.insert(key, pool.intern_packed(key));
        survivors.push((support, clipped, confidence));
    }
    verdict
}

/// Emits the gate's survivors into `sink` after the last round, sorted
/// by pattern (events, then relations) so the output is deterministic
/// whatever the shards' interleaving, after announcing the frequent
/// events. Survivor `i` is `pool` entry `n_roots + i`; only survivors
/// are resolved back to full patterns, so allocation is
/// output-proportional. The per-level `patterns_found` and `nodes_kept`
/// of `stats` are recounted over the output: one slot per level of
/// `nodes_verified`, `nodes_kept` counting distinct event lists.
fn emit_survivors(
    pool: &PatternPool,
    survivors: Vec<Survivor>,
    frequent_events: &[(EventId, usize)],
    n_windows: usize,
    stats: &mut MiningStats,
    sink: &mut dyn PatternSink,
) {
    sink.begin(frequent_events);
    let first = pool.n_roots();
    let mut rows: Vec<(Pattern, Survivor)> = survivors
        .into_iter()
        .enumerate()
        .map(|(i, survivor)| (pool.resolve(PatternId((first + i) as u32)), survivor))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));

    // A node is an event list, and rows sort by events first, so a
    // node's patterns are adjacent.
    stats.nodes_kept = vec![0; stats.nodes_verified.len()];
    stats.patterns_found = vec![0; stats.nodes_verified.len()];
    for (i, (pattern, _)) in rows.iter().enumerate() {
        let k = pattern.len();
        while stats.patterns_found.len() < k - 1 {
            stats.patterns_found.push(0);
            stats.nodes_kept.push(0);
        }
        stats.patterns_found[k - 2] += 1;
        if i == 0 || rows[i - 1].0.events() != pattern.events() {
            stats.nodes_kept[k - 2] += 1;
        }
    }
    for (pattern, (support, clipped_occurrences, confidence)) in rows {
        let k = pattern.len();
        let events = pattern.events().to_vec();
        let fp = FrequentPattern {
            pattern,
            support,
            rel_support: support as f64 / n_windows.max(1) as f64,
            confidence,
            clipped_occurrences,
        };
        sink.node(events, support, k, vec![fp]);
    }
}

/// Debug cross-check of the exchange protocol: recounting each survivor
/// against every shard must find its owned support somewhere — i.e. the
/// propose and recount answers agree as independent calls.
fn debug_assert_recount<K: BoundaryKernel>(workers: &[ShardWorker<'_, K>], verdict: &Verdict) {
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

/// Drives the two-phase exchange over a [`ShardPlan`], monomorphized
/// over the boundary kernel `K` that [`crate::MinePlan::run`] picked:
/// concurrent shard workers, a level-lockstep count → gate → re-derive
/// loop, and the sorted emission of the survivors into `sink`. Returns
/// the merged run statistics and one [`ShardReport`] per shard.
///
/// `corr` is the A-HTPGM composition seam: the coordinator holds the one
/// globally-built [`CorrelationFilter`] (see [`crate::approx`]) and
/// applies it exactly where the unsharded miner would — the round-1
/// global frequent-event list keeps only `X_C` events, and every
/// worker's level-2 propose screens its pairs by the filter's edges —
/// so the merged output equals unsharded [`crate::mine_approximate`]
/// identically.
pub(crate) fn mine_exchange<K: BoundaryKernel>(
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
        .map(|shard| ShardWorker::new(shard, cfg, inner))
        .collect();
    let sigma_abs = cfg.absolute_support(plan.n_windows());
    let max_events = cfg.last_level();

    // ---- Round 1: owned L1 supports and boundary counts ----
    run_round(&mut workers, outer, sched, |w| w.l1());
    let mut event_supports = vec![0usize; plan.registry().len()];
    for worker in &workers {
        for (e, &s) in worker.l1_supports.iter().enumerate() {
            event_supports[e] += s;
        }
    }
    // Events outside X_C are invisible to the whole run, as in the
    // unsharded approximate miner's filtered L1; filtered patterns only
    // ever reference allowed events.
    let freq: Vec<EventId> = (0..event_supports.len())
        .filter(|&e| corr.is_none_or(|c| c.allows_event(EventId(e as u32))))
        .filter(|&e| event_supports[e] >= sigma_abs)
        .map(|e| EventId(e as u32))
        .collect();

    // The master pool: roots cover the master registry, so raw event ids
    // double as root pattern ids, and every later entry is a survivor.
    let mut pool = PatternPool::with_roots(plan.registry().len());
    let mut survivors: Vec<Survivor> = Vec::new();
    let mut gate = |workers: &[ShardWorker<'_, K>]| {
        let runs: Vec<_> = workers.iter().map(|w| w.proposals.as_slice()).collect();
        let (supports, delta) = (&event_supports, cfg.delta);
        gate_round(&runs, supports, sigma_abs, delta, &mut pool, &mut survivors)
    };

    // ---- Rounds 2+: lockstep count → global gate → re-derive. Level 2
    // grows the L1 roots under the correlation screen, each later level
    // the previous round's survivors under the Lemma 5 table ----
    let mut pair_relations = PairRelations::new(plan.registry().len());
    for k in 2..=max_events {
        let screen = if k == 2 {
            Screen::Edges(corr)
        } else {
            Screen::Pairs(&pair_relations)
        };
        run_round(&mut workers, outer, sched, |w| w.propose(&freq, screen, k));
        let verdict = gate(&workers);
        debug_assert_recount(&workers, &verdict);
        // Nothing is re-derived after the last round.
        run_round(&mut workers, outer, sched, |w| {
            w.count_pruned(&verdict);
            if k < max_events {
                w.rederive(&verdict, screen, k);
            }
        });
        if verdict.is_empty() {
            break;
        }
        // Level 2's survivors are by construction the globally frequent
        // 2-event patterns — the transitivity table of Lemmas 4–7,
        // identical to the one the unsharded miner builds, shared
        // read-only by every shard. A level-2 key decodes in place: the
        // parent is a root (so its id is the first event's id) and the
        // packed column holds one relation.
        if k == 2 {
            for key in verdict.keys() {
                pair_relations.insert(
                    EventId(key.parent.0),
                    decode_column(key.code, &mut [TemporalRelation::Follow])[0],
                    key.last,
                );
            }
        }
    }

    // ---- Summed work counters and owned boundary counts (which leave
    // out the duplicated overlap windows), then the sorted emission ----
    let mut stats = MiningStats::default();
    let mut reports = Vec::with_capacity(workers.len());
    for worker in workers {
        merge_stats(&mut stats, worker.stats);
        reports.push(ShardReport {
            shard: worker.shard.index,
            windows_owned: worker.shard.owned.iter().filter(|&&o| o).count(),
            candidates_proposed: worker.proposed_total,
            candidates_pruned: worker.pruned_total,
            wall: worker.wall,
        });
    }
    let l1: Vec<(EventId, usize)> = freq
        .iter()
        .map(|&e| (e, event_supports[e.0 as usize]))
        .collect();
    emit_survivors(&pool, survivors, &l1, plan.n_windows(), &mut stats, sink);
    (stats, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pack_relation;
    use crate::sink::CollectSink;

    /// The level-2 key of `e1 r e2`: a root parent, one packed relation.
    fn key(e1: u32, r: TemporalRelation, e2: u32) -> DeltaKey {
        DeltaKey {
            parent: PatternId(e1),
            last: EventId(e2),
            code: pack_relation(0, r),
        }
    }

    /// Gates `runs` over two events, A = 0 and B = 1, into a fresh pool.
    fn gate(
        runs: &[&[(DeltaKey, OwnedStats)]],
        event_supports: [usize; 2],
        sigma_abs: usize,
        delta: f64,
    ) -> (Verdict, PatternPool, Vec<Survivor>) {
        let mut pool = PatternPool::with_roots(2);
        let mut survivors = Vec::new();
        let verdict = gate_round(
            runs,
            &event_supports,
            sigma_abs,
            delta,
            &mut pool,
            &mut survivors,
        );
        (verdict, pool, survivors)
    }

    #[test]
    fn the_gate_sums_owned_statistics_across_runs() {
        let ab = key(0, TemporalRelation::Follow, 1);
        let ba = key(1, TemporalRelation::Follow, 0);
        // Two shards report A -> B with owned (3, 1) and (2, 0); the
        // second also reports B -> A, below the global sigma of 4.
        let (verdict, pool, survivors) = gate(
            &[&[(ab, (3, 1))], &[(ab, (2, 0)), (ba, (1, 0))]],
            [8, 6],
            4,
            0.5,
        );
        assert_eq!(pool.len(), 3, "one new pool entry");
        assert_eq!(verdict.len(), 1, "B -> A is dropped");
        assert_eq!(verdict[&ab], PatternId(2));
        assert_eq!(survivors, vec![(5, 1, 5.0 / 8.0)], "3 + 2 owned windows");
    }

    #[test]
    fn the_same_key_from_two_runs_interns_once() {
        let ab = key(0, TemporalRelation::Follow, 1);
        let (verdict, pool, survivors) = gate(&[&[(ab, (1, 0))], &[(ab, (2, 0))]], [4, 4], 1, 0.1);
        assert_eq!(pool.len(), 3, "the second proposal is a pool hit");
        assert_eq!(verdict.len(), 1);
        assert_eq!(verdict[&ab], PatternId(2));
        assert_eq!(survivors.len(), 1, "one column entry for the key");
    }

    #[test]
    fn the_gate_applies_confidence_with_tolerance() {
        let ab = key(0, TemporalRelation::Follow, 1);
        // conf = 7/10 must pass delta = 0.7 despite float noise.
        let (verdict, _, survivors) = gate(&[&[(ab, (7, 0))]], [10, 7], 1, 0.7);
        assert_eq!(verdict.len(), 1);
        assert_eq!(survivors, vec![(7, 0, 0.7)]);
        let (verdict, _, _) = gate(&[&[(ab, (6, 0))]], [10, 7], 1, 0.7);
        assert!(verdict.is_empty(), "6/10 stays below 0.7");
    }

    #[test]
    fn survivors_are_interned_in_key_order() {
        let ab = key(0, TemporalRelation::Contain, 1);
        let ba = key(1, TemporalRelation::Follow, 0);
        // The larger key heads the first run; the smaller comes second.
        let (verdict, pool, survivors) = gate(&[&[(ba, (4, 0))], &[(ab, (2, 0))]], [4, 4], 1, 0.1);
        assert_eq!(verdict[&ab], PatternId(2));
        assert_eq!(verdict[&ba], PatternId(3));
        assert_eq!(survivors, vec![(2, 0, 0.5), (4, 0, 1.0)]);
        let ab_pattern = Pattern::pair(EventId(0), TemporalRelation::Contain, EventId(1));
        assert_eq!(pool.resolve(PatternId(2)), ab_pattern);
    }

    #[test]
    fn the_emission_recounts_patterns_and_nodes_per_level() {
        let run = [
            (key(0, TemporalRelation::Follow, 1), (4, 0)),
            (key(0, TemporalRelation::Contain, 1), (4, 0)),
            (key(1, TemporalRelation::Follow, 0), (4, 0)),
        ];
        let (_, pool, survivors) = gate(&[&run], [4, 4], 2, 0.5);
        let mut stats = MiningStats {
            nodes_verified: vec![2],
            ..MiningStats::default()
        };
        let l1 = [(EventId(0), 4), (EventId(1), 4)];
        let mut sink = CollectSink::new();
        emit_survivors(&pool, survivors, &l1, 8, &mut stats, &mut sink);
        assert_eq!(stats.patterns_found, vec![3]);
        assert_eq!(stats.nodes_kept, vec![2], "(A, B) holds two patterns");
        let result = sink.into_result(stats);
        assert_eq!(result.frequent_events, l1.to_vec());
        let patterns: Vec<&Pattern> = result.patterns.iter().map(|p| &p.pattern).collect();
        assert!(
            patterns.windows(2).all(|w| w[0] < w[1]),
            "sorted by pattern"
        );
        assert_eq!(result.patterns[0].rel_support, 0.5);
    }
}
