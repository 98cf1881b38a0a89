//! Deterministic schedule exploration for the parallel miners — a
//! mini-loom for the scoped work-stealing pools.
//!
//! The claim "output is bit-identical to [`crate::mine_exact`] up to
//! pattern order" covers *every* worker interleaving, but an ordinary
//! test run only ever sees the few schedules the OS happens to produce.
//! This module turns the claim into a checked property: a [`Schedule`]
//! replaces the pools' free-running claim loops with a seeded
//! sequencer, so each seed drives one reproducible interleaving of the
//! task-claim order — batches of L1 roots and L3 subtrees of an unsharded
//! plan, count → gate → re-derive shard rounds of a sharded one (see
//! [`Schedule::collect`]) — and a test sweeps seeds asserting the merged
//! output never changes.
//!
//! # How the sequencer works
//!
//! Workers still run on real OS threads inside `std::thread::scope`, but
//! in scheduled mode every claim goes through [`SimCtl::turn`]: the
//! worker parks until *all* live workers of the phase are parked, then a
//! seeded RNG grants the floor to exactly one of them, which takes the
//! next task while the rest stay parked. Execution is thereby serialized
//! at task granularity, and the grant sequence — recorded in
//! [`Schedule::trace`] — *is* the interleaving: which worker claimed
//! which task in which order, the only scheduling freedom these pools
//! have (the task bodies themselves share no mutable state). A worker
//! that runs out of work retires from the phase via a drop guard, so the
//! barrier shrinks and the remaining workers keep being sequenced —
//! including when a worker panics mid-task, which keeps the harness
//! deadlock-free under the same panic propagation the OS-mode pool has.
//!
//! Distinct seeds give distinct grant sequences (statistically — the
//! invariance test asserts the ones it sweeps really differ), and the
//! same seed always replays the same schedule, making any failure a
//! one-seed reproduction case.
//!
//! # Systematic exploration
//!
//! Seeded sampling visits *some* interleavings; [`Explorer`] visits
//! *all* of them (for small worker counts), depth-first. In scripted
//! mode every grant point first computes the `allowed` worker list —
//! after symmetry reduction (workers never yet granted in the phase are
//! interchangeable, so only the smallest is kept) and an optional
//! [CHESS-style](https://www.microsoft.com/en-us/research/publication/finding-and-reproducing-heisenbugs-in-concurrent-programs/)
//! preemption budget (switching away from the previous grantee while it
//! still wants the floor costs one preemption; an exhausted budget
//! forces the incumbent) — then takes the scripted branch, recording a
//! [`Decision`]. The DFS backtracks over the last decision with an
//! untried branch, replaying the shared prefix exactly (the enabled set
//! at each grant point is a deterministic function of the grant prefix,
//! so prefix replay is sound). Trace hashes deduplicate the visited
//! interleavings, and a watchdog converts any would-be deadlock into a
//! failed run instead of a hung CI job.
#![expect(
    clippy::disallowed_types,
    reason = "the schedule sequencer parks and grants the pools' worker threads"
)]

use std::collections::HashSet;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::executor::ShardReport;
use crate::plan::MinePlan;
use crate::result::MiningResult;

/// SplitMix64 — scrambles user seeds so that sequential seeds (0, 1, 2,
/// …) still produce uncorrelated xorshift streams, and seed 0 is not a
/// fixed point.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One branch point of a scripted run: how many grant choices were
/// available after symmetry/preemption reduction, and which was taken.
#[derive(Debug, Clone, Copy)]
struct Decision {
    allowed_len: usize,
    chosen: usize,
}

/// How the sequencer picks among waiting workers.
enum PickMode {
    /// Seeded sampling: an xorshift64* stream picks uniformly.
    Seeded {
        /// RNG state (never zero).
        rng: u64,
    },
    /// Systematic exploration: a branch script drives the choices and
    /// every branch point is recorded for DFS backtracking.
    Scripted {
        /// Branch indices (into each decision's `allowed` list) to take;
        /// past the end, the first allowed branch is taken.
        script: Vec<usize>,
        pos: usize,
        decisions: Vec<Decision>,
        /// Remaining preemption budget (`usize::MAX` when unbounded).
        preemptions_left: usize,
        /// Workers already granted in the current phase (a worker never
        /// granted is interchangeable with any other such worker — the
        /// pools assign tasks through shared claim counters, not ids).
        granted_in_phase: Vec<bool>,
        /// Previous grantee of the current phase.
        last_grant: Option<usize>,
    },
}

/// Mutable sequencer state, under the [`SimCtl`] mutex.
struct SimState {
    mode: PickMode,
    /// Workers of the current phase still running (not retired).
    live: usize,
    /// `waiting[w]` — worker `w` is parked in [`SimCtl::turn`].
    waiting: Vec<bool>,
    /// The worker currently granted the floor, if any.
    grant: Option<usize>,
    /// Every grant issued so far, across all phases.
    trace: Vec<usize>,
    /// Grants + retirements so far — the watchdog's progress measure.
    events: u64,
}

impl SimState {
    fn next_u64(&mut self) -> u64 {
        let PickMode::Seeded { rng } = &mut self.mode else {
            return 0;
        };
        // xorshift64* (Vigna): full 2^64−1 period, passes the pick-an-
        // index use here easily.
        let mut x = *rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Picks the next grantee among the currently waiting workers, per
    /// the active mode.
    fn pick_waiting(&mut self) -> usize {
        let waiting: Vec<usize> = (0..self.waiting.len())
            .filter(|&w| self.waiting[w])
            .collect();
        match &mut self.mode {
            PickMode::Seeded { .. } => {
                let i = (self.next_u64() >> 32) as usize % waiting.len();
                waiting[i]
            }
            PickMode::Scripted {
                script,
                pos,
                decisions,
                preemptions_left,
                granted_in_phase,
                last_grant,
            } => {
                // Symmetry reduction: among the waiting workers never yet
                // granted in this phase, keep only the smallest — the
                // others are interchangeable until their first grant.
                let mut allowed: Vec<usize> = Vec::new();
                let mut first_fresh: Option<usize> = None;
                for &w in &waiting {
                    if granted_in_phase[w] {
                        allowed.push(w);
                    } else if first_fresh.is_none() {
                        first_fresh = Some(w);
                    }
                }
                if let Some(f) = first_fresh {
                    allowed.push(f);
                }
                allowed.sort_unstable();
                // Bounded preemption: switching away from the previous
                // grantee while it still wants the floor costs one
                // preemption; with the budget spent the incumbent keeps
                // the floor.
                let incumbent = last_grant.filter(|p| waiting.contains(p));
                if let Some(p) = incumbent {
                    if *preemptions_left == 0 {
                        allowed = vec![p];
                    }
                }
                let c = script.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                let c = c.min(allowed.len() - 1);
                let pick = allowed[c];
                if incumbent.is_some_and(|p| p != pick) {
                    *preemptions_left = preemptions_left.saturating_sub(1);
                }
                decisions.push(Decision {
                    allowed_len: allowed.len(),
                    chosen: c,
                });
                granted_in_phase[pick] = true;
                *last_grant = Some(pick);
                pick
            }
        }
    }
}

/// The sequencer handle shared by the pool workers of a scheduled run.
///
/// One `SimCtl` lives for the whole mining call and is re-armed with
/// [`SimCtl::phase`] before each scoped pool (the parallel miner's L2
/// and L3 scopes, each `par_for_each` round of the exchange executor).
pub(crate) struct SimCtl {
    m: Mutex<SimState>,
    cv: Condvar,
}

/// How long the sequencer may sit with zero grant/retire progress
/// before a parked worker declares the run wedged. The scheduled
/// workloads claim tasks in microseconds; half a minute of silence is a
/// deadlock, not a slow task.
const WATCHDOG: Duration = Duration::from_secs(30);

impl SimCtl {
    pub(crate) fn new(seed: u64) -> SimCtl {
        SimCtl::with_mode(PickMode::Seeded {
            rng: splitmix64(seed).max(1),
        })
    }

    /// A sequencer driven by a branch script (see [`Explorer`]).
    fn scripted(script: Vec<usize>, preemption_bound: Option<usize>) -> SimCtl {
        SimCtl::with_mode(PickMode::Scripted {
            script,
            pos: 0,
            decisions: Vec::new(),
            preemptions_left: preemption_bound.unwrap_or(usize::MAX),
            granted_in_phase: Vec::new(),
            last_grant: None,
        })
    }

    fn with_mode(mode: PickMode) -> SimCtl {
        SimCtl {
            m: Mutex::new(SimState {
                mode,
                live: 0,
                waiting: Vec::new(),
                grant: None,
                trace: Vec::new(),
                events: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Recovers the state even if a worker panicked while holding the
    /// lock — the sequencer must keep granting so surviving workers can
    /// finish and the panic can propagate at join.
    fn lock(&self) -> std::sync::MutexGuard<'_, SimState> {
        self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms the sequencer for a pool of `workers` threads (ids
    /// `0..workers`). Must happen before the pool spawns so the first
    /// grant waits for every worker — spawn order stays invisible.
    pub(crate) fn phase(&self, workers: usize) {
        let mut st = self.lock();
        st.live = workers;
        st.waiting = vec![false; workers];
        st.grant = None;
        if let PickMode::Scripted {
            granted_in_phase,
            last_grant,
            ..
        } = &mut st.mode
        {
            *granted_in_phase = vec![false; workers];
            *last_grant = None;
        }
    }

    /// Blocks until the sequencer grants `worker` the floor. Called by
    /// pool workers immediately before each task claim.
    pub(crate) fn turn(&self, worker: usize) {
        let mut st = self.lock();
        st.waiting[worker] = true;
        loop {
            if st.grant.is_none() && st.live > 0 {
                let parked = st.waiting.iter().filter(|&&w| w).count();
                if parked == st.live {
                    let pick = st.pick_waiting();
                    st.grant = Some(pick);
                    st.trace.push(pick);
                    st.events += 1;
                    self.cv.notify_all();
                }
            }
            if st.grant == Some(worker) {
                st.grant = None;
                st.waiting[worker] = false;
                return;
            }
            let events_before = st.events;
            let (guard, timeout) = self
                .cv
                .wait_timeout(st, WATCHDOG)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            // No grant and no retirement for the whole window: a worker
            // is wedged outside the sequencer. Fail the run loudly
            // instead of hanging the harness.
            #[expect(
                clippy::panic,
                reason = "deadlock watchdog — a wedged schedule must fail the test run, not hang it"
            )]
            if timeout.timed_out() && st.events == events_before {
                panic!(
                    "schedule sequencer watchdog: no progress in {WATCHDOG:?} \
                     (worker {worker} parked, {} live, trace length {})",
                    st.live,
                    st.trace.len()
                );
            }
        }
    }

    /// Removes `worker` from the phase: the all-parked barrier shrinks
    /// so the remaining workers keep being sequenced.
    fn retire(&self, worker: usize) {
        let mut st = self.lock();
        st.live -= 1;
        st.waiting[worker] = false;
        st.events += 1;
        self.cv.notify_all();
    }

    fn trace(&self) -> Vec<usize> {
        self.lock().trace.clone()
    }

    /// The branch points of a scripted run (empty in seeded mode).
    fn decisions(&self) -> Vec<Decision> {
        match &self.lock().mode {
            PickMode::Scripted { decisions, .. } => decisions.clone(),
            PickMode::Seeded { .. } => Vec::new(),
        }
    }
}

/// Drop guard retiring a worker from its [`SimCtl`] phase — on normal
/// exit *and* on unwind, so a panicking task can never leave the other
/// workers parked forever.
pub(crate) struct Retire<'a> {
    ctl: &'a SimCtl,
    worker: usize,
}

impl<'a> Retire<'a> {
    pub(crate) fn new(ctl: &'a SimCtl, worker: usize) -> Retire<'a> {
        Retire { ctl, worker }
    }
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        self.ctl.retire(self.worker);
    }
}

/// One seeded worker interleaving for the parallel miners.
///
/// ```no_run
/// use ftpm_core::{mine_exact, MinePlan, MinerConfig, Schedule};
///
/// let seq = ftpm_datagen::smartcity_like(0.05).seq;
/// let cfg = MinerConfig::new(0.5, 0.7);
/// let baseline = mine_exact(&seq, &cfg);
/// for seed in 0..4 {
///     let sched = Schedule::new(seed, 4);
///     let (run, _) = sched.collect(&MinePlan::new(&seq, &cfg));
///     assert_eq!(run.patterns.len(), baseline.patterns.len());
///     println!("seed {seed}: interleaving {:?}", sched.trace());
/// }
/// ```
pub struct Schedule {
    ctl: SimCtl,
    workers: usize,
}

impl Schedule {
    /// A schedule driving `workers` simulated workers under `seed`.
    /// `workers` is clamped to at least 1 (with one worker there is only
    /// one schedule, so nothing is explored — use ≥ 2).
    pub fn new(seed: u64, workers: usize) -> Schedule {
        Schedule {
            ctl: SimCtl::new(seed),
            workers: workers.max(1),
        }
    }

    /// Number of simulated workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The grant sequence of every scheduled pool so far: which worker
    /// claimed a task, in claim order. Two runs with equal traces
    /// executed the same interleaving.
    pub fn trace(&self) -> Vec<usize> {
        self.ctl.trace()
    }

    /// [`MinePlan::collect`] under this schedule: the schedule's workers
    /// replace the plan's threads, and every task claim follows the
    /// seeded interleaving instead of whatever the OS produces. On a
    /// sharded plan, parallelism inside a shard is forced to 1 so the
    /// schedule fully determines the execution (the exchange protocol's
    /// concurrency story *is* the shard-level round loop).
    pub fn collect(&self, plan: &MinePlan<'_>) -> (MiningResult, Vec<ShardReport>) {
        plan.collect_under(self.workers, Some(&self.ctl))
    }

    /// A schedule replaying `script` branch choices (see [`Explorer`]).
    fn from_script(
        workers: usize,
        script: Vec<usize>,
        preemption_bound: Option<usize>,
    ) -> Schedule {
        Schedule {
            ctl: SimCtl::scripted(script, preemption_bound),
            workers: workers.max(1),
        }
    }
}

/// Result of one [`Explorer::explore`] sweep.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Interleavings executed.
    pub schedules: usize,
    /// Distinct grant traces among them (state-hash deduplicated); with
    /// symmetry reduction on, every schedule should be a fresh trace.
    pub distinct_traces: usize,
    /// Longest decision sequence seen (the branching depth of the run).
    pub max_decisions: usize,
    /// The DFS visited every interleaving within the preemption bound.
    pub exhausted: bool,
    /// The sweep stopped at the schedule cap instead.
    pub capped: bool,
}

/// Systematic depth-first exploration of worker interleavings.
///
/// Where [`Schedule::new`] samples one seeded interleaving, an
/// `Explorer` enumerates them: it runs the workload under an empty
/// branch script, records every grant-point decision, then backtracks
/// over the deepest decision with an untried branch until the space is
/// exhausted (or a preemption bound / schedule cap stops it). Grant
/// prefixes replay deterministically, so each re-run reaches the flipped
/// branch exactly.
///
/// The decision space is pre-pruned at each grant point — workers never
/// yet granted in a phase are interchangeable (the pools hand out tasks
/// through shared claim counters, so ids carry no meaning until first
/// granted) and only the smallest is tried; an optional CHESS-style
/// preemption bound caps how often the floor may switch away from a
/// still-running incumbent, which keeps K=4 tractable while covering
/// every low-preemption interleaving — the regime where real scheduler
/// bugs live.
///
/// ```no_run
/// use ftpm_core::{mine_exact, Explorer, MinePlan, MinerConfig};
///
/// let seq = ftpm_datagen::smartcity_like(0.05).seq;
/// let cfg = MinerConfig::new(0.5, 0.7);
/// let baseline = mine_exact(&seq, &cfg);
/// let stats = Explorer::new(2)
///     .explore(|sched| {
///         let (run, _) = sched.collect(&MinePlan::new(&seq, &cfg));
///         if run.patterns.len() == baseline.patterns.len() {
///             Ok(())
///         } else {
///             Err(format!("diverged on trace {:?}", sched.trace()))
///         }
///     })
///     .unwrap();
/// assert!(stats.exhausted);
/// ```
pub struct Explorer {
    workers: usize,
    preemption_bound: Option<usize>,
    max_schedules: usize,
}

impl Explorer {
    /// An exhaustive explorer over `workers` simulated workers (clamped
    /// to at least 1; with one worker there is exactly one schedule).
    /// Default bounds: unlimited preemptions, 100 000 schedules.
    pub fn new(workers: usize) -> Explorer {
        Explorer {
            workers: workers.max(1),
            preemption_bound: None,
            max_schedules: 100_000,
        }
    }

    /// Bounds the number of preemptions per schedule (CHESS-style).
    /// `explore` is then exhaustive *within the bound*: every
    /// interleaving with at most `bound` preemptions is visited.
    pub fn with_preemption_bound(mut self, bound: usize) -> Explorer {
        self.preemption_bound = Some(bound);
        self
    }

    /// Caps the total number of schedules executed; hitting the cap sets
    /// [`ExploreStats::capped`] instead of `exhausted`.
    pub fn with_max_schedules(mut self, max: usize) -> Explorer {
        self.max_schedules = max.max(1);
        self
    }

    /// Runs `run` once per interleaving, depth-first, until the space is
    /// exhausted or a bound is hit. The closure's error short-circuits
    /// the sweep (the failing schedule's trace identifies the
    /// interleaving); deadlocks surface as watchdog panics from the
    /// worker threads.
    pub fn explore<E>(
        &self,
        mut run: impl FnMut(&Schedule) -> Result<(), E>,
    ) -> Result<ExploreStats, E> {
        let mut stats = ExploreStats::default();
        let mut trace_hashes: HashSet<u64> = HashSet::new();
        let mut script: Vec<usize> = Vec::new();
        loop {
            let sched = Schedule::from_script(self.workers, script, self.preemption_bound);
            run(&sched)?;
            stats.schedules += 1;
            if trace_hashes.insert(hash_trace(&sched.trace())) {
                stats.distinct_traces += 1;
            }
            let decisions = sched.ctl.decisions();
            stats.max_decisions = stats.max_decisions.max(decisions.len());
            // Backtrack: deepest decision with an untried branch.
            let next = decisions
                .iter()
                .rposition(|d| d.chosen + 1 < d.allowed_len)
                .map(|i| {
                    let mut s: Vec<usize> = decisions[..i].iter().map(|d| d.chosen).collect();
                    s.push(decisions[i].chosen + 1);
                    s
                });
            match next {
                None => {
                    stats.exhausted = true;
                    return Ok(stats);
                }
                Some(_) if stats.schedules >= self.max_schedules => {
                    stats.capped = true;
                    return Ok(stats);
                }
                Some(s) => script = s,
            }
        }
    }
}

/// FNV-1a over a grant trace — the state hash the explorer deduplicates
/// visited interleavings by.
fn hash_trace(trace: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in trace {
        h ^= w as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests drive the sequencer from worker threads of their own"
)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_scrambles_zero() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn sequencer_is_deterministic_per_seed() {
        // Four workers, each claiming from a shared counter through the
        // sequencer; the grant trace must replay exactly for one seed
        // and differ across seeds.
        fn run(seed: u64) -> Vec<usize> {
            let ctl = SimCtl::new(seed);
            ctl.phase(4);
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for w in 0..4 {
                    let ctl = &ctl;
                    let next = &next;
                    scope.spawn(move || {
                        let _retire = Retire::new(ctl, w);
                        loop {
                            ctl.turn(w);
                            if next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= 40 {
                                break;
                            }
                        }
                    });
                }
            });
            ctl.trace()
        }
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same interleaving");
        assert_ne!(a, run(8), "different seed, different interleaving");
        assert!(a.len() >= 40, "every claim goes through the sequencer");
    }

    /// The shared claim-counter workload the explorer tests drive:
    /// `workers` threads pull from one atomic counter until `tasks`
    /// claims have happened, every claim sequenced through the ctl.
    fn counter_workload(sched: &Schedule, tasks: usize) -> Vec<usize> {
        let workers = sched.workers();
        sched.ctl.phase(workers);
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let ctl = &sched.ctl;
                let next = &next;
                scope.spawn(move || {
                    let _retire = Retire::new(ctl, w);
                    loop {
                        ctl.turn(w);
                        if next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= tasks {
                            break;
                        }
                    }
                });
            }
        });
        sched.trace()
    }

    #[test]
    fn explorer_exhausts_the_interleaving_space() {
        let mut traces = Vec::new();
        let stats = Explorer::new(2)
            .explore(|sched| {
                traces.push(counter_workload(sched, 3));
                Ok::<(), ()>(())
            })
            .unwrap_or_default();
        assert!(stats.exhausted, "{stats:?}");
        assert!(!stats.capped);
        assert!(stats.schedules > 1, "two workers branch: {stats:?}");
        assert_eq!(
            stats.distinct_traces, stats.schedules,
            "symmetry reduction never revisits a trace: {stats:?}"
        );
        // Every executed trace really is distinct.
        let unique: std::collections::HashSet<&Vec<usize>> = traces.iter().collect();
        assert_eq!(unique.len(), traces.len());
        // The first schedule (empty script) is the all-first-branch run:
        // worker 0 keeps the floor until it retires, then worker 1
        // drains — a sorted trace.
        assert_eq!(traces[0][0], 0);
        assert!(
            traces[0].windows(2).all(|w| w[0] <= w[1]),
            "{:?}",
            traces[0]
        );
    }

    #[test]
    fn explorer_preemption_bound_prunes_the_space() {
        let run_count = |bound: Option<usize>| {
            let mut e = Explorer::new(3);
            if let Some(b) = bound {
                e = e.with_preemption_bound(b);
            }
            e.explore(|sched| {
                counter_workload(sched, 4);
                Ok::<(), ()>(())
            })
            .unwrap_or_default()
        };
        let unbounded = run_count(None);
        let bounded = run_count(Some(1));
        let none = run_count(Some(0));
        assert!(unbounded.exhausted && bounded.exhausted && none.exhausted);
        assert!(
            none.schedules < bounded.schedules && bounded.schedules < unbounded.schedules,
            "bound must prune monotonically: {none:?} {bounded:?} {unbounded:?}"
        );
    }

    #[test]
    fn explorer_schedule_cap_reports_capped() {
        let stats = Explorer::new(3)
            .with_max_schedules(2)
            .explore(|sched| {
                counter_workload(sched, 4);
                Ok::<(), ()>(())
            })
            .unwrap_or_default();
        assert_eq!(stats.schedules, 2);
        assert!(stats.capped && !stats.exhausted, "{stats:?}");
    }

    #[test]
    fn explorer_propagates_the_first_failure() {
        let mut runs = 0;
        let err = Explorer::new(2).explore(|sched| {
            counter_workload(sched, 3);
            runs += 1;
            if runs == 2 {
                Err("boom")
            } else {
                Ok(())
            }
        });
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(runs, 2, "sweep short-circuits on the failing schedule");
    }

    #[test]
    fn single_worker_has_exactly_one_schedule() {
        let stats = Explorer::new(1)
            .explore(|sched| {
                counter_workload(sched, 3);
                Ok::<(), ()>(())
            })
            .unwrap_or_default();
        assert_eq!(stats.schedules, 1);
        assert!(stats.exhausted);
    }

    #[test]
    fn retiring_workers_shrink_the_barrier() {
        // One worker retires immediately; the other two must still be
        // granted turns rather than deadlocking on the 3-worker barrier.
        let ctl = SimCtl::new(1);
        ctl.phase(3);
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..3 {
                let ctl = &ctl;
                let next = &next;
                scope.spawn(move || {
                    let _retire = Retire::new(ctl, w);
                    if w == 0 {
                        return; // retires without ever taking a turn
                    }
                    loop {
                        ctl.turn(w);
                        if next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= 10 {
                            break;
                        }
                    }
                });
            }
        });
        let trace = ctl.trace();
        assert!(trace.len() >= 10);
        assert!(!trace.contains(&0), "worker 0 never claimed");
    }
}
