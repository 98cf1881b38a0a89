//! The traced run's recorder: spans and counters kept in memory and
//! written out when the run ends, a counting allocator, and a timing
//! wrapper around the real pattern sink.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::{Duration, Instant};

use ftpm::{EventId, FrequentPattern, PatternPool, PatternSink};

/// One timed region: name, start and end relative to the recorder's
/// origin, and the index of the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Spans and counters of one run, in memory until [`Recorder::to_json`].
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(String, f64)>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Records a counter (a later value of the same name replaces it).
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.counters.push((name, value)),
        }
    }

    /// Total seconds spent in spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + (s.end - s.start).as_secs_f64())
    }

    /// Every counter, in recording order.
    pub fn counters(&self) -> &[(String, f64)] {
        &self.counters
    }

    /// Spans and counters as one JSON document.
    pub fn to_json(&self, header: serde_json::Value) -> String {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "start_s": s.start.as_secs_f64(),
                    "end_s": s.end.as_secs_f64(),
                    "parent": s.parent.map_or(serde_json::Value::Null, |p| serde_json::Value::from(p as u64)),
                })
            })
            .collect();
        let counters = serde_json::Value::Object(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), serde_json::Value::from(*v)))
                .collect(),
        );
        let doc = serde_json::json!({
            "run": header,
            "spans": spans,
            "counters": counters,
        });
        serde_json::to_string_pretty(&doc).unwrap_or_default()
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus, once [`start_counting`] is called, live
/// and peak heap bytes (process-wide) and allocation calls (per
/// thread). Allocations made inside [`exempt`] are not counted, so the
/// traced run's own probes stay out of the program's numbers.
pub struct TrackingAllocator;

fn counted() -> bool {
    COUNTING.load(Ordering::Relaxed) && !EXEMPT.try_with(Cell::get).unwrap_or(true)
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and const-initialized
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && counted() {
            grow(layout.size());
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if counted() {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() && counted() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as isize, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

/// Turns the allocator's bookkeeping on (it is off in untraced runs).
pub fn start_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocation calls made by the current thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Resets the high-water mark to the live heap and returns the live
/// heap, the baseline for [`peak_above`].
pub fn reset_peak() -> isize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Heap high-water mark since [`reset_peak`], above `baseline`.
pub fn peak_above(baseline: isize) -> usize {
    (PEAK.load(Ordering::Relaxed) - baseline).max(0) as usize
}

/// Runs `f` with this thread's allocations left out of every count.
pub fn exempt<T>(f: impl FnOnce() -> T) -> T {
    let was = EXEMPT.with(|e| e.replace(true));
    let out = f();
    EXEMPT.with(|e| e.set(was));
    out
}

/// Times and counts every call into the wrapped sink, and interns each
/// emitted pattern into a fresh [`PatternPool`] (timed separately and
/// kept out of the allocation counts).
pub struct TimingSink<'s> {
    inner: &'s mut (dyn PatternSink + Send),
    pool: Option<PatternPool>,
    pub busy: Duration,
    pub pool_busy: Duration,
    pub rows: u64,
    pub allocs: u64,
}

impl<'s> TimingSink<'s> {
    pub fn new(inner: &'s mut (dyn PatternSink + Send), n_events: usize) -> Self {
        TimingSink {
            inner,
            pool: Some(exempt(|| PatternPool::with_roots(n_events))),
            busy: Duration::ZERO,
            pool_busy: Duration::ZERO,
            rows: 0,
            allocs: 0,
        }
    }

    /// Entries of the probe pool; drops it outside the counts.
    pub fn take_pool_entries(&mut self) -> usize {
        exempt(|| self.pool.take().map_or(0, |p| p.len()))
    }
}

impl PatternSink for TimingSink<'_> {
    fn begin(&mut self, frequent_events: &[(EventId, usize)]) {
        let started = Instant::now();
        let before = thread_allocs();
        self.inner.begin(frequent_events);
        self.allocs += thread_allocs() - before;
        self.busy += started.elapsed();
    }

    fn node(&mut self, events: Vec<EventId>, support: usize, k: usize, patterns: Vec<FrequentPattern>) {
        let started = Instant::now();
        if let Some(pool) = &mut self.pool {
            exempt(|| {
                for fp in &patterns {
                    pool.intern(&fp.pattern);
                }
            });
        }
        let interned = Instant::now();
        self.pool_busy += interned - started;
        self.rows += patterns.len() as u64;
        let before = thread_allocs();
        self.inner.node(events, support, k, patterns);
        self.allocs += thread_allocs() - before;
        self.busy += interned.elapsed();
    }

    fn finish(&mut self) -> std::io::Result<()> {
        let started = Instant::now();
        let out = self.inner.finish();
        self.busy += started.elapsed();
        out
    }
}
