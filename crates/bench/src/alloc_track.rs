//! A counting global allocator for the Table VIII memory-usage
//! experiments: tracks live bytes, the high-water mark and the number of
//! allocations, so each mining run's peak memory can be reported
//! deterministically (the paper measures process memory; peak live heap
//! is the same quantity without allocator/OS noise).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Install with `#[global_allocator]` in a harness binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ftpm_bench::TrackingAllocator = ftpm_bench::TrackingAllocator;
/// ```
pub struct TrackingAllocator;

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                let grow = new_size - layout.size();
                let live = CURRENT.fetch_add(grow, Ordering::Relaxed) + grow;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

impl TrackingAllocator {
    /// Runs `f` and returns its output, the heap allocations it made
    /// (calls to `alloc`; a `realloc` is not counted) and its peak heap:
    /// the high-water mark of live bytes while it ran, minus the live
    /// bytes at entry. Allocations of other threads during `f` count
    /// too. Reads zeros unless this allocator is the global allocator.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (out, peak) = measure_peak(f);
        (out, ALLOCATIONS.load(Ordering::Relaxed) - before, peak)
    }
}

/// Bytes currently allocated.
fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark since the last [`reset_peak`].
fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size. Call immediately
/// before the measured region.
fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak bytes allocated while running `f`, measured from a fresh
/// high-water mark, minus the live bytes at entry — i.e. the extra memory
/// the workload needed.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = current_bytes();
    reset_peak();
    let out = f();
    (out, peak_bytes().saturating_sub(baseline))
}
