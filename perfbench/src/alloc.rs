//! A counting global allocator.
//!
//! Two switches keep untraced runs at the cost of one relaxed load per
//! allocation:
//!
//! * tracking (set once, at start-up of a traced run) keeps the live and
//!   peak heap bytes of the whole process;
//! * counting (toggled per measured chunk) counts allocations and
//!   requested bytes, which spans snapshot at their boundaries.
//!
//! For a fixed seed the benchmark's work is deterministic, so the counts
//! inside a span repeat exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The system allocator plus the counters below.
pub struct Counting;

static TRACKING: AtomicBool = AtomicBool::new(false);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (a growing `realloc` counts as one) while counting.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Snapshot {
    /// The current counters.
    pub fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Counts accumulated between `earlier` and `self`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Starts tracking live and peak heap bytes for the rest of the process.
pub fn start_tracking() {
    TRACKING.store(true, Relaxed);
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Peak live heap bytes since tracking started.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

fn on_alloc(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
    if TRACKING.load(Relaxed) {
        let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn on_free(size: usize) {
    if TRACKING.load(Relaxed) {
        LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and this allocator hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are passed on to
        // `System`, which allocated `ptr`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}
