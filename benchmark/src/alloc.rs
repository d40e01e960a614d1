//! Counting global allocator for the traced run.
//!
//! Off (the end-to-end run, and the untraced slices of the traced run) it
//! forwards straight to the system allocator after one relaxed load, so
//! the program allocates exactly as it would without it. On, it counts
//! allocations and tracks live bytes.
//!
//! Live bytes are exact while counting stays on (set-up, warm-up). The
//! measured phase of the traced run toggles counting between slices to
//! measure its own overhead; a block allocated in one state and freed in
//! the other skews `live` by that block, which is bounded by the
//! steady-state churn of a warmed system and does not touch the peak
//! reached during set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The benchmark binary's `#[global_allocator]`.
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grow(layout.size() as i64);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grow(layout.size() as i64);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grow(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off; returns the previous state.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Relaxed)
}

/// Allocations (and growing or shrinking reallocations) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Highest live-byte total seen while counting.
pub fn live_peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}
