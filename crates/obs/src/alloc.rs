//! Allocation profiling: a `GlobalAlloc` wrapper that charges allocation
//! counts and bytes to the active span whenever spans are recorded.
//!
//! [`TrackingAllocator`] forwards every request to the system allocator
//! and, while tracking is enabled, bumps two process-wide totals and two
//! thread-local cells. [`crate::span`] snapshots the thread-local cells at
//! open, and the closing guard attaches the delta as `alloc_n` /
//! `alloc_b` span attributes — so the Chrome trace shows which kernel or
//! stage allocated how much. Attribution is *inclusive*: a parent span's
//! delta covers its children, the same convention pprof uses for
//! cumulative values.
//!
//! The binary (not this crate) must install the allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mica_obs::alloc::TrackingAllocator = mica_obs::alloc::TrackingAllocator;
//! ```
//!
//! `mica-experiments` does this in its library root, so every experiment
//! binary and test inherits it. Tracking follows the trace: the sink
//! registry turns it on while some installed sink records spans
//! (`MICA_TRACE`, or a sink added in-process) and off otherwise, so an
//! untraced process pays one relaxed atomic load per allocation.
//!
//! Known observer effects, accepted by design: the obs layer's own
//! allocations (record rendering, sink buffers) are charged to whatever
//! span is active when they happen, and allocations on threads with no
//! open span count only toward the process totals. Tracking never touches
//! computed results — the experiments' determinism tests profile with a
//! trace sink installed and without, and require byte-identical
//! artifacts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Process-wide totals since tracking was first enabled. Plain atomics,
/// not [`crate::Counter`]s: a `Counter`'s first touch allocates its cell,
/// which would recurse into the allocator mid-registration. The
/// [`crate::counters`] snapshot merges these in as `alloc.count` /
/// `alloc.bytes`.
static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialized Cells: first touch never allocates, so the
    // allocator can bump them re-entrantly without recursion.
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The `#[global_allocator]` shim. Zero-sized; all state is static.
pub struct TrackingAllocator;

#[inline]
fn note(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
    TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    // try_with: thread-local storage may already be torn down while the
    // runtime frees thread state during exit.
    let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: pure pass-through to `System`; the bookkeeping touches only
// atomics and const-initialized thread-locals, never the heap.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Whether allocation tracking is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracking on or off. The sink registry calls this whenever the
/// set of sinks changes, on exactly when some sink records spans.
pub(crate) fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Process-wide (allocations, bytes) since tracking was first enabled.
pub fn totals() -> (u64, u64) {
    (TOTAL_COUNT.load(Ordering::Relaxed), TOTAL_BYTES.load(Ordering::Relaxed))
}

/// The calling thread's (allocations, bytes); monotone, so span guards
/// snapshot-and-diff it.
pub(crate) fn thread_totals() -> (u64, u64) {
    (THREAD_COUNT.with(Cell::get), THREAD_BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary for this crate does not install the allocator, so
    // `note` is exercised directly; end-to-end coverage (real allocations
    // landing in span attrs) lives in mica-experiments, whose binaries do.
    // One test, because the enable flag is process-global; it holds the
    // sink registry's write lock so that no sibling test adding or
    // removing a sink flips the flag mid-test.
    #[test]
    fn tracking_flag_gates_both_totals() {
        let _registry = crate::state().sinks.write().expect("sink registry poisoned");
        let was = enabled();
        set_enabled(false);
        let before_thread = thread_totals();
        note(128);
        assert_eq!(thread_totals(), before_thread, "disabled note must not count");

        set_enabled(true);
        let (c0, b0) = totals();
        let (tc0, tb0) = thread_totals();
        note(64);
        note(32);
        let (c1, b1) = totals();
        assert!(c1 - c0 >= 2 && b1 - b0 >= 96, "process totals advanced");
        let (tc1, tb1) = thread_totals();
        assert_eq!(tc1 - tc0, 2);
        assert_eq!(tb1 - tb0, 96);
        set_enabled(was);
    }
}
