//! A counting global-allocator shim for allocation-free hot-path gates.
//!
//! Install [`CountingAlloc`] as the `#[global_allocator]` in a dedicated
//! test binary, warm the code path under test, snapshot
//! [`allocations`], run the path again, and assert the counter did not
//! move. The counter tracks *allocator requests* (`alloc`, `alloc_zeroed`
//! and `realloc`), which is exactly the signal a "no allocation after
//! warmup" gate needs; frees are not counted.
//!
//! The shim forwards everything to [`std::alloc::System`], so it is safe
//! as a process-wide allocator; the only cost is one relaxed atomic
//! increment per allocation.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocator wrapper that counts allocation requests process-wide.
pub struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

/// Allocation requests observed so far (monotonic). Meaningful only when
/// [`CountingAlloc`] is installed as the global allocator; otherwise it
/// stays at zero.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
