//! Lifetime allocation count of one small job: the per-job constant a
//! fleet of thousands of short-lived runtimes pays.
//!
//! This test binary registers [`CountingAlloc`] as its global allocator
//! (its own process, so the counter sees nothing else) and counts every
//! allocation request a 4-node `seesaw` job makes from `Runtime::new`
//! through its last interval: the shape of one job of the fleet soak
//! (`WorkloadSpec::paper(16, 4, 1, [VACF])`, 16 intervals). The count is
//! a function of the code alone, not a timing, so it is pinned: at most
//! 40, where one allocation per node column (seventeen a cluster) made
//! it 48. Each `node_columns!` group of the cluster keeps its columns in
//! one block, and a warmed interval allocates nothing (`alloc_free.rs`),
//! so what is left is the job's assembly and its scratch buffers' first
//! growth.

use insitu::{JobConfig, Runtime};
use mdsim::workload::WorkloadSpec;
use mdsim::AnalysisKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Pass-through to the system allocator that counts allocation requests
/// (`alloc`, `alloc_zeroed`, `realloc`); frees are not counted.
struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn a_small_job_allocates_a_bounded_number_of_times() {
    let mut spec = WorkloadSpec::paper(16, 4, 1, &[AnalysisKind::Vacf]);
    spec.total_steps = 16;
    let cfg = JobConfig::new(spec, "seesaw").with_seed(7, 0);
    let before = allocations();
    let mut rt = Runtime::new(cfg).expect("known controller");
    let built = allocations() - before;
    let mut syncs = 0;
    while rt.step_sync() {
        rt.compact_history();
        syncs += 1;
    }
    let stepped = allocations() - before;
    let result = rt.finish();
    let total = allocations() - before;
    assert_eq!((syncs, result.syncs.len()), (16, 16));
    eprintln!(
        "Runtime::new {built}, stepping {}, finish {}, total {total}",
        stepped - built,
        total - stepped
    );
    assert!(total <= 40, "a 4-node job allocated {total} times ({built} in Runtime::new)");
}
