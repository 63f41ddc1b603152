//! # par — deterministic zero-dependency parallelism
//!
//! The offline build bans registry crates (no rayon), yet the experiment
//! sweeps are embarrassingly parallel: whole independent runs. This crate
//! provides the one thing rayon cannot promise anyway: a parallel map
//! whose results are **bit-identical at any thread count**, including 1
//! — so the committed `results/*.json` stay byte-for-byte stable whether
//! a figure is regenerated on a laptop core or a 64-way node.
//!
//! Determinism comes from two rules:
//!
//! * **Independent items** — item `i` is computed by `f(i)` alone, never
//!   from state another item touched, so which worker runs it and when
//!   cannot change its result.
//! * **Fixed placement** — each result lands in slot `i` of the returned
//!   `Vec`, and any reduction over them is the caller's, in ascending
//!   index order on the calling thread. Floating-point reduction order is
//!   therefore a pure function of the input.
//!
//! The pool is sized by `POLIMER_THREADS` (defaulting to
//! [`std::thread::available_parallelism`]); `POLIMER_THREADS=1` makes
//! every call take its serial path. A region of width `w` runs on
//! the calling thread — worker 0 — plus `w - 1` threads spawned with
//! [`std::thread::scope`], so closures may borrow from the caller's stack
//! and worker panics propagate to the caller.
//!
//! One spawn and join (a width-2 region) reads 15–60 µs on the quiet
//! 2-core reference box and up to 105 µs on a loaded one, so a region
//! pays only over items worth a millisecond together. Callers own that
//! grain — `par` never guesses item cost: `repro`'s batch and
//! `run_experiment`'s controller/baseline pair hand over whole runs, and
//! no kernel enters a region: not the MD force kernel (finer regions
//! there bought at most a tenth of throughput for a fifth more CPU), not
//! `sched`, whose epochs are tens of microseconds, and not an
//! `insitu::Runtime`.
//!
//! That makes one width contract: only `bench` and `perfbench` depend on
//! this crate, by a normal or a dev edge (`scripts/verify.sh`'s first
//! stage checks `cargo tree`), so the width is tested only where the pool
//! is entered — these tests, `bench`'s batch and pair tests, and the
//! width-1/width-4 runs of `verify.sh` and CI. Code that cannot reach the
//! pool is tested once, with no width.
//!
//! Nested use is *rejected*: a pool call made while the same pool is
//! already executing one (from a worker closure, or from a second thread)
//! runs serially instead of spawning. Results are unaffected — that is
//! the whole point of the determinism rules — and the alternative
//! (recursive thread explosion or a deadlock-prone queue) buys nothing
//! for the flat fan-outs this workspace needs.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Upper bound on pool width; guards absurd `POLIMER_THREADS` values.
pub(crate) const MAX_THREADS: usize = 256;

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Resolve a thread count from the contents of `POLIMER_THREADS`.
///
/// Unset, empty, unparsable or zero values fall back to
/// [`std::thread::available_parallelism`] (or 1 if even that is unknown).
pub(crate) fn threads_from_env(value: Option<&str>) -> usize {
    match value.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n.min(MAX_THREADS),
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_THREADS),
    }
}

/// The process-wide pool, sized once from `POLIMER_THREADS`.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Pool::new(threads_from_env(std::env::var("POLIMER_THREADS").ok().as_deref()))
    })
}

/// Run `f` with every [`global`] pool operation *on this thread* forced to
/// `threads` workers. Used by determinism tests (`1` vs `8` must agree
/// bit-for-bit) and by drivers that want a serial inner loop under a
/// parallel outer sweep. Nestable; the previous override is restored even
/// if `f` panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread override must be >= 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads.min(MAX_THREADS)))));
    f()
}

/// A reusable worker-pool policy: how wide to fan out, plus the busy flag
/// that rejects nested use. The caller is worker 0 of every region and
/// the other `width - 1` are scoped threads spawned for it — one spawn
/// and join each, and no persistent thread to leak or to keep
/// non-`'static` borrows alive across calls.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    active: AtomicBool,
}

/// Clears the busy flag even when a worker panic unwinds through the pool.
struct ActiveGuard<'p>(&'p Pool);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active.store(false, Ordering::Release);
    }
}

impl Pool {
    /// A pool that fans out to `threads` workers (must be >= 1).
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        Pool { threads: threads.min(MAX_THREADS), active: AtomicBool::new(false) }
    }

    /// Width in effect for calls from this thread: the [`with_threads`]
    /// override if one is installed, the configured width otherwise.
    fn effective_threads(&self) -> usize {
        THREAD_OVERRIDE.with(|c| c.get()).unwrap_or(self.threads)
    }

    /// True while a parallel region is executing on this pool. A call
    /// finding the pool busy runs serially (nested-use rejection).
    #[cfg(test)]
    fn is_busy(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Try to claim the pool for one parallel region.
    fn try_begin(&self) -> bool {
        !self.active.swap(true, Ordering::Acquire)
    }

    /// The region behind [`Pool::par_map_indexed`]: fill `out` in place,
    /// invoking `fill(start_index, chunk)` for each `chunk_size`-sized
    /// chunk of `out` (in parallel), where `start_index` is the chunk's
    /// offset into `out`. Chunks are disjoint `&mut` slices, so every
    /// element is written by exactly one worker and the result is
    /// independent of scheduling.
    fn par_fill<R: Send>(
        &self,
        out: &mut [R],
        chunk_size: usize,
        fill: impl Fn(usize, &mut [R]) + Sync,
    ) {
        assert!(chunk_size >= 1, "chunk_size must be >= 1");
        if out.is_empty() {
            return;
        }
        let n_chunks = out.len().div_ceil(chunk_size);
        let threads = self.effective_threads().min(n_chunks);
        if threads <= 1 || !self.try_begin() {
            for (ci, chunk) in out.chunks_mut(chunk_size).enumerate() {
                fill(ci * chunk_size, chunk);
            }
            return;
        }
        let _guard = ActiveGuard(self);

        // The work queue is the chunk iterator itself, nothing collected;
        // each item carries its own index, so who pops what is free.
        let queue = Mutex::new(out.chunks_mut(chunk_size).enumerate());
        let work = || loop {
            // Lock only to pop: a panicking `fill` never poisons the queue.
            let item = queue.lock().expect("queue lock is never held across `fill`").next();
            match item {
                Some((ci, chunk)) => fill(ci * chunk_size, chunk),
                None => break,
            }
        };
        std::thread::scope(|s| {
            // The caller is worker 0: only `threads - 1` threads are spawned.
            let handles: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
            work();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Compute `f(0..len)` in parallel, returning results slotted by
    /// index: `out[i] == f(i)` regardless of which worker ran `i`. The
    /// items together should be worth a millisecond or more (whole trials,
    /// whole runs); a caller whose items can be smaller prices them first.
    /// Items are batched internally to keep queue traffic low.
    pub fn par_map_indexed<R: Send>(&self, len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
        let threads = self.effective_threads().max(1);
        let chunk = len.div_ceil(threads * 4).max(1);
        self.par_fill(&mut slots, chunk, |start, out| {
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = Some(f(start + k));
            }
        });
        slots.into_iter().map(|s| s.expect("par_fill visits every slot")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_slots_by_index() {
        let pool = Pool::new(5);
        let out = pool.par_map_indexed(1000, |i| i * i);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn fill_writes_every_slot_once() {
        let pool = Pool::new(4);
        let mut out = vec![0u32; 999];
        pool.par_fill(&mut out, 10, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (start + k) as u32 + 1;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    /// That a width-1 call costs no dispatch, asserted where no host can
    /// move it rather than timed: at width 1 — configured, or overridden by
    /// [`with_threads`] — every entry point runs each chunk on the calling
    /// thread and never claims the pool, so nothing is spawned.
    #[test]
    fn width_one_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let check = |pool: &Pool| {
            let here = || {
                assert_eq!(std::thread::current().id(), caller, "dispatched off-thread");
                assert!(!pool.is_busy(), "a width-1 call claimed the pool");
            };
            let mut out = vec![0u32; 64];
            pool.par_fill(&mut out, 4, |start, chunk| {
                here();
                chunk.fill(start as u32);
            });
            assert_eq!(out[63], 60);
            let mapped = pool.par_map_indexed(64, |i| {
                here();
                i
            });
            assert_eq!(mapped[63], 63);
        };
        check(&Pool::new(1));
        with_threads(1, || check(&Pool::new(4)));
    }

    /// Make every worker of a width-`width` region take part: a thread's
    /// first chunk waits until `width` distinct threads hold one, so no
    /// worker can drain the queue before another has started. The region
    /// needs at least `width` chunks; `seen` ends as the set of threads
    /// that ran one.
    struct Rendezvous {
        seen: Mutex<std::collections::HashSet<std::thread::ThreadId>>,
        all_in: std::sync::Barrier,
    }

    impl Rendezvous {
        fn new(width: usize) -> Self {
            Rendezvous { seen: Mutex::default(), all_in: std::sync::Barrier::new(width) }
        }

        fn arrive(&self) {
            let first = self.seen.lock().unwrap().insert(std::thread::current().id());
            if first {
                self.all_in.wait();
            }
        }
    }

    /// The caller is worker 0: a width-`w` region runs on the calling
    /// thread plus exactly `w - 1` spawned ones, and between them they
    /// visit every chunk exactly once.
    #[test]
    fn region_runs_on_the_caller_plus_width_minus_one_threads() {
        let caller = std::thread::current().id();
        for width in [2, 3, 5] {
            let pool = Pool::new(width);
            let meet = Rendezvous::new(width);
            let mut visits = vec![0u32; 4000];
            pool.par_fill(&mut visits, 7, |start, chunk| {
                meet.arrive();
                assert!(pool.is_busy());
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += 1 + (start + k) as u32;
                }
            });
            for (i, v) in visits.iter().enumerate() {
                assert_eq!(*v, 1 + i as u32, "slot {i} not visited exactly once");
            }
            let seen = meet.seen.into_inner().unwrap();
            assert_eq!(seen.len(), width, "width {width} region ran on {} threads", seen.len());
            assert!(seen.contains(&caller), "the calling thread took no chunk");
            assert!(!pool.is_busy());
        }
    }

    /// A panic in a chunk the *caller* runs unwinds out of the region like
    /// a spawned worker's does: the other workers are joined first and the
    /// busy flag clears.
    #[test]
    fn caller_chunk_panic_propagates_and_clears_busy() {
        let caller = std::thread::current().id();
        let pool = Pool::new(3);
        let meet = Rendezvous::new(3);
        let mut out = vec![0u8; 256];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_fill(&mut out, 8, |_, chunk| {
                meet.arrive();
                assert!(std::thread::current().id() != caller, "injected failure");
                chunk.fill(1);
            });
        }));
        let payload = result.expect_err("the caller's own panic must leave the region");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"injected failure"), "payload lost");
        assert!(!pool.is_busy());
        // The spawned workers drained what the caller never reached.
        assert_eq!(out.iter().filter(|&&v| v == 0).count(), 8);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(|| {
            pool.par_map_indexed(1000, |i| {
                assert!(i != 31 * 16, "injected failure");
                0u32
            })
        });
        assert!(result.is_err(), "worker panic must unwind into the caller");
        assert!(!pool.is_busy(), "busy flag must clear after a panicking region");
    }

    #[test]
    fn fill_panic_propagates_and_clears_busy() {
        let pool = Pool::new(3);
        let mut out = vec![0u8; 256];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_fill(&mut out, 8, |start, _| assert!(start != 64, "injected failure"));
        }));
        assert!(result.is_err());
        assert!(!pool.is_busy());
    }

    #[test]
    fn nested_use_is_rejected_not_deadlocked() {
        let pool = Pool::new(4);
        // From inside a parallel region, further pool calls must complete
        // serially (no new spawn wave) and still produce correct results.
        let out = pool.par_map_indexed(8, |i| {
            assert!(pool.is_busy(), "outer region should hold the pool");
            let s: u64 = pool.par_map_indexed(256, |j| j as u64).iter().sum();
            s + i as u64
        });
        let base: u64 = (0..256).sum();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, base + i as u64);
        }
        assert!(!pool.is_busy());
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let pool = Pool::new(6);
        assert_eq!(pool.effective_threads(), 6);
        with_threads(2, || {
            assert_eq!(pool.effective_threads(), 2);
            with_threads(1, || assert_eq!(pool.effective_threads(), 1));
            assert_eq!(pool.effective_threads(), 2);
        });
        assert_eq!(pool.effective_threads(), 6);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let pool = Pool::new(6);
        let _ = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert_eq!(pool.effective_threads(), 6);
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from_env(Some("4")), 4);
        assert_eq!(threads_from_env(Some(" 12 ")), 12);
        assert_eq!(threads_from_env(Some("100000")), MAX_THREADS);
        let default = threads_from_env(None);
        assert!(default >= 1);
        assert_eq!(threads_from_env(Some("0")), default);
        assert_eq!(threads_from_env(Some("nope")), default);
        assert_eq!(threads_from_env(Some("")), default);
    }

    #[test]
    fn global_pool_is_usable() {
        let out = global().par_map_indexed(32, |i| i + 1);
        assert_eq!(out[31], 32);
    }
}
