//! A tiny persistent fork-join worker pool for data-parallel kernels.
//!
//! Zero external dependencies: `std::thread` workers parked on an mpsc
//! channel, a global pool behind a `OnceLock`, and an atomic-counter
//! self-scheduling loop ([`parallel_for`]) that the calling thread joins.
//!
//! ## Determinism contract
//!
//! `parallel_for(tasks, body)` promises only that `body(i)` runs exactly
//! once for every `i` in `0..tasks`, on *some* thread. Kernels built on it
//! must therefore (a) give each task an exclusive slice of the output and
//! (b) keep every floating-point accumulation order a function of the
//! *shape* alone, never of the thread count. All kernels in this crate
//! follow that rule, so results are bit-identical for any `NIID_THREADS`.
//!
//! ## Sizing and the oversubscription rule
//!
//! The pool is created once, sized to `NIID_THREADS` (or the machine's
//! core count) minus one — the caller is always the extra worker. Layers
//! that parallelize *above* the kernels use the same pool: party-level
//! training in `niid-fl` runs each round's cohort as one `parallel_for`
//! region (at most `NIID_THREADS` wide, narrowed with
//! [`with_thread_budget`]), so it creates no threads of its own. A nested
//! `parallel_for` issued from inside a pool task always runs inline — a
//! party task's kernels run on that task's thread — so one level of
//! data-parallelism is the maximum, the two levels never oversubscribe
//! the configured core count, and the pool is deadlock-free.
//! [`set_thread_budget`] remains the thread-local cap for threads outside
//! the pool that should keep their kernels narrow.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};

use crate::stats::{self, Counter};

/// Environment variable overriding the detected core count.
pub const ENV_THREADS: &str = "NIID_THREADS";

/// Total thread budget configured for this process: `NIID_THREADS` if set
/// to a positive integer, otherwise `std::thread::available_parallelism`.
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        if let Ok(v) = std::env::var(ENV_THREADS) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
            eprintln!("warning: ignoring invalid {ENV_THREADS}={v:?}");
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

thread_local! {
    /// Per-thread cap on kernel parallelism. 0 = unset (full budget).
    static BUDGET: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is executing tasks of a parallel region;
    /// nested regions then run inline.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// The kernel-thread budget of the current thread: the value installed by
/// [`set_thread_budget`] / [`with_thread_budget`], or the full configured
/// budget when none is set.
pub fn thread_budget() -> usize {
    let b = BUDGET.with(Cell::get);
    if b == 0 {
        configured_threads()
    } else {
        b
    }
}

/// Cap kernel parallelism on the *current thread* to `n` threads
/// (`n = 1` forces kernels sequential; `0` restores the full budget).
/// Returns the previous raw value, for restoring.
pub fn set_thread_budget(n: usize) -> usize {
    BUDGET.with(|b| b.replace(n))
}

/// Run `f` with the kernel-thread budget capped at `n`, restoring the
/// previous budget afterwards (even on panic).
pub fn with_thread_budget<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_thread_budget(self.0);
        }
    }
    let _restore = Restore(set_thread_budget(n));
    f()
}

/// One fork-join region: a borrowed task body plus completion tracking.
///
/// The raw pointer erases the body's lifetime so the region can cross the
/// channel into persistent workers; `parallel_for` keeps the borrow alive
/// by blocking until every helper has signalled completion.
struct Region {
    body: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    tasks: usize,
    /// Helpers that have not yet finished with this region.
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

// SAFETY: `body` is only dereferenced while the issuing `parallel_for`
// frame is blocked, and all other fields are synchronized.
unsafe impl Send for Region {}
// SAFETY: as for `Send` — the borrowed body is `Sync` and outlives every
// shared use; the counters, mutex and condvar synchronize themselves.
unsafe impl Sync for Region {}

impl Region {
    /// Claim and run tasks until the shared counter is exhausted;
    /// returns how many tasks this thread claimed.
    fn work(&self) -> usize {
        IN_REGION.with(|flag| {
            let was = flag.replace(true);
            let mut claimed = 0;
            loop {
                let idx = self.next.fetch_add(1, Ordering::Relaxed);
                if idx >= self.tasks {
                    break;
                }
                claimed += 1;
                // SAFETY: see the struct-level invariant.
                let body = unsafe { &*self.body };
                if catch_unwind(AssertUnwindSafe(|| body(idx))).is_err() {
                    self.panicked.store(true, Ordering::Relaxed);
                }
            }
            flag.set(was);
            claimed
        })
    }
}

/// The persistent worker pool (global; see [`pool`]).
pub struct ThreadPool {
    sender: Mutex<mpsc::Sender<Arc<Region>>>,
    workers: usize,
}

impl ThreadPool {
    fn new(workers: usize) -> Self {
        let (sender, receiver) = mpsc::channel::<Arc<Region>>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("niid-kernel-{i}"))
                .spawn(move || loop {
                    let region = {
                        let _idle = niid_prof::span!("pool.idle");
                        let guard = receiver.lock().unwrap();
                        guard.recv()
                    };
                    let Ok(region) = region else {
                        return; // pool dropped (process exit)
                    };
                    let _steal = niid_prof::span!("pool.steal");
                    let claimed = region.work();
                    if claimed > 0 {
                        stats::bump(Counter::PoolStolenTasks, claimed as u64);
                    }
                    let mut rem = region.remaining.lock().unwrap();
                    *rem -= 1;
                    if *rem == 0 {
                        region.done.notify_all();
                    }
                })
                .expect("spawn kernel worker");
        }
        Self {
            sender: Mutex::new(sender),
            workers,
        }
    }

    /// Number of pool workers (excludes the calling thread).
    pub fn workers(&self) -> usize {
        self.workers
    }
}

/// The process-wide kernel pool, created on first use with
/// `configured_threads() - 1` workers.
pub fn pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(configured_threads().saturating_sub(1)))
}

/// Run `body(i)` exactly once for each `i in 0..tasks`, splitting the
/// index space across the calling thread and up to `thread_budget() - 1`
/// pool workers. Runs inline when the budget is 1, the region is trivial,
/// or the caller is itself a pool task (no nested parallelism).
///
/// Panics in any task are re-raised on the caller after the region
/// completes.
pub fn parallel_for(tasks: usize, body: &(dyn Fn(usize) + Sync)) {
    if tasks == 0 {
        return;
    }
    let width = thread_budget();
    let nested = IN_REGION.with(Cell::get);
    if tasks == 1 || width <= 1 || nested {
        stats::bump(Counter::PoolInlineRegions, 1);
        stats::bump(Counter::PoolTasks, tasks as u64);
        for i in 0..tasks {
            body(i);
        }
        return;
    }
    let pool = pool();
    let helpers = (width - 1).min(tasks - 1).min(pool.workers);
    if helpers == 0 {
        stats::bump(Counter::PoolInlineRegions, 1);
        stats::bump(Counter::PoolTasks, tasks as u64);
        for i in 0..tasks {
            body(i);
        }
        return;
    }
    stats::bump(Counter::PoolRegions, 1);
    stats::bump(Counter::PoolTasks, tasks as u64);
    // SAFETY: the borrow outlives the region because this frame blocks on
    // `remaining == 0` before returning.
    let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let region = Arc::new(Region {
        body: body_static,
        next: AtomicUsize::new(0),
        tasks,
        remaining: Mutex::new(helpers),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    {
        let sender = pool.sender.lock().unwrap();
        for _ in 0..helpers {
            sender.send(Arc::clone(&region)).expect("kernel pool alive");
        }
    }
    {
        let _task = niid_prof::span!("pool.task");
        region.work(); // the caller is a full participant
    }
    let mut rem = region.remaining.lock().unwrap();
    while *rem > 0 {
        rem = region.done.wait(rem).unwrap();
    }
    drop(rem);
    if region.panicked.load(Ordering::Relaxed) {
        panic!("parallel_for: a task panicked");
    }
}

/// Minimum FLOP count before a kernel goes multi-threaded; below this
/// the fork-join handshake outweighs the work.
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 21;

/// Run `body(t)` for `t in 0..tasks`, going through the pool only when
/// `flops` clears [`PAR_MIN_FLOPS`]; otherwise the tasks run inline.
/// Either way every task executes exactly once, in a scheduling whose
/// floating-point consequences are identical (tasks own disjoint
/// outputs), so the threshold never affects results.
#[inline]
pub(crate) fn parallel_for_threshold(tasks: usize, flops: usize, body: &(dyn Fn(usize) + Sync)) {
    if flops >= PAR_MIN_FLOPS && tasks > 1 {
        parallel_for(tasks, body);
    } else {
        stats::bump(Counter::PoolInlineRegions, 1);
        stats::bump(Counter::PoolTasks, tasks as u64);
        for t in 0..tasks {
            body(t);
        }
    }
}

/// A `*mut f32` that may cross thread boundaries so parallel tasks can
/// write disjoint regions of one output buffer.
///
/// # Safety
/// The creator must guarantee tasks never write overlapping ranges and
/// the buffer outlives the region (both hold for every use in this
/// crate: each task owns an exclusive row range of the output).
pub(crate) struct SharedMut(pub *mut f32);

// SAFETY: the pointer is only turned into slices through `slice`, whose
// callers guarantee in-bounds, non-overlapping ranges per task and a
// buffer that outlives the parallel region.
unsafe impl Send for SharedMut {}
// SAFETY: sharing the wrapper shares only the address; every write goes
// through a task-exclusive `slice` range, as for `Send`.
unsafe impl Sync for SharedMut {}

impl SharedMut {
    /// The sub-slice `[offset, offset + len)` of the underlying buffer.
    ///
    /// # Safety
    /// Caller must ensure the range is in bounds and not aliased by any
    /// concurrently running task.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice(&self, offset: usize, len: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(offset), len)
    }
}

thread_local! {
    /// Per-thread f32 arena for kernel packing and strip buffers (the NT
    /// GEMM's Bᵀ pack, the implicit-conv tile/strip/regeneration
    /// buffers). It lives on whichever thread runs the task — pool worker
    /// or caller — so steady-state training performs no per-call heap
    /// allocation for these workspaces.
    static SCRATCH_ARENA: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with this thread's scratch arena grown to at least `len` f32
/// elements, handing it exactly `len`. Contents are **unspecified on
/// entry** — callers must fully overwrite any region before reading it.
/// The arena never shrinks, so repeated kernel calls of the same shape
/// class reuse one allocation. A re-entrant borrow (a kernel invoked from
/// inside another kernel's scratch closure on the same thread) falls back
/// to a fresh allocation rather than aliasing the outer buffer.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    SCRATCH_ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![0.0f32; len]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scratch_arena_reuses_and_survives_reentrancy() {
        let first_ptr = with_scratch(64, |buf| {
            assert_eq!(buf.len(), 64);
            buf.fill(1.0);
            buf.as_ptr() as usize
        });
        with_scratch(32, |outer| {
            // Same arena, not reallocated for a smaller request.
            assert_eq!(outer.as_ptr() as usize, first_ptr);
            outer.fill(2.0);
            // Re-entrant borrow must not alias the outer buffer.
            with_scratch(32, |inner| {
                assert_ne!(inner.as_ptr() as usize, outer.as_ptr() as usize);
                inner.fill(3.0);
            });
            assert!(outer.iter().all(|&v| v == 2.0));
        });
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn zero_and_single_task_regions() {
        parallel_for(0, &|_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        parallel_for(1, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for(8, &|i| {
            // A nested region from inside a task must complete inline.
            parallel_for(8, &|j| {
                total.fetch_add((i * 8 + j) as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    fn budget_of_one_is_sequential_and_restored() {
        let before = thread_budget();
        with_thread_budget(1, || {
            assert_eq!(thread_budget(), 1);
            let hits = AtomicUsize::new(0);
            parallel_for(16, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 16);
        });
        assert_eq!(thread_budget(), before);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            parallel_for(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err(), "panic must surface on the caller");
    }

    #[test]
    fn disjoint_writes_through_shared_mut() {
        let mut buf = vec![0.0f32; 64];
        let ptr = SharedMut(buf.as_mut_ptr());
        parallel_for(8, &|t| {
            // SAFETY: task `t` owns elements `8t..8t + 8` of the 64.
            let chunk = unsafe { ptr.slice(t * 8, 8) };
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (t * 8 + j) as f32;
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }
}
