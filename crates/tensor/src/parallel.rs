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
//! must therefore (a) give each task an exclusive slice of the output —
//! [`parallel_chunks_mut`] hands task `t` the `t`-th chunk of one buffer,
//! the only route by which pool tasks write shared output — and (b) keep
//! every floating-point accumulation order a function of the *shape*
//! alone, never of the thread count. All kernels in this crate follow
//! that rule, so results are bit-identical for any `NIID_THREADS`.
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

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
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
    /// The first panic payload a task raised, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
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
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(idx))) {
                    let mut first = self.panic.lock().expect("panic slot poisoned");
                    first.get_or_insert(payload);
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
/// A panic in any task is re-raised on the caller, with the first
/// task's payload, after the region completes.
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
        panic: Mutex::new(None),
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
    let payload = region.panic.lock().expect("panic slot poisoned").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Run `body(t, chunk)` once for each chunk of `buf.chunks_mut(chunk_len)`,
/// `t` being the chunk's index, splitting the chunks across the pool as
/// [`parallel_for`] splits its tasks. This is how a pool task gets its
/// exclusive slice of a shared output (the determinism contract's rule
/// (a)); to hand tasks several buffers at once, collect the per-task
/// borrows into a `Vec` and pass chunks of 1.
///
/// # Panics
/// If `chunk_len == 0`, and (re-raised on the caller) if `body` panics.
pub fn parallel_chunks_mut<T: Send>(
    buf: &mut [T],
    chunk_len: usize,
    body: &(dyn Fn(usize, &mut [T]) + Sync),
) {
    assert!(chunk_len > 0, "parallel_chunks_mut: chunk_len is 0");
    let len = buf.len();
    // An atomic only so that the region's closure is `Sync` without an
    // `unsafe impl`; the value is published to the pool workers by the
    // channel that hands them the region.
    let base = AtomicPtr::new(buf.as_mut_ptr());
    parallel_for(len.div_ceil(chunk_len), &|t| {
        let start = t * chunk_len;
        let n = chunk_len.min(len - start);
        // SAFETY: `start..start + n` is in bounds (`t < len.div_ceil(chunk_len)`,
        // so `start < len`, and `n` stops at `len`), and it is the `t`-th
        // chunk of `chunks_mut(chunk_len)`, so no two tasks' chunks overlap.
        // `parallel_for` runs each `t` exactly once, so each chunk is
        // borrowed once, and it returns only after every helper has
        // finished with the region (`Region::work` catches unwinds), so no
        // chunk outlives the exclusive borrow of `buf` held by this call.
        let chunk =
            unsafe { std::slice::from_raw_parts_mut(base.load(Ordering::Relaxed).add(start), n) };
        body(t, chunk);
    });
}

/// Minimum FLOP count before a kernel goes multi-threaded; below this
/// the fork-join handshake outweighs the work.
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 21;

/// [`parallel_chunks_mut`] that goes through the pool only when `flops`
/// clears [`PAR_MIN_FLOPS`] and there are several chunks; otherwise the
/// chunks run inline. Either way every chunk is visited exactly once, in
/// a scheduling whose floating-point consequences are identical (tasks
/// own disjoint outputs), so the threshold never affects results.
#[inline]
pub(crate) fn parallel_chunks_mut_threshold<T: Send>(
    buf: &mut [T],
    chunk_len: usize,
    flops: usize,
    body: &(dyn Fn(usize, &mut [T]) + Sync),
) {
    assert!(chunk_len > 0, "parallel_chunks_mut: chunk_len is 0");
    if flops >= PAR_MIN_FLOPS && buf.len() > chunk_len {
        parallel_chunks_mut(buf, chunk_len, body);
    } else {
        stats::bump(Counter::PoolInlineRegions, 1);
        stats::bump(Counter::PoolTasks, buf.len().div_ceil(chunk_len) as u64);
        for (t, chunk) in buf.chunks_mut(chunk_len).enumerate() {
            body(t, chunk);
        }
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
        let payload = result.expect_err("panic must surface on the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    /// Every element is written exactly once, by the task whose chunk
    /// holds it, and every task sees the chunk `chunks_mut` would give it.
    fn check_chunks(len: usize, chunk_len: usize) {
        let tasks = len.div_ceil(chunk_len);
        let calls: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
        let mut buf: Vec<Option<String>> = vec![None; len];
        parallel_chunks_mut(&mut buf, chunk_len, &|t, chunk| {
            calls[t].fetch_add(1, Ordering::Relaxed);
            assert_eq!(chunk.len(), chunk_len.min(len - t * chunk_len), "chunk {t}");
            for v in chunk {
                assert!(v.is_none(), "element written twice");
                *v = Some(t.to_string());
            }
        });
        for (t, c) in calls.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "chunk {t} of {len}/{chunk_len}"
            );
        }
        for (i, v) in buf.iter().enumerate() {
            let want = (i / chunk_len).to_string();
            assert_eq!(
                v.as_deref(),
                Some(want.as_str()),
                "element {i} of {len}/{chunk_len}"
            );
        }
    }

    fn chunk_sweep() {
        for len in [0, 1, 7, 64, 1000] {
            for chunk_len in [1, 3, 8, 64, 2000] {
                check_chunks(len, chunk_len);
            }
        }
    }

    #[test]
    fn chunks_are_exclusive_and_cover_the_buffer() {
        with_thread_budget(1, chunk_sweep);
        chunk_sweep();
        // Nested inside a pool task, the region runs inline.
        parallel_for(2, &|_| chunk_sweep());
    }

    #[test]
    #[should_panic(expected = "parallel_chunks_mut")]
    fn zero_chunk_len_panics() {
        parallel_chunks_mut(&mut [0u8; 4], 0, &|_, _| {});
    }
}
