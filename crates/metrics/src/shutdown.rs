//! Flush-on-exit guard: keeps partial runs' JSONL valid on Ctrl-C.
//!
//! Every [`JsonlFile`](crate::JsonlFile) — the file behind both the
//! metrics `JsonlExporter` and the trace `JsonlSink` — registers itself
//! here as a weak [`Flush`] handle when it opens; nothing else registers.
//! Only the `exp` binary decides whether exit is guarded: it calls
//! [`install_signal_flush`] once, which installs SIGINT/SIGTERM
//! handlers (raw `libc` FFI — the workspace is dependency-free) that do
//! nothing but set an atomic flag, and a watcher thread that notices the
//! flag, runs [`flush_all`], and exits with the conventional
//! `128 + signal` status. Everything is a no-op on non-Unix targets.

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Mutex, Once, OnceLock, Weak};

/// Implemented by sinks that can flush + fsync their buffered output.
pub trait Flush: Send + Sync {
    /// Flush buffered data to disk. Must be quick and must not panic.
    fn flush_now(&self);
}

fn flushers() -> &'static Mutex<Vec<Weak<dyn Flush>>> {
    static FLUSHERS: OnceLock<Mutex<Vec<Weak<dyn Flush>>>> = OnceLock::new();
    FLUSHERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a sink to be flushed on Ctrl-C / early exit. Weak handles:
/// a dropped sink (which flushes itself in `Drop`) is skipped and later
/// pruned, so registration never extends a sink's lifetime.
pub(crate) fn register_flusher(f: Weak<dyn Flush>) {
    let mut list = flushers().lock().unwrap();
    list.retain(|w| w.strong_count() > 0);
    list.push(f);
}

/// Flush every live registered sink; returns how many were flushed.
pub fn flush_all() -> usize {
    // Collect strong handles first so a flusher that takes its time does
    // not hold the registry lock.
    let live: Vec<_> = {
        let mut list = flushers().lock().unwrap();
        list.retain(|w| w.strong_count() > 0);
        list.iter().filter_map(Weak::upgrade).collect()
    };
    for f in &live {
        f.flush_now();
    }
    live.len()
}

static PENDING_SIGNAL: AtomicI32 = AtomicI32::new(0);

#[cfg(unix)]
mod imp {
    use super::PENDING_SIGNAL;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(sig: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        PENDING_SIGNAL.store(sig, Ordering::SeqCst);
    }

    pub fn install_handlers() {
        // SAFETY: the declaration matches libc's `signal(int, sighandler_t)`
        // on unix targets (`int` is 32-bit, `sighandler_t` a pointer-sized
        // function address), SIGINT and SIGTERM are valid signal numbers,
        // and `on_signal` is an `extern "C" fn(i32)` that lives for the
        // process and does only an async-signal-safe atomic store. The
        // previous handler returned is deliberately dropped.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install_handlers() {}
}

/// Install the signal handlers and watcher thread (idempotent).
pub fn install_signal_flush() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        imp::install_handlers();
        let _ = std::thread::Builder::new()
            .name("niid-shutdown-watch".into())
            .spawn(|| loop {
                let sig = PENDING_SIGNAL.load(Ordering::SeqCst);
                if sig != 0 {
                    let n = flush_all();
                    eprintln!("\ninterrupted (signal {sig}); flushed {n} sink(s)");
                    std::process::exit(128 + sig);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Probe(AtomicUsize);

    impl Flush for Probe {
        fn flush_now(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn flush_all_hits_live_sinks_and_skips_dropped_ones() {
        let live = Arc::new(Probe(AtomicUsize::new(0)));
        let dead = Arc::new(Probe(AtomicUsize::new(0)));
        register_flusher(Arc::downgrade(&live) as Weak<dyn Flush>);
        register_flusher(Arc::downgrade(&dead) as Weak<dyn Flush>);
        drop(dead);
        let n = flush_all();
        assert!(n >= 1, "at least the live probe must be flushed");
        assert_eq!(live.0.load(Ordering::SeqCst), 1);
        // Dropped sinks are pruned, so a second pass flushes the same set.
        let n2 = flush_all();
        assert_eq!(n2, n);
        assert_eq!(live.0.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn install_is_idempotent() {
        install_signal_flush();
        install_signal_flush();
    }
}
