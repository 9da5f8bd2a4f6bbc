//! Always-compiled-in scoped-span profiler.
//!
//! `span!("gemm.pack_bt")` returns an RAII guard; when profiling is
//! enabled ([`enable`]) the guard's drop writes one fixed-size entry
//! (label id, start/end nanoseconds, thread id, nesting depth) into the
//! recording thread's lock-free ring buffer and folds the duration into
//! that label's cumulative totals. When profiling is disabled the whole
//! call is one relaxed atomic load returning an inert guard, so spans can
//! stay in hot kernel loops permanently (<1% overhead off; see the
//! `disabled_span_overhead_smoke` test).
//!
//! `timed!("fl.aggregate")` is the same span for a scope whose duration
//! is also a reported number (a round phase): its [`TimedGuard`] reads
//! the clock even when recording is off and returns the duration from
//! `close()`, so the caller keeps no second clock beside the span.
//!
//! Two sinks drain the recorded data on demand:
//!
//! * [`write_chrome_trace`] — Chrome trace-event JSON loadable in
//!   Perfetto / `chrome://tracing`, one complete process timeline with
//!   every recording thread (pool workers included) as its own track.
//! * [`flame`] — in-process aggregation per label: call count, total and
//!   self nanoseconds (exact, maintained incrementally and immune to
//!   ring wrap-around), plus p50/p99 duration percentiles computed from
//!   the entries still retained in the rings. [`totals`] is the same
//!   exact counters without the ring walk, for periodic scrapes.
//!
//! # Design
//!
//! **Label interning.** The first time a call site runs with profiling
//! enabled, its `&'static str` label is interned into a leaked
//! [`LabelStat`] (id + three cumulative atomics) and the pointer is
//! cached in a per-call-site `AtomicUsize`, so steady-state span entry is
//! lock-free: one enabled check and one cache load.
//!
//! **Ring layout.** Each recording thread owns a [`RING_CAPACITY`]-slot
//! ring of 3×`AtomicU64` slots (`meta` = label id · depth · valid bit,
//! `start_ns`, `end_ns`). Only the owning thread writes; `head` is
//! published with release ordering and drains read it with acquire, so a
//! concurrent drain sees a consistent prefix and simply filters the rare
//! torn slot (end < start). Wrap-around overwrites the oldest entries;
//! `head − capacity` is the exact dropped count. Cumulative label totals
//! are updated on every span drop regardless, so flame totals stay exact
//! even when rings wrap — only the percentiles are computed from the
//! retained window.
//!
//! **Self time.** Each thread keeps a child-duration stack: a span pushes
//! a zero accumulator on entry; on exit it adds its own duration to its
//! parent's accumulator and records `duration − children` as self time.
//! This makes self/total exact without reconstructing the tree at drain
//! time.
//!
//! **Determinism.** Recording only reads the monotonic clock and writes
//! side buffers — no floating point in the measured computation, no RNG,
//! no synchronization that alters scheduling of the measured work — so
//! trajectories are bit-identical with profiling on or off (covered by
//! `tests/span_profiler.rs`).

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Entries retained per recording thread; older entries are overwritten.
/// 4096 × 24 B ≈ 96 KiB per thread, allocated lazily on the thread's
/// first recorded span (never when profiling is off).
pub const RING_CAPACITY: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Turn span recording on or off, process-wide. Spans opened while
/// disabled record nothing even if profiling is enabled before they
/// close; the reverse records normally.
pub fn enable(on: bool) {
    // Touch the epoch before the first span so timestamps are anchored.
    let _ = epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic time origin for every timestamp in the process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Cumulative per-label totals; leaked on intern so the hot path holds a
/// `&'static` with no lock.
struct LabelStat {
    id: u32,
    name: &'static str,
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
}

struct Interner {
    by_name: HashMap<&'static str, &'static LabelStat>,
    by_id: Vec<&'static LabelStat>,
}

fn interner() -> &'static Mutex<Interner> {
    static I: OnceLock<Mutex<Interner>> = OnceLock::new();
    I.get_or_init(|| {
        Mutex::new(Interner {
            by_name: HashMap::new(),
            by_id: Vec::new(),
        })
    })
}

fn intern(name: &'static str) -> &'static LabelStat {
    let mut i = interner().lock().unwrap();
    if let Some(&s) = i.by_name.get(name) {
        return s;
    }
    let stat: &'static LabelStat = Box::leak(Box::new(LabelStat {
        id: i.by_id.len() as u32,
        name,
        calls: AtomicU64::new(0),
        total_ns: AtomicU64::new(0),
        self_ns: AtomicU64::new(0),
    }));
    i.by_name.insert(name, stat);
    i.by_id.push(stat);
    stat
}

/// One ring slot: `meta` packs `label_id << 32 | depth << 16 | 1`
/// (zero = never written), bracketed by the span's start/end timestamps.
struct Slot {
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

/// A thread's ring buffer. Only the owning thread writes; drains from
/// other threads read the atomics and filter torn slots.
struct ThreadBuf {
    tid: u64,
    name: String,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadBuf {
    #[inline]
    fn record(&self, label_id: u32, depth: u16, start_ns: u64, end_ns: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        slot.meta.store(
            (label_id as u64) << 32 | (depth as u64) << 16 | 1,
            Ordering::Relaxed,
        );
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.end_ns.store(end_ns, Ordering::Relaxed);
        self.head.store(head + 1, Ordering::Release);
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static R: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static BUF: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_buf() -> Arc<ThreadBuf> {
    BUF.with(|cell| {
        Arc::clone(cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed) + 1;
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_owned);
            let buf = Arc::new(ThreadBuf {
                tid,
                name,
                head: AtomicU64::new(0),
                slots: (0..RING_CAPACITY)
                    .map(|_| Slot {
                        meta: AtomicU64::new(0),
                        start_ns: AtomicU64::new(0),
                        end_ns: AtomicU64::new(0),
                    })
                    .collect(),
            });
            registry().lock().unwrap().push(Arc::clone(&buf));
            buf
        }))
    })
}

/// RAII span guard returned by [`span!`]; inert (`None`) when profiling
/// is off at entry.
pub struct SpanGuard(Option<ActiveSpan>);

/// A span that is being recorded: opened by [`ActiveSpan::open`], booked
/// into the label totals and the thread's ring by [`ActiveSpan::finish`].
struct ActiveSpan {
    stat: &'static LabelStat,
    start_ns: u64,
    depth: u16,
}

impl ActiveSpan {
    /// Resolve the call site's cached [`LabelStat`] pointer (interning on
    /// the first hit) and enter the span on this thread.
    #[inline]
    fn open(label: &'static str, cache: &AtomicUsize) -> Self {
        let mut p = cache.load(Ordering::Relaxed);
        if p == 0 {
            p = intern(label) as *const LabelStat as usize;
            cache.store(p, Ordering::Relaxed);
        }
        // SAFETY: the cache only ever holds pointers produced by `intern`,
        // which leaks its allocations; the referent lives for the process.
        let stat: &'static LabelStat = unsafe { &*(p as *const LabelStat) };
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        CHILD_NS.with(|s| s.borrow_mut().push(0));
        ActiveSpan {
            stat,
            start_ns: now_ns(),
            depth,
        }
    }

    /// Leave the span at `end_ns`: totals, self time, ring entry.
    fn finish(self, end_ns: u64) {
        let dur = end_ns.saturating_sub(self.start_ns);
        self.stat.calls.fetch_add(1, Ordering::Relaxed);
        self.stat.total_ns.fetch_add(dur, Ordering::Relaxed);
        let child = CHILD_NS.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().unwrap_or(0);
            if let Some(parent) = s.last_mut() {
                *parent += dur;
            }
            child
        });
        self.stat
            .self_ns
            .fetch_add(dur.saturating_sub(child), Ordering::Relaxed);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        thread_buf().record(self.stat.id, self.depth, self.start_ns, end_ns);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(span) = self.0.take() {
            span.finish(now_ns());
        }
    }
}

/// Macro back end of [`span!`], which supplies the per-site cache.
#[inline]
pub fn span_guard(label: &'static str, cache: &AtomicUsize) -> SpanGuard {
    SpanGuard(enabled().then(|| ActiveSpan::open(label, cache)))
}

/// The guard returned by [`timed!`]: a span whose duration the caller
/// needs as a value. It reads the profiler's clock at entry and at
/// [`close`](Self::close) whether or not recording is on, so the number
/// a caller reports and the span the profiler records are one
/// measurement. With recording on it feeds the label totals and the ring
/// exactly as a [`span!`] guard does; with recording off it costs the two
/// clock reads and records nothing. Dropped unclosed (an early return, an
/// unwind) it still closes the span.
pub struct TimedGuard {
    start_ns: u64,
    span: Option<ActiveSpan>,
}

impl TimedGuard {
    /// Macro back end of [`timed!`], which supplies the per-site cache.
    #[inline]
    pub fn open(label: &'static str, cache: &AtomicUsize) -> Self {
        let span = enabled().then(|| ActiveSpan::open(label, cache));
        TimedGuard {
            start_ns: span.as_ref().map_or_else(now_ns, |s| s.start_ns),
            span,
        }
    }

    /// Time since entry, without closing: a lap on the span's own clock,
    /// for a stretch of the scope that has no child span of its own.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(now_ns().saturating_sub(self.start_ns))
    }

    /// Close the span and return its duration — to the nanosecond the
    /// `end − start` of the ring entry it wrote, when recording is on.
    pub fn close(mut self) -> Duration {
        let end_ns = now_ns();
        if let Some(span) = self.span.take() {
            span.finish(end_ns);
        }
        Duration::from_nanos(end_ns.saturating_sub(self.start_ns))
    }
}

impl Drop for TimedGuard {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            span.finish(now_ns());
        }
    }
}

/// Open a scoped span: `let _sp = niid_prof::span!("fl.round");`.
/// The label must be a string literal; it is interned once per call site.
#[macro_export]
macro_rules! span {
    ($label:literal) => {{
        static __NIID_PROF_SITE: ::std::sync::atomic::AtomicUsize =
            ::std::sync::atomic::AtomicUsize::new(0);
        $crate::span_guard($label, &__NIID_PROF_SITE)
    }};
}

/// Open a scoped span whose duration is also a result:
/// `let sp = niid_prof::timed!("fl.aggregate"); …; let took = sp.close();`.
/// See [`TimedGuard`]; use [`span!`] where nothing reads the duration.
#[macro_export]
macro_rules! timed {
    ($label:literal) => {{
        static __NIID_PROF_SITE: ::std::sync::atomic::AtomicUsize =
            ::std::sync::atomic::AtomicUsize::new(0);
        $crate::TimedGuard::open($label, &__NIID_PROF_SITE)
    }};
}

/// One completed span pulled out of a ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    /// Interned label text.
    pub label: String,
    /// Profiler-assigned thread id (registration order, starting at 1).
    pub tid: u64,
    /// Recording thread's name (`niid-kernel-N` for pool workers).
    pub thread: String,
    /// Nesting depth at entry (0 = top level on that thread).
    pub depth: u16,
    /// Start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the profiler epoch.
    pub end_ns: u64,
}

/// Ring-buffer accounting for one recording thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Profiler-assigned thread id.
    pub tid: u64,
    /// Spans ever recorded by the thread.
    pub recorded: u64,
    /// Entries still retained (≤ [`RING_CAPACITY`]).
    pub retained: u64,
    /// Entries overwritten by wrap-around (`recorded − retained`).
    pub dropped: u64,
}

/// Per-thread ring accounting, one row per recording thread.
pub fn ring_stats() -> Vec<RingStats> {
    let bufs = registry().lock().unwrap();
    bufs.iter()
        .map(|b| {
            let recorded = b.head.load(Ordering::Acquire);
            let retained = recorded.min(b.slots.len() as u64);
            RingStats {
                tid: b.tid,
                recorded,
                retained,
                dropped: recorded - retained,
            }
        })
        .collect()
}

/// Drain every ring into a flat list of completed spans, oldest first per
/// thread. Entries overwritten mid-read (torn) are skipped.
pub fn drain_entries() -> Vec<SpanEntry> {
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap().clone();
    let names: Vec<&'static LabelStat> = interner().lock().unwrap().by_id.clone();
    let mut out = Vec::new();
    for buf in &bufs {
        let head = buf.head.load(Ordering::Acquire);
        let cap = buf.slots.len() as u64;
        let first = head.saturating_sub(cap);
        for i in first..head {
            let slot = &buf.slots[(i % cap) as usize];
            let meta = slot.meta.load(Ordering::Relaxed);
            if meta & 1 == 0 {
                continue;
            }
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            let label_id = (meta >> 32) as usize;
            if end_ns < start_ns || label_id >= names.len() {
                continue; // torn slot (concurrent overwrite)
            }
            out.push(SpanEntry {
                label: names[label_id].name.to_owned(),
                tid: buf.tid,
                thread: buf.name.clone(),
                depth: ((meta >> 16) & 0xffff) as u16,
                start_ns,
                end_ns,
            });
        }
    }
    out
}

/// One row of the flame aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlameRow {
    /// Span label.
    pub label: String,
    /// Completed spans (exact, survives ring wrap).
    pub calls: u64,
    /// Cumulative wall time inside the span, children included (exact).
    pub total_ns: u64,
    /// Cumulative wall time minus time attributed to child spans (exact).
    pub self_ns: u64,
    /// Median span duration over the retained ring window, ns.
    pub p50_ns: u64,
    /// 99th-percentile span duration over the retained ring window, ns.
    pub p99_ns: u64,
}

/// Nearest-rank percentile of a sorted sample; 0 for an empty sample.
fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Aggregate everything recorded so far into per-label rows, sorted by
/// self time descending. Calls / total / self are exact cumulative
/// counters; p50/p99 cover only the entries still retained in the rings
/// (older entries are overwritten on wrap).
pub fn flame() -> Vec<FlameRow> {
    let mut durs: HashMap<String, Vec<u64>> = HashMap::new();
    for e in drain_entries() {
        durs.entry(e.label).or_default().push(e.end_ns - e.start_ns);
    }
    let stats: Vec<&'static LabelStat> = interner().lock().unwrap().by_id.clone();
    let mut rows: Vec<FlameRow> = stats
        .iter()
        .filter(|s| s.calls.load(Ordering::Relaxed) > 0)
        .map(|s| {
            let mut d = durs.remove(s.name).unwrap_or_default();
            d.sort_unstable();
            FlameRow {
                label: s.name.to_owned(),
                calls: s.calls.load(Ordering::Relaxed),
                total_ns: s.total_ns.load(Ordering::Relaxed),
                self_ns: s.self_ns.load(Ordering::Relaxed),
                p50_ns: percentile_sorted(&d, 0.50),
                p99_ns: percentile_sorted(&d, 0.99),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.label.cmp(&b.label)));
    rows
}

/// Exact cumulative counters of one recorded label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelTotals {
    /// Span label.
    pub label: &'static str,
    /// Completed spans.
    pub calls: u64,
    /// Cumulative wall time inside the span, children included.
    pub total_ns: u64,
    /// Cumulative wall time minus time attributed to child spans.
    pub self_ns: u64,
}

/// The exact counters of every label recorded so far, in first-recorded
/// order. Unlike [`flame`] this reads only the per-label atomics — no
/// ring is walked, nothing is allocated per entry or sorted — so a
/// periodic scrape costs the same whether the rings are empty or full.
pub fn totals() -> Vec<LabelTotals> {
    let i = interner().lock().unwrap();
    i.by_id
        .iter()
        .map(|s| LabelTotals {
            label: s.name,
            calls: s.calls.load(Ordering::Relaxed),
            total_ns: s.total_ns.load(Ordering::Relaxed),
            self_ns: s.self_ns.load(Ordering::Relaxed),
        })
        .filter(|t| t.calls > 0)
        .collect()
}

/// Exact cumulative `(calls, total_ns, self_ns)` for one label, or `None`
/// if it was never recorded. Cheap; safe from any thread.
pub fn label_totals(label: &str) -> Option<(u64, u64, u64)> {
    let i = interner().lock().unwrap();
    i.by_name.get(label).map(|s| {
        (
            s.calls.load(Ordering::Relaxed),
            s.total_ns.load(Ordering::Relaxed),
            s.self_ns.load(Ordering::Relaxed),
        )
    })
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render everything recorded so far as Chrome trace-event JSON (the
/// format Perfetto and `chrome://tracing` load): complete `"X"` events
/// with microsecond `ts`/`dur`, one `tid` per recording thread, plus
/// `thread_name` metadata so pool workers are labelled in the UI.
pub fn chrome_trace_json() -> String {
    let mut entries = drain_entries();
    entries.sort_by(|a, b| a.tid.cmp(&b.tid).then(a.start_ns.cmp(&b.start_ns)));
    let mut out = String::with_capacity(entries.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"niid\"}}",
    );
    for rs in ring_stats() {
        let name = registry()
            .lock()
            .unwrap()
            .iter()
            .find(|b| b.tid == rs.tid)
            .map(|b| b.name.clone())
            .unwrap_or_default();
        let mut esc = String::new();
        escape_json(&name, &mut esc);
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            rs.tid, esc
        ));
    }
    for e in &entries {
        let mut esc = String::new();
        escape_json(&e.label, &mut esc);
        out.push_str(&format!(
            ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"cat\":\"niid\",\"name\":\"{}\"}}",
            e.tid,
            e.start_ns as f64 / 1e3,
            (e.end_ns - e.start_ns) as f64 / 1e3,
            esc
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Write [`chrome_trace_json`] to `path`.
pub fn write_chrome_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

/// Render the flame aggregation as an aligned text table (top `limit`
/// rows by self time), for end-of-run summaries.
pub fn render_flame_table(limit: usize) -> String {
    let rows = flame();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>9} {:>11} {:>11} {:>9} {:>9}\n",
        "span", "calls", "self_ms", "total_ms", "p50_us", "p99_us"
    ));
    for r in rows.iter().take(limit) {
        out.push_str(&format!(
            "{:<22} {:>9} {:>11.2} {:>11.2} {:>9.1} {:>9.1}\n",
            r.label,
            r.calls,
            r.self_ns as f64 / 1e6,
            r.total_ns as f64 / 1e6,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Profiler state is process-global; tests that flip `enable` take
    // this lock so they do not interleave.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static L: Mutex<()> = Mutex::new(());
        L.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = test_lock();
        enable(false);
        {
            let _sp = span!("test.disabled_only");
        }
        assert_eq!(label_totals("test.disabled_only"), None);
    }

    #[test]
    fn totals_and_self_time_for_nested_spans() {
        let _g = test_lock();
        enable(true);
        {
            let _outer = span!("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        enable(false);
        let (oc, ot, os) = label_totals("test.outer").unwrap();
        let (ic, it, is) = label_totals("test.inner").unwrap();
        assert_eq!(oc, 1);
        assert_eq!(ic, 1);
        assert!(ot >= it, "outer total {ot} covers inner {it}");
        assert_eq!(is, it, "leaf self == total");
        assert!(
            os <= ot - it + 1_000_000,
            "outer self {os} excludes inner time ({ot} - {it})"
        );
    }

    #[test]
    fn ring_wrap_reports_exact_drop_count() {
        let _g = test_lock();
        enable(true);
        let extra = 257u64;
        // A fresh thread owns a fresh ring, so the arithmetic is exact.
        let stats = std::thread::spawn(move || {
            for _ in 0..RING_CAPACITY as u64 + extra {
                let _sp = span!("test.wrap");
            }
            let all = ring_stats();
            let me = thread_buf().tid;
            all.into_iter().find(|r| r.tid == me).unwrap()
        })
        .join()
        .unwrap();
        enable(false);
        assert_eq!(stats.recorded, RING_CAPACITY as u64 + extra);
        assert_eq!(stats.retained, RING_CAPACITY as u64);
        assert_eq!(stats.dropped, extra);
        let (calls, _, _) = label_totals("test.wrap").unwrap();
        assert!(
            calls >= RING_CAPACITY as u64 + extra,
            "cumulative totals survive wrap"
        );
    }

    #[test]
    fn totals_are_the_flame_counters_and_leave_rings_untouched() {
        let _g = test_lock();
        enable(true);
        // A wrapped ring: the counters must not depend on what it retains.
        std::thread::spawn(|| {
            for _ in 0..RING_CAPACITY + 10 {
                let _sp = span!("test.totals_burst");
            }
        })
        .join()
        .unwrap();
        enable(false);
        let rings = ring_stats();
        let got = totals();
        assert_eq!(ring_stats(), rings, "totals() moved a ring");
        let flame = flame();
        assert_eq!(got.len(), flame.len());
        for t in &got {
            let f = flame.iter().find(|f| f.label == t.label).unwrap();
            assert_eq!(
                (t.calls, t.total_ns, t.self_ns),
                (f.calls, f.total_ns, f.self_ns)
            );
        }
        let burst = got.iter().find(|t| t.label == "test.totals_burst").unwrap();
        assert!(burst.calls >= RING_CAPACITY as u64 + 10);
    }

    #[test]
    fn chrome_trace_contains_events_and_thread_names() {
        let _g = test_lock();
        enable(true);
        {
            let _sp = span!("test.chrome");
        }
        enable(false);
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("test.chrome"));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn flame_rows_sorted_by_self_time() {
        let _g = test_lock();
        enable(true);
        {
            let _a = span!("test.flame_hot");
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        {
            let _b = span!("test.flame_cold");
        }
        enable(false);
        let rows = flame();
        let hot = rows.iter().position(|r| r.label == "test.flame_hot");
        let cold = rows.iter().position(|r| r.label == "test.flame_cold");
        let (hot, cold) = (hot.unwrap(), cold.unwrap());
        assert!(hot < cold, "hot span sorts first ({hot} vs {cold})");
        assert!(rows[hot].p99_ns >= rows[hot].p50_ns);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile_sorted(&s, 0.50), 50);
        assert_eq!(percentile_sorted(&s, 0.99), 100);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn disabled_span_overhead_smoke() {
        let _g = test_lock();
        enable(false);
        let n = 1_000_000u64;
        let t0 = Instant::now();
        for _ in 0..n {
            let _sp = span!("test.overhead");
        }
        let per_span = t0.elapsed().as_nanos() as f64 / n as f64;
        // Generous CI bound: the disabled path is one relaxed load; even
        // a slow shared runner stays far under 200ns per call.
        assert!(
            per_span < 200.0,
            "disabled span costs {per_span:.1}ns, expected ~1ns"
        );
        // A timed guard closed with recording off still measures, and
        // still records nothing.
        let sp = timed!("test.overhead_timed");
        std::thread::sleep(Duration::from_millis(1));
        assert!(sp.elapsed() >= Duration::from_millis(1));
        assert!(sp.close() >= Duration::from_millis(1));
        // What the guard costs beyond the two clock reads it replaced (a
        // raw `Instant` pair): the enabled-flag load and the label cache.
        // `--nocapture` prints both; a round opens 4 + |S_t| guards.
        let n = 200_000u32;
        let t0 = Instant::now();
        for _ in 0..n {
            std::hint::black_box(Instant::now().elapsed());
        }
        let per_pair = t0.elapsed().as_nanos() as f64 / n as f64;
        let t0 = Instant::now();
        for _ in 0..n {
            std::hint::black_box(timed!("test.overhead_timed").close());
        }
        let per_guard = t0.elapsed().as_nanos() as f64 / n as f64;
        println!("Instant pair {per_pair:.1}ns, timed! open+close {per_guard:.1}ns");
        assert!(
            per_guard < per_pair + 200.0,
            "timed! costs {per_guard:.1}ns against {per_pair:.1}ns for an Instant pair"
        );
        assert_eq!(label_totals("test.overhead"), None);
        assert_eq!(label_totals("test.overhead_timed"), None);
    }

    #[test]
    fn timed_guard_returns_the_duration_it_records() {
        let _g = test_lock();
        enable(true);
        // A fresh thread owns a fresh ring: its entries are exactly these.
        let (closed, entries) = std::thread::spawn(|| {
            let outer = timed!("test.timed_outer");
            let lap = outer.elapsed();
            let inner = timed!("test.timed_inner").close();
            {
                // Dropped unclosed: still one completed span.
                let _early = timed!("test.timed_dropped");
            }
            let outer = outer.close();
            assert!(lap <= outer && inner <= outer);
            let me = thread_buf().tid;
            let mine = drain_entries().into_iter().filter(|e| e.tid == me);
            ([outer, inner], mine.collect::<Vec<_>>())
        })
        .join()
        .unwrap();
        enable(false);
        let dur = |label: &str| {
            let e = entries.iter().find(|e| e.label == label).unwrap();
            Duration::from_nanos(e.end_ns - e.start_ns)
        };
        assert_eq!(dur("test.timed_outer"), closed[0]);
        assert_eq!(dur("test.timed_inner"), closed[1]);
        let (calls, total, self_ns) = label_totals("test.timed_outer").unwrap();
        assert_eq!((calls, total), (1, closed[0].as_nanos() as u64));
        let children = closed[1] + dur("test.timed_dropped");
        assert_eq!(self_ns, (closed[0] - children).as_nanos() as u64);
    }
}
