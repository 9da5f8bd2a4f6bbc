//! The metric registry: families of labelled series backed by atomics.
//!
//! Lookup (`counter` / `gauge` / `histogram`) takes a short mutex and is
//! meant to happen once per series; the returned `Arc` handle is then a
//! plain relaxed atomic on every update. Snapshots copy the current
//! values out under the same mutex so exposition never blocks updates
//! for long. A registry also counts the families and series it has
//! created (its *generation*), so a cache of its series list
//! ([`crate::expo::SeriesCache`]) knows when it is stale without walking
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Last-value-wins `f64` gauge stored as bit-cast `u64`.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Atomic add via compare-exchange; fine for low-contention gauges.
    pub fn add(&self, d: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Fixed-bound histogram: bucket counts, sum, and count, all atomic.
///
/// Bounds are upper-inclusive like Prometheus `le`; an implicit `+Inf`
/// bucket catches everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts, `bounds.len() + 1` entries.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// What kind of cell a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
pub(crate) enum Cell {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Cell {
    /// The cell's current value.
    pub(crate) fn value(&self) -> SampleValue {
        match self {
            Cell::Counter(c) => SampleValue::Counter(c.get()),
            Cell::Gauge(g) => SampleValue::Gauge(g.get()),
            Cell::Histogram(h) => SampleValue::Histogram {
                bounds: h.bounds().to_vec(),
                buckets: h.bucket_counts(),
                sum: h.sum(),
                count: h.count(),
            },
        }
    }
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    label_keys: Vec<String>,
    bounds: Vec<f64>,
    series: Mutex<Vec<(Vec<String>, Cell)>>,
}

/// Point-in-time value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(f64),
    Histogram {
        bounds: Vec<f64>,
        /// Non-cumulative per-bucket counts; last entry is the +Inf bucket.
        buckets: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

/// One labelled series inside a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub labels: Vec<(String, String)>,
    pub value: SampleValue,
}

/// Point-in-time view of one metric family, shared by all exposition
/// paths.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub samples: Vec<Sample>,
}

type Collector = Box<dyn Fn(&Registry) + Send + Sync>;

/// The registry: create one per test, or use [`global_registry`] for the
/// process-wide instance the experiment runner exposes over HTTP.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Arc<Family>>>,
    collectors: Mutex<Vec<(&'static str, Collector)>>,
    /// Families and series created so far; bumped after each creation.
    generation: AtomicU64,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn family(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        label_keys: &[&str],
        bounds: &[f64],
    ) -> Arc<Family> {
        let mut families = self.families.lock().unwrap();
        if let Some(f) = families.iter().find(|f| f.name == name) {
            assert!(
                f.kind == kind,
                "metric {name:?} re-registered as {kind:?}, was {:?}",
                f.kind
            );
            assert!(
                f.label_keys == label_keys,
                "metric {name:?} re-registered with label keys {label_keys:?}, was {:?}",
                f.label_keys
            );
            return Arc::clone(f);
        }
        let f = Arc::new(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            label_keys: label_keys.iter().map(|k| k.to_string()).collect(),
            bounds: bounds.to_vec(),
            series: Mutex::new(Vec::new()),
        });
        families.push(Arc::clone(&f));
        self.generation.fetch_add(1, Ordering::Release);
        f
    }

    /// Append a new series to `family`'s locked list.
    fn push_series(&self, series: &mut Vec<(Vec<String>, Cell)>, values: Vec<String>, cell: Cell) {
        series.push((values, cell));
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// How many families and series this registry has created: unchanged
    /// means the series list is as it was.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Families sorted by name, the order every snapshot lists them in.
    fn sorted_families(&self) -> Vec<Arc<Family>> {
        let mut families: Vec<Arc<Family>> = self.families.lock().unwrap().clone();
        families.sort_by(|a, b| a.name.cmp(&b.name));
        families
    }

    /// Call `f(name, label keys, label values, cell)` for every series in
    /// [`snapshot`](Self::snapshot) order.
    pub(crate) fn for_each_series(&self, mut f: impl FnMut(&str, &[String], &[String], &Cell)) {
        for family in self.sorted_families() {
            for (values, cell) in family.series.lock().unwrap().iter() {
                f(&family.name, &family.label_keys, values, cell);
            }
        }
    }

    /// Find-or-create a counter series. Cache the returned handle; the
    /// lookup takes a mutex, the handle itself is a relaxed atomic.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let keys: Vec<&str> = labels.iter().map(|(k, _)| *k).collect();
        let family = self.family(name, help, MetricKind::Counter, &keys, &[]);
        let values: Vec<String> = labels.iter().map(|(_, v)| v.to_string()).collect();
        let mut series = family.series.lock().unwrap();
        if let Some((_, Cell::Counter(c))) = series.iter().find(|(v, _)| *v == values) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        self.push_series(&mut series, values, Cell::Counter(Arc::clone(&c)));
        c
    }

    /// Find-or-create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let keys: Vec<&str> = labels.iter().map(|(k, _)| *k).collect();
        let family = self.family(name, help, MetricKind::Gauge, &keys, &[]);
        let values: Vec<String> = labels.iter().map(|(_, v)| v.to_string()).collect();
        let mut series = family.series.lock().unwrap();
        if let Some((_, Cell::Gauge(g))) = series.iter().find(|(v, _)| *v == values) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        self.push_series(&mut series, values, Cell::Gauge(Arc::clone(&g)));
        g
    }

    /// Find-or-create a histogram series. `bounds` must be strictly
    /// increasing and is fixed by the first registration.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let keys: Vec<&str> = labels.iter().map(|(k, _)| *k).collect();
        let family = self.family(name, help, MetricKind::Histogram, &keys, bounds);
        let values: Vec<String> = labels.iter().map(|(_, v)| v.to_string()).collect();
        let mut series = family.series.lock().unwrap();
        if let Some((_, Cell::Histogram(h))) = series.iter().find(|(v, _)| *v == values) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new(&family.bounds));
        self.push_series(&mut series, values, Cell::Histogram(Arc::clone(&h)));
        h
    }

    /// Register a collector that refreshes derived gauges right before a
    /// snapshot (the Prometheus process-collector pattern). The `key`
    /// deduplicates: registering the same key twice is a no-op, so
    /// components can install their collector unconditionally.
    pub fn register_collector<F>(&self, key: &'static str, f: F)
    where
        F: Fn(&Registry) + Send + Sync + 'static,
    {
        let mut collectors = self.collectors.lock().unwrap();
        if collectors.iter().any(|(k, _)| *k == key) {
            return;
        }
        collectors.push((key, Box::new(f)));
    }

    /// Run every registered collector. Collectors may create/update
    /// series but must not register further collectors (deadlock).
    pub fn run_collectors(&self) {
        let collectors = self.collectors.lock().unwrap();
        for (_, f) in collectors.iter() {
            f(self);
        }
    }

    /// Copy out the current value of every series, families sorted by
    /// name for stable output.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        self.sorted_families()
            .iter()
            .map(|f| {
                let series = f.series.lock().unwrap();
                let samples = series
                    .iter()
                    .map(|(values, cell)| {
                        let labels = f
                            .label_keys
                            .iter()
                            .cloned()
                            .zip(values.iter().cloned())
                            .collect();
                        Sample {
                            labels,
                            value: cell.value(),
                        }
                    })
                    .collect();
                FamilySnapshot {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    samples,
                }
            })
            .collect()
    }

    /// `run_collectors()` followed by `snapshot()` — what the exposition
    /// paths call.
    pub fn gather(&self) -> Vec<FamilySnapshot> {
        self.run_collectors();
        self.snapshot()
    }
}

/// The process-wide registry used by the experiment runner; tests should
/// prefer their own `Registry::new()`.
pub fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_find_or_create_returns_same_cell() {
        let r = Registry::new();
        let a = r.counter("evts_total", "events", &[("kind", "x")]);
        a.add(3);
        let b = r.counter("evts_total", "events", &[("kind", "x")]);
        b.inc();
        assert_eq!(a.get(), 4);
        let other = r.counter("evts_total", "events", &[("kind", "y")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("temp", "temperature", &[]);
        g.set(1.5);
        g.add(-0.25);
        assert_eq!(g.get(), 1.25);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::new(&[1.0, 5.0, 10.0]);
        for v in [0.5, 1.0, 3.0, 7.0, 100.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 111.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::new();
        r.gauge("b_metric", "", &[]).set(2.0);
        r.counter("a_metric", "", &[]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a_metric");
        assert_eq!(snap[0].samples[0].value, SampleValue::Counter(1));
        assert_eq!(snap[1].samples[0].value, SampleValue::Gauge(2.0));
    }

    #[test]
    fn collectors_dedupe_by_key_and_run_on_gather() {
        let r = Registry::new();
        r.register_collector("k", |r| {
            r.counter("collected_total", "", &[]).inc();
        });
        r.register_collector("k", |r| {
            r.counter("collected_total", "", &[]).add(100);
        });
        let snap = r.gather();
        assert_eq!(snap[0].samples[0].value, SampleValue::Counter(1));
        r.gather();
        assert_eq!(
            r.counter("collected_total", "", &[]).get(),
            2,
            "duplicate collector key must be ignored"
        );
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", "", &[]);
        r.gauge("m", "", &[]);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let r = Arc::new(Registry::new());
        let c = r.counter("n", "", &[]);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
