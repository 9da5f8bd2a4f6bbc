//! A small self-contained micro-benchmark harness.
//!
//! The `benches/*.rs` targets declare `harness = false` and drive this
//! module directly: warm up, pick an iteration count that fills a fixed
//! measurement batch, take several batches, and report the median (plus
//! min) time per iteration. No external benchmarking crate is involved,
//! keeping the workspace fully offline-buildable.
//!
//! ```no_run
//! use niid_bench::harness::Harness;
//!
//! let mut h = Harness::from_args("tensor_ops");
//! h.bench("matmul 64x64", |b| b.iter(|| 2 + 2));
//! ```
//!
//! Command line:
//!
//! * a positional argument filters benchmarks by substring (mirroring
//!   `cargo bench -- <filter>`);
//! * `--short` shrinks warm-up and batch budgets ~10× for CI smoke runs;
//! * `--json <path>` writes every measurement (with its [`BenchMeta`]:
//!   op, shape, threads, FLOP count and the derived GFLOP/s) as a JSON
//!   array when the harness is dropped, so the perf trajectory of the
//!   kernels can be tracked across PRs (`BENCH_*.json` at the repo root);
//! * `--profile <path>` enables the span profiler for the run and writes
//!   a Chrome trace-event JSON profile when the harness is dropped.

use niid_json::Json;
pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Warm-up budget before measuring a benchmark.
const WARMUP: Duration = Duration::from_millis(20);
/// Target wall time of one measurement batch.
const BATCH: Duration = Duration::from_millis(60);
/// Number of measurement batches (median taken across them).
const BATCHES: usize = 5;

/// `--short` equivalents, sized so a whole bench binary finishes in a few
/// seconds on CI while still exercising every workload.
const SHORT_WARMUP: Duration = Duration::from_millis(2);
const SHORT_BATCH: Duration = Duration::from_millis(6);
const SHORT_BATCHES: usize = 3;

/// One benchmark's measurement, in nanoseconds per iteration.
///
/// Both timings are whole nanoseconds (stored as `f64` for GFLOP/s
/// arithmetic and JSON, but always integral).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median batch mean, rounded to integer ns.
    pub median_ns: f64,
    /// Fastest batch mean, rounded to integer ns.
    pub min_ns: f64,
    /// Total iterations measured (excluding warm-up).
    pub iters: u64,
}

/// Machine-readable context attached to a measurement in `--json` output.
#[derive(Debug, Clone, Default)]
pub struct BenchMeta {
    /// Operation family (`matmul/a_b`, `conv2d/forward`, `fl_round`, …).
    pub op: String,
    /// Human-readable shape of the workload (`256x256x256`, `n32 c6→16`).
    pub shape: String,
    /// Thread budget the workload ran under (0 = unspecified/default).
    pub threads: usize,
    /// Floating-point operations per iteration (0 = not a FLOP workload);
    /// `flops / median_ns` is GFLOP/s.
    pub flops: u64,
    /// SIMD micro-kernel the measurement ran under, as
    /// `<kernel>/<detected features>` (e.g. `avx2/avx2+fma`,
    /// `scalar/none`). Left empty by constructors and resolved from the
    /// active dispatch at record time; set it explicitly only to override.
    pub simd: String,
    /// Extra columns carried verbatim into the JSON entry (e.g.
    /// `compression_ratio` for codec rows); empty for plain kernel rows.
    pub extras: Vec<(&'static str, Json)>,
}

impl BenchMeta {
    /// Meta for a FLOP-counted kernel.
    pub fn op(op: impl Into<String>, shape: impl Into<String>, threads: usize, flops: u64) -> Self {
        Self {
            op: op.into(),
            shape: shape.into(),
            threads,
            flops,
            simd: String::new(),
            extras: Vec::new(),
        }
    }

    /// Attach an extra numeric column to the JSON entry.
    pub fn with_extra(mut self, key: &'static str, value: f64) -> Self {
        self.extras.push((key, Json::Num(value)));
        self
    }
}

/// Passed to each benchmark closure; call [`iter`](Bencher::iter) exactly
/// once with the workload.
#[derive(Debug)]
pub struct Bencher {
    result: Option<Measurement>,
    warmup: Duration,
    batch: Duration,
    batches: usize,
}

impl Default for Bencher {
    fn default() -> Self {
        Self {
            result: None,
            warmup: WARMUP,
            batch: BATCH,
            batches: BATCHES,
        }
    }
}

impl Bencher {
    fn short() -> Self {
        Self {
            warmup: SHORT_WARMUP,
            batch: SHORT_BATCH,
            batches: SHORT_BATCHES,
            ..Self::default()
        }
    }

    /// Measure `f`, keeping its return value alive via `black_box` so the
    /// optimizer cannot delete the workload.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up: also yields a cost estimate for batch sizing.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup && warm_iters < 100_000 {
            black_box(f());
            warm_iters += 1;
        }
        let est = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let per_batch =
            ((self.batch.as_secs_f64() / est.max(1e-9)).ceil() as u64).clamp(1, 1 << 32);

        let mut batch_means = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let start = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            batch_means.push(start.elapsed().as_secs_f64() * 1e9 / per_batch as f64);
        }
        batch_means.sort_by(f64::total_cmp);
        // Rounded to whole nanoseconds: the clock quantum is far coarser
        // than 1 ns, so fractional values in `BENCH_*.json` were spurious
        // precision that churned diffs on every re-baseline. Floored at
        // 1 ns so sub-ns no-op workloads keep finite derived rates.
        self.result = Some(Measurement {
            median_ns: batch_means[self.batches / 2].round().max(1.0),
            min_ns: batch_means[0].round().max(1.0),
            iters: per_batch * self.batches as u64,
        });
    }
}

/// Runs and reports a sequence of named benchmarks.
#[derive(Debug)]
pub struct Harness {
    group: String,
    filter: Option<String>,
    short: bool,
    json_path: Option<String>,
    profile_path: Option<String>,
    entries: Vec<(String, BenchMeta, Measurement)>,
    ran: usize,
}

impl Harness {
    /// Create a harness for a named group, taking an optional substring
    /// filter, `--short`, `--json <path>` and `--profile <path>` from the
    /// command line.
    pub fn from_args(group: &str) -> Self {
        let mut filter = None;
        let mut short = false;
        let mut json_path = None;
        let mut profile_path = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--short" => short = true,
                "--json" => json_path = args.next(),
                "--profile" => profile_path = args.next(),
                _ if a.starts_with('-') => {} // cargo passes e.g. --bench
                _ if filter.is_none() && !a.is_empty() => filter = Some(a),
                _ => {}
            }
        }
        if profile_path.is_some() {
            niid_prof::enable(true);
        }
        println!(
            "# bench group: {group}{}",
            if short { " (short)" } else { "" }
        );
        Self {
            group: group.to_string(),
            filter,
            short,
            json_path,
            profile_path,
            entries: Vec::new(),
            ran: 0,
        }
    }

    /// Run one benchmark (skipped unless its name matches the filter).
    pub fn bench<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> Option<Measurement> {
        self.bench_meta(name, BenchMeta::default(), f)
    }

    /// Run one benchmark carrying machine-readable metadata into the
    /// `--json` output.
    pub fn bench_meta<F: FnMut(&mut Bencher)>(
        &mut self,
        name: &str,
        mut meta: BenchMeta,
        mut f: F,
    ) -> Option<Measurement> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        if meta.simd.is_empty() {
            // Resolved here, on the thread running the workload, so a bench
            // wrapped in `with_forced_kernel` reports the forced kernel.
            meta.simd = simd_tag();
        }
        let mut b = if self.short {
            Bencher::short()
        } else {
            Bencher::default()
        };
        f(&mut b);
        let m = b.result.unwrap_or_else(|| {
            panic!("benchmark {name} never called Bencher::iter");
        });
        self.ran += 1;
        let gflops = gflops(&meta, &m)
            .map(|g| format!("   {g:7.2} GFLOP/s"))
            .unwrap_or_default();
        println!(
            "{:<40} {:>14} /iter   (min {}, {} iters){gflops}",
            name,
            format_ns(m.median_ns),
            format_ns(m.min_ns),
            m.iters
        );
        self.entries.push((name.to_string(), meta, m));
        Some(m)
    }

    fn to_json(&self) -> Json {
        Json::arr(
            self.entries
                .iter()
                .map(|(name, meta, m)| entry_json(&self.group, name, meta, m))
                .collect(),
        )
    }
}

/// The active SIMD dispatch as `<kernel>/<detected features>`.
pub fn simd_tag() -> String {
    format!(
        "{}/{}",
        niid_tensor::active_kernel().name(),
        niid_tensor::detected_features()
    )
}

/// One entry of the bench JSON schema (`bench_json_check` validates it):
/// the generic fields, then `meta.extras` in order. The one emitter behind
/// every `BENCH_*.json` row, whether a harness bench or an `exp` cell
/// recorded it.
pub fn entry_json(group: &str, name: &str, meta: &BenchMeta, m: &Measurement) -> Json {
    let mut fields = vec![
        ("group", Json::Str(group.into())),
        ("name", Json::Str(name.into())),
        ("op", Json::Str(meta.op.clone())),
        ("shape", Json::Str(meta.shape.clone())),
        ("threads", Json::Num(meta.threads as f64)),
        ("simd", Json::Str(meta.simd.clone())),
        ("median_ns", Json::Num(m.median_ns)),
        ("min_ns", Json::Num(m.min_ns)),
        ("iters", Json::Num(m.iters as f64)),
        (
            "gflops",
            gflops(meta, m).map(Json::Num).unwrap_or(Json::Null),
        ),
    ];
    fields.extend(meta.extras.iter().cloned());
    Json::obj(fields)
}

impl Drop for Harness {
    fn drop(&mut self) {
        if self.ran == 0 {
            println!(
                "(no benchmark in group {} matched filter {:?})",
                self.group, self.filter
            );
        }
        if let Some(path) = &self.json_path {
            let mut text = self.to_json().pretty();
            text.push('\n');
            match std::fs::write(path, text) {
                Ok(()) => println!("(measurements written to {path})"),
                Err(e) => eprintln!("warning: cannot write {path}: {e}"),
            }
        }
        if let Some(path) = &self.profile_path {
            match niid_prof::write_chrome_trace(path) {
                Ok(()) => println!("(profile written to {path})"),
                Err(e) => eprintln!("warning: cannot write profile {path}: {e}"),
            }
        }
    }
}

/// A bench-schema entry for a measured federated run (an `exp` cell, not a
/// harness bench): `wall_seconds / rounds` is its one timing sample, the
/// group is the op, and thread budget and SIMD tag are this process's.
pub fn bench_entry(
    op: &str,
    name: String,
    shape: String,
    rounds: usize,
    wall_seconds: f64,
    extras: Vec<(&'static str, Json)>,
) -> Json {
    let ns = wall_seconds * 1e9 / rounds.max(1) as f64;
    let meta = BenchMeta {
        op: op.into(),
        shape,
        threads: niid_tensor::configured_threads(),
        flops: 0,
        simd: simd_tag(),
        extras,
    };
    let sample = Measurement {
        median_ns: ns,
        min_ns: ns,
        iters: rounds as u64,
    };
    entry_json(op, &name, &meta, &sample)
}

/// GFLOP/s for a FLOP-counted workload (`flops / ns` ≡ `Gflop / s`).
fn gflops(meta: &BenchMeta, m: &Measurement) -> Option<f64> {
    (meta.flops > 0 && m.median_ns > 0.0).then(|| meta.flops as f64 / m.median_ns)
}

/// Human-friendly duration from nanoseconds.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_trivial_work() {
        let mut b = Bencher::default();
        b.iter(|| 1u64 + 1);
        let m = b.result.expect("measurement recorded");
        assert!(m.iters > 0);
        assert!(m.median_ns >= 0.0 && m.median_ns.is_finite());
        assert!(m.min_ns <= m.median_ns + 1e-9);
        assert_eq!(m.median_ns.fract(), 0.0, "median rounded to whole ns");
        assert_eq!(m.min_ns.fract(), 0.0, "min rounded to whole ns");
    }

    #[test]
    fn bencher_scales_with_workload() {
        let mut fast = Bencher::default();
        fast.iter(|| black_box(0u64));
        let mut slow = Bencher::default();
        // black_box the accumulator each step: LLVM otherwise collapses the
        // whole summation to its closed form and both sides measure ~1 ns.
        slow.iter(|| (0..1_000u64).fold(0u64, |a, x| black_box(a.wrapping_add(x))));
        let f = fast.result.unwrap();
        let s = slow.result.unwrap();
        assert!(
            s.median_ns > f.median_ns,
            "50k-add loop ({} ns) should be slower than a no-op ({} ns)",
            s.median_ns,
            f.median_ns
        );
    }

    #[test]
    fn short_bencher_is_cheaper() {
        let b = Bencher::short();
        assert!(b.warmup < WARMUP && b.batch < BATCH && b.batches < BATCHES);
    }

    #[test]
    fn gflops_derivation() {
        let m = Measurement {
            median_ns: 1000.0,
            min_ns: 900.0,
            iters: 10,
        };
        let meta = BenchMeta::op("matmul", "10x10x10", 1, 2000);
        assert_eq!(gflops(&meta, &m), Some(2.0));
        assert_eq!(gflops(&BenchMeta::default(), &m), None);
    }

    #[test]
    fn json_entries_round_trip() {
        let mut h = Harness {
            group: "g".into(),
            filter: None,
            short: true,
            json_path: None,
            profile_path: None,
            entries: Vec::new(),
            ran: 0,
        };
        h.bench_meta(
            "fast_op",
            BenchMeta::op("op", "2x2", 1, 8).with_extra("compression_ratio", 6.4),
            |b| b.iter(|| black_box(1u32)),
        );
        let text = h.to_json().pretty();
        let parsed = niid_json::parse(&text).expect("harness JSON parses");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr.len(), 1);
        let e = &arr[0];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("fast_op"));
        assert_eq!(e.get("threads").and_then(Json::as_f64), Some(1.0));
        assert!(e.get("gflops").is_some_and(|g| !g.is_null()));
        assert_eq!(
            e.get("compression_ratio").and_then(Json::as_f64),
            Some(6.4),
            "extras must land as plain numeric columns"
        );
        let simd = e.get("simd").and_then(Json::as_str).expect("simd field");
        assert!(
            simd.contains('/') && !simd.is_empty(),
            "simd field should be <kernel>/<features>, got {simd:?}"
        );
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert_eq!(format_ns(12.0), "12.0 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.500 ms");
        assert_eq!(format_ns(3.2e9), "3.200 s");
    }
}
