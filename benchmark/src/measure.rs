//! Measuring from outside: the benchmark's own clocks, trace sinks,
//! percentile rule, record digest and `/proc` readings.

use niid_fl::trace::{JsonlSink, TraceEvent, TraceSink};
use niid_fl::RoundRecord;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Seconds from `origin` to now.
fn since(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64()
}

/// What the stopwatch keeps about one round, in seconds since the pass
/// began. The benchmark takes these instants itself: `RoundFinished`'s
/// own `wall_ms` leaves out checkpoint and observer time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundMark {
    pub started: f64,
    pub finished: f64,
    /// When the round's checkpoint was on disk, if it wrote one.
    pub checkpointed: Option<f64>,
    /// `CommMeasured.wall_ms` of the round.
    pub comm_ms: f64,
}

/// The benchmark's sink. Always light: three instants and one sum per
/// round from the driving thread, plus a relaxed counter of trained
/// samples from the workers. With `full` it also keeps every event with
/// the benchmark's own timestamp in memory (traced and verification
/// passes), and it can tee every event into a [`JsonlSink`] when the
/// workload itself traces to disk.
pub struct Stopwatch {
    origin: Instant,
    marks: Mutex<Vec<RoundMark>>,
    samples: AtomicU64,
    log: Option<Mutex<Vec<(f64, TraceEvent)>>>,
    tee: Option<JsonlSink>,
}

/// What a [`Stopwatch`] holds once the pass is over.
pub struct Recording {
    /// One mark per round, in round order.
    pub marks: Vec<RoundMark>,
    /// Σ `n_samples` over every party that trained.
    pub samples: u64,
    /// Every event with its timestamp (empty unless `full`).
    pub events: Vec<(f64, TraceEvent)>,
}

impl Stopwatch {
    pub fn new(origin: Instant, rounds: usize, full: bool, tee: Option<JsonlSink>) -> Self {
        Stopwatch {
            origin,
            marks: Mutex::new(Vec::with_capacity(rounds)),
            samples: AtomicU64::new(0),
            log: full.then(|| Mutex::new(Vec::new())),
            tee,
        }
    }

    /// Flush the tee and hand back what was recorded.
    pub fn finish(self) -> Recording {
        if let Some(tee) = &self.tee {
            let _ = tee.flush();
        }
        Recording {
            marks: self.marks.into_inner().expect("stopwatch poisoned"),
            samples: self.samples.into_inner(),
            events: self
                .log
                .map_or_else(Vec::new, |l| l.into_inner().expect("stopwatch poisoned")),
        }
    }

    fn mark(&self, update: impl FnOnce(&mut RoundMark, f64)) {
        let now = since(self.origin);
        if let Some(m) = self.marks.lock().expect("stopwatch poisoned").last_mut() {
            update(m, now);
        }
    }
}

impl TraceSink for Stopwatch {
    fn record(&self, event: &TraceEvent) {
        if let Some(tee) = &self.tee {
            tee.record(event);
        }
        if let Some(log) = &self.log {
            let now = since(self.origin);
            log.lock()
                .expect("stopwatch poisoned")
                .push((now, event.clone()));
        }
        match *event {
            TraceEvent::PartyTrained { n_samples, .. } => {
                self.samples.fetch_add(n_samples as u64, Ordering::Relaxed);
            }
            TraceEvent::RoundStarted { .. } => {
                let started = since(self.origin);
                self.marks
                    .lock()
                    .expect("stopwatch poisoned")
                    .push(RoundMark {
                        started,
                        ..RoundMark::default()
                    });
            }
            TraceEvent::RoundFinished { .. } => self.mark(|m, now| m.finished = now),
            TraceEvent::CheckpointWritten { .. } => self.mark(|m, now| m.checkpointed = Some(now)),
            TraceEvent::CommMeasured { wall_ms, .. } => self.mark(|m, _| m.comm_ms = wall_ms),
            _ => {}
        }
    }
}

/// What [`speed_probe`] takes on the reference sandbox (2 vCPUs of a
/// 2.1 GHz Xeon) when it is quiet, in seconds. Only a scale: comparisons
/// between two commits on one machine do not depend on it.
pub const SPEED_PROBE_REF_S: f64 = 0.135;

/// A fixed piece of work that belongs to the benchmark, not to the
/// program under test: `threads` threads in lock step, each step an FMA
/// sweep over an L1-resident array, a streaming pass over 4 MiB and an
/// allocation burst, with a barrier after every step. Returns the wall
/// seconds it took.
///
/// The sandbox's speed wanders by 5–10 % over minutes with nothing else
/// running (both wall and CPU time of identical work), and by a factor of
/// two when anything shares its cores. The probe wanders with it, so
/// taking one after every pass and dividing the run's times by the median
/// probe's ratio to [`SPEED_PROBE_REF_S`] gives times "at reference speed"
/// that repeat to a few percent. A change to the program cannot move the
/// probe: it shares no code with the crates.
pub fn speed_probe(threads: usize) -> f64 {
    let barrier = std::sync::Barrier::new(threads);
    let started = Instant::now();
    std::thread::scope(|s| {
        for id in 0..threads {
            let barrier = &barrier;
            s.spawn(move || {
                let mut small = vec![1.0f32; 4096];
                let mut big = vec![1.0f32; 1 << 20];
                for step in 0..20 {
                    let k = black_box(1.0f32 + (step + id) as f32 * 1e-7);
                    for _ in 0..400 {
                        for x in small.iter_mut() {
                            *x = x.mul_add(k, 0.25);
                        }
                        black_box(&mut small);
                    }
                    for _ in 0..2 {
                        let mut acc = 0.0f32;
                        for x in big.iter_mut() {
                            *x += k;
                            acc += *x;
                        }
                        black_box(acc);
                    }
                    let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(2000);
                    for i in 0..2000usize {
                        blocks.push(vec![black_box(i as u8); 64 + (i % 7) * 200]);
                    }
                    black_box(&blocks);
                    barrier.wait();
                }
            });
        }
    });
    started.elapsed().as_secs_f64()
}

/// Gaps between successive round ends, in milliseconds; the first gap
/// runs from the start of the pass.
pub fn round_gaps_ms(marks: &[RoundMark]) -> Vec<f64> {
    let mut prev = 0.0;
    marks
        .iter()
        .map(|m| {
            let gap = (m.finished - prev) * 1e3;
            prev = m.finished;
            gap
        })
        .collect()
}

/// Time between a checkpointing round's `RoundFinished` and the next
/// `RoundStarted` (the end of the pass for the last round), summed, in
/// seconds: how long training stood still for checkpoints.
pub fn checkpoint_stall_s(marks: &[RoundMark], pass_wall_s: f64) -> f64 {
    marks
        .iter()
        .enumerate()
        .filter(|(_, m)| m.checkpointed.is_some())
        .map(|(i, m)| marks.get(i + 1).map_or(pass_wall_s, |n| n.started) - m.finished)
        .sum()
}

/// Median of a sample (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| niid_stats::describe::quantile(values, 0.5))
}

/// A percentile that is only reported when at least ten samples lie
/// beyond it, always together with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The `p`-th percentile (nearest rank) of `values`, refused (`None`)
/// unless at least ten samples lie strictly beyond that rank.
pub fn percentile(values: &[f64], p: f64) -> Option<Tail> {
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if !(0.0..100.0).contains(&p) || rank == 0 || n - rank < 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: p,
        value: v[rank - 1],
        samples: n,
    })
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 the sample supports.
pub fn highest_tail(values: &[f64]) -> Option<Tail> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| percentile(values, p))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// FNV-1a over every deterministic field of a record stream (everything
/// except the wall-clock timings), so two runs of the same cell can be
/// compared by one number.
pub fn record_digest(records: &[RoundRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.round as u64);
        eat(r.test_accuracy.map_or(u64::MAX, f64::to_bits));
        eat(r.avg_local_loss.to_bits());
        eat(r.participants as u64);
        eat(r.down_bytes as u64);
        eat(r.up_bytes as u64);
        eat(r.failures as u64);
    }
    h
}

/// Process user + system CPU seconds so far (`/proc/self/stat` fields 14
/// and 15, at the kernel's fixed 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / 100.0
}

/// Peak resident set of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0).map(|t| t.value), Some(90.0));
        assert_eq!(percentile(&v, 91.0), None, "only nine samples beyond p91");
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0).map(|t| t.samples), Some(20));
        assert_eq!(percentile(&v, 100.0), None);
        let tail = highest_tail(&v).expect("p90 is supported");
        assert_eq!(
            (tail.percentile, tail.value, tail.samples),
            (90.0, 90.0, 100)
        );
        assert_eq!(highest_tail(&v[..12]), None);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(highest_tail(&big).map(|t| t.percentile), Some(99.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    fn record(round: usize, loss: f64, wall: f64) -> RoundRecord {
        RoundRecord {
            round,
            test_accuracy: round.is_multiple_of(2).then_some(0.5),
            avg_local_loss: loss,
            participants: 10,
            down_bytes: 1000,
            up_bytes: 900,
            local_wall_ms: wall,
            aggregate_wall_ms: wall,
            eval_wall_ms: wall,
            failures: 1,
        }
    }

    #[test]
    fn digest_ignores_wall_clock_and_sees_everything_else() {
        let a = vec![record(0, 0.7, 1.0), record(1, 0.6, 2.0)];
        let b = vec![record(0, 0.7, 9.0), record(1, 0.6, 8.0)];
        assert_eq!(record_digest(&a), record_digest(&b));
        // Pinned: a change to the digest silently unpins every report.
        assert_eq!(record_digest(&a), 0x5431_97af_c506_c99e);
        let mut c = a.clone();
        c[1].avg_local_loss = 0.6000001;
        assert_ne!(record_digest(&a), record_digest(&c));
        let mut d = a.clone();
        d[0].failures = 0;
        assert_ne!(record_digest(&a), record_digest(&d));
        assert_ne!(record_digest(&a), record_digest(&a[..1]));
    }

    #[test]
    fn stalls_run_to_the_next_round_start() {
        let mark = |started, finished, checkpointed| RoundMark {
            started,
            finished,
            checkpointed,
            comm_ms: 0.0,
        };
        let marks = [
            mark(0.0, 1.0, None),
            mark(1.0, 2.0, Some(2.4)),
            mark(2.5, 3.0, Some(3.2)),
        ];
        let stall = checkpoint_stall_s(&marks, 3.25);
        assert!((stall - 0.75).abs() < 1e-12, "{stall}");
        assert_eq!(round_gaps_ms(&marks), vec![1000.0, 1000.0, 1000.0]);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mib() > 0.5);
        // Spin until the process has been charged 30 ms of CPU; on a busy
        // machine that takes longer by the clock, so only cap the wait.
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = Instant::now();
        while cpu_seconds() < before + 0.03 && t.elapsed().as_secs() < 10 {
            for _ in 0..100_000 {
                x = x.wrapping_add(std::hint::black_box(1));
            }
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before + 0.03);
    }
}
