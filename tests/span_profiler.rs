//! Workspace-level guarantees of the `niid-prof` span profiler: the
//! Perfetto (Chrome trace-event) export must be well-formed JSON covering
//! every recording thread, ring wrap must account for exactly the
//! overwritten entries, enabling profiling must not perturb a federated
//! trajectory by a single bit, and the disabled path must stay cheap.

use niid_bench_rs::data::Dataset;
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::party::Party;
use niid_bench_rs::fl::Algorithm;
use niid_bench_rs::json::Json;
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::prof;
use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::Tensor;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The profiler enable flag is process-global: tests that flip it (or
/// read the rings it fills) run serialized.
fn prof_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Two-feature separable task; `sizes[i]` samples for party `i`.
fn skewed_setup(sizes: &[usize], seed: u64) -> (Vec<Party>, Dataset) {
    let mut rng = Pcg64::new(seed);
    let make = |n: usize, rng: &mut Pcg64, name: &str| -> Dataset {
        let x = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, rng);
        let labels = (0..n)
            .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
            .collect();
        Dataset::new(name, x, labels, 2, vec![4], None)
    };
    let parties = sizes
        .iter()
        .enumerate()
        .map(|(id, &n)| Party::new(id, make(n, &mut rng, "local")))
        .collect();
    let test = make(200, &mut rng, "test");
    (parties, test)
}

fn config(threads: usize, seed: u64) -> FlConfig {
    FlConfig {
        algorithm: Algorithm::FedAvg,
        rounds: 3,
        local: LocalConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction: 1.0,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 64,
        eval_every: 1,
        server_lr: 1.0,
        seed,
        threads,
        min_quorum: 0.5,
        fault_plan: None,
        checkpoint: None,
        codec: niid_fl::UpdateCodec::DenseF32,
    }
}

fn run_sim(threads: usize) -> niid_bench_rs::fl::metrics::RunResult {
    let (parties, test) = skewed_setup(&[40, 40, 40, 40, 40, 40], 71);
    FedSim::new(
        ModelSpec::Mlp { in_dim: 4 },
        parties,
        test,
        config(threads, 72),
    )
    .unwrap()
    .run()
    .unwrap()
}

/// The acceptance bit: a profiled federated run must reproduce the
/// unprofiled trajectory exactly — every per-round accuracy and loss
/// bit-identical — at both the sequential and the pooled thread counts.
#[test]
fn fedsim_trajectory_bit_identical_with_profiling_on_and_off() {
    let _g = prof_lock();
    for threads in [1usize, 4] {
        prof::enable(false);
        let off = run_sim(threads);
        prof::enable(true);
        let on = run_sim(threads);
        prof::enable(false);
        assert_eq!(on.final_accuracy, off.final_accuracy, "@{threads} threads");
        assert_eq!(on.best_accuracy, off.best_accuracy, "@{threads} threads");
        assert_eq!(on.rounds.len(), off.rounds.len(), "@{threads} threads");
        for (a, b) in off.rounds.iter().zip(&on.rounds) {
            assert_eq!(a.test_accuracy, b.test_accuracy, "@{threads} threads");
            assert_eq!(a.avg_local_loss, b.avg_local_loss, "@{threads} threads");
        }
    }
}

/// One clock: with recording on, a phase time in the `RoundRecord`
/// stream is the duration of that phase's span, and a party's
/// `PartyTrained.wall_ms` is the duration of its `fl.local_train` ring
/// entry — to the nanosecond, at both thread counts.
#[test]
fn record_and_event_times_are_the_span_durations() {
    use niid_bench_rs::fl::{MemorySink, TraceEvent};
    let _g = prof_lock();
    let ns = |ms: f64| (ms * 1e6).round() as u64;
    let total_ns = |label: &str| prof::label_totals(label).map_or(0, |(_, total, _)| total);
    for threads in [1usize, 4] {
        let phases = ["fl.train", "fl.aggregate", "fl.eval"];
        let before = phases.map(total_ns);
        let (parties, test) = skewed_setup(&[40, 30, 50, 40, 20, 40], 71);
        let sim = FedSim::new(
            ModelSpec::Mlp { in_dim: 4 },
            parties,
            test,
            config(threads, 72),
        )
        .unwrap();
        let sink = MemorySink::new();
        prof::enable(true);
        let result = sim.run_traced(&sink).unwrap();
        prof::enable(false);

        let summed = [
            result
                .rounds
                .iter()
                .map(|r| ns(r.local_wall_ms))
                .sum::<u64>(),
            result.rounds.iter().map(|r| ns(r.aggregate_wall_ms)).sum(),
            result.rounds.iter().map(|r| ns(r.eval_wall_ms)).sum(),
        ];
        for i in 0..phases.len() {
            let span = total_ns(phases[i]) - before[i];
            assert_eq!(summed[i], span, "{} @{threads} threads", phases[i]);
        }

        // Other tests' entries may sit in the rings too, so: every event
        // finds its own ring entry.
        let mut ring: Vec<u64> = prof::drain_entries()
            .iter()
            .filter(|e| e.label == "fl.local_train")
            .map(|e| e.end_ns - e.start_ns)
            .collect();
        let mut trained = 0;
        for ev in sink.events() {
            if let TraceEvent::PartyTrained { wall_ms, .. } = ev {
                let at = ring.iter().position(|&d| d == ns(wall_ms));
                ring.swap_remove(at.unwrap_or_else(|| {
                    panic!("no fl.local_train entry of {wall_ms} ms @{threads} threads")
                }));
                trained += 1;
            }
        }
        assert_eq!(trained, 6 * result.rounds.len());
    }
}

/// A profiled multi-threaded run must export parseable Chrome trace JSON:
/// a `traceEvents` array whose complete events carry monotonically
/// non-decreasing timestamps per thread, with thread-name metadata for
/// every tid that recorded spans, and the round phases present.
#[test]
fn multithreaded_chrome_trace_is_well_formed() {
    let _g = prof_lock();
    prof::enable(true);
    run_sim(4);
    prof::enable(false);

    let text = prof::chrome_trace_json();
    let json = niid_bench_rs::json::parse(&text).expect("trace parses with niid-json");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    let mut named_tids: Vec<u64> = Vec::new();
    let mut span_tids: Vec<u64> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        match ph {
            "M" => {
                if e.get("name").and_then(Json::as_str) == Some("thread_name") {
                    named_tids.push(tid);
                }
            }
            "X" => {
                let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
                assert!(e.get("dur").and_then(Json::as_f64).expect("dur") >= 0.0);
                if let Some(&prev) = last_ts.get(&tid) {
                    assert!(ts >= prev, "ts goes backwards on tid {tid}");
                }
                last_ts.insert(tid, ts);
                span_tids.push(tid);
                labels.push(e.get("name").and_then(Json::as_str).unwrap().to_string());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for tid in &span_tids {
        assert!(named_tids.contains(tid), "tid {tid} has no thread_name");
    }
    // The pooled run crosses threads: the main thread drives rounds, the
    // kernel pool trains parties.
    span_tids.sort_unstable();
    span_tids.dedup();
    assert!(span_tids.len() >= 2, "expected spans from >= 2 threads");
    for required in ["fl.round", "fl.train", "fl.aggregate", "local.step"] {
        assert!(labels.iter().any(|l| l == required), "missing {required}");
    }
}

/// A pooled run trains on threads that already exist, so the rings stay
/// bounded: a second `threads = 2` run registers no ring the first did
/// not. (Any thread spawned on the round path would leave a ring behind.)
#[test]
fn pooled_runs_register_no_new_rings() {
    use niid_bench_rs::tensor::{configured_threads, parallel_for};
    let _g = prof_lock();
    prof::enable(true);
    // Every pool worker records a span first: a full-width region whose
    // tasks each hold their thread at the barrier until all are taken, so
    // no worker can get its first ring from the runs below.
    let all = std::sync::Barrier::new(configured_threads());
    parallel_for(configured_threads(), &|_| {
        all.wait();
    });
    let run = || {
        let (parties, test) = skewed_setup(&[40, 30, 50, 40, 20, 40], 71);
        let mut cfg = config(2, 72);
        cfg.rounds = 5;
        let sim = FedSim::new(ModelSpec::Mlp { in_dim: 4 }, parties, test, cfg).unwrap();
        sim.run().unwrap();
        prof::ring_stats().len()
    };
    let first = run();
    let second = run();
    prof::enable(false);
    assert_eq!(second, first, "a pooled run registered new span rings");
}

/// Wrap accounting through the facade: a burst larger than the ring keeps
/// exact recorded/dropped counters and `retained == RING_CAPACITY`.
#[test]
fn ring_wrap_accounts_for_overwritten_entries() {
    let _g = prof_lock();
    prof::enable(true);
    const EXTRA: u64 = 123;
    let handle = std::thread::Builder::new()
        .name("prof-wrap-test".into())
        .spawn(|| {
            for _ in 0..prof::RING_CAPACITY as u64 + EXTRA {
                let _s = prof::span!("test.wrap_burst");
            }
        })
        .unwrap();
    handle.join().unwrap();
    prof::enable(false);

    let stats = prof::ring_stats();
    let row = stats
        .iter()
        .find(|r| r.recorded == prof::RING_CAPACITY as u64 + EXTRA)
        .expect("burst thread's ring row");
    assert_eq!(row.retained, prof::RING_CAPACITY as u64);
    assert_eq!(row.dropped, EXTRA);
}

/// A metrics scrape mirrors the exact per-label counters and nothing
/// else: it must not move (or depend on) the span rings, which a traced
/// run keeps full — walking them on every round's scrape is what made a
/// traced observed round cost 20x an untraced one.
#[test]
fn metrics_scrape_mirrors_totals_and_leaves_rings_untouched() {
    use niid_bench_rs::metrics::registry::{Registry, SampleValue};
    let _g = prof_lock();
    prof::enable(true);
    for _ in 0..prof::RING_CAPACITY + 50 {
        let _s = prof::span!("test.scrape_burst");
    }
    prof::enable(false);
    let registry = std::sync::Arc::new(Registry::new());
    niid_bench_rs::fl::dynamics::install_prof_collector(&registry);
    let rings = prof::ring_stats();
    let families = registry.gather();
    assert_eq!(prof::ring_stats(), rings, "a scrape moved a span ring");
    let calls = families
        .iter()
        .find(|f| f.name == "niid_prof_calls_total")
        .expect("prof gauges present once a span was recorded");
    for t in prof::totals() {
        let sample = calls
            .samples
            .iter()
            .find(|s| s.labels == [("span".to_owned(), t.label.to_owned())])
            .unwrap_or_else(|| panic!("no series for {}", t.label));
        assert_eq!(
            sample.value,
            SampleValue::Gauge(t.calls as f64),
            "{}",
            t.label
        );
    }
}

/// The disabled path is the default everywhere, so it has to stay near
/// free: a generous smoke bound that only catches order-of-magnitude
/// regressions (e.g. taking a lock per span).
#[test]
fn disabled_spans_are_cheap() {
    let _g = prof_lock();
    prof::enable(false);
    const N: u32 = 200_000;
    let start = std::time::Instant::now();
    for _ in 0..N {
        let _s = prof::span!("test.disabled_overhead");
    }
    let per_call = start.elapsed().as_nanos() as f64 / f64::from(N);
    assert!(
        per_call < 1_000.0,
        "disabled span costs {per_call:.0} ns/call"
    );
}
