//! End-to-end federated-round benchmarks: one full communication round per
//! algorithm on the tiny-scale stand-in (10 parties, MLP model), so the
//! per-algorithm overheads (FedProx's proximal term, SCAFFOLD's control
//! variates, FedNova's normalization) are directly comparable — plus a
//! traced-vs-untraced pair bounding the trace layer's cost and a
//! profiled-vs-plain pair bounding the span profiler's cost (both off,
//! the default everywhere, and on).

use niid_bench::harness::{black_box, BenchMeta, Harness};
use niid_core::experiment::ExperimentSpec;
use niid_core::partition::{build_parties, partition, Strategy};
use niid_data::{generate, DatasetId, GenConfig};
use niid_fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_fl::local::LocalConfig;
use niid_fl::trace::{MemorySink, NoopSink};
use niid_fl::{Algorithm, DynamicsRecorder};
use niid_metrics::Registry;
use niid_nn::ModelSpec;

fn one_round_config(algorithm: Algorithm, threads: usize) -> FlConfig {
    FlConfig {
        algorithm,
        rounds: 1,
        local: LocalConfig {
            epochs: 2,
            batch_size: 32,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction: 1.0,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 256,
        eval_every: 1,
        server_lr: 1.0,
        seed: 1,
        threads,
        min_quorum: 0.5,
        fault_plan: None,
        checkpoint: None,
        codec: niid_fl::UpdateCodec::DenseF32,
    }
}

fn main() {
    let mut h = Harness::from_args("fl_round_adult_10parties");
    let gen = GenConfig::tiny(21);
    let split = generate(DatasetId::Adult, &gen);
    let part = partition(
        &split.train,
        10,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        3,
    )
    .expect("partition");
    let parties = build_parties(&split.train, &part, 4);
    let spec = ExperimentSpec::new(
        DatasetId::Adult,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        Algorithm::FedAvg,
        gen,
    );
    let model: ModelSpec = spec.model_spec();

    // run() routes through the no-op sink, so the per-algorithm numbers
    // below are the untraced baseline.
    for algo in Algorithm::all_default() {
        h.bench_meta(
            &format!("{}/t1", algo.name()),
            BenchMeta::op("fl_round", "adult 10 parties", 1, 0),
            |bench| {
                bench.iter(|| {
                    let sim = FedSim::new(
                        model.clone(),
                        parties.clone(),
                        split.test.clone(),
                        one_round_config(algo, 1),
                    )
                    .expect("sim");
                    black_box(sim.run().expect("run"))
                })
            },
        );
    }

    // FedAvg swept over the party-level width: the cohort's tasks on the
    // kernel pool, capped at NIID_THREADS.
    for threads in [2usize, 4] {
        h.bench_meta(
            &format!("FedAvg/t{threads}"),
            BenchMeta::op("fl_round", "adult 10 parties", threads, 0),
            |bench| {
                bench.iter(|| {
                    let sim = FedSim::new(
                        model.clone(),
                        parties.clone(),
                        split.test.clone(),
                        one_round_config(Algorithm::FedAvg, threads),
                    )
                    .expect("sim");
                    black_box(sim.run().expect("run"))
                })
            },
        );
    }

    // Live tracing into an in-memory sink, to compare against FedAvg above.
    h.bench_meta(
        "FedAvg_traced_memory",
        BenchMeta::op("fl_round_traced", "adult 10 parties", 1, 0),
        |bench| {
            bench.iter(|| {
                let sim = FedSim::new(
                    model.clone(),
                    parties.clone(),
                    split.test.clone(),
                    one_round_config(Algorithm::FedAvg, 1),
                )
                .expect("sim");
                let sink = MemorySink::new();
                let result = sim.run_traced(&sink).expect("run");
                black_box((result, sink.len()))
            })
        },
    );

    // Span-profiler cost pair. `FedAvg/t1` above runs with the profiler
    // disabled (the process default), so `FedAvg_profiled_off` re-measures
    // the identical workload — their delta is noise, and the off-path
    // overhead budget (<1%) is judged against that pair. `_on` bounds the
    // enabled path (ring writes + atomics on every span).
    for on in [false, true] {
        let name = if on {
            "FedAvg_profiled_on"
        } else {
            "FedAvg_profiled_off"
        };
        let op = if on { "fl_round_profiled" } else { "fl_round" };
        niid_prof::enable(on);
        h.bench_meta(name, BenchMeta::op(op, "adult 10 parties", 1, 0), |bench| {
            bench.iter(|| {
                let sim = FedSim::new(
                    model.clone(),
                    parties.clone(),
                    split.test.clone(),
                    one_round_config(Algorithm::FedAvg, 1),
                )
                .expect("sim");
                black_box(sim.run().expect("run"))
            })
        });
        niid_prof::enable(false);
    }

    // Full dynamics instrumentation (divergence, per-layer grad norms,
    // registry gauges) into a private registry — the metered counterpart
    // of the untraced FedAvg/t1 baseline. The recorder is built once, like
    // a real run: rounds are many, recorders are one.
    let layout = model.build(split.test.num_classes, 0).state_layout();
    let recorder = DynamicsRecorder::new(std::sync::Arc::new(Registry::new()), &layout, None);
    h.bench_meta(
        "FedAvg_metered",
        BenchMeta::op("fl_round_metered", "adult 10 parties", 1, 0),
        |bench| {
            bench.iter(|| {
                let sim = FedSim::new(
                    model.clone(),
                    parties.clone(),
                    split.test.clone(),
                    one_round_config(Algorithm::FedAvg, 1),
                )
                .expect("sim");
                let result = sim.run_observed(&NoopSink, Some(&recorder)).expect("run");
                black_box((result, recorder.summary().rounds))
            })
        },
    );
}
