//! Integration tests for the training-dynamics metrics subsystem: the
//! observer leaves the numerical trajectory untouched, the divergence
//! instrumentation reproduces the paper's IID-vs-non-IID ordering, and the
//! JSONL + live-HTTP exposition paths emit what the tooling expects.

use niid_bench_rs::core::experiment::{metrics_server_addr, run_experiment, ExperimentSpec};
use niid_bench_rs::core::partition::{build_parties, partition, Strategy};
use niid_bench_rs::data::{generate, DatasetId, GenConfig};
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::{Algorithm, DynamicsRecorder, NoopSink};
use niid_bench_rs::metrics::registry::Registry;
use niid_bench_rs::nn::ModelSpec;
use std::io::{Read, Write};
use std::sync::Arc;

fn quick_config(seed: u64, rounds: usize) -> FlConfig {
    FlConfig {
        algorithm: Algorithm::FedAvg,
        rounds,
        local: LocalConfig {
            epochs: 1,
            batch_size: 16,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction: 1.0,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 128,
        eval_every: 1,
        server_lr: 1.0,
        seed,
        threads: 2,
        min_quorum: 0.5,
        fault_plan: None,
        checkpoint: None,
        codec: niid_fl::UpdateCodec::DenseF32,
    }
}

/// Build a tiny MNIST-shaped federation and run it with a fresh recorder
/// on a private registry, returning the recorder.
fn run_recorded(strategy: Strategy, seed: u64) -> DynamicsRecorder {
    let split = generate(DatasetId::Mnist, &GenConfig::tiny(31));
    let part = partition(&split.train, 8, strategy, seed).expect("partition");
    let parties = build_parties(&split.train, &part, seed ^ 0x9E37);
    let model = ModelSpec::LenetCnn {
        in_channels: 1,
        side: 16,
    };
    let layout = model.build(split.test.num_classes, 0).state_layout();
    let recorder = DynamicsRecorder::new(Arc::new(Registry::new()), &layout, None);
    let sim = FedSim::new(model, parties, split.test, quick_config(seed, 3)).expect("sim");
    sim.run_observed(&NoopSink, Some(&recorder)).expect("run");
    recorder
}

#[test]
fn observer_does_not_change_the_numerical_trajectory() {
    let split = generate(DatasetId::Adult, &GenConfig::tiny(33));
    let part = partition(
        &split.train,
        6,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        5,
    )
    .expect("partition");
    let parties = build_parties(&split.train, &part, 6);
    let model = ModelSpec::Mlp { in_dim: 32 };
    let run = |observed: bool| {
        let sim = FedSim::new(
            model.clone(),
            parties.clone(),
            split.test.clone(),
            quick_config(7, 3),
        )
        .expect("sim");
        if observed {
            let layout = model.build(split.test.num_classes, 0).state_layout();
            let recorder = DynamicsRecorder::new(Arc::new(Registry::new()), &layout, None);
            sim.run_observed(&NoopSink, Some(&recorder)).expect("run")
        } else {
            sim.run().expect("run")
        }
    };
    let plain = run(false);
    let observed = run(true);
    assert_eq!(plain.final_accuracy, observed.final_accuracy);
    assert_eq!(plain.rounds.len(), observed.rounds.len());
    for (a, b) in plain.rounds.iter().zip(&observed.rounds) {
        assert_eq!(a.avg_local_loss, b.avg_local_loss, "round {}", a.round);
        assert_eq!(a.test_accuracy, b.test_accuracy, "round {}", a.round);
    }
}

#[test]
fn iid_weight_divergence_is_strictly_below_dirichlet() {
    // The paper's §5.1 mechanism: heterogeneous local distributions push
    // local models further from the global model. Same seeds, same model,
    // same data — only the partition differs.
    let mean_div = |strategy: Strategy| {
        let summary = run_recorded(strategy, 11).summary();
        assert_eq!(summary.rounds, 3);
        assert!(!summary.top_divergent.is_empty(), "recorder saw no parties");
        summary.top_divergent.iter().map(|(_, m, _)| m).sum::<f64>()
            / summary.top_divergent.len() as f64
    };
    let iid = mean_div(Strategy::Homogeneous);
    let dirichlet = mean_div(Strategy::DirichletLabelSkew { beta: 0.1 });
    assert!(
        iid < dirichlet,
        "IID divergence {iid} should be strictly below Dirichlet(0.1) {dirichlet}"
    );
}

#[test]
fn recorder_tracks_every_selected_party_and_finite_series() {
    let recorder = run_recorded(Strategy::DirichletLabelSkew { beta: 0.5 }, 13);
    let summary = recorder.summary();
    assert_eq!(summary.rounds, 3);
    assert_eq!(summary.top_divergent.len(), 5, "top-5 of 8 parties");
    for (party, mean, last) in &summary.top_divergent {
        assert!(party.parse::<usize>().is_ok(), "party label {party:?}");
        assert!(mean.is_finite() && *mean > 0.0, "mean divergence {mean}");
        assert!(last.is_finite() && *last > 0.0, "last divergence {last}");
    }
    assert!(summary.last_train_loss.is_some());
    assert!(summary.final_test_accuracy.is_some());

    // The registry carries the per-layer series for every parameterized
    // leaf of the LeNet CNN (2 conv + 3 linear layers).
    let families = recorder.registry().gather();
    let series = |name: &str| {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("missing family {name}"))
            .samples
            .len()
    };
    assert_eq!(series("niid_grad_norm_l2"), 5);
    assert_eq!(series("niid_update_norm_l2"), 5);
    assert_eq!(series("niid_weight_divergence_l2"), 8);
    assert_eq!(series("niid_weight_cosine"), 8);
}

/// The recorder computes a party's divergence, cosine and per-layer
/// update norms in one fused pass; every gauge it publishes must carry
/// the bits of the plain oracle — materialize `wᵢ`, then `l2_distance`,
/// `cosine_similarity` and a loop per layer.
#[test]
fn published_gauges_match_the_three_walk_oracle_bitwise() {
    use niid_bench_rs::fl::dynamics::{cosine_similarity, l2_distance};
    use niid_bench_rs::fl::{RoundObservation, RoundObserver};
    use std::ops::Range;

    struct Checked {
        recorder: DynamicsRecorder,
        layers: Vec<(String, Range<usize>)>,
    }
    impl RoundObserver for Checked {
        fn grad_spans(&self) -> Option<&[Range<usize>]> {
            self.recorder.grad_spans()
        }
        fn observe_round(&self, obs: &RoundObservation<'_>) {
            self.recorder.observe_round(obs);
            let gauge = |name: &str, key: &str, value: &str| {
                let g = self.recorder.registry().gauge(name, "", &[(key, value)]);
                g.get().to_bits()
            };
            let total_n: f64 = obs.outcomes.iter().map(|o| o.n_samples as f64).sum();
            let mut layer_sq = vec![0.0f64; self.layers.len()];
            for (&id, out) in obs.selected.iter().zip(obs.outcomes) {
                let w_local: Vec<f32> = obs
                    .global_before
                    .iter()
                    .zip(&out.delta)
                    .map(|(&g, &d)| g - d)
                    .collect();
                let (div, cos) = (
                    l2_distance(&w_local, obs.global_after),
                    cosine_similarity(&w_local, obs.global_after),
                );
                let party = id.to_string();
                assert_eq!(
                    gauge("niid_weight_divergence_l2", "party", &party),
                    div.to_bits()
                );
                assert_eq!(gauge("niid_weight_cosine", "party", &party), cos.to_bits());
                for (sq, (_, span)) in layer_sq.iter_mut().zip(&self.layers) {
                    let mut s = 0.0f64;
                    for &d in &out.delta[span.clone()] {
                        s += (d as f64) * (d as f64);
                    }
                    *sq += out.n_samples as f64 / total_n * s;
                }
            }
            for (sq, (name, _)) in layer_sq.iter().zip(&self.layers) {
                assert_eq!(
                    gauge("niid_update_norm_l2", "layer", name),
                    sq.sqrt().to_bits()
                );
            }
        }
    }

    let split = generate(DatasetId::Mnist, &GenConfig::tiny(31));
    let part = partition(
        &split.train,
        5,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        9,
    )
    .expect("partition");
    let parties = build_parties(&split.train, &part, 9);
    let model = ModelSpec::LenetCnn {
        in_channels: 1,
        side: 16,
    };
    let layout = model.build(split.test.num_classes, 0).state_layout();
    let mut offset = 0;
    let layers = layout
        .iter()
        .filter(|l| l.params > 0)
        .map(|l| {
            offset += l.params;
            (l.name.clone(), offset - l.params..offset)
        })
        .collect();
    let checked = Checked {
        recorder: DynamicsRecorder::new(Arc::new(Registry::new()), &layout, None),
        layers,
    };
    let sim = FedSim::new(model, parties, split.test, quick_config(19, 2)).expect("sim");
    sim.run_observed(&NoopSink, Some(&checked)).expect("run");
    assert_eq!(checked.recorder.summary().rounds, 2);
}

/// One fold, two feeders: what the live recorder says about a run and
/// what its JSONL series folds back into agree on every field both can
/// know — over two trials that restart the round index, on a BatchNorm
/// model, under a fault plan (second leg) and under partial participation
/// (third leg), where a party that did not train this round must not be
/// re-counted with its last gauge value.
#[test]
fn live_summary_and_jsonl_summary_agree() {
    use niid_bench_rs::fl::{DynamicsSummary, FaultPlan};
    use niid_bench_rs::metrics::JsonlExporter;
    let split = generate(DatasetId::Mnist, &GenConfig::tiny(31));
    let part = partition(
        &split.train,
        6,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        3,
    )
    .expect("partition");
    let parties = build_parties(&split.train, &part, 3);
    let model = ModelSpec::ResNetLite {
        in_channels: 1,
        side: 16,
        width: 4,
        blocks_per_stage: 1,
    };
    let layout = model.build(split.test.num_classes, 0).state_layout();
    let (trials, rounds) = (2u64, 2usize);
    let crash = Some(FaultPlan::crash_only(0.3, 5));
    for (faults, sample_fraction) in [(None, 1.0), (crash, 1.0), (None, 0.5)] {
        let faulted = faults.is_some();
        let path = std::env::temp_dir().join(format!(
            "niid-summary-agree-{}-{faulted}-{sample_fraction}.jsonl",
            std::process::id()
        ));
        let exporter = Arc::new(JsonlExporter::create(&path).expect("create series"));
        let recorder =
            DynamicsRecorder::new(Arc::new(Registry::new()), &layout, Some(exporter.clone()));
        for trial in 0..trials {
            let mut cfg = quick_config(17 + trial, rounds);
            cfg.fault_plan = faults.clone();
            cfg.min_quorum = 0.1;
            cfg.sample_fraction = sample_fraction;
            let sim =
                FedSim::new(model.clone(), parties.clone(), split.test.clone(), cfg).expect("sim");
            sim.run_observed(&NoopSink, Some(&recorder)).expect("run");
        }
        recorder.flush();
        let live = recorder.summary();
        let file = DynamicsSummary::from_jsonl_file(&path).expect("summarize");

        // A later cell on the same registry and series, as
        // `niid_core::experiment` runs a sweep: its summary covers its
        // own rounds and its own faults, and the file holds both cells.
        let second = DynamicsRecorder::new(recorder.registry().clone(), &layout, Some(exporter));
        let mut cfg = quick_config(23, rounds);
        cfg.fault_plan = faults.clone();
        cfg.min_quorum = 0.1;
        cfg.sample_fraction = sample_fraction;
        let sim =
            FedSim::new(model.clone(), parties.clone(), split.test.clone(), cfg).expect("sim");
        sim.run_observed(&NoopSink, Some(&second)).expect("run");
        second.flush();
        let later = second.summary();
        let both = DynamicsSummary::from_jsonl_file(&path).expect("summarize");
        std::fs::remove_file(&path).ok();
        assert_eq!(later.rounds, rounds);
        assert_eq!(later.party_failures > 0, faulted, "crash=0.3 over 12 cells");
        assert_eq!(both.rounds, live.rounds + later.rounds);
        assert_eq!(
            both.party_failures,
            live.party_failures + later.party_failures
        );
        assert_eq!(
            both.degraded_rounds,
            live.degraded_rounds + later.degraded_rounds
        );

        assert_eq!(live.rounds, trials as usize * rounds);
        assert_eq!(
            file.rounds, live.rounds,
            "a round per snapshot, not per index"
        );
        assert_eq!(file.party_failures, live.party_failures);
        assert_eq!(file.degraded_rounds, live.degraded_rounds);
        assert_eq!(live.party_failures > 0, faulted, "crash=0.3 over 24 cells");
        assert_eq!(file.last_train_loss, live.last_train_loss);
        assert_eq!(file.final_test_accuracy, live.final_test_accuracy);
        // Each snapshot carries only the parties that trained that round,
        // so the per-party series agree on every leg.
        assert_eq!(file.top_divergent, live.top_divergent);
        assert!(live.bn_mean_drift_max > 0.0 && live.bn_var_drift_max > 0.0);
        assert_eq!(file.bn_mean_drift_max, live.bn_mean_drift_max);
        assert_eq!(file.bn_var_drift_max, live.bn_var_drift_max);
        if !faulted && sample_fraction == 1.0 {
            assert_eq!(live.top_divergent.len(), 5);
        }
    }
}

#[test]
fn experiment_runner_emits_jsonl_and_serves_live_metrics() {
    let dir = std::env::temp_dir().join(format!("niid-metrics-test-{}", std::process::id()));
    let mut spec = ExperimentSpec::new(
        DatasetId::Adult,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        Algorithm::FedAvg,
        GenConfig::tiny(35),
    );
    spec.rounds = 2;
    spec.local_epochs = 1;
    spec.metrics_dir = Some(dir.to_string_lossy().into_owned());
    spec.metrics_port = Some(0);
    run_experiment(&spec).expect("experiment");

    // JSONL series: schema-valid lines carrying the divergence series.
    let path = dir.join("metrics.jsonl");
    let text = std::fs::read_to_string(&path).expect("metrics.jsonl written");
    let lines = niid_bench_rs::json::parse_jsonl(&text).expect("valid JSONL");
    assert!(!lines.is_empty());
    let mut saw_divergence = false;
    for line in &lines {
        let name = line
            .get("name")
            .and_then(niid_bench_rs::json::Json::as_str)
            .expect("name field");
        let value = line
            .get("value")
            .and_then(niid_bench_rs::json::Json::as_f64)
            .expect("value field");
        assert!(value.is_finite(), "{name} = {value}");
        saw_divergence |= name == "niid_weight_divergence_l2";
    }
    assert!(saw_divergence, "per-party divergence series missing");

    // Live endpoint: plain HTTP GET returns Prometheus text.
    let addr = metrics_server_addr().expect("live server started");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("# TYPE niid_round gauge"), "{response}");
    assert!(
        response.contains("niid_weight_divergence_l2{"),
        "{response}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
