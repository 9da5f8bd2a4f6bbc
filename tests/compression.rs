//! End-to-end guarantees of the wire-compression pipeline: lossy codecs
//! stay bit-identical across thread counts, error-feedback residuals
//! survive a kill/resume cycle bit-for-bit, and the headline TopK+int8
//! codec actually buys its advertised upload reduction without giving up
//! final accuracy.

use niid_bench_rs::data::Dataset;
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::party::Party;
use niid_bench_rs::fl::trace::NoopSink;
use niid_bench_rs::fl::{Algorithm, CheckpointPolicy, UpdateCodec};
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::Tensor;

/// Two-feature separable task; `n` samples per party.
fn setup(parties: usize, per_party: usize, seed: u64) -> (Vec<Party>, Dataset) {
    let mut rng = Pcg64::new(seed);
    let make = |n: usize, rng: &mut Pcg64, name: &str| -> Dataset {
        let x = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, rng);
        let labels = (0..n)
            .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
            .collect();
        Dataset::new(name, x, labels, 2, vec![4], None)
    };
    let parties = (0..parties)
        .map(|id| Party::new(id, make(per_party, &mut rng, "local")))
        .collect();
    let test = make(256, &mut rng, "test");
    (parties, test)
}

fn config(codec: UpdateCodec, rounds: usize, threads: usize, seed: u64) -> FlConfig {
    FlConfig {
        algorithm: Algorithm::FedAvg,
        rounds,
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
        codec,
    }
}

/// The seeded stochastic-rounding and top-k selection paths must make
/// lossy runs a pure function of the run seed: one worker thread and four
/// must produce the same metrics to the last bit.
#[test]
fn lossy_codecs_bit_identical_across_thread_counts() {
    let codecs = [
        UpdateCodec::TopK { fraction: 0.25 },
        UpdateCodec::Int8Q { levels: 128 },
        UpdateCodec::TopKInt8 {
            fraction: 0.25,
            levels: 64,
        },
    ];
    for codec in codecs {
        let run = |threads: usize| {
            let (parties, test) = setup(6, 40, 91);
            FedSim::new(
                ModelSpec::Mlp { in_dim: 4 },
                parties,
                test,
                config(codec, 4, threads, 92),
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let base = run(1);
        let wide = run(4);
        assert_eq!(
            wide.final_accuracy, base.final_accuracy,
            "{codec}: final accuracy"
        );
        assert_eq!(wide.total_bytes, base.total_bytes, "{codec}: traffic");
        for (a, b) in base.rounds.iter().zip(&wide.rounds) {
            assert_eq!(
                a.test_accuracy, b.test_accuracy,
                "{codec} round {}",
                a.round
            );
            assert_eq!(
                a.avg_local_loss, b.avg_local_loss,
                "{codec} round {}",
                a.round
            );
            assert_eq!(a.up_bytes, b.up_bytes, "{codec} round {}", a.round);
        }
    }
}

/// Error-feedback residuals are part of the run state: killing a top-k
/// run mid-way and resuming from its checkpoint must replay the exact
/// byte stream and metrics of the uninterrupted run. A residual lost (or
/// doubled) across the resume would change every subsequent sparse
/// payload.
#[test]
fn error_feedback_residuals_survive_checkpoint_resume_bit_for_bit() {
    for codec in [
        UpdateCodec::TopK { fraction: 0.1 },
        UpdateCodec::TopKInt8 {
            fraction: 0.1,
            levels: 128,
        },
    ] {
        let dir = std::env::temp_dir().join(format!(
            "niid_compress_resume_{}_{}",
            codec.label(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let make_sim = |ck: Option<CheckpointPolicy>| {
            let (parties, test) = setup(6, 40, 93);
            let mut cfg = config(codec, 8, 2, 94);
            cfg.checkpoint = ck;
            FedSim::new(ModelSpec::Mlp { in_dim: 4 }, parties, test, cfg).unwrap()
        };

        let full = make_sim(None).run().unwrap();
        let sim = make_sim(Some(CheckpointPolicy::new(&dir, 4)));
        sim.run_interrupted(4, &NoopSink).unwrap(); // "killed" after round 4
        assert!(sim.has_checkpoint(), "{codec}: checkpoint survived");
        let resumed = sim.resume().unwrap();

        assert_eq!(
            resumed.final_accuracy, full.final_accuracy,
            "{codec}: final accuracy"
        );
        assert_eq!(resumed.total_bytes, full.total_bytes, "{codec}: traffic");
        assert_eq!(resumed.rounds.len(), full.rounds.len());
        for (ra, rb) in resumed.rounds.iter().zip(&full.rounds) {
            assert_eq!(
                ra.test_accuracy, rb.test_accuracy,
                "{codec} round {}",
                ra.round
            );
            assert_eq!(
                ra.avg_local_loss, rb.avg_local_loss,
                "{codec} round {}",
                ra.round
            );
            assert_eq!(ra.up_bytes, rb.up_bytes, "{codec} round {}", ra.round);
            assert_eq!(ra.down_bytes, rb.down_bytes, "{codec} round {}", ra.round);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The acceptance bar: TopK+int8 at 5% density cuts measured upload
/// bytes by at least 8x versus dense on an equal-seed FedAvg run, and
/// error feedback keeps the final accuracy within one point.
#[test]
fn topk_int8_cuts_uploads_8x_within_a_point_of_dense() {
    let run = |codec: UpdateCodec| {
        let (parties, test) = setup(6, 40, 95);
        FedSim::new(
            ModelSpec::Mlp { in_dim: 4 },
            parties,
            test,
            config(codec, 20, 2, 96),
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let dense = run(UpdateCodec::DenseF32);
    let lossy = run(UpdateCodec::TopKInt8 {
        fraction: 0.05,
        levels: 128,
    });
    let dense_up: usize = dense.rounds.iter().map(|r| r.up_bytes).sum();
    let lossy_up: usize = lossy.rounds.iter().map(|r| r.up_bytes).sum();
    let ratio = dense_up as f64 / lossy_up as f64;
    assert!(
        ratio >= 8.0,
        "upload reduction {ratio:.2}x below the 8x bar ({dense_up} -> {lossy_up} bytes)"
    );
    let delta = (lossy.final_accuracy - dense.final_accuracy).abs();
    assert!(
        delta <= 0.01,
        "final accuracy drifted {:.2} points from dense ({:.4} vs {:.4})",
        delta * 100.0,
        lossy.final_accuracy,
        dense.final_accuracy
    );
}
