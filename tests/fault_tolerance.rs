//! Fault-tolerance guarantees of the round loop: injected party failures
//! degrade rounds instead of aborting runs, failure handling is
//! deterministic (SCAFFOLD control-variate state included), and a run
//! killed mid-flight resumes from its checkpoint to a bit-identical
//! record stream at any thread count.

use niid_bench_rs::data::Dataset;
use niid_bench_rs::fl::checkpoint::Checkpoint;
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig, RunOptions, Start};
use niid_bench_rs::fl::fault::{FaultAction, FaultPlan};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::party::Party;
use niid_bench_rs::fl::trace::{MemorySink, NoopSink, TraceEvent};
use niid_bench_rs::fl::FlError;
use niid_bench_rs::fl::{Algorithm, CheckpointPolicy, ControlVariateUpdate};
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
    let locals = (0..parties)
        .map(|id| Party::new(id, make(per_party, &mut rng, "local")))
        .collect();
    let test = make(200, &mut rng, "test");
    (locals, test)
}

fn config(algorithm: Algorithm, rounds: usize, threads: usize, seed: u64) -> FlConfig {
    FlConfig {
        algorithm,
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
        min_quorum: 0.25,
        fault_plan: None,
        checkpoint: None,
        codec: niid_fl::UpdateCodec::DenseF32,
    }
}

/// The headline acceptance scenario: a 30% per-(round,party) crash rate
/// must degrade rounds — never abort the run — and the degradation must
/// be visible in the records, the trace, and the traffic accounting.
#[test]
fn thirty_percent_crash_plan_completes_all_rounds_degraded() {
    let (parties, test) = setup(8, 40, 51);
    let mut cfg = config(Algorithm::FedAvg, 6, 2, 52);
    cfg.fault_plan = Some(FaultPlan::crash_only(0.3, 7));
    let sink = MemorySink::new();
    let result = FedSim::new(ModelSpec::Mlp { in_dim: 4 }, parties, test, cfg)
        .unwrap()
        .run_observed(&sink, None)
        .expect("crash plan must degrade rounds, not abort the run");

    assert_eq!(result.rounds.len(), 6, "every round completed");
    let total_failures: usize = result.rounds.iter().map(|r| r.failures).sum();
    assert!(total_failures > 0, "0.3 crash rate over 48 cells must hit");

    let events = sink.events();
    let failed = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PartyFailed { .. }))
        .count();
    assert_eq!(failed, total_failures, "one PartyFailed event per failure");
    for event in &events {
        if let TraceEvent::RoundDegraded {
            round,
            failed,
            survived,
        } = event
        {
            let record = &result.rounds[*round];
            assert_eq!(record.failures, *failed);
            assert!(*survived > 0, "quorum passed, so survivors exist");
            assert!(
                record.up_bytes < record.down_bytes,
                "failed parties upload nothing"
            );
        }
    }
}

/// SCAFFOLD keeps per-party control variates across rounds; a mid-round
/// failure must leave the failed party's variate untouched. The
/// observable contract: the whole faulty run is a pure function of its
/// seeds, so repeating it gives bit-identical accuracy and loss streams.
#[test]
fn scaffold_with_failures_is_deterministic() {
    let run = || {
        let (parties, test) = setup(6, 40, 61);
        let algorithm = Algorithm::Scaffold {
            variant: ControlVariateUpdate::Reuse,
        };
        let mut cfg = config(algorithm, 5, 2, 62);
        cfg.fault_plan = Some("crash=0.2,drop=0.1,seed=3".parse::<FaultPlan>().unwrap());
        FedSim::new(ModelSpec::Mlp { in_dim: 4 }, parties, test, cfg)
            .unwrap()
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_accuracy, b.final_accuracy);
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.test_accuracy, rb.test_accuracy);
        assert_eq!(ra.avg_local_loss, rb.avg_local_loss);
        assert_eq!(ra.failures, rb.failures);
    }
    let total: usize = a.rounds.iter().map(|r| r.failures).sum();
    assert!(total > 0, "the plan must actually inject failures");
}

/// Kill the run after `k` rounds, then resume from the checkpoint: the
/// stitched record stream must be bit-identical to the uninterrupted
/// run's — at one worker thread and at four.
#[test]
fn kill_and_resume_is_bit_identical_across_thread_counts() {
    for &threads in &[1usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "niid_fault_resume_t{threads}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let make_sim = |ck: Option<CheckpointPolicy>| {
            let (parties, test) = setup(6, 40, 71);
            let mut cfg = config(Algorithm::FedNova, 6, threads, 72);
            cfg.checkpoint = ck;
            FedSim::new(ModelSpec::Mlp { in_dim: 4 }, parties, test, cfg).unwrap()
        };

        let full = make_sim(None).run().unwrap();

        let sim = make_sim(Some(CheckpointPolicy::new(&dir, 3)));
        sim.run_interrupted(3, &NoopSink).unwrap(); // "killed" after round 3
        assert!(
            sim.has_checkpoint(),
            "periodic checkpoint survived the kill"
        );
        let resumed = sim.resume().unwrap();

        assert_eq!(
            resumed.final_accuracy, full.final_accuracy,
            "@{threads} threads"
        );
        assert_eq!(resumed.best_accuracy, full.best_accuracy);
        assert_eq!(resumed.total_bytes, full.total_bytes);
        assert_eq!(resumed.rounds.len(), full.rounds.len());
        for (ra, rb) in resumed.rounds.iter().zip(&full.rounds) {
            assert_eq!(ra.round, rb.round);
            assert_eq!(ra.test_accuracy, rb.test_accuracy, "@{threads} threads");
            assert_eq!(ra.avg_local_loss, rb.avg_local_loss, "@{threads} threads");
            assert_eq!(ra.failures, rb.failures);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Resume under an active fault plan: the fault schedule is seeded per
/// (round, party) cell, so the resumed half replays exactly the failures
/// the uninterrupted run would have seen.
#[test]
fn resume_replays_the_fault_schedule_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("niid_fault_resume_plan_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let make_sim = |ck: Option<CheckpointPolicy>| {
        let (parties, test) = setup(8, 40, 81);
        let mut cfg = config(Algorithm::FedAvg, 6, 2, 82);
        cfg.fault_plan = Some(FaultPlan::crash_only(0.3, 9));
        cfg.checkpoint = ck;
        FedSim::new(ModelSpec::Mlp { in_dim: 4 }, parties, test, cfg).unwrap()
    };

    let full = make_sim(None).run().unwrap();
    let sim = make_sim(Some(CheckpointPolicy::new(&dir, 2)));
    sim.run_interrupted(4, &NoopSink).unwrap();
    let resumed = sim
        .run_with(RunOptions {
            start: Start::Auto,
            ..RunOptions::new(&NoopSink)
        })
        .unwrap();

    for (ra, rb) in resumed.rounds.iter().zip(&full.rounds) {
        assert_eq!(ra.failures, rb.failures, "round {}", ra.round);
        assert_eq!(ra.test_accuracy, rb.test_accuracy, "round {}", ra.round);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run aborted by `FlError::QuorumLost` mid-sweep must leave an
/// abort-time checkpoint pointing at the *failed* round — not just the
/// last periodic one — so `--resume` restarts exactly there. The abort
/// checkpoint's state must be byte-identical to what a clean run
/// checkpoints on *entering* that round (in particular, survivors'
/// pre-quorum SCAFFOLD variate refreshes must have been rolled back),
/// and resuming must deterministically re-fail the same round.
#[test]
fn quorum_loss_writes_an_abort_checkpoint_at_the_failed_round() {
    // Pick a crash plan whose first faulty round (6 parties) lands
    // mid-sweep, so the abort happens with real prior state on disk.
    let (plan, fail_round) = (1..200u64)
        .find_map(|seed| {
            let plan = FaultPlan::crash_only(0.3, seed);
            let first =
                (0..6).find(|&round| (0..6).any(|p| plan.action(round, p) != FaultAction::None));
            match first {
                Some(r) if (1..6).contains(&r) => Some((plan, r)),
                _ => None,
            }
        })
        .expect("some seed must fail mid-sweep");

    let base = std::env::temp_dir().join(format!("niid_quorum_abort_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let make_sim = |rounds: usize, dir: &std::path::Path, faulty: bool| {
        let (parties, test) = setup(6, 40, 91);
        let mut cfg = config(
            Algorithm::Scaffold {
                variant: ControlVariateUpdate::Reuse,
            },
            rounds,
            2,
            92,
        );
        cfg.min_quorum = 1.0; // any failure loses the round
        cfg.fault_plan = faulty.then(|| plan.clone());
        // `every` far beyond the sweep: without the abort-time write, a
        // lost quorum leaves NO checkpoint at all.
        cfg.checkpoint = Some(CheckpointPolicy::new(dir, 10));
        FedSim::new(ModelSpec::Mlp { in_dim: 4 }, parties, test, cfg).unwrap()
    };

    // The aborting run.
    let dir_abort = base.join("abort");
    let sim = make_sim(6, &dir_abort, true);
    let err = sim.run().unwrap_err();
    let FlError::QuorumLost { round, .. } = err.clone() else {
        panic!("expected QuorumLost, got {err:?}");
    };
    assert_eq!(round, fail_round, "failed at the plan's first faulty round");
    assert!(
        sim.has_checkpoint(),
        "quorum loss must leave an abort-time checkpoint"
    );
    let ck = Checkpoint::load(&CheckpointPolicy::new(&dir_abort, 10).path()).unwrap();
    assert_eq!(
        ck.round_next, fail_round,
        "resume restarts the failed round"
    );
    assert_eq!(ck.records.len(), fail_round, "all finished rounds kept");

    // Reference: the same trajectory run cleanly *up to* the failed
    // round (the plan's earlier rounds are fault-free, so omitting it
    // changes nothing) checkpoints bit-identical state on entry.
    let dir_ref = base.join("reference");
    make_sim(fail_round, &dir_ref, false).run().unwrap();
    let ck_ref = Checkpoint::load(&CheckpointPolicy::new(&dir_ref, 10).path()).unwrap();
    assert_eq!(ck.round_next, ck_ref.round_next);
    assert_eq!(ck.global_params, ck_ref.global_params, "params rolled back");
    assert_eq!(ck.global_buffers, ck_ref.global_buffers);
    assert_eq!(ck.server_c, ck_ref.server_c);
    assert_eq!(
        ck.client_c, ck_ref.client_c,
        "survivors' pre-quorum variate refreshes must be rolled back"
    );
    assert_eq!(ck.residuals, ck_ref.residuals);
    assert_eq!(ck.best_accuracy, ck_ref.best_accuracy);
    assert_eq!(ck.final_accuracy, ck_ref.final_accuracy);
    assert_eq!(ck.total_bytes, ck_ref.total_bytes);
    for (a, b) in ck.records.iter().zip(&ck_ref.records) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.test_accuracy, b.test_accuracy);
        assert_eq!(a.avg_local_loss, b.avg_local_loss);
        assert_eq!(a.up_bytes, b.up_bytes);
    }

    // The fault schedule is deterministic, so resume re-fails the same
    // round with the same typed error — and the checkpoint still points
    // there afterwards (no state was corrupted by the retry).
    let err_again = sim.resume().unwrap_err();
    assert_eq!(err_again, err, "resume must replay the same quorum loss");
    let ck_after = Checkpoint::load(&CheckpointPolicy::new(&dir_abort, 10).path()).unwrap();
    assert_eq!(ck_after.round_next, fail_round);
    assert_eq!(ck_after.global_params, ck.global_params);

    let _ = std::fs::remove_dir_all(&base);
}
