//! End-to-end smoke test of the fault-tolerance subsystem, run by the CI
//! resume-smoke job.
//!
//! Two legs, both on a tiny MNIST-shaped Dirichlet(β=0.5) experiment:
//!
//! 1. **Checkpoint/resume** — run 6 rounds uninterrupted, then run the
//!    same simulation "killed" after round 3 and resumed from its
//!    checkpoint; the stitched round records must be bit-identical to the
//!    uninterrupted stream.
//! 2. **Fault injection** — a 30% per-(round,party) crash plan must
//!    complete every round degraded (typed failures, quorum aggregation),
//!    never abort.
//!
//! Exits non-zero on any mismatch so the workflow catches a silently
//! broken resume or failure-isolation path.

use niid_core::partition::{build_parties, partition, Strategy};
use niid_data::{generate, DatasetId, GenConfig};
use niid_fl::engine::{BufferPolicy, FedSim, FlConfig, RunOptions, Start};
use niid_fl::local::LocalConfig;
use niid_fl::trace::NoopSink;
use niid_fl::{Algorithm, CheckpointPolicy, ControlVariateUpdate, FaultPlan, RunResult};
use niid_nn::ModelSpec;
use niid_stats::derive_seed;

fn fail(msg: &str) -> ! {
    eprintln!("resume_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// The checkpoint directory holds the v4 file and nothing else: every
/// save renamed its `checkpoint.bin.tmp` away (or removed it).
fn assert_only_checkpoint(dir: &std::path::Path, when: &str) {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| fail(&format!("read {}: {e}", dir.display())))
        .filter_map(|entry| Some(entry.ok()?.file_name().to_string_lossy().into_owned()))
        .collect();
    names.sort();
    if names != ["checkpoint.bin"] {
        fail(&format!(
            "{when}: expected only checkpoint.bin, found {names:?}"
        ));
    }
}

fn build_sim(config: FlConfig) -> FedSim {
    let split = generate(DatasetId::Mnist, &GenConfig::tiny(42));
    let part = partition(
        &split.train,
        8,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        derive_seed(42, 0x11),
    )
    .unwrap_or_else(|e| fail(&format!("partition: {e}")));
    let parties = build_parties(&split.train, &part, derive_seed(42, 0x17));
    // GenConfig::tiny emits 16×16 single-channel images.
    let model = ModelSpec::LenetCnn {
        in_channels: 1,
        side: 16,
    };
    FedSim::new(model, parties, split.test, config)
        .unwrap_or_else(|e| fail(&format!("config: {e}")))
}

fn config(rounds: usize) -> FlConfig {
    FlConfig {
        algorithm: Algorithm::Scaffold {
            variant: ControlVariateUpdate::Reuse,
        },
        rounds,
        local: LocalConfig {
            epochs: 1,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction: 1.0,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 256,
        eval_every: 1,
        server_lr: 1.0,
        seed: 43,
        threads: 2,
        min_quorum: 0.25,
        fault_plan: None,
        checkpoint: None,
        codec: niid_fl::UpdateCodec::DenseF32,
    }
}

fn assert_identical(resumed: &RunResult, full: &RunResult) {
    if resumed.rounds.len() != full.rounds.len() {
        fail(&format!(
            "resumed run has {} rounds, uninterrupted has {}",
            resumed.rounds.len(),
            full.rounds.len()
        ));
    }
    for (ra, rb) in resumed.rounds.iter().zip(&full.rounds) {
        if ra.round != rb.round
            || ra.test_accuracy != rb.test_accuracy
            || ra.avg_local_loss != rb.avg_local_loss
            || ra.up_bytes != rb.up_bytes
            || ra.failures != rb.failures
        {
            fail(&format!(
                "round {} diverged after resume:\n  resumed:       {ra:?}\n  uninterrupted: {rb:?}",
                ra.round
            ));
        }
    }
    if resumed.final_accuracy != full.final_accuracy
        || resumed.best_accuracy != full.best_accuracy
        || resumed.total_bytes != full.total_bytes
    {
        fail("aggregate result diverged after resume");
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("niid-resume-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Leg 1: kill after round 3, resume, compare to the uninterrupted run.
    println!("resume_smoke: leg 1 — checkpoint/resume bit-identity (SCAFFOLD, 6 rounds)");
    let full = build_sim(config(6))
        .run()
        .unwrap_or_else(|e| fail(&format!("uninterrupted run: {e}")));

    let mut ck_cfg = config(6);
    ck_cfg.checkpoint = Some(CheckpointPolicy::new(&dir, 3));
    let sim = build_sim(ck_cfg);
    sim.run_interrupted(3, &NoopSink)
        .unwrap_or_else(|e| fail(&format!("interrupted run: {e}")));
    if !sim.has_checkpoint() {
        fail("no checkpoint on disk after the simulated kill");
    }
    assert_only_checkpoint(&dir, "after the simulated kill");
    let resumed = sim
        .run_with(RunOptions {
            start: Start::Auto,
            ..RunOptions::new(&NoopSink)
        })
        .unwrap_or_else(|e| fail(&format!("resume: {e}")));
    assert_only_checkpoint(&dir, "after the resumed run");
    assert_identical(&resumed, &full);
    println!(
        "resume_smoke: resumed stream bit-identical over {} rounds (final acc {:.3})",
        full.rounds.len(),
        full.final_accuracy
    );

    // Leg 2: 30% crash plan — every round must complete, degraded.
    println!("resume_smoke: leg 2 — 30% crash plan completes degraded");
    let mut fault_cfg = config(6);
    fault_cfg.fault_plan = Some(FaultPlan::crash_only(0.3, 7));
    let faulty = build_sim(fault_cfg)
        .run()
        .unwrap_or_else(|e| fail(&format!("faulty run aborted: {e}")));
    if faulty.rounds.len() != 6 {
        fail(&format!(
            "faulty run completed only {} of 6 rounds",
            faulty.rounds.len()
        ));
    }
    let failures: usize = faulty.rounds.iter().map(|r| r.failures).sum();
    if failures == 0 {
        fail("30% crash plan injected no failures over 48 cells");
    }
    println!(
        "resume_smoke: all 6 rounds completed with {failures} injected failures (final acc {:.3})",
        faulty.final_accuracy
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("resume_smoke: PASS");
}
