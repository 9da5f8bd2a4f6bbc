//! A pinned `RoundRecord` digest of one rcv1 cell on the AVX2 kernel arm.
//!
//! `tests/golden_records.rs` pins its cells on the scalar arm, whose
//! `a == 0` GEMM skip has a history of its own. This cell runs on the
//! AVX2 arm instead, at the shape where the AVX2 GEMMs route a 90 %-zero
//! input through the sparse-A kernels: rcv1 capped at 2 048 features,
//! an `Mlp` over it, FedAvg, 3 rounds, 10 Dirichlet-skewed parties. The
//! constant was generated before the sparse-A path existed, when every
//! AVX2 GEMM computed every term; the sparse path must reproduce those
//! bits at one worker thread and at four.
//!
//! Skipped (passes without running) on a CPU without avx2 and fma.

use niid_bench_rs::core::partition::{build_parties, partition, Strategy};
use niid_bench_rs::data::{generate, DatasetId, GenConfig};
use niid_bench_rs::fl::engine::{FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::{Algorithm, RunResult};
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::tensor::{with_forced_kernel, Kernel};

/// The cell's digest, from the dense AVX2 GEMM kernels.
const GOLDEN: u64 = 0x5fb1_6d08_061f_3f98;

/// FNV-1a over every `RoundRecord` field except the three `*_wall_ms`
/// (f64s by their exact bits), then `total_bytes` — the digest of
/// `tests/golden_records.rs`.
fn digest(result: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &result.rounds {
        eat(r.round as u64);
        eat(u64::from(r.test_accuracy.is_some()));
        eat(r.test_accuracy.unwrap_or(0.0).to_bits());
        eat(r.avg_local_loss.to_bits());
        eat(r.participants as u64);
        eat(r.down_bytes as u64);
        eat(r.up_bytes as u64);
        eat(r.failures as u64);
    }
    eat(result.total_bytes as u64);
    h
}

fn run_cell(threads: usize) -> RunResult {
    let seed = 42;
    let gen = GenConfig {
        max_tabular_dim: 2048,
        ..GenConfig::bench(seed)
    };
    let split = generate(DatasetId::Rcv1, &gen);
    let part = partition(
        &split.train,
        10,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        seed + 1,
    )
    .expect("partition");
    let parties = build_parties(&split.train, &part, seed + 2);
    let mut cfg = FlConfig::paper_defaults(Algorithm::FedAvg, seed + 3);
    cfg.rounds = 3;
    cfg.local = LocalConfig {
        epochs: 2,
        batch_size: 32,
        lr: 0.1,
        momentum: 0.9,
        weight_decay: 0.0,
    };
    cfg.threads = threads;
    let model = ModelSpec::Mlp { in_dim: 2048 };
    let sim = FedSim::new(model, parties, split.test, cfg).expect("valid sim");
    sim.run().expect("run")
}

#[test]
fn rcv1_cell_on_the_avx2_arm_hits_its_golden_digest() {
    if !Kernel::Avx2.available() {
        eprintln!("skipped: this CPU lacks avx2+fma");
        return;
    }
    let at = |threads: usize| with_forced_kernel(Kernel::Avx2, || digest(&run_cell(threads)));
    let (one, four) = (at(1), at(4));
    assert_eq!(
        (one, four),
        (GOLDEN, GOLDEN),
        "digest moved: t1 {one:#018x}, t4 {four:#018x}"
    );
}
