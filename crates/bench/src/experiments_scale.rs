//! The cross-device scale sweep: federated rounds over populations of
//! N ∈ {1k, 10k, 100k, 1M} parties with a sampled cohort ≪ N, driven
//! through the cohort-on-demand engine path (`LazyPartition` +
//! `FedSim::with_provider`) — a synthetic population no `ExperimentSpec`
//! cell describes, so it talks to the engine directly.
//!
//! What it demonstrates (and records in `BENCH_fl_scale.json`): round
//! throughput stays a function of the cohort size, per-round traffic
//! scales with the cohort, and peak party-resident memory tracks the
//! cohort, never the population. `--quick`/`--short` restricts the sweep
//! to N ∈ {1k, 10k} for CI; the 1M-party cell is cheap because only the
//! sampled cohort is ever materialized. Per-round traffic is measured from
//! the actually-encoded payloads, so `--codec topk8:0.05` shows real
//! upload shrinkage.

use crate::harness::bench_entry;
use crate::{Args, Scale};
use niid_core::partition::{LazyPartition, Strategy};
use niid_data::Dataset;
use niid_fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_fl::local::LocalConfig;
use niid_fl::{residency, Algorithm, UpdateCodec};
use niid_json::Json;
use niid_nn::ModelSpec;
use niid_stats::{derive_seed, Pcg64};
use niid_tensor::Tensor;
use std::sync::Arc;

/// Feature dimension of the synthetic task.
const DIM: usize = 8;
/// Rows per party — tiny on purpose: the sweep measures engine
/// bookkeeping at population scale, not SGD throughput.
const PER_PARTY: usize = 4;
/// Communication rounds per cell (evaluation only on the last).
const ROUNDS: usize = 5;
/// Held-out test rows.
const TEST_ROWS: usize = 512;

/// Linearly separable two-class task in `DIM` dimensions.
fn synth(rows: usize, seed: u64, name: &str) -> Dataset {
    let mut rng = Pcg64::new(seed);
    let x = Tensor::rand_uniform(&[rows, DIM], -1.0, 1.0, &mut rng);
    let labels = (0..rows)
        .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
        .collect();
    Dataset::new(name, x, labels, 2, vec![DIM], None)
}

/// Run one population cell, print its row and return its bench entry.
fn run_cell(n_parties: usize, label: &str, seed: u64, codec: UpdateCodec) -> Json {
    // The sampled cohort: `N/1000` clamped to `[8, 200]`, so 100k parties
    // run at `sample_fraction = 0.001` and 1M parties still aggregate only
    // 200 updates per round.
    let cohort = (n_parties / 1000).clamp(8, 200);
    let train = synth(n_parties * PER_PARTY, derive_seed(seed, 1), "scale-train");
    let test = synth(TEST_ROWS, derive_seed(seed, 2), "scale-test");
    let provider = LazyPartition::new(Arc::new(train), n_parties, Strategy::Homogeneous, seed)
        .expect("homogeneous lazy partition");
    let config = FlConfig {
        algorithm: Algorithm::FedAvg,
        rounds: ROUNDS,
        local: LocalConfig {
            epochs: 2,
            batch_size: PER_PARTY,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction: cohort as f64 / n_parties as f64,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 256,
        eval_every: ROUNDS,
        server_lr: 1.0,
        seed,
        threads: 0,
        min_quorum: 0.5,
        fault_plan: None,
        checkpoint: None,
        codec,
    };
    let model = ModelSpec::Mlp { in_dim: DIM };
    let sim =
        FedSim::with_provider(model, Box::new(provider), test, config).expect("valid scale config");
    residency::reset_peak();
    let result = sim.run().expect("scale cell run");
    let peak = residency::peak_bytes();
    assert!(
        result.rounds.iter().all(|r| r.participants == cohort),
        "cohort size drifted"
    );
    let per_round = |bytes: usize| bytes as f64 / ROUNDS as f64;
    let down = per_round(result.rounds.iter().map(|r| r.down_bytes).sum());
    let up = per_round(result.rounds.iter().map(|r| r.up_bytes).sum());
    let rounds_per_sec = ROUNDS as f64 / result.wall_seconds;
    println!(
        "{label:<8} {cohort:>8} {rounds_per_sec:>12.2} {down:>13.0} {up:>13.0} {peak:>16} {:>9.1}%",
        result.final_accuracy * 100.0
    );
    bench_entry(
        "fl_scale",
        label.into(),
        format!("N={n_parties} cohort={cohort} rounds={ROUNDS}"),
        ROUNDS,
        result.wall_seconds,
        vec![
            ("n_parties", Json::Num(n_parties as f64)),
            ("cohort", Json::Num(cohort as f64)),
            ("rounds_per_sec", Json::Num(rounds_per_sec)),
            ("bytes_per_round", Json::Num(per_round(result.total_bytes))),
            ("down_bytes_per_round", Json::Num(down)),
            ("up_bytes_per_round", Json::Num(up)),
            ("encoding", Json::Str(codec.label().into())),
            ("resident_party_bytes_peak", Json::Num(peak as f64)),
        ],
    )
}

/// The sweep: one row and one `fl_scale` bench entry per population.
pub(crate) fn scale(args: &Args) -> Json {
    let all = [
        (1_000, "N=1k"),
        (10_000, "N=10k"),
        (100_000, "N=100k"),
        (1_000_000, "N=1M"),
    ];
    let populations = if args.scale == Scale::Quick {
        &all[..2]
    } else {
        &all[..]
    };
    let codec = args.codec.unwrap_or(UpdateCodec::DenseF32);
    println!("codec: {codec}");
    println!(
        "{:<8} {:>8} {:>12} {:>13} {:>13} {:>16} {:>10}",
        "N", "cohort", "rounds/s", "down B/round", "up B/round", "resident peak", "final acc"
    );
    let entries = populations
        .iter()
        .map(|&(n, label)| run_cell(n, label, derive_seed(args.seed, n as u64), codec))
        .collect();
    println!();
    Json::arr(entries)
}
