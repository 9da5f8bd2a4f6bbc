//! Communication-payload benchmarks: the wire-codec throughput of the
//! compression pipeline at the update sizes the paper's models actually
//! ship per round, plus SCAFFOLD's 2x payload (§3.3) in the traffic
//! accounting.
//!
//! Codec rows set `flops` to the *dense-equivalent* byte count (4·n), so
//! the harness's `gflops` column reads directly as GB/s of model-update
//! throughput and is comparable across codecs; each row also carries a
//! `compression_ratio` extra (dense bytes / encoded bytes).
//!
//! The `checkpoint/*` rows run the same vector encoding through
//! `Checkpoint::save` / `load` — temp-file write, fsync and rename
//! included — with `flops` set to the file's byte count.

use niid_bench::harness::{black_box, BenchMeta, Harness};
use niid_fl::comm::RoundTraffic;
use niid_fl::{Checkpoint, CheckpointPolicy, RoundRecord, UpdateCodec};
use niid_stats::Pcg64;
use niid_tensor::active_kernel;

fn main() {
    let mut h = Harness::from_args("comm_payload");
    let threads = niid_tensor::configured_threads();
    let kern = active_kernel();
    let mut rng = Pcg64::new(12);
    let codecs = [
        UpdateCodec::DenseF32,
        UpdateCodec::TopK { fraction: 0.05 },
        UpdateCodec::Int8Q { levels: 128 },
        UpdateCodec::TopKInt8 {
            fraction: 0.05,
            levels: 128,
        },
    ];
    // Parameter counts: the tabular MLP (~4k), the LeNet CNN at 16px
    // (~40k), a mid-size conv net (~400k).
    for &n in &[4_096usize, 40_960, 409_600] {
        let delta: Vec<f32> = (0..n).map(|_| rng.next_f32() - 0.5).collect();
        // Codec throughput: encode/decode GB/s at dense-equivalent bytes,
        // plus the achieved compression ratio.
        let dense_bytes = 4 * n as u64;
        for codec in &codecs {
            let label = codec.label();
            let payload = codec.encode(kern, &delta, 0xBEEF);
            let ratio = dense_bytes as f64 / payload.len() as f64;
            h.bench_meta(
                &format!("encode_{label}/{n}"),
                BenchMeta::op(
                    match label {
                        "dense" => "comm/encode_dense",
                        "topk" => "comm/encode_topk",
                        "int8" => "comm/encode_int8",
                        _ => "comm/encode_topk8",
                    },
                    format!("n{n}"),
                    threads,
                    dense_bytes,
                )
                .with_extra("compression_ratio", ratio),
                |bench| bench.iter(|| black_box(codec.encode(kern, &delta, 0xBEEF))),
            );
            h.bench_meta(
                &format!("decode_{label}/{n}"),
                BenchMeta::op(
                    match label {
                        "dense" => "comm/decode_dense",
                        "topk" => "comm/decode_topk",
                        "int8" => "comm/decode_int8",
                        _ => "comm/decode_topk8",
                    },
                    format!("n{n}"),
                    threads,
                    dense_bytes,
                )
                .with_extra("compression_ratio", ratio),
                |bench| {
                    bench.iter(|| black_box(codec.decode(kern, &payload, n).expect("codec decode")))
                },
            );
        }
    }

    checkpoint_rows(&mut h, &mut rng);

    h.bench("round_traffic_accounting", |bench| {
        bench.iter(|| {
            let plain = RoundTraffic::for_round_faulted(black_box(100), 100, 0, 40_960, 0, false);
            let scaffold = RoundTraffic::for_round_faulted(black_box(100), 100, 0, 40_960, 0, true);
            assert_eq!(scaffold.total(), 2 * plain.total());
            (plain, scaffold)
        })
    });
}

/// `checkpoint/save` and `checkpoint/load` at the shape the end-to-end
/// `silo_robust_observed` workload checkpoints: SCAFFOLD + int8 over 10
/// parties on the 2 762-parameter MLP (22 vectors) and 400 round records.
fn checkpoint_rows(h: &mut Harness, rng: &mut Pcg64) {
    let mut vector = || -> Vec<f32> { (0..2_762).map(|_| rng.next_f32() - 0.5).collect() };
    let (global_params, server_c) = (vector(), vector());
    let mut per_party = || -> Vec<(usize, Vec<f32>)> { (0..10).map(|id| (id, vector())).collect() };
    let (client_c, residuals) = (per_party(), per_party());
    let ckpt = Checkpoint {
        round_next: 400,
        seed: 0x5EED_0000_0000_0042,
        algorithm: "SCAFFOLD".into(),
        n_parties: 10,
        sample_fraction: 1.0,
        min_quorum: 0.1,
        fault_plan: Some("crash=0.05,drop=0.05,seed=9".into()),
        codec: "int8:128".into(),
        global_params,
        global_buffers: Vec::new(),
        server_c,
        client_c,
        residuals,
        records: (0..400)
            .map(|round| RoundRecord {
                round,
                test_accuracy: Some(0.5 + round as f64 / 1e3),
                avg_local_loss: 1.0 / (1.0 + round as f64),
                participants: 10,
                down_bytes: 220_960,
                up_bytes: 131_060,
                local_wall_ms: 1.9,
                aggregate_wall_ms: 0.05,
                eval_wall_ms: 0.1,
                failures: round % 3,
            })
            .collect(),
        best_accuracy: 0.9,
        final_accuracy: 0.9,
        total_bytes: 140_808_000,
    };
    let dir = std::env::temp_dir().join(format!("niid_bench_ckpt_{}", std::process::id()));
    let path = CheckpointPolicy::new(&dir, 5).path();
    ckpt.save(&path).expect("checkpoint save");
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let shape = "22x2762+400rec";
    // Encoding and disk I/O run on the calling thread whatever the budget.
    let threads = 1;
    h.bench_meta(
        "checkpoint/save",
        BenchMeta::op("checkpoint/save", shape, threads, bytes),
        |bench| bench.iter(|| ckpt.save(&path).expect("checkpoint save")),
    );
    h.bench_meta(
        "checkpoint/load",
        BenchMeta::op("checkpoint/load", shape, threads, bytes),
        |bench| bench.iter(|| black_box(Checkpoint::load(&path).expect("checkpoint load"))),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
