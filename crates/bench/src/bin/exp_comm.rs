//! Accuracy-vs-bytes sweep: every wire codec crossed with the paper's six
//! partitioning skews (§4), FedAvg throughout. This is the measurement
//! behind the compression ablation — it answers "how many uploaded bytes
//! does each codec buy per point of final accuracy, and does the answer
//! change under non-IID skew?".
//!
//! Traffic numbers are *measured* from the actually-encoded payloads (the
//! engine's comm phase), never formula-derived, so top-k's error-feedback
//! residuals and the int8 scale headers are all accounted for.
//!
//! ```text
//! exp_comm [--quick|--short|--paper-scale] [--seed N] [--rounds N]
//!          [--json PATH] [--trace PATH] [--profile PATH]
//! ```
//!
//! `--short` is an alias for `--quick` (CI bench-smoke vocabulary). The
//! `--json` output is an array of bench-harness-schema entries with
//! `op: "fl_comm"` plus `encoding`, `final_accuracy`, `up_bytes_total`,
//! `down_bytes_total` and `bytes_ratio_vs_dense` — validated by
//! `bench_json_check`.

use niid_bench::{
    curve_line, maybe_print_metrics_summary, maybe_print_trace_summary, maybe_write_profile,
    print_header, run_or_exit, Args,
};
use niid_core::experiment::ExperimentSpec;
use niid_core::partition::Strategy;
use niid_data::DatasetId;
use niid_fl::{Algorithm, UpdateCodec};
use niid_json::Json;

/// The codec sweep: the dense reference plus the three lossy codecs at
/// their headline settings (5% top-k, 128-level int8).
fn codecs() -> Vec<UpdateCodec> {
    vec![
        UpdateCodec::DenseF32,
        UpdateCodec::TopK { fraction: 0.05 },
        UpdateCodec::Int8Q { levels: 128 },
        UpdateCodec::TopKInt8 {
            fraction: 0.05,
            levels: 128,
        },
    ]
}

/// The paper's six skews (Table 1) at exp_comm's fixed FedAvg setting.
fn skews() -> Vec<(&'static str, DatasetId, Strategy)> {
    vec![
        ("cifar10-homog", DatasetId::Cifar10, Strategy::Homogeneous),
        (
            "cifar10-dirichlet",
            DatasetId::Cifar10,
            Strategy::DirichletLabelSkew { beta: 0.5 },
        ),
        (
            "cifar10-labels2",
            DatasetId::Cifar10,
            Strategy::QuantityLabelSkew { k: 2 },
        ),
        (
            "cifar10-noise",
            DatasetId::Cifar10,
            Strategy::NoiseFeatureSkew { sigma: 0.1 },
        ),
        (
            "cifar10-qty",
            DatasetId::Cifar10,
            Strategy::QuantitySkew { beta: 0.5 },
        ),
        ("femnist-bywriter", DatasetId::Femnist, Strategy::ByWriter),
    ]
}

struct CommCell {
    skew: &'static str,
    encoding: &'static str,
    rounds: usize,
    final_accuracy: f64,
    up_bytes: usize,
    down_bytes: usize,
    wall_ns_per_round: f64,
    /// Per-round accuracy-vs-cumulative-upload curve `(up bytes so far, acc)`.
    curve: Vec<(usize, f64)>,
}

fn cell_json(c: &CommCell, dense_up: usize, simd: &str, threads: usize) -> Json {
    Json::obj(vec![
        ("group", Json::Str("fl_comm".into())),
        ("name", Json::Str(format!("{}/{}", c.skew, c.encoding))),
        ("op", Json::Str("fl_comm".into())),
        (
            "shape",
            Json::Str(format!("{} rounds={}", c.skew, c.rounds)),
        ),
        ("threads", Json::Num(threads as f64)),
        ("simd", Json::Str(simd.into())),
        ("median_ns", Json::Num(c.wall_ns_per_round)),
        ("min_ns", Json::Num(c.wall_ns_per_round)),
        ("iters", Json::Num(c.rounds as f64)),
        ("gflops", Json::Null),
        ("encoding", Json::Str(c.encoding.into())),
        ("final_accuracy", Json::Num(c.final_accuracy)),
        ("up_bytes_total", Json::Num(c.up_bytes as f64)),
        ("down_bytes_total", Json::Num(c.down_bytes as f64)),
        (
            "bytes_ratio_vs_dense",
            Json::Num(dense_up as f64 / c.up_bytes as f64),
        ),
    ])
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    // `--short` is what CI's bench-smoke vocabulary calls the quick scale.
    let argv = std::env::args().skip(1).map(|a| {
        if a == "--short" {
            "--quick".to_string()
        } else {
            a
        }
    });
    let args = Args::parse_from(argv);
    print_header(
        "Compression ablation: codec x partitioning skew, FedAvg",
        &args,
    );

    let threads = niid_tensor::configured_threads();
    let simd = format!(
        "{}/{}",
        niid_tensor::active_kernel().name(),
        niid_tensor::detected_features()
    );
    let mut entries: Vec<Json> = Vec::new();
    for (skew, dataset, strategy) in skews() {
        println!("\n--- {skew} ---");
        let mut dense_up = 0usize;
        let mut dense_acc = 0.0f64;
        for codec in codecs() {
            let mut spec =
                ExperimentSpec::new(dataset, strategy, Algorithm::FedAvg, args.gen_config());
            args.apply(&mut spec, 50, 1);
            spec.codec = codec;
            let result = run_or_exit(&spec);
            let run = &result.runs[0];
            let up: usize = run.rounds.iter().map(|r| r.up_bytes).sum();
            let down: usize = run.rounds.iter().map(|r| r.down_bytes).sum();
            let mut cum = 0usize;
            let curve = run
                .rounds
                .iter()
                .filter(|r| r.test_accuracy.is_some())
                .map(|r| {
                    cum += r.up_bytes;
                    (cum, r.test_accuracy.unwrap_or(0.0))
                })
                .collect();
            let cell = CommCell {
                skew,
                encoding: codec.label(),
                rounds: run.rounds.len(),
                final_accuracy: run.final_accuracy,
                up_bytes: up,
                down_bytes: down,
                wall_ns_per_round: run.wall_seconds * 1e9 / run.rounds.len().max(1) as f64,
                curve,
            };
            if codec == UpdateCodec::DenseF32 {
                dense_up = up;
                dense_acc = run.final_accuracy;
            }
            println!(
                "{}",
                curve_line(&format!("{:<6}", cell.encoding), &run.curve())
            );
            println!(
                "        up {:8.3} MiB  down {:8.3} MiB  {:5.2}x vs dense  acc {:+.2} pts",
                mib(cell.up_bytes),
                mib(cell.down_bytes),
                dense_up as f64 / cell.up_bytes as f64,
                (cell.final_accuracy - dense_acc) * 100.0
            );
            if let Some((bytes, acc)) = cell.curve.last() {
                println!(
                    "        acc-vs-bytes endpoint: {:.1}% @ {:.3} MiB uploaded",
                    acc * 100.0,
                    mib(*bytes)
                );
            }
            entries.push(cell_json(&cell, dense_up, &simd, threads));
        }
    }
    println!(
        "\nexpected shape: topk8 cuts uploads ~10x at 5% density; int8 alone\n\
         is ~4x; accuracy stays within ~1 point of dense on every skew once\n\
         error feedback has flushed the early-round residuals"
    );

    if let Some(path) = &args.json {
        let mut text = Json::arr(entries).pretty();
        text.push('\n');
        match std::fs::write(path, text) {
            Ok(()) => println!("(measurements written to {path})"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
