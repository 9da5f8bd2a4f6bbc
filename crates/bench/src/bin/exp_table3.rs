//! Table 3: the paper's headline experiment — top-1 accuracy of FedAvg,
//! FedProx, SCAFFOLD and FedNova on every dataset × partition cell, with
//! per-section "number of times that performs best" rows.
//!
//! Differences from the paper, by scale: the default (bench) scale runs
//! 15 rounds / 5 local epochs on the scaled synthetic datasets with
//! FedProx μ = 0.01 fixed; `--paper-scale` restores 50 rounds, E = 10,
//! B = 64 and 3 trials (μ tuning is covered separately by `exp_fig8`).

use niid_bench::{
    maybe_print_metrics_summary, maybe_print_trace_summary, maybe_write_json, maybe_write_profile,
    print_header, run_or_exit, Args,
};
use niid_core::experiment::{ExperimentResult, ExperimentSpec};
use niid_core::partition::Strategy;
use niid_core::{Leaderboard, Table};
use niid_data::DatasetId;
use niid_fl::Algorithm;

/// The Table 3 cells, section by section (dataset, strategy).
fn cells() -> Vec<(&'static str, Vec<(DatasetId, Strategy)>)> {
    use DatasetId::*;
    use Strategy::*;
    let dir = DirichletLabelSkew { beta: 0.5 };
    let label_image: Vec<Strategy> = vec![
        dir,
        QuantityLabelSkew { k: 1 },
        QuantityLabelSkew { k: 2 },
        QuantityLabelSkew { k: 3 },
    ];
    let mut label = Vec::new();
    for ds in [Mnist, Fmnist, Cifar10, Svhn] {
        for s in &label_image {
            label.push((ds, *s));
        }
    }
    for ds in [Adult, Rcv1, Covtype] {
        label.push((ds, dir));
        label.push((ds, QuantityLabelSkew { k: 1 }));
    }

    let mut feature = Vec::new();
    for ds in [Mnist, Fmnist, Cifar10, Svhn] {
        feature.push((ds, NoiseFeatureSkew { sigma: 0.1 }));
    }
    feature.push((Fcube, FcubeSynthetic));
    feature.push((Femnist, ByWriter));

    let quantity: Vec<(DatasetId, Strategy)> = [Mnist, Fmnist, Cifar10, Svhn, Adult, Rcv1, Covtype]
        .into_iter()
        .map(|ds| (ds, QuantitySkew { beta: 0.5 }))
        .collect();

    let iid: Vec<(DatasetId, Strategy)> = DatasetId::all()
        .into_iter()
        .map(|ds| (ds, Homogeneous))
        .collect();

    vec![
        ("Label distribution skew", label),
        ("Feature distribution skew", feature),
        ("Quantity skew", quantity),
        ("Homogeneous partition (IID)", iid),
    ]
}

fn main() {
    let args = Args::parse();
    print_header("Table 3: overall accuracy comparison", &args);
    let algorithms = Algorithm::all_default();
    let mut table = Table::new(vec![
        "category",
        "dataset",
        "partitioning",
        "FedAvg",
        "FedProx",
        "SCAFFOLD",
        "FedNova",
    ]);
    let mut all_results: Vec<ExperimentResult> = Vec::new();

    for (section, section_cells) in cells() {
        let mut board = Leaderboard::new();
        for (dataset, strategy) in &section_cells {
            let mut row = vec![
                section.to_string(),
                dataset.name().to_string(),
                strategy.label(),
            ];
            for algo in algorithms {
                let mut spec = ExperimentSpec::new(*dataset, *strategy, algo, args.gen_config());
                args.apply(&mut spec, 50, 3);
                let result = run_or_exit(&spec);
                row.push(result.cell());
                board.add(&result);
                all_results.push(result);
            }
            table.add_row(row);
            eprintln!("  done: {} / {}", dataset.name(), strategy.label());
        }
        let wins = board.win_counts();
        let mut win_row = vec![
            section.to_string(),
            "-".to_string(),
            "times best".to_string(),
        ];
        for algo in algorithms {
            win_row.push(wins.get(algo.name()).copied().unwrap_or(0).to_string());
        }
        table.add_row(win_row);
    }

    println!("{table}");
    maybe_write_json(&args, &all_results);
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
