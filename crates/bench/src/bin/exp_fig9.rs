//! Figure 9: robustness to the number of local epochs — final accuracy of
//! each algorithm with E ∈ {10, 20, 40, 80} (paper values; the bench scale
//! uses {2, 5, 10, 20}, preserving the 1:2:4:8 ratios) across four label
//! partitions of CIFAR-10.

use niid_bench::{
    maybe_print_metrics_summary, maybe_print_trace_summary, maybe_write_json, maybe_write_profile,
    print_header, run_or_exit, Args, Scale,
};
use niid_core::experiment::{ExperimentResult, ExperimentSpec};
use niid_core::partition::Strategy;
use niid_core::Table;
use niid_data::DatasetId;
use niid_fl::Algorithm;

fn main() {
    let args = Args::parse();
    print_header(
        "Figure 9: effect of the number of local epochs (CIFAR-10)",
        &args,
    );
    let epoch_grid: &[usize] = match args.scale {
        Scale::Quick => &[1, 2, 4, 8],
        Scale::Bench => &[2, 5, 10, 20],
        Scale::Paper => &[10, 20, 40, 80],
    };
    let partitions = [
        Strategy::QuantityLabelSkew { k: 1 },
        Strategy::QuantityLabelSkew { k: 2 },
        Strategy::QuantityLabelSkew { k: 3 },
        Strategy::DirichletLabelSkew { beta: 0.5 },
    ];
    let mut all: Vec<ExperimentResult> = Vec::new();
    for strategy in partitions {
        println!("partition: {}", strategy.label());
        let mut t = Table::new(vec!["algorithm", "E0", "E1", "E2", "E3"]);
        for algo in Algorithm::all_default() {
            let mut row = vec![algo.name().to_string()];
            for &epochs in epoch_grid {
                let mut spec =
                    ExperimentSpec::new(DatasetId::Cifar10, strategy, algo, args.gen_config());
                args.apply(&mut spec, 50, 1);
                spec.local_epochs = epochs;
                let result = run_or_exit(&spec);
                row.push(format!("{:.1}%", result.mean_accuracy * 100.0));
                all.push(result);
            }
            t.add_row(row);
        }
        println!("epoch grid {epoch_grid:?}:");
        println!("{t}");
    }
    println!(
        "expected shape (paper §5.3): very large E degrades accuracy under\n\
         label skew, and the optimal E differs per partition"
    );
    maybe_write_json(&args, &all);
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
