//! Figure 7: training curves of the four algorithms on CIFAR-10 under the
//! six partitions (five non-IID + IID). Curves are rendered as sparklines;
//! `--json` dumps the full per-round series.

use niid_bench::{
    curve_line, maybe_print_metrics_summary, maybe_print_trace_summary, maybe_write_json,
    maybe_write_profile, print_header, run_or_exit, Args,
};
use niid_core::experiment::{ExperimentResult, ExperimentSpec};
use niid_core::partition::Strategy;
use niid_data::DatasetId;
use niid_fl::Algorithm;

fn main() {
    let args = Args::parse();
    print_header("Figure 7: training curves on CIFAR-10", &args);
    let partitions = [
        Strategy::DirichletLabelSkew { beta: 0.5 },
        Strategy::QuantityLabelSkew { k: 1 },
        Strategy::QuantityLabelSkew { k: 2 },
        Strategy::QuantityLabelSkew { k: 3 },
        Strategy::QuantitySkew { beta: 0.5 },
        Strategy::Homogeneous,
    ];
    let mut all: Vec<ExperimentResult> = Vec::new();
    for strategy in partitions {
        println!("partition: {}", strategy.label());
        for algo in Algorithm::all_default() {
            let mut spec =
                ExperimentSpec::new(DatasetId::Cifar10, strategy, algo, args.gen_config());
            args.apply(&mut spec, 50, 1);
            let result = run_or_exit(&spec);
            let run = &result.runs[0];
            println!(
                "  {}   volatility {:.4}",
                curve_line(algo.name(), &run.curve()),
                run.accuracy_volatility(2)
            );
            all.push(result);
        }
        println!();
    }
    println!(
        "expected shape (paper §5.2): #C=1 curves are unstable/flat; FedProx\n\
         tracks FedAvg closely; FedNova is unstable under q~Dir(0.5)"
    );
    maybe_write_json(&args, &all);
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
