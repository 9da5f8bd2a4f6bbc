//! Figure 10: training curves with batch sizes {16, 32, 64, 128, 256} on
//! CIFAR-10 under `p_k ~ Dir(0.5)` — larger batches learn slower, and the
//! batch-size behaviour does not interact with the heterogeneity.

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
    print_header(
        "Figure 10: batch-size effect on CIFAR-10, p_k~Dir(0.5)",
        &args,
    );
    let mut all: Vec<ExperimentResult> = Vec::new();
    for algo in Algorithm::all_default() {
        println!("{}:", algo.name());
        for batch in [16usize, 32, 64, 128, 256] {
            let mut spec = ExperimentSpec::new(
                DatasetId::Cifar10,
                Strategy::DirichletLabelSkew { beta: 0.5 },
                algo,
                args.gen_config(),
            );
            args.apply(&mut spec, 50, 1);
            spec.batch_size = batch;
            let result = run_or_exit(&spec);
            println!(
                "  {}",
                curve_line(&format!("B = {batch}"), &result.runs[0].curve())
            );
            all.push(result);
        }
        println!();
    }
    println!(
        "expected shape (paper §5.4): large batches slow learning for every\n\
         algorithm alike — batch-size behaviour is independent of the skew"
    );
    maybe_write_json(&args, &all);
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
