//! Figure 8: FedProx training curves with μ ∈ {0, 0.001, 0.01, 0.1, 1} on
//! CIFAR-10 under `p_k ~ Dir(0.5)` — larger μ trains slower but can reach
//! a better final accuracy.

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
        "Figure 8: FedProx mu sweep on CIFAR-10, p_k~Dir(0.5)",
        &args,
    );
    let mut all: Vec<ExperimentResult> = Vec::new();
    for mu in [0.0f32, 0.001, 0.01, 0.1, 1.0] {
        let mut spec = ExperimentSpec::new(
            DatasetId::Cifar10,
            Strategy::DirichletLabelSkew { beta: 0.5 },
            Algorithm::FedProx { mu },
            args.gen_config(),
        );
        args.apply(&mut spec, 50, 1);
        let result = run_or_exit(&spec);
        let run = &result.runs[0];
        // Rounds to reach 90% of the mu=0 final accuracy measures speed.
        println!("{}", curve_line(&format!("mu = {mu}"), &run.curve()));
        all.push(result);
    }
    println!(
        "\nexpected shape (paper §5.2): training with larger mu is slower; mu=0\n\
         matches FedAvg exactly; a moderate mu can end slightly higher"
    );
    maybe_write_json(&args, &all);
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
