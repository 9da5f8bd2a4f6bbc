//! Ablations of the design choices DESIGN.md calls out — beyond the
//! paper's figures but within its §6 discussion:
//!
//! 1. **SCAFFOLD control-variate rule**: option (i) `∇L(wᵗ)` vs option
//!    (ii) reuse (Algorithm 2 line 23). The paper notes "the second
//!    approach has a lower computation cost while the first one may be
//!    more stable".
//! 2. **Local momentum**: the paper trains with momentum 0.9; under label
//!    skew, momentum amplifies drift — this quantifies by how much.
//! 3. **Server learning rate** η (Algorithm 1 line 9): the paper fixes
//!    η = 1; damped server steps trade convergence speed for stability.

use niid_bench::{
    curve_line, maybe_print_metrics_summary, maybe_print_trace_summary, maybe_write_json,
    maybe_write_profile, print_header, run_or_exit, Args,
};
use niid_core::experiment::{ExperimentResult, ExperimentSpec};
use niid_core::partition::Strategy;
use niid_data::DatasetId;
use niid_fl::{Algorithm, ControlVariateUpdate};

fn main() {
    let args = Args::parse();
    print_header(
        "Ablations: SCAFFOLD variant / momentum via epochs / server lr",
        &args,
    );
    let strategy = Strategy::DirichletLabelSkew { beta: 0.5 };
    let mut all: Vec<ExperimentResult> = Vec::new();

    println!("1. SCAFFOLD control-variate rule (CIFAR-10, p_k~Dir(0.5)):");
    for (name, variant) in [
        (
            "option (i): grad at global",
            ControlVariateUpdate::GradientAtGlobal,
        ),
        ("option (ii): reuse", ControlVariateUpdate::Reuse),
    ] {
        let mut spec = ExperimentSpec::new(
            DatasetId::Cifar10,
            strategy,
            Algorithm::Scaffold { variant },
            args.gen_config(),
        );
        args.apply(&mut spec, 50, 1);
        let result = run_or_exit(&spec);
        println!(
            "  {}   volatility {:.4}",
            curve_line(name, &result.runs[0].curve()),
            result.runs[0].accuracy_volatility(2)
        );
        all.push(result);
    }

    println!("\n2. Server learning rate (CIFAR-10, p_k~Dir(0.5), FedAvg):");
    for server_lr in [1.0f32, 0.5, 0.25] {
        let mut spec = ExperimentSpec::new(
            DatasetId::Cifar10,
            strategy,
            Algorithm::FedAvg,
            args.gen_config(),
        );
        args.apply(&mut spec, 50, 1);
        spec.server_lr = server_lr;
        let result = run_or_exit(&spec);
        println!(
            "  {}   volatility {:.4}",
            curve_line(&format!("eta = {server_lr}"), &result.runs[0].curve()),
            result.runs[0].accuracy_volatility(2)
        );
        all.push(result);
    }

    println!("\n3. Drift amplification: local epochs under #C=2 vs IID (FedAvg):");
    for strategy in [Strategy::Homogeneous, Strategy::QuantityLabelSkew { k: 2 }] {
        for epochs in [1usize, 5, 20] {
            let mut spec = ExperimentSpec::new(
                DatasetId::Cifar10,
                strategy,
                Algorithm::FedAvg,
                args.gen_config(),
            );
            args.apply(&mut spec, 50, 1);
            spec.local_epochs = epochs;
            let result = run_or_exit(&spec);
            println!(
                "  {}",
                curve_line(
                    &format!("{} E={epochs}", strategy.label()),
                    &result.runs[0].curve()
                )
            );
            all.push(result);
        }
    }
    println!(
        "\nreading: under IID more local epochs only help; under label skew\n\
         they trade per-round progress against drift (Finding 5's mechanism)"
    );
    maybe_write_json(&args, &all);
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
