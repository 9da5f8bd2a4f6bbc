//! Figure 12: scalability / partial participation — 100 parties with
//! sample fraction 0.1 on CIFAR-10 across the six partitions. Training is
//! unstable for every method, and SCAFFOLD collapses because each party's
//! control variate is refreshed too rarely (Finding 8).

use niid_bench::{
    curve_line, maybe_print_metrics_summary, maybe_print_trace_summary, maybe_write_json,
    maybe_write_profile, print_header, run_or_exit, Args, Scale,
};
use niid_core::experiment::{ExperimentResult, ExperimentSpec};
use niid_core::partition::Strategy;
use niid_data::DatasetId;
use niid_fl::Algorithm;

fn main() {
    let args = Args::parse();
    print_header(
        "Figure 12: 100 parties, sample fraction 0.1 (CIFAR-10)",
        &args,
    );
    // 100 parties need enough data for 100 non-trivial silos; the quick
    // scale drops to 20 parties (documented deviation).
    let (parties, fraction) = match args.scale {
        Scale::Quick => (20usize, 0.1f64),
        _ => (100, 0.1),
    };
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
            args.apply(&mut spec, 100, 1);
            spec.n_parties = parties;
            spec.sample_fraction = fraction;
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
        "expected shape (paper §5.6 / Finding 8): curves are unstable under\n\
         partial participation; SCAFFOLD underperforms on every partition"
    );
    maybe_write_json(&args, &all);
    maybe_print_trace_summary(&args);
    maybe_print_metrics_summary(&args);
    maybe_write_profile(&args);
}
