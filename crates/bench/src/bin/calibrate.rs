//! Timing calibration: how long does one federated round cost per dataset
//! at each scale? Used to size the experiment defaults; not part of the
//! paper's tables.

use niid_bench::{maybe_write_profile, print_header, run_or_exit, Args};
use niid_core::experiment::ExperimentSpec;
use niid_core::partition::Strategy;
use niid_data::DatasetId;
use niid_fl::Algorithm;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    print_header("calibration: seconds per federated round", &args);
    for dataset in [
        DatasetId::Mnist,
        DatasetId::Cifar10,
        DatasetId::Adult,
        DatasetId::Fcube,
    ] {
        let mut spec = ExperimentSpec::new(
            dataset,
            if dataset == DatasetId::Fcube {
                Strategy::FcubeSynthetic
            } else {
                Strategy::Homogeneous
            },
            Algorithm::FedAvg,
            args.gen_config(),
        );
        args.apply(&mut spec, 50, 1);
        spec.rounds = 2;
        let t = Instant::now();
        let result = run_or_exit(&spec);
        let secs = t.elapsed().as_secs_f64();
        println!(
            "{:<10} {:>6.2}s for {} rounds ({:.2}s/round), acc {:.3}",
            dataset.name(),
            secs,
            spec.rounds,
            secs / spec.rounds as f64,
            result.mean_accuracy
        );
    }
    maybe_write_profile(&args);
}
