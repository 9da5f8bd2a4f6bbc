//! Cross-device federated learning: hundreds of small devices, only a
//! handful participating each round (the paper's §5.6 scalability
//! setting). Runs the cohort-on-demand engine path — `lazy_parties`
//! regenerates each sampled device's shard deterministically from the
//! partition seed, so peak party-resident memory tracks the cohort, not
//! the population. For the full sweep up to one million devices see
//! `cargo run --release -p niid-bench --bin exp -- scale`.
//!
//! ```sh
//! cargo run --release --example cross_device
//! ```

use niid_bench_rs::core::experiment::{run_experiment, ExperimentSpec};
use niid_bench_rs::core::partition::Strategy;
use niid_bench_rs::data::{DatasetId, GenConfig};
use niid_bench_rs::fl::{residency, Algorithm};

fn main() {
    let gen = GenConfig::bench(11);
    let mut spec = ExperimentSpec::new(
        DatasetId::Rcv1,
        Strategy::NoiseFeatureSkew { sigma: 0.1 },
        Algorithm::FedAvg,
        gen,
    );
    spec.n_parties = 500; // hundreds of devices, ~4 samples each...
    spec.sample_fraction = 0.02; // ...but only 10 respond per round
    spec.lazy_parties = true; // materialize sampled shards on demand
    spec.rounds = 10;
    spec.local_epochs = 2;
    spec.batch_size = 4;

    residency::reset_peak();
    let result = run_experiment(&spec).expect("run failed");
    println!("cross-device run: 500 devices, 2% sampled per round");
    for r in &result.runs[0].rounds {
        println!(
            "round {:>2}: {} participants, local loss {:.3}, accuracy {}",
            r.round,
            r.participants,
            r.avg_local_loss,
            r.test_accuracy
                .map(|a| format!("{:.1}%", a * 100.0))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "volatility (mean |round-to-round accuracy change|): {:.4}",
        result.runs[0].accuracy_volatility(2)
    );
    println!(
        "peak party-resident memory: {} B (cohort-sized, not population-sized)",
        residency::peak_bytes()
    );
    println!(
        "paper Finding 8: partial participation makes curves unstable because\n\
         each round averages a different mixture of local distributions"
    );
}
