//! Cross-crate guarantees of the cohort-on-demand engine path: a lazy
//! [`LazyPartition`] provider must be observationally equivalent to a
//! resident party vector, bit-identical across thread counts, and its
//! peak party residency must track the sampled cohort, never the
//! population.

use std::sync::Arc;

use niid_bench_rs::core::partition::{LazyPartition, Strategy};
use niid_bench_rs::data::Dataset;
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::{
    residency, Algorithm, ControlVariateUpdate, Party, PartyProvider, PartyRef, ResidentProvider,
};
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::Tensor;

const DIM: usize = 4;

/// Linearly separable two-class task in `DIM` dimensions.
fn synth(rows: usize, seed: u64, name: &str) -> Dataset {
    let mut rng = Pcg64::new(seed);
    let x = Tensor::rand_uniform(&[rows, DIM], -1.0, 1.0, &mut rng);
    let labels = (0..rows)
        .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
        .collect();
    Dataset::new(name, x, labels, 2, vec![DIM], None)
}

fn config(algorithm: Algorithm, sample_fraction: f64, threads: usize, seed: u64) -> FlConfig {
    FlConfig {
        algorithm,
        rounds: 3,
        local: LocalConfig {
            epochs: 2,
            batch_size: 4,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 64,
        eval_every: 1,
        server_lr: 1.0,
        seed,
        threads,
        min_quorum: 0.5,
        fault_plan: None,
        checkpoint: None,
        codec: niid_fl::UpdateCodec::DenseF32,
    }
}

fn lazy_sim(n_parties: usize, cfg: FlConfig, seed: u64) -> FedSim {
    let train = Arc::new(synth(n_parties * 4, seed, "lazy-train"));
    let test = synth(200, seed ^ 0x7E57, "lazy-test");
    let provider = LazyPartition::new(train, n_parties, Strategy::Homogeneous, seed)
        .expect("homogeneous lazy partition");
    FedSim::with_provider(
        ModelSpec::Mlp { in_dim: DIM },
        Box::new(provider),
        test,
        cfg,
    )
    .expect("valid lazy config")
}

/// The tentpole determinism criterion: a 1000-party lazy run produces a
/// bit-identical record stream at any thread count — party sampling,
/// on-demand materialization and hierarchical reduction are all
/// schedule-invariant.
#[test]
fn lazy_cohort_run_bit_identical_across_thread_counts() {
    let n = 1000;
    let run = |threads: usize| {
        lazy_sim(n, config(Algorithm::FedAvg, 0.01, threads, 0xC0DE), 0x51)
            .run()
            .unwrap()
    };
    let base = run(1);
    assert!(
        base.rounds.iter().all(|r| r.participants == 10),
        "expected a 10-party cohort out of {n}"
    );
    let got = run(4);
    assert_eq!(got.final_accuracy, base.final_accuracy);
    assert_eq!(got.best_accuracy, base.best_accuracy);
    for (a, b) in base.rounds.iter().zip(&got.rounds) {
        assert_eq!(a.participants, b.participants, "round {}", a.round);
        assert_eq!(a.test_accuracy, b.test_accuracy, "round {}", a.round);
        assert_eq!(a.avg_local_loss, b.avg_local_loss, "round {}", a.round);
    }
}

/// Store equivalence: training against the on-demand provider must be
/// bit-identical to training against the same parties materialized up
/// front into a resident vector. SCAFFOLD makes this the strictest
/// comparison available — control variates for never-selected parties
/// must behave as implicit zeros in both stores.
#[test]
fn lazy_provider_matches_resident_store_bit_for_bit() {
    let n = 60;
    let seed = 0x5EED;
    let train = Arc::new(synth(n * 4, seed, "twin-train"));
    let test = synth(200, seed ^ 0x7E57, "twin-test");
    let provider = LazyPartition::new(Arc::clone(&train), n, Strategy::Homogeneous, seed)
        .expect("homogeneous lazy partition");
    let resident: Vec<_> = (0..n).map(|id| provider.materialize(id)).collect();

    let cfg = || {
        config(
            Algorithm::Scaffold {
                variant: ControlVariateUpdate::Reuse,
            },
            0.25,
            3,
            0xF00D,
        )
    };
    let lazy = FedSim::with_provider(
        ModelSpec::Mlp { in_dim: DIM },
        Box::new(provider),
        test.clone(),
        cfg(),
    )
    .unwrap()
    .run()
    .unwrap();
    let dense = FedSim::new(ModelSpec::Mlp { in_dim: DIM }, resident, test, cfg())
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(lazy.final_accuracy, dense.final_accuracy);
    assert_eq!(lazy.total_bytes, dense.total_bytes);
    for (a, b) in lazy.rounds.iter().zip(&dense.rounds) {
        assert_eq!(a.participants, b.participants, "round {}", a.round);
        assert_eq!(a.test_accuracy, b.test_accuracy, "round {}", a.round);
        assert_eq!(a.avg_local_loss, b.avg_local_loss, "round {}", a.round);
    }
}

/// The memory contract of the refactor: peak party-resident bytes scale
/// with the sampled cohort, not the population. 20k parties whose full
/// data spans ~2 MB must train with a resident set orders of magnitude
/// below that when only 10 parties participate per round.
#[test]
fn lazy_residency_peak_tracks_cohort_not_population() {
    let n = 20_000;
    let sim = lazy_sim(n, config(Algorithm::FedAvg, 0.0005, 2, 0xBEEF), 0x77);
    residency::reset_peak();
    let result = sim.run().unwrap();
    let peak = residency::peak_bytes();

    assert!(
        result.rounds.iter().all(|r| r.participants == 10),
        "expected a 10-party cohort out of {n}"
    );
    // Every party holds 4 rows of DIM f32 features plus 4 usize labels.
    let party_bytes = 4 * DIM * std::mem::size_of::<f32>() + 4 * std::mem::size_of::<usize>();
    let population_bytes = n * party_bytes;
    assert!(peak >= party_bytes, "gauge never saw a materialized party");
    // The bound is deliberately loose (other tests in this binary run
    // lazy simulations concurrently against the same process-wide gauge)
    // but still population-scale-tight: 2% of the full dataset.
    assert!(
        peak < population_bytes / 50,
        "peak residency {peak} B is population-scale ({population_bytes} B total)"
    );
}

/// One party source, two lending modes: a resident provider lends the
/// party it holds (no copy, so nothing for the residency gauge), while a
/// lazy provider materializes and owns one, charged to the gauge until
/// the handle drops.
#[test]
fn resident_parties_are_lent_and_lazy_parties_are_charged() {
    let parties: Vec<Party> = (0..3)
        .map(|id| Party::new(id, synth(4, 0x1E0 + id as u64, "held")))
        .collect();
    let held_at = parties[2].data.features.as_slice().as_ptr();
    let resident = ResidentProvider::new(parties);
    match resident.party(2) {
        PartyRef::Borrowed(p) => assert_eq!(
            p.data.features.as_slice().as_ptr(),
            held_at,
            "lent a copy, not the held party"
        ),
        PartyRef::Owned(_) => panic!("a resident party was materialized"),
    }

    let lazy = LazyPartition::new(
        Arc::new(synth(40, 0x1E1, "lazy")),
        10,
        Strategy::Homogeneous,
        3,
    )
    .expect("homogeneous lazy partition");
    let party = lazy.party(7);
    assert!(matches!(party, PartyRef::Owned(_)), "a lazy party is owned");
    let bytes = party.data.features.numel() * std::mem::size_of::<f32>()
        + party.data.labels.len() * std::mem::size_of::<usize>();
    // Other tests in this binary move the process-wide gauge concurrently,
    // so only the lower bound is exact.
    assert!(
        residency::current_bytes() >= bytes,
        "owned party not charged"
    );
}
