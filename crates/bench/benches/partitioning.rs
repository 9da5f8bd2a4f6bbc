//! Partitioning-strategy throughput: all six NIID-Bench strategies (plus
//! IID) over a 10k-sample dataset, skew analysis, and the two
//! standard-normal samplers at one cross-device party's draw count.

use niid_bench::harness::{black_box, Harness};
use niid_core::partition::{partition, Strategy};
use niid_core::skew::analyze;
use niid_data::{generate, generate_fcube, Dataset, DatasetId, GenConfig};
use niid_stats::{sample_standard_normal, sample_standard_normal_ziggurat, Pcg64};
use niid_tensor::Tensor;

fn labelled_dataset(n: usize, classes: usize) -> Dataset {
    let mut rng = Pcg64::new(7);
    Dataset::new(
        "bench",
        Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng),
        (0..n).map(|i| i % classes).collect(),
        classes,
        vec![4],
        None,
    )
}

fn main() {
    let mut h = Harness::from_args("partitioning");
    let d = labelled_dataset(10_000, 10);
    let strategies = [
        ("homogeneous", Strategy::Homogeneous),
        ("quantity_label_k2", Strategy::QuantityLabelSkew { k: 2 }),
        (
            "dirichlet_label_05",
            Strategy::DirichletLabelSkew { beta: 0.5 },
        ),
        ("quantity_dir_05", Strategy::QuantitySkew { beta: 0.5 }),
        ("noise_feature", Strategy::NoiseFeatureSkew { sigma: 0.1 }),
    ];
    for (name, strategy) in strategies {
        h.bench(&format!("partition_10k/{name}"), |bench| {
            let mut seed = 0u64;
            bench.iter(|| {
                seed += 1;
                black_box(partition(&d, 10, strategy, seed).expect("partition"))
            })
        });
    }

    let fcube = generate_fcube(10_000, 100, 9);
    h.bench("partition_fcube_10k", |bench| {
        bench.iter(|| black_box(partition(&fcube.train, 4, Strategy::FcubeSynthetic, 1)))
    });

    let fem = generate(
        DatasetId::Femnist,
        &GenConfig {
            max_train: 5_000,
            max_test: 10,
            image_side: 16,
            max_tabular_dim: 16,
            writers: 100,
            seed: 11,
        },
    );
    h.bench("partition_by_writer_5k", |bench| {
        bench.iter(|| black_box(partition(&fem.train, 10, Strategy::ByWriter, 1)))
    });

    // 864 draws: one `cross_device_topk8` party's feature noise.
    type Sampler = fn(&mut Pcg64) -> f64;
    let samplers: [(&str, Sampler); 2] = [
        ("box_muller", sample_standard_normal),
        ("ziggurat", sample_standard_normal_ziggurat),
    ];
    for (name, draw) in samplers {
        h.bench(&format!("normal_864/{name}"), |bench| {
            let mut rng = Pcg64::new(42);
            bench.iter(|| black_box((0..864).map(|_| draw(&mut rng)).sum::<f64>()))
        });
    }

    let p = partition(&d, 10, Strategy::DirichletLabelSkew { beta: 0.5 }, 3).unwrap();
    h.bench("skew_analyze_10k", |bench| {
        bench.iter(|| black_box(analyze(&d, &p)))
    });
}
