//! The nine-dataset registry (Table 2 of the paper) and the scaled
//! synthetic generation entry point.

use crate::dataset::Split;
use crate::fcube::generate_fcube;
use crate::femnist::generate_writer_styled;
use crate::images::{ImageTask, ImageTaskSpec};
use crate::tabular::{TabularTask, TabularTaskSpec};
use niid_stats::{derive_seed, Pcg64};

/// The datasets of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// MNIST handwritten digits (easy image task).
    Mnist,
    /// Fashion-MNIST (moderate image task).
    Fmnist,
    /// CIFAR-10 (hard image task).
    Cifar10,
    /// SVHN street-view digits (moderate color image task).
    Svhn,
    /// adult census income (imbalanced binary tabular).
    Adult,
    /// rcv1 text categorization (high-dimensional sparse binary tabular).
    Rcv1,
    /// covtype forest cover (non-linear binary tabular).
    Covtype,
    /// FCUBE (the paper's synthetic feature-skew dataset).
    Fcube,
    /// FEMNIST (writer-partitioned digits, real-world feature skew).
    Femnist,
}

/// The statistics the paper reports for each dataset (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperStats {
    /// Training instances.
    pub train_instances: usize,
    /// Test instances.
    pub test_instances: usize,
    /// Feature count.
    pub features: usize,
    /// Class count.
    pub classes: usize,
}

impl DatasetId {
    /// All nine datasets in the paper's Table 2 order.
    pub fn all() -> [DatasetId; 9] {
        [
            DatasetId::Mnist,
            DatasetId::Fmnist,
            DatasetId::Cifar10,
            DatasetId::Svhn,
            DatasetId::Adult,
            DatasetId::Rcv1,
            DatasetId::Covtype,
            DatasetId::Fcube,
            DatasetId::Femnist,
        ]
    }

    /// Lower-case dataset name, matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Mnist => "mnist",
            DatasetId::Fmnist => "fmnist",
            DatasetId::Cifar10 => "cifar10",
            DatasetId::Svhn => "svhn",
            DatasetId::Adult => "adult",
            DatasetId::Rcv1 => "rcv1",
            DatasetId::Covtype => "covtype",
            DatasetId::Fcube => "fcube",
            DatasetId::Femnist => "femnist",
        }
    }

    /// The real dataset's statistics (paper Table 2).
    pub fn paper_stats(&self) -> PaperStats {
        match self {
            DatasetId::Mnist => PaperStats {
                train_instances: 60_000,
                test_instances: 10_000,
                features: 784,
                classes: 10,
            },
            DatasetId::Fmnist => PaperStats {
                train_instances: 60_000,
                test_instances: 10_000,
                features: 784,
                classes: 10,
            },
            DatasetId::Cifar10 => PaperStats {
                train_instances: 50_000,
                test_instances: 10_000,
                features: 1024,
                classes: 10,
            },
            DatasetId::Svhn => PaperStats {
                train_instances: 73_257,
                test_instances: 26_032,
                features: 1024,
                classes: 10,
            },
            DatasetId::Adult => PaperStats {
                train_instances: 32_561,
                test_instances: 16_281,
                features: 123,
                classes: 2,
            },
            DatasetId::Rcv1 => PaperStats {
                train_instances: 15_182,
                test_instances: 5_060,
                features: 47_236,
                classes: 2,
            },
            DatasetId::Covtype => PaperStats {
                train_instances: 435_759,
                test_instances: 145_253,
                features: 54,
                classes: 2,
            },
            DatasetId::Fcube => PaperStats {
                train_instances: 4_000,
                test_instances: 1_000,
                features: 3,
                classes: 2,
            },
            DatasetId::Femnist => PaperStats {
                train_instances: 341_873,
                test_instances: 40_832,
                features: 784,
                classes: 10,
            },
        }
    }

    /// True for the six image datasets (which train the CNN; the other
    /// three train the MLP).
    pub fn is_image(&self) -> bool {
        matches!(
            self,
            DatasetId::Mnist
                | DatasetId::Fmnist
                | DatasetId::Cifar10
                | DatasetId::Svhn
                | DatasetId::Femnist
        )
    }
}

/// How large (and how high-resolution) to generate the synthetic stand-ins.
///
/// The paper's full sizes are CPU-hostile for a pure-Rust reproduction, so
/// experiments default to [`GenConfig::bench`] and can opt into
/// [`GenConfig::paper`]. Relative difficulty between datasets is preserved
/// at every scale because it lives in the task specs, not the sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Cap on training instances per dataset.
    pub max_train: usize,
    /// Cap on test instances per dataset.
    pub max_test: usize,
    /// Side length for image datasets (>= 16 for the LeNet CNN).
    pub image_side: usize,
    /// Cap on tabular feature dimension (rcv1's 47k is capped here).
    pub max_tabular_dim: usize,
    /// Number of distinct writers for FEMNIST.
    pub writers: usize,
    /// Master seed; every dataset derives its own stream from it.
    pub seed: u64,
}

impl GenConfig {
    /// Tiny profile for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            max_train: 300,
            max_test: 120,
            image_side: 16,
            max_tabular_dim: 32,
            writers: 12,
            seed,
        }
    }

    /// Default experiment profile (used by the benches/EXPERIMENTS.md).
    pub fn bench(seed: u64) -> Self {
        Self {
            max_train: 2_000,
            max_test: 600,
            image_side: 16,
            max_tabular_dim: 64,
            writers: 40,
            seed,
        }
    }

    /// Full paper-scale profile (Table 2 sizes, 28/32-pixel images,
    /// uncapped tabular dims). Expect very long runtimes on CPU.
    pub fn paper(seed: u64) -> Self {
        Self {
            max_train: usize::MAX,
            max_test: usize::MAX,
            image_side: 28,
            max_tabular_dim: usize::MAX,
            writers: 3_500, // LEAF FEMNIST has ~3.5k writers
            seed,
        }
    }

    fn train_n(&self, id: DatasetId) -> usize {
        self.max_train.min(id.paper_stats().train_instances)
    }

    fn test_n(&self, id: DatasetId) -> usize {
        self.max_test.min(id.paper_stats().test_instances)
    }
}

fn image_spec(id: DatasetId, cfg: &GenConfig) -> ImageTaskSpec {
    let side = cfg.image_side;
    match id {
        DatasetId::Mnist | DatasetId::Femnist => ImageTaskSpec {
            channels: 1,
            side,
            classes: 10,
            modes: 1,
            class_separation: 0.90,
            pixel_noise: 0.25,
            deformation: 0.10,
            label_noise: 0.0,
        },
        DatasetId::Fmnist => ImageTaskSpec {
            channels: 1,
            side,
            classes: 10,
            modes: 2,
            class_separation: 0.70,
            pixel_noise: 0.35,
            deformation: 0.15,
            label_noise: 0.10,
        },
        DatasetId::Svhn => ImageTaskSpec {
            channels: 3,
            side,
            classes: 10,
            modes: 2,
            class_separation: 0.55,
            pixel_noise: 0.45,
            deformation: 0.20,
            label_noise: 0.13,
        },
        DatasetId::Cifar10 => ImageTaskSpec {
            channels: 3,
            side,
            classes: 10,
            modes: 3,
            class_separation: 0.35,
            pixel_noise: 0.60,
            deformation: 0.30,
            label_noise: 0.32,
        },
        _ => unreachable!("image_spec called for non-image dataset"),
    }
}

fn tabular_spec(id: DatasetId, cfg: &GenConfig) -> TabularTaskSpec {
    let stats = |d: DatasetId| d.paper_stats().features;
    match id {
        // adult: one-hot-ish sparse features, strong class imbalance
        // (~76/24 like the real dataset), non-trivial noise ceiling.
        DatasetId::Adult => TabularTaskSpec {
            dim: stats(DatasetId::Adult).min(cfg.max_tabular_dim),
            sparsity: 0.3,
            interactions: 10,
            interaction_weight: 0.3,
            bias: 0.7,
            margin_noise: 0.4,
        },
        // rcv1: extremely high-dimensional and sparse, nearly balanced,
        // close-to-linear concept (real rcv1 is near linearly separable).
        DatasetId::Rcv1 => TabularTaskSpec {
            dim: stats(DatasetId::Rcv1).min(cfg.max_tabular_dim),
            sparsity: 0.9,
            interactions: 0,
            interaction_weight: 0.0,
            bias: 0.05,
            margin_noise: 0.15,
        },
        // covtype: dense and interaction-dominated (non-linear concept).
        DatasetId::Covtype => TabularTaskSpec {
            dim: stats(DatasetId::Covtype).min(cfg.max_tabular_dim),
            sparsity: 0.0,
            interactions: 40,
            interaction_weight: 0.6,
            bias: 0.2,
            margin_noise: 0.2,
        },
        _ => unreachable!("tabular_spec called for non-tabular dataset"),
    }
}

/// Generate the synthetic stand-in for a dataset at the configured scale.
///
/// Prototypes/teachers derive from `cfg.seed` and the dataset identity, so
/// the same config always produces the same data and the train and test
/// splits always share a distribution. Rows are filled on the kernel pool
/// and are bit-identical at any thread count.
pub fn generate(id: DatasetId, cfg: &GenConfig) -> Split {
    let _sp = niid_prof::span!("data.generate");
    let dataset_seed = derive_seed(cfg.seed, id as u64 + 1);
    let train_n = cfg.train_n(id);
    let test_n = cfg.test_n(id);
    match id {
        DatasetId::Fcube => generate_fcube(train_n, test_n, dataset_seed),
        DatasetId::Femnist => {
            let task = ImageTask::new(image_spec(id, cfg), dataset_seed);
            let train = generate_writer_styled(
                &task,
                train_n,
                cfg.writers,
                0,
                "femnist-train",
                derive_seed(dataset_seed, 1),
            );
            // Test writers are disjoint from training writers, as in LEAF's
            // unseen-writer evaluation.
            let test_writers = (cfg.writers / 4).max(1);
            let test = generate_writer_styled(
                &task,
                test_n,
                test_writers,
                cfg.writers as u32,
                "femnist-test",
                derive_seed(dataset_seed, 2),
            );
            Split { train, test }
        }
        DatasetId::Mnist | DatasetId::Fmnist | DatasetId::Cifar10 | DatasetId::Svhn => {
            let task = ImageTask::new(image_spec(id, cfg), dataset_seed);
            let mut rng_train = Pcg64::new(derive_seed(dataset_seed, 1));
            let mut rng_test = Pcg64::new(derive_seed(dataset_seed, 2));
            Split {
                train: task.sample(train_n, &format!("{}-train", id.name()), &mut rng_train),
                test: task.sample(test_n, &format!("{}-test", id.name()), &mut rng_test),
            }
        }
        DatasetId::Adult | DatasetId::Rcv1 | DatasetId::Covtype => {
            let task = TabularTask::new(tabular_spec(id, cfg), dataset_seed);
            let mut rng_train = Pcg64::new(derive_seed(dataset_seed, 1));
            let mut rng_test = Pcg64::new(derive_seed(dataset_seed, 2));
            Split {
                train: task.sample(train_n, &format!("{}-train", id.name()), &mut rng_train),
                test: task.sample(test_n, &format!("{}-test", id.name()), &mut rng_test),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stats_match_table2() {
        let s = DatasetId::Rcv1.paper_stats();
        assert_eq!(s.train_instances, 15_182);
        assert_eq!(s.features, 47_236);
        assert_eq!(DatasetId::Femnist.paper_stats().train_instances, 341_873);
        assert_eq!(DatasetId::Fcube.paper_stats().features, 3);
    }

    #[test]
    fn all_nine_generate_at_tiny_scale() {
        let cfg = GenConfig::tiny(42);
        for id in DatasetId::all() {
            let split = generate(id, &cfg);
            assert!(!split.train.is_empty() && !split.test.is_empty(), "{id:?}");
            assert_eq!(
                split.train.num_classes,
                id.paper_stats().classes,
                "{id:?} class count"
            );
            assert_eq!(split.train.dim(), split.test.dim(), "{id:?} dim mismatch");
            assert!(!split.train.features.has_non_finite(), "{id:?} non-finite");
        }
    }

    #[test]
    fn caps_apply() {
        let cfg = GenConfig::tiny(1);
        let split = generate(DatasetId::Covtype, &cfg);
        assert_eq!(split.train.len(), 300);
        assert_eq!(split.test.len(), 120);
        assert_eq!(split.train.dim(), 32, "covtype dim capped at 32");
        // FCUBE is smaller than the cap would allow and keeps its own size.
        let f = generate(DatasetId::Fcube, &cfg);
        assert_eq!(f.train.dim(), 3);
    }

    #[test]
    fn image_datasets_flag() {
        assert!(DatasetId::Cifar10.is_image());
        assert!(DatasetId::Femnist.is_image());
        assert!(!DatasetId::Adult.is_image());
        assert!(!DatasetId::Fcube.is_image());
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let cfg = GenConfig::tiny(9);
        let a = generate(DatasetId::Mnist, &cfg);
        let b = generate(DatasetId::Mnist, &cfg);
        assert_eq!(a.train.features.as_slice(), b.train.features.as_slice());
        let cfg2 = GenConfig::tiny(10);
        let c = generate(DatasetId::Mnist, &cfg2);
        assert_ne!(a.train.features.as_slice(), c.train.features.as_slice());
    }

    #[test]
    fn femnist_test_writers_disjoint_from_train() {
        let cfg = GenConfig::tiny(3);
        let split = generate(DatasetId::Femnist, &cfg);
        let train_ids = split.train.writer_ids.as_ref().unwrap();
        let test_ids = split.test.writer_ids.as_ref().unwrap();
        let max_train = *train_ids.iter().max().unwrap();
        let min_test = *test_ids.iter().min().unwrap();
        assert!(min_test > max_train, "writer populations overlap");
    }

    #[test]
    fn adult_is_imbalanced_rcv1_is_balanced() {
        let cfg = GenConfig::bench(5);
        let adult = generate(DatasetId::Adult, &cfg);
        let h = adult.train.label_histogram();
        let major = h[0].max(h[1]) as f64 / adult.train.len() as f64;
        assert!(major > 0.65, "adult majority fraction {major}");

        let rcv1 = generate(DatasetId::Rcv1, &cfg);
        let h = rcv1.train.label_histogram();
        let major = h[0].max(h[1]) as f64 / rcv1.train.len() as f64;
        assert!(major < 0.6, "rcv1 majority fraction {major}");
    }
}
