//! Statistical substrate for the NIID-Bench reproduction.
//!
//! Federated partitioning in the paper is driven by three random processes:
//!
//! * Dirichlet allocation (`p_k ~ Dir(β)` for distribution-based label
//!   imbalance, `q ~ Dir(β)` for quantity skew),
//! * Gaussian feature noise (`x̂ ~ Gau(σ · i/N)` for noise-based feature
//!   imbalance),
//! * uniform assignment/shuffling for the quantity-based label imbalance
//!   (`#C = k`) strategy.
//!
//! This crate implements those samplers from scratch on top of a small,
//! fully deterministic RNG, along with the summary statistics and
//! distribution-distance metrics used to *quantify* how skewed a partition
//! actually is (label-histogram divergences, quantity Gini coefficient).
//!
//! Everything is seeded explicitly: the same `u64` seed always yields the
//! same partition, the same synthetic dataset, and the same training run.

pub mod describe;
pub mod distance;
pub mod rng;
pub mod sample;

pub use describe::Summary;
pub use distance::{emd_1d, gini, js_divergence, kl_divergence, total_variation};
pub use rng::{derive_seed, Pcg64, SeedStream};
pub use sample::{
    sample_categorical, sample_dirichlet, sample_gamma, sample_standard_normal,
    sample_standard_normal_ziggurat, Dirichlet, Gaussian, STANDARD_NORMAL_DRAWS,
};
