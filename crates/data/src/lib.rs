//! Dataset substrate for the NIID-Bench reproduction.
//!
//! The paper evaluates on nine public datasets (Table 2): MNIST, FMNIST,
//! CIFAR-10, SVHN, adult, rcv1, covtype, FCUBE and FEMNIST. Real downloads
//! are unavailable in this environment, so — per the substitution policy in
//! DESIGN.md — this crate generates **statistically-shaped synthetic
//! equivalents**: class-conditional mixtures whose feature count, class
//! count, class balance, sparsity and *difficulty profile* mirror each
//! dataset, at a configurable scale. FCUBE is the exception: it was already
//! synthetic in the paper and is generated exactly as specified.
//!
//! What the substitution preserves: every experiment in the paper measures
//! how *partition-induced distribution shift* degrades federated training.
//! That phenomenon depends on the joint label/feature/quantity distribution
//! across parties and on local-update drift, both of which these generators
//! exercise end-to-end. Absolute accuracies differ from the paper; the
//! orderings and degradation patterns are what the benchmark reproduces.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod fcube;
pub mod femnist;
pub mod images;
pub mod registry;
mod rows;
pub mod tabular;
pub mod transform;

pub use dataset::{Dataset, Split};
pub use fcube::{fcube_octant, generate_fcube};
pub use registry::{generate, DatasetId, GenConfig, PaperStats};
pub use transform::add_gaussian_noise;
