//! **NIID-Bench** — the primary contribution of *"Federated Learning on
//! Non-IID Data Silos: An Experimental Study"* (ICDE 2022), reproduced in
//! Rust.
//!
//! The paper's thesis: federated algorithms had only ever been evaluated
//! under one or two rigid non-IID partitions, so it proposes **six
//! comprehensive partitioning strategies** covering the three practical
//! skew families (label distribution skew, feature distribution skew,
//! quantity skew) and benchmarks FedAvg, FedProx, SCAFFOLD and FedNova
//! across them. This crate is that benchmark:
//!
//! * [`partition`] — the six strategies of §4 plus the homogeneous (IID)
//!   baseline, with hard invariants (disjointness, index validity) checked
//!   on every partition,
//! * [`skew`] — quantification of how skewed a partition actually is
//!   (per-party label histograms à la Figure 3, divergences from the
//!   global distribution, quantity Gini),
//! * [`recommend`] — Figure 6's decision tree as an executable API,
//! * [`experiment`] — the Table 3 experiment runner: dataset × partition ×
//!   algorithm × trials with mean±std reporting,
//! * [`leaderboard`] — ranks algorithms per setting, as the NIID-Bench
//!   repository's public leaderboard does,
//! * [`table`] — plain-text table rendering for the bench binaries.

#![forbid(unsafe_code)]

pub mod experiment;
pub mod leaderboard;
pub mod partition;
pub mod recommend;
pub mod skew;
pub mod table;

pub use experiment::{
    default_lr, default_model_for, metrics_server_addr, run_experiment, ExperimentResult,
    ExperimentSpec,
};
pub use leaderboard::Leaderboard;
pub use partition::{
    build_parties, dirichlet_min_required, partition, Partition, PartitionError, Strategy,
};
pub use recommend::{recommend, recommend_from_report, SkewKind};
pub use skew::{analyze, SkewReport};
pub use table::Table;
