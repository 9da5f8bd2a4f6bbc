//! # niid-bench-rs
//!
//! A from-scratch Rust reproduction of **NIID-Bench** — *"Federated
//! Learning on Non-IID Data Silos: An Experimental Study"* (ICDE 2022).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`tensor`] — dense f32 tensors, GEMM, im2col convolution, pooling,
//! * [`stats`] — deterministic RNG, Gaussian/Gamma/Dirichlet sampling,
//!   distribution distances,
//! * [`nn`] — layers with hand-derived backprop, SGD, and the paper's
//!   CNN/MLP/VGG-9/ResNet architectures,
//! * [`data`] — the nine-dataset registry with scaled synthetic stand-ins,
//! * [`fl`] — the federated engine: FedAvg, FedProx, SCAFFOLD, FedNova,
//! * [`core`] — NIID-Bench itself: the six partitioning strategies, skew
//!   quantification, the Figure 6 decision tree, the experiment runner and
//!   leaderboard,
//! * [`json`] — the serde-free JSON layer used for results and round traces,
//! * [`metrics`] — the training-dynamics metrics registry: counters, gauges,
//!   histograms, JSONL / Prometheus-text / live-HTTP exposition,
//! * [`prof`] — the always-compiled-in span profiler: scoped `span!`
//!   guards, per-thread ring buffers, flame aggregation and Chrome
//!   trace-event (Perfetto) export.
//!
//! See `examples/quickstart.rs` for a three-step end-to-end run.

#![forbid(unsafe_code)]

pub use niid_core as core;
pub use niid_data as data;
pub use niid_fl as fl;
pub use niid_json as json;
pub use niid_metrics as metrics;
pub use niid_nn as nn;
pub use niid_prof as prof;
pub use niid_stats as stats;
pub use niid_tensor as tensor;
