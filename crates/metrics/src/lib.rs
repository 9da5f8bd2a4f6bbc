//! # niid-metrics
//!
//! A lock-cheap metrics layer for the NIID-Bench reproduction, built on
//! nothing but `std` (the workspace is fully offline).
//!
//! The design follows the classic registry pattern: a [`Registry`] owns
//! *families* (one per metric name), each family owns labelled *series*,
//! and each series is a single atomic cell — [`Counter`] (monotonic
//! `u64`), [`Gauge`] (bit-cast `f64`), or [`Histogram`] (fixed bucket
//! bounds with atomic bucket counts). Callers look a series up once —
//! taking a short mutex — and then cache the returned `Arc` handle, so
//! the hot path is a single relaxed atomic op.
//!
//! Three exposition paths share one [`registry::FamilySnapshot`] view:
//!
//! * [`expo::render_prometheus`] — Prometheus text format 0.0.4,
//! * [`expo::JsonlExporter`] — per-round JSONL series files written
//!   through `niid-json` into a [`JsonlFile`], the one JSONL file type
//!   (the trace sink writes through it too),
//! * [`http::MetricsServer`] — an optional live `/metrics` + `/healthz`
//!   endpoint on `std::net::TcpListener`, served from a background
//!   thread.
//!
//! The [`shutdown`] module is the small "flush on Ctrl-C" guard that
//! keeps partial runs' JSONL valid: every [`JsonlFile`] registers itself
//! with it on opening, and only the `exp` binary installs the watcher.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod deadline;
pub mod expo;
pub mod http;
pub mod registry;
pub mod shutdown;

pub use deadline::Deadline;
pub use expo::{render_prometheus, JsonlExporter, JsonlFile};
pub use http::MetricsServer;
pub use registry::{
    global_registry, Counter, FamilySnapshot, Gauge, Histogram, MetricKind, Registry, Sample,
    SampleValue,
};
pub use shutdown::{flush_all, install_signal_flush, Flush};
