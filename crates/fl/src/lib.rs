//! Federated-learning engine for the NIID-Bench reproduction.
//!
//! Implements the paper's Algorithm 1 (FedAvg / FedProx / FedNova) and
//! Algorithm 2 (SCAFFOLD) over the `niid-nn` models and `niid-data`
//! datasets:
//!
//! * a [`Party`] holds one silo's local dataset,
//! * [`local::local_train`] runs `E` local epochs of mini-batch SGD with
//!   the algorithm-specific gradient corrections (FedProx's proximal term,
//!   SCAFFOLD's control variates) and returns the update `Δwᵢ` plus the
//!   local step count `τᵢ`,
//! * [`aggregate`] implements the three server update rules (plain
//!   weighted averaging, FedNova's normalized averaging, SCAFFOLD's
//!   control-variate maintenance),
//! * [`engine::FedSim`] drives rounds end-to-end: client sampling
//!   (partial participation, §5.6), parallel local training across
//!   parties, aggregation, per-round evaluation (training curves), and
//!   communication accounting (SCAFFOLD's 2x payload is visible in the
//!   byte counters).
//!
//! Determinism: every stochastic component (party sampling, per-party
//! batch shuffling) draws from a seed derived from the run seed, the round
//! index and the party id — results are bit-identical regardless of how
//! many threads execute the round.
//!
//! Fault tolerance: a [`fault::FaultPlan`] injects deterministic crashes,
//! drops and delays; the engine isolates party failures (panics included),
//! aggregates the surviving quorum, and checkpoints round-granular state
//! ([`checkpoint`]) so an interrupted run resumes bit-for-bit.
//!
//! Every `unsafe` block and `unsafe impl` states the invariant it relies
//! on in a `// SAFETY:` comment; the lint below keeps it that way.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aggregate;
pub mod algorithm;
pub mod checkpoint;
pub mod comm;
pub mod compress;
pub mod dynamics;
pub mod engine;
pub mod error;
pub mod fault;
pub mod local;
pub mod metrics;
pub mod net;
pub mod party;
pub mod trace;
pub mod transport;
pub(crate) mod wire;

pub use algorithm::{Algorithm, ControlVariateUpdate};
pub use checkpoint::{Checkpoint, CheckpointPolicy};
pub use compress::{DecodedUpdate, UpdateCodec};
pub use dynamics::{DynamicsRecorder, DynamicsSummary, RoundObservation, RoundObserver};
pub use engine::{BufferPolicy, FedSim, FlConfig, RunOptions, Start};
pub use error::FlError;
pub use fault::{FailureKind, FaultAction, FaultPlan, PartyFailure};
pub use metrics::{RoundRecord, RunResult};
pub use net::{
    config_fingerprint, run_party_client, Coordinator, NetConfig, NetError, PartyClientConfig,
    PartyHost, ServerAddr,
};
pub use party::{residency, OwnedParty, Party, PartyProvider, PartyRef, ResidentProvider};
pub use trace::{JsonlSink, MemorySink, NoopSink, TraceEvent, TraceSink, TraceSummary};
pub use transport::{PartyOutcome, TrainedParty};
