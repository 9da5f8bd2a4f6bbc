//! The federated simulation engine: rounds, sampling, parallel local
//! training, aggregation, evaluation.

use crate::aggregate::{
    average_buffers, fednova_average_updates, scaffold_update_c, weighted_average_updates,
    UpdateRef,
};
use crate::algorithm::Algorithm;
use crate::checkpoint::{Checkpoint, CheckpointPolicy};
use crate::comm::RoundTraffic;
use crate::compress::{DecodedUpdate, UpdateCodec, SEED_COMPRESS_BASE};
use crate::dynamics::{RoundObservation, RoundObserver};
use crate::error::FlError;
use crate::fault::{FailureKind, FaultAction, FaultPlan, PartyFailure, PartyOutcome};
use crate::local::{local_train, LocalConfig, LocalOutcome, ScaffoldCtx};
use crate::metrics::{RoundRecord, RunResult};
use crate::net::{Coordinator, NetError, RemoteOutcome, WireUpdate};
use crate::party::{OwnedParty, Party, PartyProvider, PartyRef};
use crate::trace::{NoopSink, TraceEvent, TraceSink};
use niid_data::Dataset;
use niid_nn::ModelSpec;
use niid_stats::{derive_seed, Pcg64};
use niid_tensor::{active_kernel, configured_threads, set_thread_budget, with_forced_kernel};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How the server treats BatchNorm running statistics at aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPolicy {
    /// Weighted-average the statistics like any parameter (plain FedAvg of
    /// the full state; the setting whose instability Finding 7 reports).
    Average,
    /// Leave the server statistics untouched — "only average the learned
    /// parameters but leave the statistics alone" (§6.2 mitigation).
    KeepGlobal,
}

/// Full configuration of a federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlConfig {
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// Communication rounds `T`.
    pub rounds: usize,
    /// Local SGD hyper-parameters (shared by all parties).
    pub local: LocalConfig,
    /// Fraction of parties sampled per round (paper default 1.0; §5.6 uses
    /// 0.1 over 100 parties).
    pub sample_fraction: f64,
    /// BatchNorm statistics aggregation policy.
    pub buffer_policy: BufferPolicy,
    /// Mini-batch size used for test evaluation.
    pub eval_batch_size: usize,
    /// Evaluate every k rounds (the final round is always evaluated).
    pub eval_every: usize,
    /// Server-side learning rate `η` of Algorithm 1 line 9 (paper: 1.0,
    /// making aggregation an exact weighted average of local models).
    pub server_lr: f32,
    /// Master seed for the run.
    pub seed: u64,
    /// Worker threads for parallel local training (0 = the global thread
    /// configuration: `NIID_THREADS` if set, else one per CPU core; always
    /// capped by the number of sampled parties). Each worker's kernel-level
    /// parallelism is budgeted to `configured / threads` so party × kernel
    /// threads never oversubscribe the machine.
    pub threads: usize,
    /// Minimum fraction of a round's *selected* parties that must produce
    /// a usable update for the round to aggregate (in `(0, 1]`, at least
    /// one survivor either way). Below it the run fails with a typed
    /// [`FlError::QuorumLost`] — never a panic. Failures only arise from
    /// local-training panics or an injected [`FaultPlan`]; fault-free runs
    /// are unaffected by this setting.
    pub min_quorum: f64,
    /// Deterministic fault injection for chaos runs (`None` = no faults).
    pub fault_plan: Option<FaultPlan>,
    /// Round-granular checkpointing (`None` = no checkpoints). See
    /// [`crate::checkpoint`] and [`FedSim::resume`].
    pub checkpoint: Option<CheckpointPolicy>,
    /// Wire codec every party's update upload passes through
    /// ([`UpdateCodec::DenseF32`] is the paper's uncompressed baseline).
    /// The server broadcast is always dense; lossy codecs keep per-party
    /// error-feedback residuals so top-k converges (see
    /// [`crate::compress`]).
    pub codec: UpdateCodec,
}

impl FlConfig {
    /// Paper defaults: 50 rounds, E=10, B=64, lr=0.01, momentum 0.9, full
    /// participation, averaged buffers.
    pub fn paper_defaults(algorithm: Algorithm, seed: u64) -> Self {
        Self {
            algorithm,
            rounds: 50,
            local: LocalConfig {
                epochs: 10,
                batch_size: 64,
                lr: 0.01,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            sample_fraction: 1.0,
            buffer_policy: BufferPolicy::Average,
            eval_batch_size: 256,
            eval_every: 1,
            server_lr: 1.0,
            seed,
            threads: 0,
            min_quorum: 0.5,
            fault_plan: None,
            checkpoint: None,
            codec: UpdateCodec::DenseF32,
        }
    }
}

/// A configured federated simulation over fixed parties and a fixed test
/// set.
pub struct FedSim {
    model_spec: ModelSpec,
    parties: PartyStore,
    test: Dataset,
    config: FlConfig,
}

/// Where party datasets live for the run's lifetime.
///
/// Cross-silo runs (tens of parties) keep every dataset resident, exactly
/// as before. Cross-device runs hand the engine a [`PartyProvider`]
/// instead, and a party's dataset view exists only while a worker is
/// training it — peak party-resident memory is `O(workers)` datasets,
/// not `O(N)`.
enum PartyStore {
    /// Every party's dataset held in memory for the whole run.
    Resident(Vec<Party>),
    /// Parties materialized per cohort and dropped after training.
    OnDemand(Box<dyn PartyProvider>),
}

impl PartyStore {
    fn len(&self) -> usize {
        match self {
            PartyStore::Resident(v) => v.len(),
            PartyStore::OnDemand(p) => p.n_parties(),
        }
    }

    /// `|Dᵢ|` without materializing anything.
    fn num_samples(&self, id: usize) -> usize {
        match self {
            PartyStore::Resident(v) => v[id].num_samples(),
            PartyStore::OnDemand(p) => p.num_samples(id),
        }
    }

    /// Borrow (resident) or materialize (on-demand) party `id`.
    fn party(&self, id: usize) -> PartyRef<'_> {
        match self {
            PartyStore::Resident(v) => PartyRef::Borrowed(&v[id]),
            PartyStore::OnDemand(p) => PartyRef::Owned(OwnedParty::new(p.materialize(id))),
        }
    }
}

const SEED_INIT: u64 = 0xA11CE;
const SEED_SAMPLE_BASE: u64 = 0x5A3F_0000_0000;

/// Everything server-side that evolves across rounds — exactly the state
/// a [`Checkpoint`] captures, so resume is "load this and keep driving".
///
/// `client_c` is sparse: a party appears only once it has trained under
/// SCAFFOLD; absence means the implicit all-zero variate of Algorithm 2's
/// initialization. Server-side state is therefore proportional to the
/// set of parties ever sampled, never to `N`.
struct SimState {
    round_next: usize,
    global_params: Vec<f32>,
    global_buffers: Vec<f32>,
    server_c: Vec<f32>,
    client_c: BTreeMap<usize, Vec<f32>>,
    /// Per-party error-feedback residuals kept by lossy codecs — sparse
    /// like `client_c` (absent ⇒ all-zero), untouched for dense runs.
    residuals: BTreeMap<usize, Vec<f32>>,
    records: Vec<RoundRecord>,
    best_accuracy: f64,
    final_accuracy: f64,
    total_bytes: usize,
}

impl FedSim {
    /// Validate and build a simulation.
    pub fn new(
        model_spec: ModelSpec,
        parties: Vec<Party>,
        test: Dataset,
        config: FlConfig,
    ) -> Result<Self, FlError> {
        if parties.is_empty() {
            return Err(FlError::NoParties);
        }
        for p in &parties {
            if p.data.is_empty() {
                return Err(FlError::EmptyParty(p.id));
            }
            if p.data.input_shape != test.input_shape {
                return Err(FlError::InconsistentParties(format!(
                    "party {} input shape {:?} vs test {:?}",
                    p.id, p.data.input_shape, test.input_shape
                )));
            }
            if p.data.num_classes != test.num_classes {
                return Err(FlError::InconsistentParties(format!(
                    "party {} classes {} vs test {}",
                    p.id, p.data.num_classes, test.num_classes
                )));
            }
        }
        Self::with_store(model_spec, PartyStore::Resident(parties), test, config)
    }

    /// Build a cohort-on-demand simulation over a [`PartyProvider`]
    /// (cross-device scale: party datasets are materialized only while
    /// their round's worker trains them).
    ///
    /// Per-party validation is the provider's contract — the engine
    /// checks the provider-wide shape metadata once instead of touching
    /// all `N` parties, which is the point of the lazy path.
    pub fn with_provider(
        model_spec: ModelSpec,
        provider: Box<dyn PartyProvider>,
        test: Dataset,
        config: FlConfig,
    ) -> Result<Self, FlError> {
        if provider.n_parties() == 0 {
            return Err(FlError::NoParties);
        }
        if provider.input_shape() != test.input_shape {
            return Err(FlError::InconsistentParties(format!(
                "provider input shape {:?} vs test {:?}",
                provider.input_shape(),
                test.input_shape
            )));
        }
        if provider.num_classes() != test.num_classes {
            return Err(FlError::InconsistentParties(format!(
                "provider classes {} vs test {}",
                provider.num_classes(),
                test.num_classes
            )));
        }
        Self::with_store(model_spec, PartyStore::OnDemand(provider), test, config)
    }

    /// Shared model/config validation behind both constructors.
    fn with_store(
        model_spec: ModelSpec,
        parties: PartyStore,
        test: Dataset,
        config: FlConfig,
    ) -> Result<Self, FlError> {
        if model_spec.input_shape() != test.input_shape {
            return Err(FlError::InconsistentParties(format!(
                "model input shape {:?} vs data {:?}",
                model_spec.input_shape(),
                test.input_shape
            )));
        }
        let check_pos = |field: &'static str, v: usize| -> Result<(), FlError> {
            if v == 0 {
                Err(FlError::InvalidConfig {
                    field,
                    message: "must be positive".into(),
                })
            } else {
                Ok(())
            }
        };
        check_pos("rounds", config.rounds)?;
        check_pos("local.epochs", config.local.epochs)?;
        check_pos("local.batch_size", config.local.batch_size)?;
        check_pos("eval_batch_size", config.eval_batch_size)?;
        check_pos("eval_every", config.eval_every)?;
        if !(config.local.lr.is_finite() && config.local.lr > 0.0) {
            return Err(FlError::InvalidConfig {
                field: "local.lr",
                message: format!("must be positive, got {}", config.local.lr),
            });
        }
        if !(config.server_lr.is_finite() && config.server_lr > 0.0) {
            return Err(FlError::InvalidConfig {
                field: "server_lr",
                message: format!("must be positive, got {}", config.server_lr),
            });
        }
        if !(config.sample_fraction > 0.0 && config.sample_fraction <= 1.0) {
            return Err(FlError::InvalidConfig {
                field: "sample_fraction",
                message: format!("must be in (0, 1], got {}", config.sample_fraction),
            });
        }
        if !(config.min_quorum > 0.0 && config.min_quorum <= 1.0) {
            return Err(FlError::InvalidConfig {
                field: "min_quorum",
                message: format!("must be in (0, 1], got {}", config.min_quorum),
            });
        }
        if let Some(plan) = &config.fault_plan {
            if let Err(message) = plan.validate() {
                return Err(FlError::InvalidConfig {
                    field: "fault_plan",
                    message,
                });
            }
        }
        if let Some(policy) = &config.checkpoint {
            check_pos("checkpoint.every", policy.every)?;
        }
        let (codec_fraction, codec_levels) = match config.codec {
            UpdateCodec::DenseF32 => (None, None),
            UpdateCodec::TopK { fraction } => (Some(fraction), None),
            UpdateCodec::Int8Q { levels } => (None, Some(levels)),
            UpdateCodec::TopKInt8 { fraction, levels } => (Some(fraction), Some(levels)),
        };
        if let Some(f) = codec_fraction {
            if !(f > 0.0 && f <= 1.0) {
                return Err(FlError::InvalidConfig {
                    field: "codec",
                    message: format!("top-k fraction must be in (0, 1], got {f}"),
                });
            }
        }
        if let Some(l) = codec_levels {
            if !(2..=128).contains(&l) {
                return Err(FlError::InvalidConfig {
                    field: "codec",
                    message: format!("quantization levels must be in 2..=128, got {l}"),
                });
            }
        }
        Ok(Self {
            model_spec,
            parties,
            test,
            config,
        })
    }

    /// Total party count `N`.
    pub fn n_parties(&self) -> usize {
        self.parties.len()
    }

    /// Sample the round's participants (Algorithm 1 line 4): all parties
    /// at fraction 1, otherwise `max(1, round(frac · N))` without
    /// replacement, in ascending id order for deterministic aggregation.
    ///
    /// Uses the sparse partial Fisher–Yates walk, so cost is `O(m)` in
    /// the cohort size — never `O(N)` — while drawing bit-for-bit the
    /// picks the historical dense sampler produced (replay-pinned in
    /// `niid-stats`).
    fn sample_round(&self, round: usize) -> Vec<usize> {
        let n = self.parties.len();
        if self.config.sample_fraction >= 1.0 {
            return (0..n).collect();
        }
        let m = ((self.config.sample_fraction * n as f64).round() as usize).clamp(1, n);
        let mut rng = Pcg64::new(derive_seed(
            self.config.seed,
            SEED_SAMPLE_BASE + round as u64,
        ));
        let mut picked = rng.sample_indices_sparse(n, m);
        picked.sort_unstable();
        picked
    }

    /// Run the simulation to completion.
    ///
    /// Equivalent to [`run_traced`](Self::run_traced) with a [`NoopSink`];
    /// untraced runs pay no observability cost.
    pub fn run(&self) -> Result<RunResult, FlError> {
        self.run_traced(&NoopSink)
    }

    /// Run the simulation, emitting a [`TraceEvent`] stream to `sink`.
    ///
    /// Per round: one `RoundStarted`, one `PartyTrained` per selected
    /// party (emitted from the training threads as each party finishes),
    /// one `Aggregated`, one `Evaluated` when the round is evaluated, and
    /// one `RoundFinished`. The same phase timings land in each
    /// [`RoundRecord`].
    pub fn run_traced(&self, sink: &dyn TraceSink) -> Result<RunResult, FlError> {
        self.run_observed(sink, None)
    }

    /// Run the simulation with tracing plus an optional training-dynamics
    /// observer (see [`crate::dynamics`]). When an observer is present,
    /// the engine keeps a copy of the pre-aggregation global parameters
    /// each round and hands the observer a [`RoundObservation`] after
    /// aggregation and evaluation; the observer's
    /// [`grad_spans`](RoundObserver::grad_spans) are threaded into local
    /// training so per-layer gradient norms get accumulated. Observation
    /// never changes the numerical trajectory of the run.
    pub fn run_observed(
        &self,
        sink: &dyn TraceSink,
        observer: Option<&dyn RoundObserver>,
    ) -> Result<RunResult, FlError> {
        self.drive(
            self.initial_state(),
            sink,
            observer,
            self.config.rounds,
            None,
        )
    }

    /// Resume from the checkpoint at `FlConfig::checkpoint` and run the
    /// remaining rounds. Because every random draw is derived statelessly
    /// from `(seed, round, party)`, the resumed trajectory — records,
    /// accuracies, traffic — is bit-for-bit identical to the run that was
    /// never interrupted. Fails with [`FlError::Checkpoint`] when no
    /// checkpoint policy is configured, the file is missing/corrupt, or it
    /// was written by an incompatible configuration.
    pub fn resume(&self) -> Result<RunResult, FlError> {
        self.resume_observed(&NoopSink, None)
    }

    /// [`resume`](Self::resume) with tracing and an optional observer
    /// (mirrors [`run_observed`](Self::run_observed)).
    pub fn resume_observed(
        &self,
        sink: &dyn TraceSink,
        observer: Option<&dyn RoundObserver>,
    ) -> Result<RunResult, FlError> {
        let state = self.loaded_state()?;
        self.drive(state, sink, observer, self.config.rounds, None)
    }

    /// Load and validate the configured checkpoint into resumable state.
    fn loaded_state(&self) -> Result<SimState, FlError> {
        let policy = self.config.checkpoint.as_ref().ok_or_else(|| {
            FlError::Checkpoint(
                "resume requires FlConfig::checkpoint to locate the checkpoint file".into(),
            )
        })?;
        // A directory holding only a pre-v4 text checkpoint is refused by
        // name rather than reported as a missing file.
        policy.resumable()?;
        let ck = Checkpoint::load(&policy.path())?;
        self.state_from_checkpoint(ck)
    }

    /// Whether a checkpoint file exists at the configured policy path.
    pub fn has_checkpoint(&self) -> bool {
        self.config
            .checkpoint
            .as_ref()
            .is_some_and(|p| p.path().exists())
    }

    /// [`has_checkpoint`](Self::has_checkpoint) for the `run_or_resume*`
    /// branch, where a legacy-format checkpoint must stop the run instead
    /// of being started over (see [`CheckpointPolicy::resumable`]).
    fn resumable(&self) -> Result<bool, FlError> {
        self.config
            .checkpoint
            .as_ref()
            .map_or(Ok(false), CheckpointPolicy::resumable)
    }

    /// Resume when a checkpoint exists, start fresh otherwise — the shape
    /// experiment drivers want for `--resume`.
    pub fn run_or_resume(&self) -> Result<RunResult, FlError> {
        self.run_or_resume_observed(&NoopSink, None)
    }

    /// [`run_or_resume`](Self::run_or_resume) with tracing and observer.
    pub fn run_or_resume_observed(
        &self,
        sink: &dyn TraceSink,
        observer: Option<&dyn RoundObserver>,
    ) -> Result<RunResult, FlError> {
        if self.resumable()? {
            self.resume_observed(sink, observer)
        } else {
            self.run_observed(sink, observer)
        }
    }

    /// Run from scratch but stop after `stop_after` rounds — a simulated
    /// kill. Evaluation and checkpoint cadence stay tied to the *target*
    /// round count (`FlConfig::rounds`), exactly as in a real run that
    /// dies mid-flight, so a later [`resume`](Self::resume) continues the
    /// same trajectory. Returns the partial result.
    pub fn run_interrupted(
        &self,
        stop_after: usize,
        sink: &dyn TraceSink,
    ) -> Result<RunResult, FlError> {
        self.drive(
            self.initial_state(),
            sink,
            None,
            stop_after.min(self.config.rounds),
            None,
        )
    }

    /// The canonical config JSON both sides of a distributed run compare
    /// at handshake time (see [`crate::net::config_fingerprint`]).
    pub fn fingerprint(&self) -> String {
        crate::net::config_fingerprint(&self.model_spec, self.parties.len(), &self.config)
    }

    /// Run to completion with local training delegated to the party
    /// processes connected to `coord` — the `fl_server` entry point.
    ///
    /// Same round loop, sampling, quorum policy, aggregation, evaluation
    /// and checkpointing as [`run`](Self::run); only the training phase
    /// crosses sockets. With matching seed/codec/faults the resulting
    /// [`RoundRecord`] stream is bit-identical to the in-process
    /// simulator on every field except wall-clock timings.
    pub fn run_distributed(
        &self,
        coord: &mut Coordinator,
        sink: &dyn TraceSink,
    ) -> Result<RunResult, FlError> {
        self.drive(
            self.initial_state(),
            sink,
            None,
            self.config.rounds,
            Some(coord),
        )
    }

    /// [`resume`](Self::resume) over a distributed cohort. Server-side
    /// state — error-feedback residuals and SCAFFOLD variates included —
    /// comes from the checkpoint; parties are stateless between rounds
    /// (they receive `client_c`/residuals in each `RoundAssign`), so a
    /// server restart needs no party-side recovery.
    pub fn resume_distributed(
        &self,
        coord: &mut Coordinator,
        sink: &dyn TraceSink,
    ) -> Result<RunResult, FlError> {
        let state = self.loaded_state()?;
        self.drive(state, sink, None, self.config.rounds, Some(coord))
    }

    /// Resume when a checkpoint exists, start fresh otherwise — the
    /// distributed `--resume` shape.
    pub fn run_or_resume_distributed(
        &self,
        coord: &mut Coordinator,
        sink: &dyn TraceSink,
    ) -> Result<RunResult, FlError> {
        if self.resumable()? {
            self.resume_distributed(coord, sink)
        } else {
            self.run_distributed(coord, sink)
        }
    }

    /// [`run_interrupted`](Self::run_interrupted) over a distributed
    /// cohort — a simulated server kill with parties left running.
    pub fn run_interrupted_distributed(
        &self,
        coord: &mut Coordinator,
        stop_after: usize,
        sink: &dyn TraceSink,
    ) -> Result<RunResult, FlError> {
        self.drive(
            self.initial_state(),
            sink,
            None,
            stop_after.min(self.config.rounds),
            Some(coord),
        )
    }

    /// Fresh server-side state for round 0.
    fn initial_state(&self) -> SimState {
        let cfg = &self.config;
        let init_seed = derive_seed(cfg.seed, SEED_INIT);
        let model = self.model_spec.build(self.test.num_classes, init_seed);
        let global_params = model.params_flat();
        let global_buffers = model.buffers_flat();
        let server_c = if cfg.algorithm.uses_control_variates() {
            vec![0.0f32; global_params.len()]
        } else {
            Vec::new()
        };
        SimState {
            round_next: 0,
            global_params,
            global_buffers,
            server_c,
            client_c: BTreeMap::new(),
            residuals: BTreeMap::new(),
            records: Vec::with_capacity(cfg.rounds),
            best_accuracy: 0.0,
            final_accuracy: 0.0,
            total_bytes: 0,
        }
    }

    /// Validate a loaded checkpoint against this simulation's config and
    /// turn it into resumable state. Every disagreement that would change
    /// the trajectory — identity fields, the cohort/fault schedule
    /// (`sample_fraction`, `min_quorum`, fault-plan spec), or a state
    /// vector of the wrong shape — is a typed
    /// [`FlError::CheckpointMismatch`], never a silent divergence.
    fn state_from_checkpoint(&self, ck: Checkpoint) -> Result<SimState, FlError> {
        let cfg = &self.config;
        let mismatch = |field: &'static str, expected: String, actual: String| {
            Err(FlError::CheckpointMismatch {
                field,
                expected,
                actual,
            })
        };
        if ck.seed != cfg.seed {
            return mismatch("seed", cfg.seed.to_string(), ck.seed.to_string());
        }
        if ck.algorithm != cfg.algorithm.name() {
            return mismatch(
                "algorithm",
                cfg.algorithm.name().to_string(),
                ck.algorithm.clone(),
            );
        }
        if ck.n_parties != self.parties.len() {
            return mismatch(
                "n_parties",
                self.parties.len().to_string(),
                ck.n_parties.to_string(),
            );
        }
        if ck.sample_fraction != cfg.sample_fraction {
            return mismatch(
                "sample_fraction",
                cfg.sample_fraction.to_string(),
                ck.sample_fraction.to_string(),
            );
        }
        if ck.min_quorum != cfg.min_quorum {
            return mismatch(
                "min_quorum",
                cfg.min_quorum.to_string(),
                ck.min_quorum.to_string(),
            );
        }
        let cfg_plan = cfg.fault_plan.as_ref().map(ToString::to_string);
        if ck.fault_plan != cfg_plan {
            let show = |p: &Option<String>| p.clone().unwrap_or_else(|| "none".into());
            return mismatch("fault_plan", show(&cfg_plan), show(&ck.fault_plan));
        }
        let cfg_codec = cfg.codec.to_string();
        if ck.codec != cfg_codec {
            return mismatch("codec", cfg_codec, ck.codec.clone());
        }
        if ck.round_next > cfg.rounds {
            return mismatch(
                "round_next",
                format!("at most configured rounds {}", cfg.rounds),
                ck.round_next.to_string(),
            );
        }
        let probe = self.model_spec.build(self.test.num_classes, 0);
        let p_len = probe.params_flat().len();
        let b_len = probe.buffers_flat().len();
        if ck.global_params.len() != p_len {
            return mismatch(
                "global_params length",
                p_len.to_string(),
                ck.global_params.len().to_string(),
            );
        }
        if ck.global_buffers.len() != b_len {
            return mismatch(
                "global_buffers length",
                b_len.to_string(),
                ck.global_buffers.len().to_string(),
            );
        }
        let expect_c = if cfg.algorithm.uses_control_variates() {
            p_len
        } else {
            0
        };
        if ck.server_c.len() != expect_c {
            return mismatch(
                "server_c length",
                expect_c.to_string(),
                ck.server_c.len().to_string(),
            );
        }
        let mut client_c = BTreeMap::new();
        for (id, c) in ck.client_c {
            if id >= self.parties.len() {
                return mismatch(
                    "client_c party id",
                    format!("below {}", self.parties.len()),
                    id.to_string(),
                );
            }
            if c.is_empty() || c.len() != expect_c {
                return mismatch(
                    "client_c entry length",
                    format!("non-empty {expect_c} (party {id})"),
                    c.len().to_string(),
                );
            }
            client_c.insert(id, c);
        }
        let mut residuals = BTreeMap::new();
        for (id, r) in ck.residuals {
            if id >= self.parties.len() {
                return mismatch(
                    "residuals party id",
                    format!("below {}", self.parties.len()),
                    id.to_string(),
                );
            }
            if r.len() != p_len {
                return mismatch(
                    "residuals entry length",
                    format!("{p_len} (party {id})"),
                    r.len().to_string(),
                );
            }
            residuals.insert(id, r);
        }
        Ok(SimState {
            round_next: ck.round_next,
            global_params: ck.global_params,
            global_buffers: ck.global_buffers,
            server_c: ck.server_c,
            client_c,
            residuals,
            records: ck.records,
            best_accuracy: ck.best_accuracy,
            final_accuracy: ck.final_accuracy,
            total_bytes: ck.total_bytes,
        })
    }

    /// The round loop: advance `st` from `st.round_next` up to (not
    /// including) `stop_round`, which is `cfg.rounds` except for
    /// [`run_interrupted`](Self::run_interrupted). With `remote` set, the
    /// training phase runs on the connected party processes instead of
    /// the in-process worker pool; everything else is byte-for-byte the
    /// same loop.
    fn drive(
        &self,
        mut st: SimState,
        sink: &dyn TraceSink,
        observer: Option<&dyn RoundObserver>,
        stop_round: usize,
        mut remote: Option<&mut Coordinator>,
    ) -> Result<RunResult, FlError> {
        let start = Instant::now();
        let cfg = &self.config;
        let classes = self.test.num_classes;

        let mut eval_model = self.model_spec.build(classes, 0);
        let p_len = st.global_params.len();
        let is_scaffold = cfg.algorithm.uses_control_variates();

        for round in st.round_next..stop_round {
            let _round_sp = niid_prof::span!("fl.round");
            let round_started = Instant::now();
            let selected = {
                let _sp = niid_prof::span!("fl.sample");
                self.sample_round(round)
            };
            sink.record(&TraceEvent::RoundStarted {
                round,
                participants: selected.len(),
            });

            let grad_spans = observer.and_then(RoundObserver::grad_spans);
            // In-process SCAFFOLD training commits refreshed `client_c`
            // into the state map *before* the quorum verdict, so an
            // abort-time checkpoint (written when quorum is lost, to
            // restart at the failed round) must restore the selected
            // parties' pre-round variates first. Remote rounds apply all
            // wire state post-quorum and need no snapshot.
            let client_c_before: Option<Vec<(usize, Option<Vec<f32>>)>> =
                (remote.is_none() && is_scaffold && cfg.checkpoint.is_some()).then(|| {
                    selected
                        .iter()
                        .map(|&id| (id, st.client_c.get(&id).cloned()))
                        .collect()
                });
            // Survivors' updates exactly as they crossed the wire
            // (distributed rounds only): codec payload + party-side
            // refreshed feedback state, adopted after quorum passes.
            let mut wire_updates: BTreeMap<usize, WireUpdate> = BTreeMap::new();
            let party_outcomes = match remote.as_mut() {
                Some(coord) => {
                    let _sp = niid_prof::span!("fl.train");
                    coord
                        .train_round(
                            round,
                            &selected,
                            &st.global_params,
                            &st.global_buffers,
                            &st.server_c,
                            &st.client_c,
                            &st.residuals,
                            sink,
                        )
                        .into_iter()
                        .zip(selected.iter().copied())
                        .map(|(outcome, party_id)| match outcome {
                            RemoteOutcome::Trained { outcome, wire } => {
                                wire_updates.insert(party_id, wire);
                                PartyOutcome::Trained(outcome)
                            }
                            RemoteOutcome::Failed(failure) => PartyOutcome::Failed(failure),
                        })
                        .collect()
                }
                None => {
                    let _sp = niid_prof::span!("fl.train");
                    self.train_selected(
                        &selected,
                        &st.global_params,
                        &st.global_buffers,
                        &st.server_c,
                        &mut st.client_c,
                        round,
                        sink,
                        grad_spans,
                    )
                }
            };
            let local_wall_ms = round_started.elapsed().as_secs_f64() * 1e3;

            // Split the cohort: survivors aggregate, failures are isolated
            // and reported. A failed party's `client_c` was already handed
            // back untouched by `train_selected`.
            let mut survivors: Vec<usize> = Vec::with_capacity(selected.len());
            let mut outcomes: Vec<LocalOutcome> = Vec::with_capacity(selected.len());
            let mut failures: Vec<PartyFailure> = Vec::new();
            for (party_id, outcome) in selected.iter().copied().zip(party_outcomes) {
                match outcome {
                    PartyOutcome::Trained(out) => {
                        survivors.push(party_id);
                        outcomes.push(out);
                    }
                    PartyOutcome::Failed(failure) => {
                        debug_assert_eq!(failure.party_id, party_id);
                        sink.record(&TraceEvent::PartyFailed {
                            round,
                            party_id: failure.party_id,
                            kind: failure.kind.name().to_string(),
                            message: failure.message.clone(),
                        });
                        failures.push(failure);
                    }
                }
            }
            let needed =
                ((cfg.min_quorum * selected.len() as f64).ceil() as usize).clamp(1, selected.len());
            if survivors.len() < needed {
                // Abort-time checkpoint: without it a killed run leaves
                // only the last *periodic* checkpoint, so `--resume`
                // replays up to `checkpoint_every` finished rounds.
                // `round_next` is the failed round itself — no state from
                // this round has been committed (the `client_c` snapshot
                // above undoes the one pre-quorum mutation) — so resume
                // retries exactly here.
                if let Some(policy) = &cfg.checkpoint {
                    if let Some(snapshot) = client_c_before {
                        for (id, entry) in snapshot {
                            match entry {
                                Some(c) => {
                                    st.client_c.insert(id, c);
                                }
                                None => {
                                    st.client_c.remove(&id);
                                }
                            }
                        }
                    }
                    self.save_checkpoint(&st, round, policy, sink, round)?;
                }
                return Err(FlError::QuorumLost {
                    round,
                    selected: selected.len(),
                    survived: survivors.len(),
                    needed,
                });
            }
            if !failures.is_empty() {
                sink.record(&TraceEvent::RoundDegraded {
                    round,
                    failed: failures.len(),
                    survived: survivors.len(),
                });
            }

            // ── Measured wire traffic ──────────────────────────────────
            // Every byte below comes from an actually-encoded payload, not
            // a formula. The downlink broadcast (params + buffers + server
            // `c` under SCAFFOLD) is always dense and is encoded here,
            // before aggregation mutates the globals — these are the bytes
            // this round *started* from — then billed once per selected
            // party. Each survivor's Δw passes through the configured
            // codec with its per-party error-feedback residual; buffers
            // and SCAFFOLD's Δc ride along dense. Billing by failure
            // kind: a dropped update was trained and sent (the loss
            // happened in flight), so it costs upload bytes at the
            // codec's data-independent encoded size; a crashed party
            // never produced one. Dropped/crashed parties' residuals are
            // untouched — they did no lossy encode this round.
            let comm_started = Instant::now();
            let kern = active_kernel();
            let dense = UpdateCodec::DenseF32;
            let mut bcast_bytes = dense.encode(kern, &st.global_params, 0).len()
                + dense.encode(kern, &st.global_buffers, 0).len();
            if is_scaffold {
                bcast_bytes += dense.encode(kern, &st.server_c, 0).len();
            }
            let down_bytes = selected.len() * bcast_bytes;
            let mut up_bytes = 0usize;
            let mut decoded_updates: Vec<DecodedUpdate> = Vec::with_capacity(outcomes.len());
            for (party_id, out) in survivors.iter().copied().zip(&outcomes) {
                let (payload_len, decoded) = match wire_updates.remove(&party_id) {
                    // Distributed round: the party already ran the lossy
                    // encode with its error feedback; the server decodes
                    // the received bytes (hostile input is a typed error)
                    // and adopts the refreshed residual and variate.
                    Some(wire) => {
                        let decoded =
                            cfg.codec
                                .decode(kern, &wire.payload, p_len)
                                .ok_or_else(|| {
                                    FlError::Net(NetError::Malformed(format!(
                                        "party {party_id} sent an undecodable round-{round} update"
                                    )))
                                })?;
                        if wire.residual.is_empty() {
                            st.residuals.remove(&party_id);
                        } else {
                            st.residuals.insert(party_id, wire.residual);
                        }
                        if !wire.client_c.is_empty() {
                            st.client_c.insert(party_id, wire.client_c);
                        }
                        (wire.payload.len(), decoded)
                    }
                    // In-process round: encode here, with the same derived
                    // seed a remote party would use.
                    None => {
                        let seed = derive_seed(
                            cfg.seed,
                            SEED_COMPRESS_BASE ^ (((round as u64) << 24) ^ party_id as u64),
                        );
                        let mut residual = st.residuals.remove(&party_id).unwrap_or_default();
                        let (payload, decoded) =
                            cfg.codec
                                .encode_with_feedback(kern, &out.delta, &mut residual, seed);
                        if !residual.is_empty() {
                            st.residuals.insert(party_id, residual);
                        }
                        (payload.len(), decoded)
                    }
                };
                up_bytes += payload_len
                    + dense.encoded_len(out.buffers.len())
                    + dense.encoded_len(out.delta_c.len());
                decoded_updates.push(decoded);
            }
            let dropped = failures
                .iter()
                .filter(|f| matches!(f.kind, FailureKind::InjectedDrop))
                .count();
            up_bytes += dropped
                * (cfg.codec.encoded_len(p_len)
                    + dense.encoded_len(st.global_buffers.len())
                    + if is_scaffold {
                        dense.encoded_len(p_len)
                    } else {
                        0
                    });
            let traffic = RoundTraffic {
                down_bytes,
                up_bytes,
            };
            st.total_bytes += traffic.total();
            sink.record(&TraceEvent::CommMeasured {
                round,
                encoding: cfg.codec.label().to_string(),
                down_bytes,
                up_bytes,
                wall_ms: comm_started.elapsed().as_secs_f64() * 1e3,
            });

            // Only observed runs pay for the pre-aggregation copy.
            let global_before = observer.map(|_| st.global_params.clone());

            let agg_started = Instant::now();
            {
                let _sp = niid_prof::span!("fl.aggregate");
                let updates: Vec<UpdateRef<'_>> =
                    decoded_updates.iter().map(UpdateRef::from).collect();
                match cfg.algorithm {
                    Algorithm::FedNova => fednova_average_updates(
                        &mut st.global_params,
                        &outcomes,
                        &updates,
                        cfg.server_lr,
                    ),
                    _ => weighted_average_updates(
                        &mut st.global_params,
                        &outcomes,
                        &updates,
                        cfg.server_lr,
                    ),
                }
                if is_scaffold {
                    scaffold_update_c(&mut st.server_c, &outcomes, self.parties.len());
                }
                if cfg.buffer_policy == BufferPolicy::Average {
                    if let Some(avg) = average_buffers(&outcomes) {
                        st.global_buffers = avg;
                    }
                }
            }
            let aggregate_wall_ms = agg_started.elapsed().as_secs_f64() * 1e3;
            sink.record(&TraceEvent::Aggregated {
                round,
                wall_ms: aggregate_wall_ms,
            });

            let is_last = round + 1 == cfg.rounds;
            let mut eval_wall_ms = 0.0;
            let test_accuracy = if (round + 1) % cfg.eval_every == 0 || is_last {
                let _sp = niid_prof::span!("fl.eval");
                let eval_started = Instant::now();
                eval_model.set_params_flat(&st.global_params);
                if !st.global_buffers.is_empty() {
                    eval_model.set_buffers_flat(&st.global_buffers);
                }
                let acc = eval_model.evaluate(
                    &self.test.features,
                    &self.test.labels,
                    &self.test.input_shape,
                    cfg.eval_batch_size,
                );
                st.best_accuracy = st.best_accuracy.max(acc);
                st.final_accuracy = acc;
                eval_wall_ms = eval_started.elapsed().as_secs_f64() * 1e3;
                sink.record(&TraceEvent::Evaluated {
                    round,
                    accuracy: acc,
                    wall_ms: eval_wall_ms,
                });
                Some(acc)
            } else {
                None
            };

            // Weighted by |Dᵢ| so the reported loss matches the federated
            // objective Σᵢ (nᵢ/n) Lᵢ rather than favoring small parties.
            // Survivors only: failed parties contribute no loss estimate.
            let total_n: usize = outcomes.iter().map(|o| o.n_samples).sum();
            let avg_local_loss = outcomes
                .iter()
                .map(|o| o.avg_loss * o.n_samples as f64)
                .sum::<f64>()
                / total_n as f64;
            if let Some(obs) = observer {
                obs.observe_round(&RoundObservation {
                    round,
                    selected: &survivors,
                    outcomes: &outcomes,
                    failures: &failures,
                    global_before: global_before.as_deref().unwrap_or(&st.global_params),
                    global_after: &st.global_params,
                    buffers_after: &st.global_buffers,
                    avg_local_loss,
                    test_accuracy,
                    down_bytes: traffic.down_bytes,
                    up_bytes: traffic.up_bytes,
                    encoding: cfg.codec.label(),
                });
            }
            sink.record(&TraceEvent::RoundFinished {
                round,
                wall_ms: round_started.elapsed().as_secs_f64() * 1e3,
            });
            st.records.push(RoundRecord {
                round,
                test_accuracy,
                avg_local_loss,
                participants: selected.len(),
                down_bytes: traffic.down_bytes,
                up_bytes: traffic.up_bytes,
                local_wall_ms,
                aggregate_wall_ms,
                eval_wall_ms,
                failures: failures.len(),
            });

            if let Some(policy) = &cfg.checkpoint {
                if (round + 1) % policy.every == 0 || round + 1 == cfg.rounds {
                    self.save_checkpoint(&st, round + 1, policy, sink, round)?;
                }
            }
        }

        Ok(RunResult {
            algorithm: cfg.algorithm.name().to_string(),
            rounds: st.records,
            final_accuracy: st.final_accuracy,
            best_accuracy: st.best_accuracy,
            total_bytes: st.total_bytes,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Write a checkpoint of `st` through the atomic tmp + fsync + rename
    /// path — the one writer for both the periodic round-end checkpoint
    /// (`round_next = round + 1`) and the abort-time checkpoint a lost
    /// quorum leaves behind (`round_next = round`, the failed round).
    fn save_checkpoint(
        &self,
        st: &SimState,
        round_next: usize,
        policy: &CheckpointPolicy,
        sink: &dyn TraceSink,
        round: usize,
    ) -> Result<(), FlError> {
        let _sp = niid_prof::span!("fl.checkpoint");
        let cfg = &self.config;
        let path = policy.path();
        Checkpoint {
            round_next,
            seed: cfg.seed,
            algorithm: cfg.algorithm.name().to_string(),
            n_parties: self.parties.len(),
            sample_fraction: cfg.sample_fraction,
            min_quorum: cfg.min_quorum,
            fault_plan: cfg.fault_plan.as_ref().map(ToString::to_string),
            codec: cfg.codec.to_string(),
            global_params: st.global_params.clone(),
            global_buffers: st.global_buffers.clone(),
            server_c: st.server_c.clone(),
            client_c: st.client_c.iter().map(|(&id, c)| (id, c.clone())).collect(),
            residuals: st
                .residuals
                .iter()
                .map(|(&id, r)| (id, r.clone()))
                .collect(),
            records: st.records.clone(),
            best_accuracy: st.best_accuracy,
            final_accuracy: st.final_accuracy,
            total_bytes: st.total_bytes,
        }
        .save(&path)?;
        sink.record(&TraceEvent::CheckpointWritten {
            round,
            path: path.display().to_string(),
        });
        Ok(())
    }

    /// Run local training for the selected parties, possibly in parallel.
    /// Outcomes are returned in `selected` order regardless of scheduling;
    /// `PartyTrained` events fire in completion order.
    ///
    /// Failure isolation: a party whose local training panics — real bug
    /// or injected [`FaultAction::Crash`] — becomes a typed
    /// [`PartyOutcome::Failed`] instead of unwinding the run, and its
    /// SCAFFOLD `client_c` is returned to it untouched (`local_train`
    /// only commits the refreshed variate at its very end).
    #[allow(clippy::too_many_arguments)]
    fn train_selected(
        &self,
        selected: &[usize],
        global_params: &[f32],
        global_buffers: &[f32],
        server_c: &[f32],
        client_c: &mut BTreeMap<usize, Vec<f32>>,
        round: usize,
        sink: &dyn TraceSink,
        grad_spans: Option<&[std::ops::Range<usize>]>,
    ) -> Vec<PartyOutcome> {
        struct Job {
            slot: usize,
            party_id: usize,
            client_c: Vec<f32>,
        }
        let is_scaffold = self.config.algorithm.uses_control_variates();
        let scaffold_variant = match self.config.algorithm {
            Algorithm::Scaffold { variant } => Some(variant),
            _ => None,
        };
        // A party absent from the sparse map has the implicit all-zero
        // variate (`local_train` treats an empty Vec the same way), so
        // never-before-sampled parties cost nothing here.
        let mut jobs: Vec<Job> = selected
            .iter()
            .enumerate()
            .map(|(slot, &party_id)| Job {
                slot,
                party_id,
                client_c: client_c.remove(&party_id).unwrap_or_default(),
            })
            .collect();
        // Longest-processing-time-first: under quantity skew one party can
        // hold most of the data, so workers should start the big parties
        // first and backfill with small ones. Party id breaks ties so the
        // queue order is deterministic. `num_samples` never materializes a
        // dataset, so this stays O(m) work even on the on-demand path.
        jobs.sort_by_key(|j| {
            (
                std::cmp::Reverse(self.parties.num_samples(j.party_id)),
                j.party_id,
            )
        });

        let threads = if self.config.threads == 0 {
            configured_threads()
        } else {
            self.config.threads
        }
        .min(jobs.len())
        .max(1);

        let classes = self.test.num_classes;
        let run_seed = self.config.seed;
        let spec = &self.model_spec;
        let parties = &self.parties;
        let local_cfg = &self.config.local;
        let algorithm = &self.config.algorithm;
        let fault_plan = self.config.fault_plan.as_ref();
        if fault_plan.is_some() {
            crate::fault::install_quiet_panic_hook();
        }

        let run_job = |job: &mut Job, model_slot: &mut Option<niid_nn::Network>| -> PartyOutcome {
            let action = fault_plan
                .map(|p| p.action(round, job.party_id))
                .unwrap_or(FaultAction::None);
            match action {
                FaultAction::Drop => {
                    // The party "trains" but its upload is lost; skipping
                    // the work entirely keeps the cell cheap and the
                    // surviving trajectory untouched either way.
                    return PartyOutcome::Failed(PartyFailure {
                        party_id: job.party_id,
                        kind: FailureKind::InjectedDrop,
                        message: "update dropped by fault plan".into(),
                    });
                }
                FaultAction::Delay(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
                FaultAction::Crash | FaultAction::None => {}
            }
            let inject_crash = action == FaultAction::Crash;
            let mut rng = Pcg64::new(derive_seed(
                run_seed,
                ((round as u64) << 24) ^ (job.party_id as u64 + 1),
            ));
            // Panic isolation. The closure mutates only the job's own
            // control variate and this worker's model slot, and both are
            // handled on the unwind path — `local_train` commits its
            // `client_c` refresh only at the very end, so a mid-panic
            // leaves the variate at its pre-round value, and the
            // half-trained model is torn down below — which is what makes
            // the `AssertUnwindSafe` sound.
            //
            // The party is materialized inside the guard (a lazy
            // provider's dataset view exists only for this job's
            // lifetime) and dropped — releasing its residency bytes — as
            // soon as training ends, crash or not.
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                if inject_crash {
                    std::panic::panic_any(crate::fault::INJECTED_CRASH_MSG);
                }
                let party = parties.party(job.party_id);
                let model = model_slot.get_or_insert_with(|| spec.build(classes, 0));
                let ctx = if is_scaffold {
                    Some(ScaffoldCtx {
                        server_c,
                        client_c: &mut job.client_c,
                        variant: scaffold_variant.expect("scaffold variant"),
                    })
                } else {
                    None
                };
                let _sp = niid_prof::span!("fl.local_train");
                local_train(
                    model,
                    &party,
                    global_params,
                    global_buffers,
                    local_cfg,
                    algorithm,
                    ctx,
                    grad_spans,
                    &mut rng,
                )
            }));
            match caught {
                Ok(out) => {
                    sink.record(&TraceEvent::PartyTrained {
                        round,
                        party_id: job.party_id,
                        tau: out.tau,
                        n_samples: out.n_samples,
                        avg_loss: out.avg_loss,
                        wall_ms: out.wall_ms,
                    });
                    PartyOutcome::Trained(out)
                }
                Err(payload) => {
                    *model_slot = None;
                    PartyOutcome::Failed(PartyFailure {
                        party_id: job.party_id,
                        kind: if inject_crash {
                            FailureKind::InjectedCrash
                        } else {
                            FailureKind::Panic
                        },
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        };

        let mut results: Vec<Option<PartyOutcome>> = (0..jobs.len()).map(|_| None).collect();
        if threads <= 1 {
            let mut model: Option<niid_nn::Network> = None;
            for job in &mut jobs {
                let out = run_job(job, &mut model);
                results[job.slot] = Some(out);
            }
        } else {
            // Work-stealing over the LPT-ordered queue: workers claim jobs
            // one at a time through an atomic cursor, so a worker that draws
            // a huge party under quantity skew doesn't also get stuck with a
            // pre-assigned chunk of stragglers behind it. Each worker builds
            // a single reusable model and runs the same `run_job` the
            // sequential path uses, and caps its kernel-level parallelism so
            // party × kernel threads never oversubscribe the configured
            // budget.
            let queue: Vec<Mutex<Option<Job>>> =
                jobs.drain(..).map(|j| Mutex::new(Some(j))).collect();
            let cursor = AtomicUsize::new(0);
            let kernel_budget = (configured_threads() / threads).max(1);
            // The SIMD micro-kernel is resolved once per round on the
            // calling thread and pinned into every worker, so a round
            // running under `with_forced_kernel` (determinism tests) uses
            // that kernel for all parties regardless of thread count.
            let kern = active_kernel();
            let run_job = &run_job;
            let queue = &queue;
            let cursor = &cursor;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(move || {
                            set_thread_budget(kernel_budget);
                            with_forced_kernel(kern, || {
                                let mut model: Option<niid_nn::Network> = None;
                                let mut done: Vec<(usize, Job, PartyOutcome)> = Vec::new();
                                loop {
                                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                                    if i >= queue.len() {
                                        break;
                                    }
                                    let mut job = queue[i]
                                        .lock()
                                        .expect("job slot poisoned")
                                        .take()
                                        .expect("job claimed twice");
                                    let out = run_job(&mut job, &mut model);
                                    done.push((job.slot, job, out));
                                }
                                done
                            })
                        })
                    })
                    .collect();
                for handle in handles {
                    let outputs = handle.join().expect("local-training worker panicked");
                    for (slot, job, outcome) in outputs {
                        results[slot] = Some(outcome);
                        jobs.push(job);
                    }
                }
            });
        }

        // Return control variates to their owners — including failed
        // parties, whose variate comes back untouched. Empty means "still
        // the implicit zero variate" and stays out of the sparse map.
        for job in jobs {
            if !job.client_c.is_empty() {
                client_c.insert(job.party_id, job.client_c);
            }
        }
        results
            .into_iter()
            .map(|o| o.expect("missing party outcome"))
            .collect()
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::ControlVariateUpdate;
    use niid_tensor::Tensor;

    /// Two-feature separable task split IID across `n_parties`.
    fn toy_setup(n_parties: usize, per_party: usize, seed: u64) -> (Vec<Party>, Dataset) {
        let mut rng = Pcg64::new(seed);
        let make = |n: usize, rng: &mut Pcg64, name: &str| -> Dataset {
            let x = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, rng);
            let labels = (0..n)
                .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
                .collect();
            Dataset::new(name, x, labels, 2, vec![4], None)
        };
        let parties = (0..n_parties)
            .map(|id| Party::new(id, make(per_party, &mut rng, "local")))
            .collect();
        let test = make(200, &mut rng, "test");
        (parties, test)
    }

    fn quick_config(algorithm: Algorithm, seed: u64) -> FlConfig {
        FlConfig {
            algorithm,
            rounds: 5,
            local: LocalConfig {
                epochs: 2,
                batch_size: 16,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            sample_fraction: 1.0,
            buffer_policy: BufferPolicy::Average,
            eval_batch_size: 64,
            eval_every: 1,
            server_lr: 1.0,
            seed,
            threads: 2,
            min_quorum: 0.5,
            fault_plan: None,
            checkpoint: None,
            codec: UpdateCodec::DenseF32,
        }
    }

    fn spec() -> ModelSpec {
        ModelSpec::Mlp { in_dim: 4 }
    }

    #[test]
    fn fedavg_learns_toy_task() {
        let (parties, test) = toy_setup(4, 64, 1);
        let sim = FedSim::new(spec(), parties, test, quick_config(Algorithm::FedAvg, 2)).unwrap();
        let result = sim.run().unwrap();
        assert_eq!(result.rounds.len(), 5);
        assert!(
            result.final_accuracy > 0.85,
            "FedAvg should solve the separable toy task, got {}",
            result.final_accuracy
        );
        assert!(result.total_bytes > 0);
    }

    #[test]
    fn all_four_algorithms_run_and_learn() {
        let (parties, test) = toy_setup(4, 64, 3);
        for algo in Algorithm::all_default() {
            let sim =
                FedSim::new(spec(), parties.clone(), test.clone(), quick_config(algo, 4)).unwrap();
            let result = sim.run().unwrap();
            assert!(
                result.final_accuracy > 0.8,
                "{} accuracy {}",
                algo.name(),
                result.final_accuracy
            );
        }
    }

    #[test]
    fn runs_are_deterministic_and_thread_count_invariant() {
        let (parties, test) = toy_setup(6, 32, 5);
        let run_with = |threads: usize| {
            let mut cfg = quick_config(
                Algorithm::Scaffold {
                    variant: ControlVariateUpdate::Reuse,
                },
                6,
            );
            cfg.threads = threads;
            FedSim::new(spec(), parties.clone(), test.clone(), cfg)
                .unwrap()
                .run()
                .unwrap()
        };
        let a = run_with(1);
        let b = run_with(4);
        assert_eq!(a.final_accuracy, b.final_accuracy);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.test_accuracy, rb.test_accuracy);
            assert_eq!(ra.avg_local_loss, rb.avg_local_loss);
        }
    }

    #[test]
    fn partial_participation_samples_correct_count() {
        let (parties, test) = toy_setup(10, 16, 7);
        let mut cfg = quick_config(Algorithm::FedAvg, 8);
        cfg.sample_fraction = 0.3;
        cfg.rounds = 4;
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        let result = sim.run().unwrap();
        for r in &result.rounds {
            assert_eq!(r.participants, 3);
        }
    }

    #[test]
    fn sampling_varies_across_rounds() {
        let (parties, test) = toy_setup(10, 16, 9);
        let mut cfg = quick_config(Algorithm::FedAvg, 10);
        cfg.sample_fraction = 0.2;
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        let r0 = sim.sample_round(0);
        let r1 = sim.sample_round(1);
        assert_eq!(r0.len(), 2);
        // Different rounds draw independent subsets; with 45 possible pairs
        // a collision across two draws is unlikely (and the fixed seed
        // makes this test stable).
        assert_ne!(r0, r1, "same subset in consecutive rounds");
        // Determinism of sampling per round.
        assert_eq!(sim.sample_round(0), r0);
    }

    #[test]
    fn scaffold_reports_double_traffic() {
        let (parties, test) = toy_setup(4, 16, 11);
        let plain = FedSim::new(
            spec(),
            parties.clone(),
            test.clone(),
            quick_config(Algorithm::FedAvg, 12),
        )
        .unwrap()
        .run()
        .unwrap();
        let scaffold = FedSim::new(
            spec(),
            parties,
            test,
            quick_config(
                Algorithm::Scaffold {
                    variant: ControlVariateUpdate::Reuse,
                },
                12,
            ),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(scaffold.total_bytes, 2 * plain.total_bytes);
    }

    #[test]
    fn eval_every_skips_rounds() {
        let (parties, test) = toy_setup(3, 16, 13);
        let mut cfg = quick_config(Algorithm::FedAvg, 14);
        cfg.rounds = 5;
        cfg.eval_every = 2;
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        let result = sim.run().unwrap();
        let evaluated: Vec<usize> = result.curve().iter().map(|&(r, _)| r).collect();
        // Rounds 1, 3 (every 2nd) and 4 (last).
        assert_eq!(evaluated, vec![1, 3, 4]);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let (parties, test) = toy_setup(2, 8, 15);
        let mut cfg = quick_config(Algorithm::FedAvg, 16);
        cfg.rounds = 0;
        assert!(matches!(
            FedSim::new(spec(), parties.clone(), test.clone(), cfg),
            Err(FlError::InvalidConfig {
                field: "rounds",
                ..
            })
        ));

        let mut cfg = quick_config(Algorithm::FedAvg, 16);
        cfg.sample_fraction = 0.0;
        assert!(FedSim::new(spec(), parties.clone(), test.clone(), cfg).is_err());

        assert!(matches!(
            FedSim::new(
                spec(),
                Vec::new(),
                test.clone(),
                quick_config(Algorithm::FedAvg, 16)
            ),
            Err(FlError::NoParties)
        ));

        // Model/data mismatch.
        assert!(FedSim::new(
            ModelSpec::Mlp { in_dim: 99 },
            parties,
            test,
            quick_config(Algorithm::FedAvg, 16)
        )
        .is_err());
    }

    #[test]
    fn empty_party_rejected() {
        let (mut parties, test) = toy_setup(2, 8, 17);
        parties[1].data = parties[1].data.subset(&[]);
        assert!(matches!(
            FedSim::new(spec(), parties, test, quick_config(Algorithm::FedAvg, 18)),
            Err(FlError::EmptyParty(1))
        ));
    }

    #[test]
    fn fault_config_validation() {
        let (parties, test) = toy_setup(2, 8, 19);
        let mut cfg = quick_config(Algorithm::FedAvg, 20);
        cfg.min_quorum = 0.0;
        assert!(matches!(
            FedSim::new(spec(), parties.clone(), test.clone(), cfg),
            Err(FlError::InvalidConfig {
                field: "min_quorum",
                ..
            })
        ));
        let mut cfg = quick_config(Algorithm::FedAvg, 20);
        cfg.fault_plan = Some(crate::fault::FaultPlan::crash_only(1.5, 0));
        assert!(matches!(
            FedSim::new(spec(), parties.clone(), test.clone(), cfg),
            Err(FlError::InvalidConfig {
                field: "fault_plan",
                ..
            })
        ));
        let mut cfg = quick_config(Algorithm::FedAvg, 20);
        cfg.checkpoint = Some(crate::checkpoint::CheckpointPolicy::new("/tmp/never", 0));
        assert!(matches!(
            FedSim::new(spec(), parties, test, cfg),
            Err(FlError::InvalidConfig {
                field: "checkpoint.every",
                ..
            })
        ));
    }

    #[test]
    fn quorum_loss_is_a_typed_error_not_a_panic() {
        // Crash everyone: round 0 must fail with QuorumLost.
        let (parties, test) = toy_setup(4, 16, 21);
        let mut cfg = quick_config(Algorithm::FedAvg, 22);
        cfg.fault_plan = Some(crate::fault::FaultPlan::crash_only(1.0, 5));
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        match sim.run() {
            Err(FlError::QuorumLost {
                round,
                selected,
                survived,
                needed,
            }) => {
                assert_eq!(round, 0);
                assert_eq!(selected, 4);
                assert_eq!(survived, 0);
                assert_eq!(needed, 2);
            }
            other => panic!("expected QuorumLost, got {other:?}"),
        }
    }

    #[test]
    fn dropped_updates_degrade_the_round_accounting() {
        // A pure-drop plan: no panics involved, failures still recorded.
        // A dropped update was *sent* and lost in flight, so upload
        // traffic is billed in full — every round's up_bytes must match
        // the broadcast even when failures > 0. (Only crashes, which
        // never produce an update, shrink the upload; see
        // `crashed_parties_skip_upload_billing`.)
        let (parties, test) = toy_setup(6, 16, 23);
        let mut cfg = quick_config(Algorithm::FedAvg, 24);
        cfg.rounds = 3;
        cfg.min_quorum = 0.1;
        cfg.fault_plan = Some(crate::fault::FaultPlan {
            seed: 3,
            crash_prob: 0.0,
            drop_prob: 0.4,
            delay_prob: 0.0,
            delay_ms: 0,
        });
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        let result = sim.run().unwrap();
        assert_eq!(result.rounds.len(), 3);
        let total_failures: usize = result.rounds.iter().map(|r| r.failures).sum();
        assert!(total_failures > 0, "0.4 drop over 18 cells hit nobody");
        for r in &result.rounds {
            assert_eq!(r.participants, 6);
            assert_eq!(
                r.up_bytes, r.down_bytes,
                "round {}: dropped updates must still be billed",
                r.round
            );
        }
    }

    #[test]
    fn crashed_parties_skip_upload_billing() {
        // A pure-crash plan: the crashed party never produced an update,
        // so rounds with failures bill strictly less upload than
        // broadcast.
        let (parties, test) = toy_setup(6, 16, 23);
        let mut cfg = quick_config(Algorithm::FedAvg, 24);
        cfg.rounds = 3;
        cfg.min_quorum = 0.1;
        cfg.fault_plan = Some(crate::fault::FaultPlan::crash_only(0.4, 3));
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        let result = sim.run().unwrap();
        let total_failures: usize = result.rounds.iter().map(|r| r.failures).sum();
        assert!(total_failures > 0, "0.4 crash over 18 cells hit nobody");
        for r in &result.rounds {
            if r.failures > 0 {
                assert!(r.up_bytes < r.down_bytes);
            } else {
                assert_eq!(r.up_bytes, r.down_bytes);
            }
        }
    }

    #[test]
    fn dense_measured_traffic_matches_the_historical_formula() {
        // The dense wire bytes are now measured from actually-encoded
        // payloads; they must reproduce the historical
        // `RoundTraffic::for_round_faulted` formula exactly on clean,
        // degraded and faulted rounds alike. A mixed crash+drop plan
        // under SCAFFOLD exercises every billing path.
        use crate::trace::MemorySink;
        let (parties, test) = toy_setup(6, 16, 23);
        let mut cfg = quick_config(
            Algorithm::Scaffold {
                variant: ControlVariateUpdate::Reuse,
            },
            24,
        );
        cfg.rounds = 4;
        cfg.min_quorum = 0.1;
        cfg.fault_plan = Some(crate::fault::FaultPlan {
            seed: 5,
            crash_prob: 0.2,
            drop_prob: 0.2,
            delay_prob: 0.0,
            delay_ms: 0,
        });
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        let sink = MemorySink::new();
        let result = sim.run_traced(&sink).unwrap();
        let events = sink.events();
        let probe = spec().build(2, 0);
        let p_len = probe.params_flat().len();
        let b_len = probe.buffers_flat().len();
        let mut saw_faulted_round = false;
        for r in &result.rounds {
            let dropped = events
                .iter()
                .filter(|e| {
                    matches!(e, TraceEvent::PartyFailed { round, kind, .. }
                        if *round == r.round && kind == "injected_drop")
                })
                .count();
            let survivors = r.participants - r.failures;
            saw_faulted_round |= r.failures > 0;
            let formula = crate::comm::RoundTraffic::for_round_faulted(
                r.participants,
                survivors,
                dropped,
                p_len,
                b_len,
                true,
            );
            assert_eq!(
                (r.down_bytes, r.up_bytes),
                (formula.down_bytes, formula.up_bytes),
                "round {}: measured dense bytes diverge from the formula",
                r.round
            );
        }
        assert!(saw_faulted_round, "fault plan hit nobody over 24 cells");
    }

    #[test]
    fn resume_requires_a_checkpoint_policy_and_file() {
        let (parties, test) = toy_setup(2, 8, 25);
        let sim = FedSim::new(
            spec(),
            parties.clone(),
            test.clone(),
            quick_config(Algorithm::FedAvg, 26),
        )
        .unwrap();
        assert!(!sim.has_checkpoint());
        assert!(matches!(sim.resume(), Err(FlError::Checkpoint(_))));

        let mut cfg = quick_config(Algorithm::FedAvg, 26);
        cfg.checkpoint = Some(crate::checkpoint::CheckpointPolicy::new(
            std::env::temp_dir().join(format!("niid_engine_nock_{}", std::process::id())),
            1,
        ));
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        assert!(!sim.has_checkpoint());
        assert!(matches!(sim.resume(), Err(FlError::Checkpoint(_))));
    }

    /// A directory holding only a pre-v4 `checkpoint.json`: every resume
    /// entry refuses it by name, and the `run_or_resume*` ones do not
    /// mistake "no checkpoint.bin" for "start fresh" and run over it.
    #[test]
    fn legacy_text_checkpoint_is_refused_not_overwritten() {
        let dir = std::env::temp_dir().join(format!("niid_engine_legacy_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let legacy = dir.join("checkpoint.json");
        std::fs::write(&legacy, "{\"version\":3,\"round_next\":2}").unwrap();
        let (parties, test) = toy_setup(2, 8, 31);
        let mut cfg = quick_config(Algorithm::FedAvg, 32);
        cfg.checkpoint = Some(crate::checkpoint::CheckpointPolicy::new(&dir, 1));
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        assert!(!sim.has_checkpoint());
        let mut coord =
            Coordinator::bind("127.0.0.1:0", 2, sim.fingerprint(), Default::default()).unwrap();
        let refusals = [
            sim.resume(),
            sim.run_or_resume(),
            sim.resume_distributed(&mut coord, &NoopSink),
            sim.run_or_resume_distributed(&mut coord, &NoopSink),
        ];
        for refusal in refusals {
            match refusal {
                Err(FlError::Checkpoint(msg)) => {
                    assert!(msg.contains("unsupported checkpoint version"), "{msg}");
                    assert!(msg.contains("checkpoint.json"), "{msg}");
                }
                other => panic!("expected a legacy-format refusal, got {other:?}"),
            }
        }
        assert!(!sim.has_checkpoint(), "no run was started over it");
        assert!(legacy.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_configs() {
        let dir = std::env::temp_dir().join(format!("niid_engine_mismatch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (parties, test) = toy_setup(3, 16, 27);
        let mut cfg = quick_config(Algorithm::FedAvg, 28);
        cfg.rounds = 2;
        cfg.checkpoint = Some(crate::checkpoint::CheckpointPolicy::new(&dir, 1));
        FedSim::new(spec(), parties.clone(), test.clone(), cfg.clone())
            .unwrap()
            .run()
            .unwrap();

        // Same config resumes cleanly (from the final checkpoint: no
        // rounds left, result folds straight out of the records).
        let sim = FedSim::new(spec(), parties.clone(), test.clone(), cfg.clone()).unwrap();
        assert!(sim.has_checkpoint());
        assert_eq!(sim.resume().unwrap().rounds.len(), 2);

        // Every trajectory-changing field mismatch must be refused with a
        // typed error naming the field and both values.
        let expect_mismatch = |mutate: &dyn Fn(&mut FlConfig), field: &str| {
            let mut other = cfg.clone();
            mutate(&mut other);
            let sim = FedSim::new(spec(), parties.clone(), test.clone(), other).unwrap();
            match sim.resume() {
                Err(FlError::CheckpointMismatch {
                    field: got,
                    expected,
                    actual,
                }) => {
                    assert_eq!(got, field);
                    assert_ne!(expected, actual, "{field}: both sides {expected}");
                }
                other => panic!("expected {field} mismatch, got {other:?}"),
            }
        };
        expect_mismatch(&|c| c.seed = 999, "seed");
        expect_mismatch(
            &|c| c.algorithm = Algorithm::FedProx { mu: 0.01 },
            "algorithm",
        );
        expect_mismatch(&|c| c.sample_fraction = 0.5, "sample_fraction");
        expect_mismatch(&|c| c.min_quorum = 0.9, "min_quorum");
        expect_mismatch(
            &|c| c.fault_plan = Some(crate::fault::FaultPlan::crash_only(0.1, 7)),
            "fault_plan",
        );
        expect_mismatch(&|c| c.codec = UpdateCodec::TopK { fraction: 0.25 }, "codec");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_or_resume_starts_fresh_then_resumes() {
        let dir = std::env::temp_dir().join(format!("niid_engine_ror_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (parties, test) = toy_setup(3, 16, 29);
        let mut cfg = quick_config(Algorithm::FedAvg, 30);
        cfg.rounds = 4;
        cfg.checkpoint = Some(crate::checkpoint::CheckpointPolicy::new(&dir, 2));
        let uninterrupted = FedSim::new(spec(), parties.clone(), test.clone(), cfg.clone())
            .unwrap()
            .run()
            .unwrap();

        // Kill after round 2: the periodic checkpoint at round 1 survives.
        let _ = std::fs::remove_dir_all(&dir);
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        sim.run_interrupted(2, &NoopSink).unwrap();
        assert!(sim.has_checkpoint());
        let resumed = sim.run_or_resume().unwrap();
        // Bit-for-bit trajectory; wall_seconds is the only field allowed
        // to differ. Records carry wall-clock phases, so compare the
        // numerical fields.
        assert_eq!(resumed.final_accuracy, uninterrupted.final_accuracy);
        assert_eq!(resumed.best_accuracy, uninterrupted.best_accuracy);
        assert_eq!(resumed.total_bytes, uninterrupted.total_bytes);
        assert_eq!(resumed.rounds.len(), uninterrupted.rounds.len());
        for (a, b) in resumed.rounds.iter().zip(&uninterrupted.rounds) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.test_accuracy, b.test_accuracy);
            assert_eq!(a.avg_local_loss, b.avg_local_loss);
            assert_eq!(a.failures, b.failures);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
