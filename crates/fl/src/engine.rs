//! The federated simulation engine: rounds, sampling, parallel local
//! training, aggregation, evaluation.

use crate::aggregate::{
    average_buffers, fednova_average_updates, scaffold_update_c, weighted_average_updates,
    UpdateRef,
};
use crate::algorithm::Algorithm;
use crate::checkpoint::{Checkpoint, CheckpointPolicy};
use crate::comm::RoundTraffic;
use crate::compress::{DecodedUpdate, UpdateCodec};
use crate::dynamics::{RoundObservation, RoundObserver};
use crate::error::FlError;
use crate::fault::{FailureKind, FaultPlan, PartyFailure};
use crate::local::{LocalConfig, LocalOutcome};
use crate::metrics::{wall_ms, RoundRecord, RunResult};
use crate::net::{Coordinator, NetError};
use crate::party::{Party, PartyProvider, ResidentProvider};
use crate::trace::{NoopSink, TraceEvent, TraceSink};
use crate::transport::{Broadcast, LocalPool, PartyEnv, PartyOutcome, TrainedParty, Transport};
use niid_data::Dataset;
use niid_nn::{ModelSpec, Network};
use niid_stats::{derive_seed, Pcg64};
use niid_tensor::active_kernel;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

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
    /// How many parties train at once (0 = the global thread
    /// configuration: `NIID_THREADS` if set, else one per CPU core). Parties
    /// are tasks of the one kernel pool, the calling thread included, so
    /// the width is capped at `NIID_THREADS` and at the number of sampled
    /// parties; a party task's kernels run inline on its thread. At 1 every
    /// party trains on the caller with the caller's full kernel budget.
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
    parties: Box<dyn PartyProvider>,
    test: Dataset,
    config: FlConfig,
}

/// Where [`FedSim::run_with`] starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// Round 0, fresh state.
    Fresh,
    /// The checkpoint at `FlConfig::checkpoint`; an error without one.
    Resume,
    /// Resume when a checkpoint exists, start fresh otherwise — the shape
    /// experiment drivers want for `--resume`.
    Auto,
}

/// How to run a [`FedSim`]: the arguments of [`FedSim::run_with`].
pub struct RunOptions<'a> {
    /// Receives the run's [`TraceEvent`] stream ([`NoopSink`] = untraced,
    /// at no observability cost).
    pub sink: &'a dyn TraceSink,
    /// Training-dynamics observer (see [`crate::dynamics`]). When present,
    /// the engine keeps a copy of the pre-aggregation global parameters
    /// each round and hands the observer a [`RoundObservation`] after
    /// aggregation and evaluation; its
    /// [`grad_spans`](RoundObserver::grad_spans) are threaded into local
    /// training so per-layer gradient norms get accumulated. Observation
    /// never changes the numerical trajectory. In-process runs only.
    pub observer: Option<&'a dyn RoundObserver>,
    /// Fresh, resumed, or whichever the checkpoint directory allows.
    pub start: Start,
    /// Stop after this many rounds — a simulated kill. Evaluation and
    /// checkpoint cadence stay tied to the *target* round count
    /// (`FlConfig::rounds`), exactly as in a real run that dies
    /// mid-flight, so a later resume continues the same trajectory.
    pub stop_after: Option<usize>,
    /// Train each cohort on the party processes connected to this
    /// coordinator instead of the in-process pool. Server-side state —
    /// error-feedback residuals and SCAFFOLD variates included — stays
    /// here (and in the checkpoint); parties are stateless between
    /// rounds, so a server restart needs no party-side recovery.
    pub coordinator: Option<&'a mut Coordinator>,
}

impl<'a> RunOptions<'a> {
    /// A fresh, complete, in-process, unobserved run traced to `sink`.
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        RunOptions {
            sink,
            observer: None,
            start: Start::Fresh,
            stop_after: None,
            coordinator: None,
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
    /// Validate and build a simulation over resident parties: each
    /// party is checked here, then the population is lent to the engine
    /// through a [`ResidentProvider`].
    pub fn new(
        model_spec: ModelSpec,
        parties: Vec<Party>,
        test: Dataset,
        config: FlConfig,
    ) -> Result<Self, FlError> {
        for (i, p) in parties.iter().enumerate() {
            if p.id != i {
                return Err(FlError::InconsistentParties(format!(
                    "party at position {i} has id {}",
                    p.id
                )));
            }
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
        let provider = Box::new(ResidentProvider::new(parties));
        Self::with_provider(model_spec, provider, test, config)
    }

    /// Validate and build a simulation over a [`PartyProvider`]
    /// (cross-device scale: a lazy provider's party datasets are
    /// materialized only while their round's worker trains them).
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
        if let Err(message) = config.codec.validate() {
            return Err(FlError::InvalidConfig {
                field: "codec",
                message,
            });
        }
        Ok(Self {
            model_spec,
            parties: provider,
            test,
            config,
        })
    }

    /// Total party count `N`.
    pub fn n_parties(&self) -> usize {
        self.parties.n_parties()
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
        let n = self.parties.n_parties();
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

    /// Run the simulation to completion, untraced.
    pub fn run(&self) -> Result<RunResult, FlError> {
        self.run_with(RunOptions::new(&NoopSink))
    }

    /// Run the simulation, emitting a [`TraceEvent`] stream to `sink`.
    ///
    /// Per round: one `RoundStarted`, one `PartyTrained` per selected
    /// party (emitted from the training threads as each party finishes),
    /// one `Aggregated`, one `Evaluated` when the round is evaluated, and
    /// one `RoundFinished`. Each `wall_ms` is the duration of the phase's
    /// `niid-prof` span — the number the [`RoundRecord`] carries and, with
    /// profiling on, the one the flame table shows.
    pub fn run_traced(&self, sink: &dyn TraceSink) -> Result<RunResult, FlError> {
        self.run_with(RunOptions::new(sink))
    }

    /// [`run_traced`](Self::run_traced) plus an optional training-dynamics
    /// observer (see [`RunOptions::observer`]).
    pub fn run_observed(
        &self,
        sink: &dyn TraceSink,
        observer: Option<&dyn RoundObserver>,
    ) -> Result<RunResult, FlError> {
        let mut opts = RunOptions::new(sink);
        opts.observer = observer;
        self.run_with(opts)
    }

    /// Resume from the checkpoint at `FlConfig::checkpoint` and run the
    /// remaining rounds ([`Start::Resume`]).
    pub fn resume(&self) -> Result<RunResult, FlError> {
        let mut opts = RunOptions::new(&NoopSink);
        opts.start = Start::Resume;
        self.run_with(opts)
    }

    /// Run from scratch but stop after `stop_after` rounds — a simulated
    /// kill (see [`RunOptions::stop_after`]). Returns the partial result.
    pub fn run_interrupted(
        &self,
        stop_after: usize,
        sink: &dyn TraceSink,
    ) -> Result<RunResult, FlError> {
        let mut opts = RunOptions::new(sink);
        opts.stop_after = Some(stop_after);
        self.run_with(opts)
    }

    /// Run to completion with local training delegated to the party
    /// processes connected to `coord` (see [`RunOptions::coordinator`]).
    pub fn run_distributed(
        &self,
        coord: &mut Coordinator,
        sink: &dyn TraceSink,
    ) -> Result<RunResult, FlError> {
        let mut opts = RunOptions::new(sink);
        opts.coordinator = Some(coord);
        self.run_with(opts)
    }

    /// The one run entry: every other `run*`/`resume` method is a
    /// delegation to this with some [`RunOptions`] fields set.
    ///
    /// Because every random draw is derived statelessly from
    /// `(seed, round, party)`, a resumed trajectory — records, accuracies,
    /// traffic — is bit-for-bit identical to the run that was never
    /// interrupted, and a distributed one to the in-process one (on every
    /// field except wall-clock timings).
    pub fn run_with(&self, opts: RunOptions<'_>) -> Result<RunResult, FlError> {
        let started = Instant::now();
        if opts.observer.is_some() && opts.coordinator.is_some() {
            return Err(FlError::InvalidConfig {
                field: "observer",
                message: "round observers read each party's uncompressed delta, \
                          which does not cross the wire"
                    .into(),
            });
        }
        let cfg = &self.config;
        let resume = match opts.start {
            Start::Fresh => false,
            Start::Resume => true,
            // A legacy-format checkpoint stops the run here instead of
            // being started over (see `CheckpointPolicy::resumable`).
            Start::Auto => cfg
                .checkpoint
                .as_ref()
                .map_or(Ok(false), CheckpointPolicy::resumable)?,
        };
        let mut st = if resume {
            self.loaded_state()?
        } else {
            self.initial_state()
        };
        let mut pool = self.local_pool(opts.observer.and_then(RoundObserver::grad_spans));
        let transport: &mut dyn Transport = match opts.coordinator {
            Some(coord) => coord,
            None => &mut pool,
        };
        let stop_round = opts.stop_after.map_or(cfg.rounds, |k| k.min(cfg.rounds));
        self.drive(&mut st, opts.sink, opts.observer, stop_round, transport)?;
        Ok(RunResult {
            algorithm: cfg.algorithm.name().to_string(),
            rounds: st.records,
            final_accuracy: st.final_accuracy,
            best_accuracy: st.best_accuracy,
            total_bytes: st.total_bytes,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// Load and validate the configured checkpoint into resumable state.
    /// Fails with [`FlError::Checkpoint`] when no checkpoint policy is
    /// configured, the file is missing/corrupt, or it was written by an
    /// incompatible configuration.
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

    /// The in-process transport over this simulation's parties.
    fn local_pool<'a>(&'a self, grad_spans: Option<&'a [Range<usize>]>) -> LocalPool<'a> {
        LocalPool::new(PartyEnv {
            cfg: &self.config,
            model_spec: &self.model_spec,
            parties: self.parties.as_ref(),
            classes: self.test.num_classes,
            grad_spans,
        })
    }

    /// The canonical config JSON both sides of a distributed run compare
    /// at handshake time (see [`crate::net::config_fingerprint`]).
    pub fn fingerprint(&self) -> String {
        crate::net::config_fingerprint(&self.model_spec, self.parties.n_parties(), &self.config)
    }

    /// Fresh server-side state for round 0.
    fn initial_state(&self) -> SimState {
        let cfg = &self.config;
        let init_seed = derive_seed(cfg.seed, SEED_INIT);
        let model = self.model_spec.build(self.test.num_classes, init_seed);
        let global_params = model.params().to_vec();
        let global_buffers = model.buffers().to_vec();
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
        if ck.n_parties != self.parties.n_parties() {
            return mismatch(
                "n_parties",
                self.parties.n_parties().to_string(),
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
        let p_len = probe.param_count();
        let b_len = probe.buffer_count();
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
            if id >= self.parties.n_parties() {
                return mismatch(
                    "client_c party id",
                    format!("below {}", self.parties.n_parties()),
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
            if id >= self.parties.n_parties() {
                return mismatch(
                    "residuals party id",
                    format!("below {}", self.parties.n_parties()),
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
    /// including) `stop_round`, which is `cfg.rounds` except for a
    /// simulated kill. Where the cohort trains is `transport`'s business;
    /// everything else is the same loop on every path, and nothing a
    /// round produces is committed to `st` before the round passes quorum.
    fn drive(
        &self,
        st: &mut SimState,
        sink: &dyn TraceSink,
        observer: Option<&dyn RoundObserver>,
        stop_round: usize,
        transport: &mut dyn Transport,
    ) -> Result<(), FlError> {
        let cfg = &self.config;
        let mut eval_model = self.model_spec.build(self.test.num_classes, 0);

        for round in st.round_next..stop_round {
            // Every phase time below is the duration of a span (or, for
            // comm and the round so far, a lap of this one): the record,
            // the trace events and the profiler read one clock.
            let round_sp = niid_prof::timed!("fl.round");
            let selected = {
                let _sp = niid_prof::span!("fl.sample");
                self.sample_round(round)
            };
            sink.record(&TraceEvent::RoundStarted {
                round,
                participants: selected.len(),
            });

            let train_sp = niid_prof::timed!("fl.train");
            let bcast = Broadcast {
                round,
                params: &st.global_params,
                buffers: &st.global_buffers,
                server_c: &st.server_c,
            };
            let party_outcomes =
                transport.train_round(&bcast, &selected, &st.client_c, &st.residuals, sink);
            let local_wall_ms = wall_ms(train_sp.close());
            debug_assert_eq!(party_outcomes.len(), selected.len());

            // Split the cohort: survivors aggregate, failures are isolated
            // and reported.
            let mut survivors: Vec<usize> = Vec::with_capacity(selected.len());
            let mut trained: Vec<TrainedParty> = Vec::with_capacity(selected.len());
            let mut failures: Vec<PartyFailure> = Vec::new();
            for (party_id, outcome) in selected.iter().copied().zip(party_outcomes) {
                match outcome {
                    PartyOutcome::Trained(t) => {
                        survivors.push(party_id);
                        trained.push(t);
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
                // `st` is still the state this round started from,
                // `round_next` included, so resume retries exactly here.
                if let Some(policy) = &cfg.checkpoint {
                    self.save_checkpoint(st, policy, sink, round)?;
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

            let comm_started = round_sp.elapsed();
            let (traffic, outcomes, updates) =
                self.receive_updates(st, round, selected.len(), &survivors, trained, &failures)?;
            sink.record(&TraceEvent::CommMeasured {
                round,
                encoding: cfg.codec.label().to_string(),
                down_bytes: traffic.down_bytes,
                up_bytes: traffic.up_bytes,
                wall_ms: wall_ms(round_sp.elapsed() - comm_started),
            });

            // Only observed runs pay for the pre-aggregation copy.
            let global_before = observer.map(|_| st.global_params.clone());

            let aggregate_wall_ms = wall_ms(self.aggregate(st, &outcomes, &updates));
            sink.record(&TraceEvent::Aggregated {
                round,
                wall_ms: aggregate_wall_ms,
            });

            let (test_accuracy, eval_wall_ms) =
                if (round + 1) % cfg.eval_every == 0 || round + 1 == cfg.rounds {
                    let (accuracy, took) = self.evaluate(st, &mut eval_model);
                    let eval_wall_ms = wall_ms(took);
                    sink.record(&TraceEvent::Evaluated {
                        round,
                        accuracy,
                        wall_ms: eval_wall_ms,
                    });
                    (Some(accuracy), eval_wall_ms)
                } else {
                    (None, 0.0)
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
            // The round's one fact sheet: the observer borrows it, the
            // run keeps it.
            let record = RoundRecord {
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
            };
            if let Some(obs) = observer {
                obs.observe_round(&RoundObservation {
                    record: &record,
                    selected: &survivors,
                    outcomes: &outcomes,
                    failures: &failures,
                    global_before: global_before.as_deref().unwrap_or(&st.global_params),
                    global_after: &st.global_params,
                    buffers_after: &st.global_buffers,
                    encoding: cfg.codec.label(),
                });
            }
            sink.record(&TraceEvent::RoundFinished {
                round,
                wall_ms: wall_ms(round_sp.elapsed()),
            });
            st.records.push(record);
            st.round_next = round + 1;

            if let Some(policy) = &cfg.checkpoint {
                if (round + 1) % policy.every == 0 || round + 1 == cfg.rounds {
                    self.save_checkpoint(st, policy, sink, round)?;
                }
            }
        }
        Ok(())
    }

    /// The comm phase: decode and check every survivor's upload, then —
    /// only once all of them are good — commit the refreshed per-party
    /// state and bill the round. A malformed upload (whatever transport
    /// delivered it) is a typed error that leaves `st` untouched.
    ///
    /// Every upload byte billed is the length of a payload that was
    /// actually encoded; the always-dense downlink (params + buffers +
    /// server `c` under SCAFFOLD, the state this round *started* from) and
    /// the buffers and `Δc` that ride along dense are billed at
    /// [`UpdateCodec::encoded_len`], which is data-independent. Billing by
    /// failure kind: a dropped update was trained and sent (the loss
    /// happened in flight), so it costs upload bytes at the codec's
    /// encoded size; a crashed party never produced one.
    fn receive_updates(
        &self,
        st: &mut SimState,
        round: usize,
        selected: usize,
        survivors: &[usize],
        trained: Vec<TrainedParty>,
        failures: &[PartyFailure],
    ) -> Result<(RoundTraffic, Vec<LocalOutcome>, Vec<DecodedUpdate>), FlError> {
        let codec = self.config.codec;
        let kern = active_kernel();
        let (p_len, b_len) = (st.global_params.len(), st.global_buffers.len());
        // What an honest party returns: a variate and `Δc` only under
        // SCAFFOLD, a residual only under a lossy codec.
        let c_len = st.server_c.len();
        let r_len = if codec.is_lossy() { p_len } else { 0 };
        let mut updates = Vec::with_capacity(trained.len());
        for (&party_id, t) in survivors.iter().zip(&trained) {
            let malformed = |what: &str| {
                FlError::Net(NetError::Malformed(format!(
                    "party {party_id} sent {what} in round {round}"
                )))
            };
            let decoded = codec.decode(kern, &t.payload, p_len);
            updates.push(decoded.map_err(|e| malformed(&format!("an undecodable update ({e})")))?);
            if t.residual.len() != r_len
                || t.client_c.len() != c_len
                || t.outcome.delta_c.len() != c_len
                || t.outcome.buffers.len() != b_len
                || t.outcome.tau == 0
            {
                return Err(malformed("an update of the wrong shape"));
            }
        }

        let dense = UpdateCodec::DenseF32;
        let ride_along = dense.encoded_len(b_len) + dense.encoded_len(c_len);
        let dropped = failures
            .iter()
            .filter(|f| matches!(f.kind, FailureKind::InjectedDrop))
            .count();
        let traffic = RoundTraffic {
            down_bytes: selected * (dense.encoded_len(p_len) + ride_along),
            up_bytes: trained.iter().map(|t| t.payload.len()).sum::<usize>()
                + survivors.len() * ride_along
                + dropped * (codec.encoded_len(p_len) + ride_along),
        };
        st.total_bytes += traffic.total();
        let outcomes = survivors
            .iter()
            .zip(trained)
            .map(|(&party_id, t)| {
                if !t.residual.is_empty() {
                    st.residuals.insert(party_id, t.residual);
                }
                if !t.client_c.is_empty() {
                    st.client_c.insert(party_id, t.client_c);
                }
                t.outcome
            })
            .collect();
        Ok((traffic, outcomes, updates))
    }

    /// Fold the survivors' updates into the global model, the SCAFFOLD
    /// server variate and (under [`BufferPolicy::Average`]) the buffers.
    /// Returns how long that took.
    fn aggregate(
        &self,
        st: &mut SimState,
        outcomes: &[LocalOutcome],
        updates: &[DecodedUpdate],
    ) -> Duration {
        let sp = niid_prof::timed!("fl.aggregate");
        let cfg = &self.config;
        let updates: Vec<UpdateRef<'_>> = updates.iter().map(UpdateRef::from).collect();
        let average = match cfg.algorithm {
            Algorithm::FedNova => fednova_average_updates,
            _ => weighted_average_updates,
        };
        average(&mut st.global_params, outcomes, &updates, cfg.server_lr);
        if cfg.algorithm.uses_control_variates() {
            scaffold_update_c(&mut st.server_c, outcomes, self.parties.n_parties());
        }
        if cfg.buffer_policy == BufferPolicy::Average {
            if let Some(avg) = average_buffers(outcomes) {
                st.global_buffers = avg;
            }
        }
        sp.close()
    }

    /// Test-set accuracy of the current global model, and how long the
    /// evaluation took.
    fn evaluate(&self, st: &mut SimState, eval_model: &mut Network) -> (f64, Duration) {
        let sp = niid_prof::timed!("fl.eval");
        eval_model.set_params_flat(&st.global_params);
        if !st.global_buffers.is_empty() {
            eval_model.set_buffers_flat(&st.global_buffers);
        }
        let accuracy = eval_model.evaluate(
            &self.test.features,
            &self.test.labels,
            &self.test.input_shape,
            self.config.eval_batch_size,
        );
        st.best_accuracy = st.best_accuracy.max(accuracy);
        st.final_accuracy = accuracy;
        (accuracy, sp.close())
    }

    /// Write a checkpoint of `st` through the atomic tmp + fsync + rename
    /// path — the one writer for both the periodic round-end checkpoint
    /// (`st.round_next` is `round + 1`) and the abort-time checkpoint a
    /// lost quorum leaves behind (still `round`, the failed round).
    fn save_checkpoint(
        &self,
        st: &SimState,
        policy: &CheckpointPolicy,
        sink: &dyn TraceSink,
        round: usize,
    ) -> Result<(), FlError> {
        let _sp = niid_prof::span!("fl.checkpoint");
        let cfg = &self.config;
        let path = policy.path();
        Checkpoint {
            round_next: st.round_next,
            seed: cfg.seed,
            algorithm: cfg.algorithm.name().to_string(),
            n_parties: self.parties.n_parties(),
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

        // Parties out of id order cannot be lent by position.
        let mut swapped = parties.clone();
        swapped.swap(0, 1);
        assert!(matches!(
            FedSim::new(
                spec(),
                swapped,
                test.clone(),
                quick_config(Algorithm::FedAvg, 16)
            ),
            Err(FlError::InconsistentParties(_))
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

    /// A codec built by hand, not parsed from a spec, meets the same
    /// parameter rules.
    #[test]
    fn hand_built_codecs_are_validated_like_parsed_ones() {
        let (parties, test) = toy_setup(2, 8, 37);
        for codec in [
            UpdateCodec::TopKInt8 {
                fraction: 0.5,
                levels: 1,
            },
            UpdateCodec::TopK { fraction: 0.0 },
            UpdateCodec::Int8Q { levels: 129 },
        ] {
            let mut cfg = quick_config(Algorithm::FedAvg, 38);
            cfg.codec = codec;
            assert!(
                matches!(
                    FedSim::new(spec(), parties.clone(), test.clone(), cfg),
                    Err(FlError::InvalidConfig { field: "codec", .. })
                ),
                "{codec}"
            );
        }
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
        let p_len = probe.param_count();
        let b_len = probe.buffer_count();
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

    /// A directory holding only a pre-v4 `checkpoint.json`: every resuming
    /// start refuses it by name, and `Start::Auto` does not mistake "no
    /// checkpoint.bin" for "start fresh" and run over it.
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
        for distributed in [false, true] {
            for start in [Start::Resume, Start::Auto] {
                let mut opts = RunOptions::new(&NoopSink);
                opts.start = start;
                opts.coordinator = distributed.then_some(&mut coord);
                match sim.run_with(opts) {
                    Err(FlError::Checkpoint(msg)) => {
                        assert!(msg.contains("unsupported checkpoint version"), "{msg}");
                        assert!(msg.contains("checkpoint.json"), "{msg}");
                    }
                    other => panic!("expected a legacy-format refusal, got {other:?}"),
                }
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
    fn start_auto_runs_fresh_then_resumes() {
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
        let mut auto = RunOptions::new(&NoopSink);
        auto.start = Start::Auto;
        let resumed = sim.run_with(auto).unwrap();
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

    #[test]
    fn an_observer_over_a_coordinator_is_refused_up_front() {
        struct Unreached;
        impl RoundObserver for Unreached {
            fn observe_round(&self, _: &RoundObservation<'_>) {
                unreachable!("no round runs");
            }
        }
        let (parties, test) = toy_setup(2, 8, 35);
        let sim = FedSim::new(spec(), parties, test, quick_config(Algorithm::FedAvg, 36)).unwrap();
        let mut coord =
            Coordinator::bind("127.0.0.1:0", 2, sim.fingerprint(), Default::default()).unwrap();
        let mut opts = RunOptions::new(&NoopSink);
        opts.observer = Some(&Unreached);
        opts.coordinator = Some(&mut coord);
        assert!(matches!(
            sim.run_with(opts),
            Err(FlError::InvalidConfig {
                field: "observer",
                ..
            })
        ));
    }

    /// The in-process pool with a hook that edits what it reported: the
    /// transport seam lets a test play a hostile or unlucky cohort without
    /// a socket.
    struct Tampered<'a, F> {
        pool: LocalPool<'a>,
        tamper: F,
    }

    impl<F: FnMut(&mut [PartyOutcome])> Transport for Tampered<'_, F> {
        fn train_round(
            &mut self,
            bcast: &Broadcast<'_>,
            selected: &[usize],
            client_c: &BTreeMap<usize, Vec<f32>>,
            residuals: &BTreeMap<usize, Vec<f32>>,
            sink: &dyn TraceSink,
        ) -> Vec<PartyOutcome> {
            let mut outcomes = self
                .pool
                .train_round(bcast, selected, client_c, residuals, sink);
            (self.tamper)(&mut outcomes);
            outcomes
        }
    }

    /// The pool's models live as long as the pool, not one round: a model
    /// swapped for the wrong architecture is still there next round (the
    /// first party to take it panics on the length check), and that panic
    /// tears it down so the round after trains every party. The pool never
    /// holds more models than its region is wide.
    #[test]
    fn local_pool_keeps_worker_models_across_rounds() {
        for threads in [1, 2] {
            let (parties, test) = toy_setup(3, 16, 61);
            let mut cfg = quick_config(Algorithm::FedAvg, 62);
            cfg.threads = threads;
            let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
            let st = sim.initial_state();
            let mut pool = sim.local_pool(None);
            let width = threads.min(niid_tensor::configured_threads());
            let round = |pool: &mut LocalPool<'_>, round: usize| {
                let bcast = Broadcast {
                    round,
                    params: &st.global_params,
                    buffers: &st.global_buffers,
                    server_c: &[],
                };
                let (c, r) = (BTreeMap::new(), BTreeMap::new());
                let trained = pool
                    .train_round(&bcast, &[0, 1, 2], &c, &r, &NoopSink)
                    .iter()
                    .map(|o| matches!(o, PartyOutcome::Trained(_)))
                    .collect::<Vec<_>>();
                assert!((1..=width).contains(&pool.models.len()), "@{threads}");
                trained
            };
            assert_eq!(round(&mut pool, 0), [true, true, true], "@{threads}");
            // The last free model is the next one taken.
            *pool.models.last_mut().unwrap() = ModelSpec::Mlp { in_dim: 5 }.build(2, 0);
            let trained = round(&mut pool, 1);
            assert_eq!(trained.iter().filter(|&&t| !t).count(), 1, "@{threads}");
            if threads == 1 {
                assert_eq!(trained, [false, true, true]);
            }
            assert_eq!(round(&mut pool, 2), [true, true, true], "@{threads}");
        }
    }

    /// SCAFFOLD + int8 over four parties, two clean rounds in: every
    /// party holds a variate and a residual.
    fn stateful_sim(checkpoint: Option<CheckpointPolicy>) -> (FedSim, SimState) {
        let (parties, test) = toy_setup(4, 32, 33);
        let mut cfg = quick_config(
            Algorithm::Scaffold {
                variant: ControlVariateUpdate::Reuse,
            },
            34,
        );
        cfg.codec = UpdateCodec::Int8Q { levels: 128 };
        cfg.checkpoint = checkpoint;
        let sim = FedSim::new(spec(), parties, test, cfg).unwrap();
        let mut st = sim.initial_state();
        sim.drive(&mut st, &NoopSink, None, 2, &mut sim.local_pool(None))
            .unwrap();
        assert_eq!((st.client_c.len(), st.residuals.len()), (4, 4));
        (sim, st)
    }

    fn first_trained(outcomes: &mut [PartyOutcome]) -> &mut TrainedParty {
        match &mut outcomes[0] {
            PartyOutcome::Trained(t) => t,
            PartyOutcome::Failed(f) => panic!("party 0 failed: {f:?}"),
        }
    }

    #[test]
    fn a_malformed_upload_is_a_typed_error_and_commits_nothing() {
        type Tamper = fn(&mut TrainedParty);
        // Each tampering, and what the typed error must say about it.
        let tamperings: [(&str, Tamper, &str); 4] = [
            (
                "undecodable payload",
                |t| t.payload.push(0),
                "undecodable update (malformed message: 1 trailing bytes",
            ),
            ("short residual", |t| t.residual.truncate(1), "wrong shape"),
            ("long client_c", |t| t.client_c.push(0.0), "wrong shape"),
            (
                "missing delta_c",
                |t| t.outcome.delta_c.clear(),
                "wrong shape",
            ),
        ];
        for (what, tamper, reason) in tamperings {
            let (sim, mut st) = stateful_sim(None);
            let before = (
                st.client_c.clone(),
                st.residuals.clone(),
                st.global_params.clone(),
                st.records.clone(),
                st.total_bytes,
            );
            let mut transport = Tampered {
                pool: sim.local_pool(None),
                tamper: |outcomes: &mut [PartyOutcome]| tamper(first_trained(outcomes)),
            };
            let err = sim
                .drive(&mut st, &NoopSink, None, 3, &mut transport)
                .unwrap_err();
            assert!(
                matches!(&err, FlError::Net(NetError::Malformed(m)) if m.contains(reason)),
                "{what}: {err:?}"
            );
            let after = (
                st.client_c,
                st.residuals,
                st.global_params,
                st.records,
                st.total_bytes,
            );
            assert!(before == after, "{what}: state moved before the error");
        }
    }

    #[test]
    fn a_lost_quorum_checkpoints_the_variates_the_round_started_from() {
        let dir = std::env::temp_dir().join(format!("niid_engine_seam_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir, 10);
        let (sim, mut st) = stateful_sim(Some(policy.clone()));
        let entered_with: Vec<_> = st.client_c.clone().into_iter().collect();
        let mut refreshed = Vec::new();
        let mut transport = Tampered {
            pool: sim.local_pool(None),
            tamper: |outcomes: &mut [PartyOutcome]| {
                // Party 0 really trained (its refreshed variate is in its
                // outcome); the other three are lost: 1 of 4 < quorum 0.5.
                refreshed = first_trained(outcomes).client_c.clone();
                for (party_id, outcome) in outcomes.iter_mut().enumerate().skip(1) {
                    *outcome = PartyOutcome::Failed(PartyFailure {
                        party_id,
                        kind: FailureKind::Panic,
                        message: "lost".into(),
                    });
                }
            },
        };
        let err = sim
            .drive(&mut st, &NoopSink, None, 3, &mut transport)
            .unwrap_err();
        assert!(
            matches!(err, FlError::QuorumLost { round: 2, .. }),
            "{err:?}"
        );
        assert_ne!(refreshed, entered_with[0].1, "party 0 did refresh");
        let ck = Checkpoint::load(&policy.path()).unwrap();
        assert_eq!(ck.round_next, 2);
        assert_eq!(ck.client_c, entered_with);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
