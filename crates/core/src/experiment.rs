//! The Table 3 experiment runner: dataset × partition × algorithm ×
//! trials, reporting mean ± std accuracy exactly as the paper's cells do.

use crate::partition::{build_parties, partition, LazyPartition, PartitionError, Strategy};
use niid_data::{generate, DatasetId, GenConfig};
use niid_fl::dynamics::{DynamicsRecorder, RoundObserver};
use niid_fl::engine::{BufferPolicy, FedSim, FlConfig, RunOptions, Start};
use niid_fl::local::LocalConfig;
use niid_fl::trace::{JsonlSink, NoopSink, TraceSink};
use niid_fl::{Algorithm, CheckpointPolicy, FaultPlan, FlError, RunResult, UpdateCodec};
use niid_json::{FromJson, Json, JsonError, ToJson};
use niid_metrics::{global_registry, JsonlExporter, MetricsServer};
use niid_nn::ModelSpec;
use niid_stats::{derive_seed, Summary};
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// The model the paper assigns to each dataset: the LeNet-style CNN for
/// the six image datasets, the 32/16/8 MLP for tabular data and FCUBE.
pub fn default_model_for(id: DatasetId, cfg: &GenConfig) -> ModelSpec {
    match id {
        DatasetId::Mnist | DatasetId::Fmnist | DatasetId::Femnist => ModelSpec::LenetCnn {
            in_channels: 1,
            side: cfg.image_side,
        },
        DatasetId::Cifar10 | DatasetId::Svhn => ModelSpec::LenetCnn {
            in_channels: 3,
            side: cfg.image_side,
        },
        DatasetId::Adult | DatasetId::Rcv1 | DatasetId::Covtype => ModelSpec::Mlp {
            in_dim: id.paper_stats().features.min(cfg.max_tabular_dim),
        },
        DatasetId::Fcube => ModelSpec::Mlp { in_dim: 3 },
    }
}

/// The paper's tuned learning rates: "learning rate 0.1 for rcv1 and
/// learning rate 0.01 for the other datasets".
pub fn default_lr(id: DatasetId) -> f32 {
    match id {
        DatasetId::Rcv1 => 0.1,
        _ => 0.01,
    }
}

/// The paper's default party count: 10, "except for FCUBE where the
/// number of parties is set to 4".
pub fn default_parties(id: DatasetId) -> usize {
    match id {
        DatasetId::Fcube => 4,
        _ => 10,
    }
}

/// One experiment cell: everything needed to reproduce one number.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Dataset under test.
    pub dataset: DatasetId,
    /// Synthetic generation scale.
    pub gen: GenConfig,
    /// Number of parties.
    pub n_parties: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Federated algorithm.
    pub algorithm: Algorithm,
    /// Model override (defaults to [`default_model_for`]).
    pub model: Option<ModelSpec>,
    /// Communication rounds.
    pub rounds: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate override (defaults to [`default_lr`]).
    pub lr: Option<f32>,
    /// Sample fraction per round.
    pub sample_fraction: f64,
    /// BatchNorm buffer aggregation policy.
    pub buffer_policy: BufferPolicy,
    /// Server-side learning rate (paper: 1.0).
    pub server_lr: f32,
    /// Independent trials (the paper runs 3).
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Append round-level trace events (JSON Lines) to this file; `None`
    /// disables tracing.
    pub trace_path: Option<String>,
    /// Directory for training-dynamics metrics series
    /// (`<dir>/metrics.jsonl`); `None` disables the JSONL series (the
    /// live endpoint can still be enabled via `metrics_port`).
    pub metrics_dir: Option<String>,
    /// Serve live Prometheus metrics on `127.0.0.1:<port>` (0 picks an
    /// ephemeral port; see [`metrics_server_addr`]); `None` disables the
    /// endpoint.
    pub metrics_port: Option<u16>,
    /// Root directory for round-granular checkpoints; each trial writes
    /// under `<dir>/trial<t>/checkpoint.bin`; `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<String>,
    /// Checkpoint cadence in rounds (the final round is always written).
    /// Zero is refused by the engine as an invalid `checkpoint.every`.
    pub checkpoint_every: usize,
    /// Resume each trial from its checkpoint when one exists (fresh start
    /// otherwise). Requires `checkpoint_dir`.
    pub resume: bool,
    /// Deterministic fault injection (`--faults` spec); `None` = clean.
    pub faults: Option<FaultPlan>,
    /// Minimum surviving fraction of each round's selected cohort.
    pub min_quorum: f64,
    /// Cohort-on-demand mode for cross-device scale: partition lazily
    /// (see [`LazyPartition`]) and materialize party datasets only while
    /// a round's worker trains them, so peak party-resident memory is
    /// proportional to the sampled cohort rather than `n_parties`.
    /// Supports the strategies [`LazyPartition`] supports.
    pub lazy_parties: bool,
    /// Wire codec for party update uploads (`--codec` spec; dense is the
    /// paper's uncompressed baseline).
    pub codec: UpdateCodec,
}

impl ExperimentSpec {
    /// A cell with the paper's defaults at the given generation scale,
    /// shrunk to quick settings appropriate for the scale (callers override
    /// `rounds`/`local_epochs` for specific figures).
    pub fn new(
        dataset: DatasetId,
        strategy: Strategy,
        algorithm: Algorithm,
        gen: GenConfig,
    ) -> Self {
        Self {
            dataset,
            gen,
            n_parties: default_parties(dataset),
            strategy,
            algorithm,
            model: None,
            rounds: 20,
            local_epochs: 5,
            batch_size: 32,
            lr: None,
            sample_fraction: 1.0,
            buffer_policy: BufferPolicy::Average,
            server_lr: 1.0,
            trials: 1,
            seed: gen.seed,
            trace_path: None,
            metrics_dir: None,
            metrics_port: None,
            checkpoint_dir: None,
            checkpoint_every: 5,
            resume: false,
            faults: None,
            min_quorum: 0.5,
            lazy_parties: false,
            codec: UpdateCodec::DenseF32,
        }
    }

    /// The checkpoint policy for one trial, when checkpointing is on.
    /// The path embeds a cell slug (dataset, strategy, algorithm — with
    /// hyperparameters, so a FedProx μ-sweep gets five distinct dirs)
    /// because the figure binaries drive several cells through one
    /// invocation and their trials must not collide.
    pub fn checkpoint_policy(&self, trial: usize) -> Option<CheckpointPolicy> {
        self.checkpoint_dir.as_ref().map(|dir| {
            let raw = format!(
                "{:?}-{}-{:?}",
                self.dataset,
                self.strategy.label(),
                self.algorithm
            );
            let slug: String = raw
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '.' {
                        c
                    } else {
                        '-'
                    }
                })
                .collect();
            CheckpointPolicy::new(
                PathBuf::from(dir).join(slug).join(format!("trial{trial}")),
                self.checkpoint_every,
            )
        })
    }

    /// Path of the metrics JSONL series for this spec, when enabled.
    pub fn metrics_jsonl_path(&self) -> Option<PathBuf> {
        self.metrics_dir
            .as_ref()
            .map(|d| PathBuf::from(d).join("metrics.jsonl"))
    }

    /// Resolved model spec.
    pub fn model_spec(&self) -> ModelSpec {
        self.model
            .clone()
            .unwrap_or_else(|| default_model_for(self.dataset, &self.gen))
    }

    /// Resolved learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr.unwrap_or_else(|| default_lr(self.dataset))
    }
}

/// Errors from running an experiment cell.
#[derive(Debug)]
pub enum ExperimentError {
    /// Partitioning failed.
    Partition(PartitionError),
    /// The federated run failed.
    Fl(FlError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Partition(e) => write!(f, "partitioning: {e}"),
            ExperimentError::Fl(e) => write!(f, "federated run: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<PartitionError> for ExperimentError {
    fn from(e: PartitionError) -> Self {
        ExperimentError::Partition(e)
    }
}

impl From<FlError> for ExperimentError {
    fn from(e: FlError) -> Self {
        ExperimentError::Fl(e)
    }
}

/// The outcome of one experiment cell across trials.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Dataset name.
    pub dataset: String,
    /// Strategy label (paper notation).
    pub strategy: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Final accuracy per trial.
    pub accuracies: Vec<f64>,
    /// Mean final accuracy.
    pub mean_accuracy: f64,
    /// Std of final accuracy.
    pub std_accuracy: f64,
    /// Per-trial run details (curves, traffic).
    pub runs: Vec<RunResult>,
}

impl ExperimentResult {
    /// The paper's `mean%±std%` cell.
    pub fn cell(&self) -> String {
        Summary::of(&self.accuracies).accuracy_cell()
    }
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dataset", self.dataset.to_json()),
            ("strategy", self.strategy.to_json()),
            ("algorithm", self.algorithm.to_json()),
            ("accuracies", self.accuracies.to_json()),
            ("mean_accuracy", self.mean_accuracy.to_json()),
            ("std_accuracy", self.std_accuracy.to_json()),
            ("runs", self.runs.to_json()),
        ])
    }
}

impl FromJson for ExperimentResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let req = |key: &'static str| -> Result<&Json, JsonError> {
            v.get(key)
                .ok_or_else(|| JsonError::new(format!("missing field {key}")))
        };
        Ok(ExperimentResult {
            dataset: String::from_json(req("dataset")?)?,
            strategy: String::from_json(req("strategy")?)?,
            algorithm: String::from_json(req("algorithm")?)?,
            accuracies: Vec::from_json(req("accuracies")?)?,
            mean_accuracy: f64::from_json(req("mean_accuracy")?)?,
            std_accuracy: f64::from_json(req("std_accuracy")?)?,
            runs: Vec::from_json(req("runs")?)?,
        })
    }
}

/// The process-wide live metrics server, started at most once by the
/// first observed experiment that asks for a port (later `metrics_port`
/// values are ignored — one process, one endpoint). Held here so it
/// serves for the remainder of the process.
static METRICS_SERVER: OnceLock<Option<MetricsServer>> = OnceLock::new();

/// Address of the live `/metrics` endpoint, if one is serving. Useful
/// when the server was started with port 0 (ephemeral).
pub fn metrics_server_addr() -> Option<std::net::SocketAddr> {
    METRICS_SERVER
        .get()
        .and_then(|s| s.as_ref())
        .map(MetricsServer::addr)
}

/// Build the training-dynamics recorder for a spec, when metrics are
/// enabled. Publishes into the process-global registry, appends the JSONL
/// series under `metrics_dir` (the file registers itself for the exit
/// flush), and (once per process) starts the live endpoint.
fn build_recorder(
    spec: &ExperimentSpec,
    model: &ModelSpec,
    classes: usize,
) -> Option<DynamicsRecorder> {
    if spec.metrics_dir.is_none() && spec.metrics_port.is_none() {
        return None;
    }
    let registry = global_registry().clone();
    let jsonl = spec.metrics_jsonl_path().and_then(|path| {
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!(
                    "warning: metrics dir {}: {e}; series disabled",
                    dir.display()
                );
                return None;
            }
        }
        match JsonlExporter::append(&path) {
            Ok(exporter) => Some(Arc::new(exporter)),
            Err(e) => {
                eprintln!(
                    "warning: metrics file {}: {e}; series disabled",
                    path.display()
                );
                None
            }
        }
    });
    if let Some(port) = spec.metrics_port {
        METRICS_SERVER.get_or_init(|| match MetricsServer::start(port, registry.clone()) {
            Ok(server) => {
                eprintln!("metrics: serving http://{}/metrics", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("warning: metrics port {port}: {e}; endpoint disabled");
                None
            }
        });
    }
    // Probe build to learn the flat-vector layout (cheap relative to any
    // training run; the seed is irrelevant for the layout).
    let layout = model.build(classes, 0).state_layout();
    Some(DynamicsRecorder::new(registry, &layout, jsonl))
}

/// Run one experiment cell: generate the dataset once, then for each trial
/// partition + train with trial-specific seeds.
pub fn run_experiment(spec: &ExperimentSpec) -> Result<ExperimentResult, ExperimentError> {
    assert!(spec.trials > 0, "run_experiment: need at least one trial");
    let split = generate(spec.dataset, &spec.gen);
    // Arc so the lazy-partition provider can share the training set with
    // this function without copying it; the resident path borrows through
    // the Arc unchanged.
    let train = Arc::new(split.train);
    let test = split.test;
    let model = spec.model_spec();
    // One shared sink for all trials: cells appended to the same file stay
    // distinguishable by their round counters resetting. A trace file that
    // cannot be opened disables tracing (with a warning) rather than
    // failing the experiment.
    let sink: Option<JsonlSink> = spec.trace_path.as_ref().and_then(|path| {
        JsonlSink::append(path)
            .map_err(|e| eprintln!("warning: trace file {path}: {e}; tracing disabled"))
            .ok()
    });
    let recorder = build_recorder(spec, &model, test.num_classes);
    let observer = recorder.as_ref().map(|r| r as &dyn RoundObserver);
    let mut accuracies = Vec::with_capacity(spec.trials);
    let mut runs = Vec::with_capacity(spec.trials);
    for trial in 0..spec.trials {
        let tseed = derive_seed(spec.seed, 0xE0 + trial as u64);
        let config = FlConfig {
            algorithm: spec.algorithm,
            rounds: spec.rounds,
            local: LocalConfig {
                epochs: spec.local_epochs,
                batch_size: spec.batch_size,
                lr: spec.learning_rate(),
                momentum: 0.9,
                weight_decay: 0.0,
            },
            sample_fraction: spec.sample_fraction,
            buffer_policy: spec.buffer_policy,
            eval_batch_size: 256,
            eval_every: 1,
            server_lr: spec.server_lr,
            seed: tseed,
            threads: 0,
            min_quorum: spec.min_quorum,
            fault_plan: spec.faults.clone(),
            checkpoint: spec.checkpoint_policy(trial),
            codec: spec.codec,
        };
        let sim = if spec.lazy_parties {
            let provider =
                LazyPartition::new(Arc::clone(&train), spec.n_parties, spec.strategy, tseed)?;
            FedSim::with_provider(model.clone(), Box::new(provider), test.clone(), config)?
        } else {
            let part = partition(&train, spec.n_parties, spec.strategy, tseed)?;
            let parties = build_parties(&train, &part, derive_seed(tseed, 0x17));
            FedSim::new(model.clone(), parties, test.clone(), config)?
        };
        let result = sim.run_with(RunOptions {
            observer,
            start: if spec.resume {
                Start::Auto
            } else {
                Start::Fresh
            },
            ..RunOptions::new(sink.as_ref().map_or(&NoopSink, |s| s as &dyn TraceSink))
        })?;
        accuracies.push(result.final_accuracy);
        runs.push(result);
    }
    if let Some(s) = &sink {
        let _ = s.flush();
    }
    if let Some(r) = &recorder {
        r.flush();
    }
    let summary = Summary::of(&accuracies);
    Ok(ExperimentResult {
        dataset: spec.dataset.name().to_string(),
        strategy: spec.strategy.label(),
        algorithm: spec.algorithm.name().to_string(),
        accuracies,
        mean_accuracy: summary.mean,
        std_accuracy: summary.std_dev,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(default_lr(DatasetId::Rcv1), 0.1);
        assert_eq!(default_lr(DatasetId::Mnist), 0.01);
        assert_eq!(default_parties(DatasetId::Fcube), 4);
        assert_eq!(default_parties(DatasetId::Cifar10), 10);
        let cfg = GenConfig::tiny(1);
        assert!(matches!(
            default_model_for(DatasetId::Mnist, &cfg),
            ModelSpec::LenetCnn { in_channels: 1, .. }
        ));
        assert!(matches!(
            default_model_for(DatasetId::Cifar10, &cfg),
            ModelSpec::LenetCnn { in_channels: 3, .. }
        ));
        assert_eq!(
            default_model_for(DatasetId::Adult, &cfg),
            ModelSpec::Mlp { in_dim: 32 }
        );
        assert_eq!(
            default_model_for(DatasetId::Fcube, &cfg),
            ModelSpec::Mlp { in_dim: 3 }
        );
    }

    #[test]
    fn fcube_experiment_runs_end_to_end() {
        let gen = GenConfig::tiny(2);
        let mut spec = ExperimentSpec::new(
            DatasetId::Fcube,
            Strategy::FcubeSynthetic,
            Algorithm::FedAvg,
            gen,
        );
        spec.rounds = 3;
        spec.local_epochs = 2;
        spec.trials = 2;
        let result = run_experiment(&spec).unwrap();
        assert_eq!(result.accuracies.len(), 2);
        assert_eq!(result.runs.len(), 2);
        assert!(result.mean_accuracy > 0.4, "acc {}", result.mean_accuracy);
        assert!(result.cell().contains('%'));
        assert_eq!(result.strategy, "fcube-synthetic");
    }

    #[test]
    fn tabular_experiment_learns_above_chance() {
        let gen = GenConfig::tiny(3);
        let mut spec = ExperimentSpec::new(
            DatasetId::Rcv1,
            Strategy::Homogeneous,
            Algorithm::FedAvg,
            gen,
        );
        spec.rounds = 8;
        spec.local_epochs = 3;
        let result = run_experiment(&spec).unwrap();
        assert!(
            result.mean_accuracy > 0.7,
            "rcv1-like should be learnable, got {}",
            result.mean_accuracy
        );
    }

    #[test]
    fn experiment_errors_propagate() {
        let gen = GenConfig::tiny(4);
        // FCUBE partition with 10 parties is invalid.
        let mut spec = ExperimentSpec::new(
            DatasetId::Fcube,
            Strategy::FcubeSynthetic,
            Algorithm::FedAvg,
            gen,
        );
        spec.n_parties = 10;
        assert!(matches!(
            run_experiment(&spec),
            Err(ExperimentError::Partition(
                PartitionError::FcubeShape { .. }
            ))
        ));
    }

    #[test]
    fn checkpoint_policy_separates_cells_and_trials() {
        let gen = GenConfig::tiny(6);
        let mut spec = ExperimentSpec::new(
            DatasetId::Cifar10,
            Strategy::DirichletLabelSkew { beta: 0.5 },
            Algorithm::FedProx { mu: 0.01 },
            gen,
        );
        assert!(spec.checkpoint_policy(0).is_none(), "off by default");
        spec.checkpoint_dir = Some("/tmp/ck".into());
        let a = spec.checkpoint_policy(0).unwrap();
        let b = spec.checkpoint_policy(1).unwrap();
        assert_ne!(a.dir, b.dir, "trials get distinct dirs");
        // A μ-sweep through one binary must not collide on disk.
        spec.algorithm = Algorithm::FedProx { mu: 0.1 };
        let c = spec.checkpoint_policy(0).unwrap();
        assert_ne!(a.dir, c.dir, "cells get distinct dirs");
        assert!(a.dir.starts_with("/tmp/ck"));
    }

    #[test]
    fn experiment_resumes_from_checkpoint() {
        let dir = std::env::temp_dir().join(format!("niid_exp_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gen = GenConfig::tiny(7);
        let mut spec = ExperimentSpec::new(
            DatasetId::Fcube,
            Strategy::FcubeSynthetic,
            Algorithm::FedAvg,
            gen,
        );
        spec.rounds = 3;
        spec.local_epochs = 2;
        let clean = run_experiment(&spec).unwrap();

        spec.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        spec.checkpoint_every = 2;
        let first = run_experiment(&spec).unwrap();
        assert_eq!(first.accuracies, clean.accuracies);
        assert!(
            spec.checkpoint_policy(0).unwrap().path().exists(),
            "final-round checkpoint written"
        );

        // Second invocation with --resume loads the finished checkpoint
        // and reproduces the recorded stream without retraining.
        spec.resume = true;
        let second = run_experiment(&spec).unwrap();
        assert_eq!(second.accuracies, clean.accuracies);
        let ra = &clean.runs[0];
        let rb = &second.runs[0];
        assert_eq!(ra.final_accuracy, rb.final_accuracy);
        assert_eq!(ra.total_bytes, rb.total_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lazy_experiment_learns_with_partial_participation() {
        let gen = GenConfig::tiny(8);
        let mut spec = ExperimentSpec::new(
            DatasetId::Rcv1,
            Strategy::Homogeneous,
            Algorithm::FedAvg,
            gen,
        );
        spec.lazy_parties = true;
        spec.n_parties = 20;
        spec.sample_fraction = 0.5;
        spec.rounds = 16;
        spec.local_epochs = 3;
        let result = run_experiment(&spec).unwrap();
        assert!(
            result.mean_accuracy > 0.7,
            "lazy cohort run should still learn, got {}",
            result.mean_accuracy
        );
        for r in &result.runs[0].rounds {
            assert_eq!(r.participants, 10, "0.5 of 20 parties");
        }
        // A strategy the lazy path cannot serve is a typed error.
        spec.strategy = Strategy::DirichletLabelSkew { beta: 0.5 };
        assert!(matches!(
            run_experiment(&spec),
            Err(ExperimentError::Partition(
                PartitionError::UnsupportedLazy { .. }
            ))
        ));
    }

    #[test]
    fn trials_differ_but_rerun_is_identical() {
        let gen = GenConfig::tiny(5);
        let mut spec = ExperimentSpec::new(
            DatasetId::Adult,
            Strategy::DirichletLabelSkew { beta: 0.5 },
            Algorithm::FedAvg,
            gen,
        );
        spec.rounds = 2;
        spec.local_epochs = 1;
        spec.trials = 2;
        let a = run_experiment(&spec).unwrap();
        let b = run_experiment(&spec).unwrap();
        assert_eq!(a.accuracies, b.accuracies, "rerun must be identical");
    }
}
