//! Shared plumbing for the distributed-mode binaries (`fl_server`,
//! `fl_party`, `distributed_smoke`).
//!
//! Both sides of a distributed run must build the *identical* experiment
//! cell — same dataset generation, partition, model, and `FlConfig` —
//! because the protocol handshake compares config fingerprints
//! byte-for-byte and the determinism contract (bit-identical
//! `RoundRecord`s vs the in-process simulator) depends on every derived
//! seed matching. This module is that single source of truth: a tiny
//! CLI shared by both binaries plus `build_sim`/`build_host` over the
//! same tiny-MNIST Dirichlet(β=0.5) LeNet cell the resume smoke uses.

use crate::{fail, parsed, take};
use niid_core::partition::{build_parties, partition, Strategy};
use niid_data::{generate, Dataset, DatasetId, GenConfig};
use niid_fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_fl::local::LocalConfig;
use niid_fl::net::PartyHost;
use niid_fl::party::Party;
use niid_fl::{
    Algorithm, CheckpointPolicy, ControlVariateUpdate, FaultPlan, ResidentProvider, UpdateCodec,
};
use niid_nn::ModelSpec;
use niid_stats::derive_seed;

/// Options shared by `fl_server` and `fl_party` (plus the bin-specific
/// ones; unknown flags are rejected). Cell-shaping flags — seed, rounds,
/// parties, codec, faults, quorum — must be passed identically to both
/// binaries, or the handshake rejects the party.
#[derive(Debug, Clone)]
pub struct DistArgs {
    /// Master seed of the run.
    pub seed: u64,
    /// Communication rounds.
    pub rounds: usize,
    /// Population size `N`.
    pub parties: usize,
    /// Update-upload codec.
    pub codec: UpdateCodec,
    /// Optional deterministic fault plan.
    pub faults: Option<FaultPlan>,
    /// Quorum threshold.
    pub min_quorum: f64,
    /// Server: TCP port to bind (0 = ephemeral). Ignored by parties.
    pub port: u16,
    /// Path where the server writes (and parties read) `host:port`.
    pub addr_file: Option<String>,
    /// Party: fixed server address (`--addr-file` is the restart-safe
    /// alternative).
    pub connect: Option<String>,
    /// Party: which slot of `--of` this process is (hosts party ids
    /// `{ id | id % of == slot }`).
    pub slot: usize,
    /// Party: total number of party processes.
    pub of: usize,
    /// Checkpoint directory (server only).
    pub checkpoint_dir: Option<String>,
    /// Checkpoint cadence in rounds.
    pub checkpoint_every: usize,
    /// Server: resume from the checkpoint when one exists.
    pub resume: bool,
    /// Server: exit (without telling the parties) after this many
    /// rounds — a deterministic stand-in for `kill -9` that the smoke
    /// uses to rehearse a coordinator crash.
    pub stop_after: Option<usize>,
    /// Server: write the final `RunResult` JSON here.
    pub json: Option<String>,
}

impl Default for DistArgs {
    fn default() -> Self {
        DistArgs {
            seed: 42,
            rounds: 4,
            parties: 6,
            codec: UpdateCodec::TopKInt8 {
                fraction: 0.1,
                levels: 128,
            },
            faults: None,
            min_quorum: 0.25,
            port: 0,
            addr_file: None,
            connect: None,
            slot: 0,
            of: 1,
            checkpoint_dir: None,
            checkpoint_every: 2,
            resume: false,
            stop_after: None,
            json: None,
        }
    }
}

impl DistArgs {
    /// Parse `std::env::args()`; exits with a usage message on error.
    pub fn parse(bin: &'static str) -> Self {
        let mut out = DistArgs::default();
        let it = &mut std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seed" => out.seed = parsed(it, "--seed"),
                "--rounds" => out.rounds = parsed(it, "--rounds"),
                "--parties" => out.parties = parsed(it, "--parties"),
                "--codec" => out.codec = parsed(it, "--codec"),
                "--faults" => out.faults = Some(parsed(it, "--faults")),
                "--min-quorum" => out.min_quorum = parsed(it, "--min-quorum"),
                "--port" => out.port = parsed(it, "--port"),
                "--addr-file" => out.addr_file = Some(take(it, "--addr-file")),
                "--connect" => out.connect = Some(take(it, "--connect")),
                "--slot" => out.slot = parsed(it, "--slot"),
                "--of" => out.of = parsed(it, "--of"),
                "--checkpoint-dir" => out.checkpoint_dir = Some(take(it, "--checkpoint-dir")),
                "--checkpoint-every" => out.checkpoint_every = parsed(it, "--checkpoint-every"),
                "--resume" => out.resume = true,
                "--stop-after" => out.stop_after = Some(parsed(it, "--stop-after")),
                "--json" => out.json = Some(take(it, "--json")),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: {bin} [--seed N] [--rounds N] [--parties N] [--codec SPEC] \
                         [--faults SPEC] [--min-quorum F] [--port P] [--addr-file PATH] \
                         [--connect HOST:PORT] [--slot I --of M] [--checkpoint-dir DIR] \
                         [--checkpoint-every K] [--resume] [--stop-after N] [--json PATH]"
                    );
                    std::process::exit(0);
                }
                other => fail(format!("unknown argument: {other}")),
            }
        }
        if out.of == 0 || out.slot >= out.of {
            fail(format!("--slot {} must be below --of {}", out.slot, out.of));
        }
        out
    }

    /// The run's `FlConfig` — identical on both sides by construction.
    pub fn fl_config(&self) -> FlConfig {
        FlConfig {
            algorithm: Algorithm::Scaffold {
                variant: ControlVariateUpdate::Reuse,
            },
            rounds: self.rounds,
            local: LocalConfig {
                epochs: 1,
                batch_size: 32,
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            sample_fraction: 1.0,
            buffer_policy: BufferPolicy::Average,
            eval_batch_size: 256,
            eval_every: 1,
            server_lr: 1.0,
            seed: self.seed,
            threads: 0,
            min_quorum: self.min_quorum,
            fault_plan: self.faults.clone(),
            checkpoint: self
                .checkpoint_dir
                .as_ref()
                .map(|d| CheckpointPolicy::new(d, self.checkpoint_every)),
            codec: self.codec,
        }
    }

    /// The party ids this process hosts under `--slot/--of`.
    pub fn hosted_ids(&self) -> Vec<usize> {
        (0..self.parties)
            .filter(|id| id % self.of == self.slot)
            .collect()
    }
}

/// The shared experiment cell: tiny MNIST, Dirichlet(β=0.5) label skew,
/// LeNet on 16×16 inputs — the resume smoke's cell, sized for seconds.
pub fn build_cell(args: &DistArgs) -> (ModelSpec, Vec<Party>, Dataset) {
    let split = generate(DatasetId::Mnist, &GenConfig::tiny(args.seed));
    let part = partition(
        &split.train,
        args.parties,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        derive_seed(args.seed, 0x11),
    )
    .unwrap_or_else(|e| {
        eprintln!("partition: {e}");
        std::process::exit(1);
    });
    let parties = build_parties(&split.train, &part, derive_seed(args.seed, 0x17));
    let model = ModelSpec::LenetCnn {
        in_channels: 1,
        side: 16,
    };
    (model, parties, split.test)
}

/// The coordinator-side simulation.
pub fn build_sim(args: &DistArgs) -> FedSim {
    let (model, parties, test) = build_cell(args);
    FedSim::new(model, parties, test, args.fl_config()).unwrap_or_else(|e| {
        eprintln!("config: {e}");
        std::process::exit(1);
    })
}

/// The party-side host (full resident population; this process trains
/// only the ids in its `Hello`).
pub fn build_host(args: &DistArgs) -> PartyHost {
    let (model, parties, _) = build_cell(args);
    PartyHost {
        model_spec: model,
        provider: Box::new(ResidentProvider::new(parties)),
        config: args.fl_config(),
    }
}
