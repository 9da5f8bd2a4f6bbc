//! The four workloads: what each one is and how its cell is built from a
//! seed.
//!
//! Every input the program under test sees is generated here from
//! `--seed`: the dataset, the partition and the FL seed all derive from
//! it, so the same seed gives the same `RoundRecord` stream.

use niid_core::partition::{build_parties, partition, LazyPartition, Strategy};
use niid_data::{generate, Dataset, DatasetId, GenConfig};
use niid_fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_fl::local::LocalConfig;
use niid_fl::net::{Coordinator, NetConfig, NetError, PartyClientConfig, PartyHost, ServerAddr};
use niid_fl::party::Party;
use niid_fl::{
    run_party_client, Algorithm, CheckpointPolicy, ControlVariateUpdate, FaultAction, FaultPlan,
    ResidentProvider, UpdateCodec,
};
use niid_nn::ModelSpec;
use niid_stats::derive_seed;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Training threads: at most four, never more than the machine has, so
/// the single-process load stays within `nproc`.
pub fn train_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// The four workloads, in the order they are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SiloLenet,
    CrossDeviceTopk8,
    DistTcpDense,
    SiloRobustObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SiloLenet,
        Workload::CrossDeviceTopk8,
        Workload::DistTcpDense,
        Workload::SiloRobustObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SiloLenet => "silo_lenet",
            Workload::CrossDeviceTopk8 => "cross_device_topk8",
            Workload::DistTcpDense => "dist_tcp_dense",
            Workload::SiloRobustObserved => "silo_robust_observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line; mirrored in
    /// `BENCHMARK.json` and the README).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SiloLenet => {
                "compute-bound Table 3 cell: wall is local training in conv/gemm kernels and nn layers"
            }
            Workload::CrossDeviceTopk8 => {
                "overhead-bound: tiny GEMMs, so sampling, lazy parties, pool, topk8 codec and sparse merge dominate"
            }
            Workload::DistTcpDense => {
                "only workload with net on the blocking path: frames, sockets and the per-host service loop"
            }
            Workload::SiloRobustObserved => {
                "writes beside reads: checkpoint, observer, JSONL trace and fault paths dominate a cheap round"
            }
        }
    }

    /// Rounds of one pass. `smoke` shrinks every pass to a handful of
    /// rounds (the cell is otherwise unchanged).
    pub fn rounds(self, smoke: bool) -> usize {
        let full = match self {
            Workload::SiloLenet => 8,
            Workload::CrossDeviceTopk8 => 500,
            Workload::DistTcpDense => 40,
            Workload::SiloRobustObserved => 400,
        };
        if smoke {
            (full / 20).max(4)
        } else {
            full
        }
    }

    /// The test accuracy `engine.time_to_target_s` waits for: 0.8 × the
    /// final accuracy this commit reaches at seed 42 (0.430, 0.639, 0.668,
    /// 0.850). Not a correctness check: see [`Workload::accuracy_floor`].
    pub fn target_accuracy(self) -> f64 {
        match self {
            Workload::SiloLenet => 0.344,
            Workload::CrossDeviceTopk8 => 0.511,
            Workload::DistTcpDense => 0.535,
            Workload::SiloRobustObserved => 0.68,
        }
    }

    /// The test accuracy every run must end at or above: the check that
    /// training and aggregation still learn, for whatever seed the caller
    /// picks. On the three tabular cells the final accuracy varies little
    /// with the seed (40 random seeds each gave 0.616–0.733, 0.633–0.725
    /// and 0.817–0.880), so the floor is the target, more than five
    /// standard deviations below their mean. `silo_lenet` is still early
    /// in training after 8 label-skewed rounds and how far it got depends
    /// on the partition the seed drew (0.18–0.62 over 246 random seeds,
    /// six of them below the 0.344 target): its floor only says "clearly
    /// above the 0.10 of a constant guess", which a broken kernel or
    /// aggregate does not reach at any seed. Not applied in smoke mode: a
    /// handful of rounds does not learn.
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Workload::SiloLenet => 0.13,
            _ => self.target_accuracy(),
        }
    }

    pub fn dataset(self) -> DatasetId {
        match self {
            Workload::SiloLenet => DatasetId::Cifar10,
            Workload::CrossDeviceTopk8 => DatasetId::Covtype,
            Workload::DistTcpDense => DatasetId::Rcv1,
            Workload::SiloRobustObserved => DatasetId::Adult,
        }
    }

    fn gen_config(self, seed: u64) -> GenConfig {
        let bench = GenConfig::bench(seed);
        match self {
            Workload::SiloLenet => bench,
            // Evaluated only every 50 rounds, so a test set large enough
            // to keep sampling noise out of `final_accuracy` costs nothing.
            Workload::CrossDeviceTopk8 => GenConfig {
                max_train: 320_000,
                max_test: 4_000,
                ..bench
            },
            Workload::DistTcpDense => GenConfig {
                max_tabular_dim: 2048,
                ..bench
            },
            Workload::SiloRobustObserved => GenConfig {
                max_train: 6_000,
                ..bench
            },
        }
    }

    pub fn strategy(self) -> Strategy {
        match self {
            Workload::SiloLenet | Workload::DistTcpDense => {
                Strategy::DirichletLabelSkew { beta: 0.5 }
            }
            Workload::CrossDeviceTopk8 => Strategy::NoiseFeatureSkew { sigma: 0.1 },
            Workload::SiloRobustObserved => Strategy::QuantitySkew { beta: 0.5 },
        }
    }

    pub fn n_parties(self) -> usize {
        match self {
            Workload::CrossDeviceTopk8 => 20_000,
            _ => 10,
        }
    }

    pub fn model(self, gen: &GenConfig) -> ModelSpec {
        niid_core::experiment::default_model_for(self.dataset(), gen)
    }

    /// The run configuration; `run_dir` receives checkpoints.
    pub fn fl_config(self, seed: u64, rounds: usize, run_dir: &Path) -> FlConfig {
        let (algorithm, epochs, batch_size) = match self {
            Workload::SiloLenet => (Algorithm::FedAvg, 5, 32),
            Workload::CrossDeviceTopk8 => (Algorithm::FedAvg, 2, 8),
            Workload::DistTcpDense => (Algorithm::FedAvg, 2, 32),
            Workload::SiloRobustObserved => (
                Algorithm::Scaffold {
                    variant: ControlVariateUpdate::Reuse,
                },
                1,
                32,
            ),
        };
        let mut cfg = FlConfig::paper_defaults(algorithm, derive_seed(seed, 0xF1));
        cfg.rounds = rounds;
        cfg.local = LocalConfig {
            epochs,
            batch_size,
            lr: niid_core::experiment::default_lr(self.dataset()),
            momentum: 0.9,
            weight_decay: 0.0,
        };
        cfg.threads = train_threads();
        cfg.buffer_policy = BufferPolicy::Average;
        match self {
            Workload::SiloLenet | Workload::DistTcpDense => {}
            Workload::CrossDeviceTopk8 => {
                cfg.sample_fraction = 64.0 / self.n_parties() as f64;
                cfg.eval_every = 50;
                cfg.codec = UpdateCodec::TopKInt8 {
                    fraction: 0.1,
                    levels: 128,
                };
            }
            Workload::SiloRobustObserved => {
                cfg.codec = UpdateCodec::Int8Q { levels: 128 };
                cfg.min_quorum = 0.1;
                cfg.fault_plan = Some(quorum_safe_plan(rounds, self.n_parties()));
                cfg.checkpoint = Some(CheckpointPolicy::new(run_dir, 5));
            }
        }
        cfg
    }
}

/// `crash=0.05,drop=0.05` from fault seed 9 upward: the first seed whose
/// schedule never faults half of the parties or more in one round, so
/// every round keeps far more survivors than the quorum needs and no run
/// can fail by design.
fn quorum_safe_plan(rounds: usize, n_parties: usize) -> FaultPlan {
    (9u64..)
        .map(|seed| FaultPlan {
            seed,
            crash_prob: 0.05,
            drop_prob: 0.05,
            delay_prob: 0.0,
            delay_ms: 0,
        })
        .find(|plan| {
            (0..rounds).all(|r| {
                (0..n_parties)
                    .filter(|&p| plan.action(r, p) != FaultAction::None)
                    .count()
                    < n_parties / 2
            })
        })
        .expect("some fault seed is quorum-safe")
}

/// Seconds each set-up stage took (the `data` and `partition` layers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub assign_s: f64,
    pub build_parties_s: f64,
    pub handshake_s: f64,
    pub total_s: f64,
    pub train_rows: usize,
}

impl SetupTimes {
    /// The six numbers on one line, for a parent process to read back.
    pub fn to_line(self) -> String {
        format!(
            "setup {} {} {} {} {} {}",
            self.generate_s,
            self.assign_s,
            self.build_parties_s,
            self.handshake_s,
            self.total_s,
            self.train_rows
        )
    }

    pub fn parse_line(line: &str) -> Option<SetupTimes> {
        let mut f = line.strip_prefix("setup ")?.split(' ');
        let mut num = || f.next()?.parse::<f64>().ok();
        let times = SetupTimes {
            generate_s: num()?,
            assign_s: num()?,
            build_parties_s: num()?,
            handshake_s: num()?,
            total_s: num()?,
            train_rows: num()? as usize,
        };
        f.next().is_none().then_some(times)
    }
}

/// Party-client threads plus the coordinator they are connected to.
pub struct Cluster {
    pub coord: Coordinator,
    clients: Vec<JoinHandle<Result<(), NetError>>>,
}

impl Cluster {
    /// Tell the clients to stop and wait for every thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.coord.shutdown_all();
        for c in self.clients.drain(..) {
            c.join()
                .map_err(|_| "party client thread panicked".to_string())?
                .map_err(|e| format!("party client: {e}"))?;
        }
        Ok(())
    }
}

/// One built workload cell, ready to run passes.
pub struct Cell {
    pub workload: Workload,
    pub model: ModelSpec,
    pub config: FlConfig,
    pub sim: FedSim,
    pub cluster: Option<Cluster>,
    pub times: SetupTimes,
    pub num_classes: usize,
    /// One real party of the cell (probe input for the `nn` layer).
    pub sample_party: Party,
    /// Shared training set of the lazy partition (probe input).
    pub lazy_train: Option<Arc<Dataset>>,
}

impl Cell {
    /// The cohort size the engine must select every round.
    pub fn cohort(&self) -> usize {
        let n = self.workload.n_parties();
        let frac = self.config.sample_fraction;
        if frac >= 1.0 {
            n
        } else {
            ((frac * n as f64).round() as usize).clamp(1, n)
        }
    }
}

/// Number of party-client threads hosting the ten parties.
const DIST_HOSTS: usize = 2;

/// Build the cell for passes of `rounds` rounds: generate data,
/// partition, build the simulation and, for `dist_tcp_dense`, connect
/// the party clients.
pub fn setup(w: Workload, seed: u64, rounds: usize, run_dir: &Path) -> Result<Cell, String> {
    let started = Instant::now();
    let gen = w.gen_config(seed);
    let split = generate(w.dataset(), &gen);
    let generate_s = started.elapsed().as_secs_f64();
    let train_rows = split.train.len();
    let num_classes = split.test.num_classes;
    let model = w.model(&gen);
    let config = w.fl_config(seed, rounds, run_dir);
    let part_seed = derive_seed(seed, 0x11);
    let mut times = SetupTimes {
        generate_s,
        train_rows,
        ..SetupTimes::default()
    };

    let (sim, sample_party, lazy_train, host_parties) = if w == Workload::CrossDeviceTopk8 {
        let t = Instant::now();
        let train = Arc::new(split.train);
        let lazy = LazyPartition::new(Arc::clone(&train), w.n_parties(), w.strategy(), part_seed)
            .map_err(|e| format!("lazy partition: {e}"))?;
        times.assign_s = t.elapsed().as_secs_f64();
        let sample = niid_fl::PartyProvider::materialize(&lazy, 0);
        let sim = FedSim::with_provider(model.clone(), Box::new(lazy), split.test, config.clone())
            .map_err(|e| format!("config: {e}"))?;
        (sim, sample, Some(train), None)
    } else {
        let t = Instant::now();
        let part = partition(&split.train, w.n_parties(), w.strategy(), part_seed)
            .map_err(|e| format!("partition: {e}"))?;
        times.assign_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let parties = build_parties(&split.train, &part, derive_seed(seed, 0x17));
        times.build_parties_s = t.elapsed().as_secs_f64();
        let sample = parties[0].clone();
        let hosts = (w == Workload::DistTcpDense).then(|| parties.clone());
        let sim = FedSim::new(model.clone(), parties, split.test, config.clone())
            .map_err(|e| format!("config: {e}"))?;
        (sim, sample, None, hosts)
    };

    let cluster = match host_parties {
        Some(parties) => {
            let t = Instant::now();
            let cluster = connect_cluster(&sim, &model, &config, parties)?;
            times.handshake_s = t.elapsed().as_secs_f64();
            Some(cluster)
        }
        None => None,
    };
    times.total_s = started.elapsed().as_secs_f64();
    Ok(Cell {
        workload: w,
        model,
        config,
        sim,
        cluster,
        times,
        num_classes,
        sample_party,
        lazy_train,
    })
}

/// Which parties each of [`DIST_HOSTS`] hosts serves: largest party
/// first onto the lighter host, so the hosts carry about equal work
/// whatever sizes the seed's partition drew. The coordinator serves hosts
/// one after another; with lopsided hosts the round time would measure
/// the partition's luck, not the wire.
fn balanced_hosts(parties: &[Party]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..parties.len()).collect();
    order.sort_by_key(|&id| (std::cmp::Reverse(parties[id].num_samples()), id));
    let mut hosts = vec![(0usize, Vec::new()); DIST_HOSTS];
    for id in order {
        let lightest = hosts
            .iter_mut()
            .min_by_key(|(load, _)| *load)
            .expect("at least one host");
        lightest.0 += parties[id].num_samples();
        lightest.1.push(id);
    }
    hosts.into_iter().map(|(_, ids)| ids).collect()
}

/// Bind a coordinator on an ephemeral loopback port and connect
/// [`DIST_HOSTS`] party-client threads (kernel budget 1 each).
fn connect_cluster(
    sim: &FedSim,
    model: &ModelSpec,
    config: &FlConfig,
    parties: Vec<Party>,
) -> Result<Cluster, String> {
    let fingerprint = sim.fingerprint();
    let net = NetConfig {
        accept_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };
    let n = parties.len();
    let coord = Coordinator::bind("127.0.0.1:0", n, fingerprint.clone(), net)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = coord
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let clients = balanced_hosts(&parties)
        .into_iter()
        .map(|ids| {
            let host = PartyHost {
                model_spec: model.clone(),
                provider: Box::new(ResidentProvider::new(parties.clone())),
                config: config.clone(),
            };
            let mut client =
                PartyClientConfig::new(ServerAddr::Fixed(addr.clone()), ids, fingerprint.clone());
            client.reconnect_backoff = Duration::from_millis(20);
            std::thread::spawn(move || {
                niid_tensor::set_thread_budget(1);
                run_party_client(&client, &host)
            })
        })
        .collect();
    let mut cluster = Cluster { coord, clients };
    if let Err(e) = cluster.coord.wait_for_roster() {
        let _ = cluster.shutdown();
        return Err(format!("roster: {e}"));
    }
    Ok(cluster)
}

/// A scratch directory under the benchmark's own directory (the only
/// place outside the build directory the benchmark writes to).
pub fn make_run_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_times_survive_the_line_between_processes() {
        let times = SetupTimes {
            generate_s: 0.049440443,
            assign_s: 1.08899e-4,
            build_parties_s: 0.010105004,
            handshake_s: 0.0,
            total_s: 0.103737298,
            train_rows: 2000,
        };
        assert_eq!(SetupTimes::parse_line(&times.to_line()), Some(times));
        assert_eq!(SetupTimes::parse_line("setup 1 2 3"), None);
        assert_eq!(SetupTimes::parse_line("setup 1 2 3 4 5 6 7"), None);
        assert_eq!(SetupTimes::parse_line("workload silo_lenet"), None);
    }
}
