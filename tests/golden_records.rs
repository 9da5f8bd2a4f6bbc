//! Golden `RoundRecord` streams: one pinned FNV-1a digest per
//! algorithm × codec × fault-plan cell, so a refactor of the round loop
//! is held to absolute constants rather than to pairwise comparisons
//! between two paths that could drift together.
//!
//! Every run is forced onto the scalar kernel arm, which makes the
//! constants independent of the host's SIMD support. Each cell must hit
//! its constant at one worker thread and at four; two cells must also
//! hit it over loopback TCP and through kill-after-k + resume.
//!
//! The constants were generated at the commit *before* the engine's
//! local/TCP paths were collapsed. A change that moves one of them has
//! changed the numerical trajectory or the byte accounting of that cell.

use niid_bench_rs::data::Dataset;
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::fault::{FaultAction, FaultPlan};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::net::{Coordinator, NetConfig, PartyClientConfig, PartyHost, ServerAddr};
use niid_bench_rs::fl::party::{Party, ResidentProvider};
use niid_bench_rs::fl::trace::NoopSink;
use niid_bench_rs::fl::{
    run_party_client, Algorithm, CheckpointPolicy, ControlVariateUpdate, RunResult, UpdateCodec,
};
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::{with_forced_kernel, Kernel, Tensor};
use std::time::Duration;

const N_PARTIES: usize = 8;
const ROUNDS: usize = 5;
const FAULTS: &str = "crash=0.15,drop=0.15,delay=0.15:1,seed=9";

/// `(algorithm, codec, faulted, digest)`.
const GOLDEN: [(&str, &str, bool, u64); 32] = [
    ("FedAvg", "dense", false, 0xbf08e2c8bd4ff906),
    ("FedAvg", "dense", true, 0xc1000927e9d84439),
    ("FedAvg", "topk:0.25", false, 0xdfd279b401c6feb0),
    ("FedAvg", "topk:0.25", true, 0xc100875b8c34588d),
    ("FedAvg", "int8:128", false, 0xb381e9951ae50364),
    ("FedAvg", "int8:128", true, 0xe190bf178873801b),
    ("FedAvg", "topk8:0.25:128", false, 0x9917eb1810ee3050),
    ("FedAvg", "topk8:0.25:128", true, 0x4b023593b339ecba),
    ("FedProx", "dense", false, 0xd894015b16fa77bc),
    ("FedProx", "dense", true, 0xc4900dae5ca8fc1f),
    ("FedProx", "topk:0.25", false, 0xa27ff49c9638d60b),
    ("FedProx", "topk:0.25", true, 0xa477a12e1d837f27),
    ("FedProx", "int8:128", false, 0xb28b9ee2fe3bbcf6),
    ("FedProx", "int8:128", true, 0xadd6b47e9dd690a0),
    ("FedProx", "topk8:0.25:128", false, 0x2117f565fd4803ff),
    ("FedProx", "topk8:0.25:128", true, 0x327a9627a0fce234),
    ("SCAFFOLD", "dense", false, 0xbf090e5ee3c0f0fd),
    ("SCAFFOLD", "dense", true, 0x7a32d1abd2858ae9),
    ("SCAFFOLD", "topk:0.25", false, 0x6cc9dc22d81572a2),
    ("SCAFFOLD", "topk:0.25", true, 0xb0c7bd469a4cbc50),
    ("SCAFFOLD", "int8:128", false, 0xf1a687fbd2ed139a),
    ("SCAFFOLD", "int8:128", true, 0x557db60525bdb18c),
    ("SCAFFOLD", "topk8:0.25:128", false, 0x820fab722530c152),
    ("SCAFFOLD", "topk8:0.25:128", true, 0xc6d43a4ed1a41117),
    ("FedNova", "dense", false, 0x347d65604a36f2d1),
    ("FedNova", "dense", true, 0xf120c2a99601b13a),
    ("FedNova", "topk:0.25", false, 0xc9086dda1a1a7194),
    ("FedNova", "topk:0.25", true, 0xe0df23569479678f),
    ("FedNova", "int8:128", false, 0xa5923f9bce2d9bd7),
    ("FedNova", "int8:128", true, 0xd936e72abcaed434),
    ("FedNova", "topk8:0.25:128", false, 0xe088288124557c96),
    ("FedNova", "topk8:0.25:128", true, 0xb815f8f21146b4d7),
];

fn algorithm(name: &str) -> Algorithm {
    match name {
        "FedAvg" => Algorithm::FedAvg,
        "FedProx" => Algorithm::FedProx { mu: 0.01 },
        "SCAFFOLD" => Algorithm::Scaffold {
            variant: ControlVariateUpdate::Reuse,
        },
        "FedNova" => Algorithm::FedNova,
        other => panic!("unknown algorithm {other}"),
    }
}

fn golden(algo: &str, codec: &str, faulted: bool) -> u64 {
    GOLDEN
        .iter()
        .find(|g| (g.0, g.1, g.2) == (algo, codec, faulted))
        .expect("cell is in the golden table")
        .3
}

/// Two-feature separable task with unequal party sizes, so the LPT
/// schedule and the sample-weighted aggregation both have work to do.
fn setup() -> (Vec<Party>, Dataset) {
    let mut rng = Pcg64::new(17);
    let make = |n: usize, rng: &mut Pcg64, name: &str| -> Dataset {
        let x = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, rng);
        let labels = (0..n)
            .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
            .collect();
        Dataset::new(name, x, labels, 2, vec![4], None)
    };
    let locals = (0..N_PARTIES)
        .map(|id| Party::new(id, make(24 + 8 * (id % 3), &mut rng, "local")))
        .collect();
    let test = make(120, &mut rng, "test");
    (locals, test)
}

/// Partial participation (6 of 8 per round) keeps SCAFFOLD variates and
/// error-feedback residuals sparse: some parties carry state across a
/// round they sit out, some have none yet.
fn config(algo: &str, codec: &str, faulted: bool, threads: usize) -> FlConfig {
    FlConfig {
        algorithm: algorithm(algo),
        rounds: ROUNDS,
        local: LocalConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction: 0.75,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 64,
        eval_every: 2,
        server_lr: 1.0,
        seed: 4242,
        threads,
        min_quorum: 0.25,
        fault_plan: faulted.then(|| FAULTS.parse::<FaultPlan>().expect("fault spec")),
        checkpoint: None,
        codec: codec.parse::<UpdateCodec>().expect("codec spec"),
    }
}

fn model() -> ModelSpec {
    ModelSpec::Mlp { in_dim: 4 }
}

fn build_sim(cfg: FlConfig) -> FedSim {
    let (parties, test) = setup();
    FedSim::new(model(), parties, test, cfg).expect("valid sim")
}

/// FNV-1a over every `RoundRecord` field except the three `*_wall_ms`
/// (f64s by their exact bits), then `total_bytes`.
fn digest(result: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &result.rounds {
        eat(r.round as u64);
        eat(u64::from(r.test_accuracy.is_some()));
        eat(r.test_accuracy.unwrap_or(0.0).to_bits());
        eat(r.avg_local_loss.to_bits());
        eat(r.participants as u64);
        eat(r.down_bytes as u64);
        eat(r.up_bytes as u64);
        eat(r.failures as u64);
    }
    eat(result.total_bytes as u64);
    h
}

fn scalar<R>(f: impl FnOnce() -> R) -> R {
    with_forced_kernel(Kernel::Scalar, f)
}

#[test]
fn the_fault_plan_exercises_every_action() {
    let plan = FAULTS.parse::<FaultPlan>().unwrap();
    let mut seen = [false; 3];
    for round in 0..ROUNDS {
        for party in 0..N_PARTIES {
            match plan.action(round, party) {
                FaultAction::Crash => seen[0] = true,
                FaultAction::Drop => seen[1] = true,
                FaultAction::Delay(_) => seen[2] = true,
                FaultAction::None => {}
            }
        }
    }
    assert_eq!(seen, [true; 3], "crash/drop/delay must all occur");
}

#[test]
fn every_cell_hits_its_golden_digest_at_one_and_four_threads() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for &(algo, codec, faulted, want) in &GOLDEN {
        let at = |threads: usize| {
            let result = scalar(|| build_sim(config(algo, codec, faulted, threads)).run())
                .unwrap_or_else(|e| panic!("{algo}/{codec}/faulted={faulted}@{threads}: {e}"));
            assert_eq!(result.rounds.len(), ROUNDS);
            if faulted {
                let failures: usize = result.rounds.iter().map(|r| r.failures).sum();
                assert!(failures > 0, "{algo}/{codec}: the plan hit nobody");
            }
            digest(&result)
        };
        let (one, four) = (at(1), at(4));
        table.push_str(&format!(
            "    ({algo:?}, {codec:?}, {faulted}, 0x{one:016x}),\n"
        ));
        if one != want || four != want {
            mismatches.push(format!(
                "{algo}/{codec}/faulted={faulted}: want {want:016x}, t1 {one:016x}, t4 {four:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden digests moved:\n{}\ncomputed table (threads = 1):\n{table}",
        mismatches.join("\n")
    );
}

/// The same cell over loopback TCP: one coordinator, two party-client
/// threads hosting the even and the odd party ids.
fn run_over_tcp(cfg: FlConfig) -> RunResult {
    let sim = build_sim(cfg.clone());
    let fingerprint = sim.fingerprint();
    let net = NetConfig {
        accept_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };
    let mut coord = Coordinator::bind("127.0.0.1:0", N_PARTIES, fingerprint.clone(), net)
        .expect("bind coordinator");
    let addr = coord.local_addr().expect("local addr").to_string();
    let clients: Vec<_> = (0..2)
        .map(|slot| {
            let cfg = cfg.clone();
            let fingerprint = fingerprint.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let (parties, _) = setup();
                let host = PartyHost {
                    model_spec: model(),
                    provider: Box::new(ResidentProvider::new(parties)),
                    config: cfg,
                };
                let ids = (0..N_PARTIES).filter(|id| id % 2 == slot).collect();
                let client = PartyClientConfig::new(ServerAddr::Fixed(addr), ids, fingerprint);
                scalar(|| run_party_client(&client, &host))
            })
        })
        .collect();
    coord.wait_for_roster().expect("roster");
    let result = scalar(|| sim.run_distributed(&mut coord, &NoopSink)).expect("distributed run");
    coord.shutdown_all();
    for c in clients {
        c.join()
            .expect("client thread")
            .expect("client exits clean");
    }
    result
}

/// Kill after `k` rounds, resume from the periodic checkpoint.
fn run_killed_and_resumed(mut cfg: FlConfig, k: usize, tag: &str) -> RunResult {
    let dir = std::env::temp_dir().join(format!("niid_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cfg.checkpoint = Some(CheckpointPolicy::new(&dir, 2));
    let sim = build_sim(cfg);
    let resumed = scalar(|| {
        sim.run_interrupted(k, &NoopSink).expect("interrupted run");
        assert!(sim.has_checkpoint(), "a periodic checkpoint survives");
        sim.resume().expect("resumed run")
    });
    let _ = std::fs::remove_dir_all(&dir);
    resumed
}

#[test]
fn tcp_and_resume_hit_the_in_process_constants() {
    for (algo, codec, faulted) in [("SCAFFOLD", "int8:128", true), ("FedAvg", "dense", false)] {
        let want = golden(algo, codec, faulted);
        let cfg = config(algo, codec, faulted, 2);
        assert_eq!(
            digest(&run_over_tcp(cfg.clone())),
            want,
            "{algo}/{codec}/faulted={faulted} over loopback TCP"
        );
        assert_eq!(
            digest(&run_killed_and_resumed(cfg, 3, algo)),
            want,
            "{algo}/{codec}/faulted={faulted} killed after 3 rounds and resumed"
        );
    }
}
