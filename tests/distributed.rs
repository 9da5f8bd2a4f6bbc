//! Distributed execution (coordinator + party clients over framed TCP)
//! against the in-process simulator: same seed, same codec, same fault
//! plan — the `RoundRecord` stream must be bit-identical on every
//! deterministic field, and a server restart must resume from its
//! checkpoint while the party processes keep running.

use niid_bench_rs::data::Dataset;
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig, RunOptions, Start};
use niid_bench_rs::fl::fault::FaultPlan;
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::net::{Coordinator, NetConfig, PartyClientConfig, PartyHost, ServerAddr};
use niid_bench_rs::fl::party::{Party, ResidentProvider};
use niid_bench_rs::fl::trace::NoopSink;
use niid_bench_rs::fl::{
    run_party_client, Algorithm, CheckpointPolicy, ControlVariateUpdate, RunResult, UpdateCodec,
};
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::Tensor;
use std::path::Path;
use std::time::Duration;

const N_PARTIES: usize = 6;

/// Two-feature separable task; `n` samples per party (same cell the
/// fault-tolerance suite uses, small enough for socket tests).
fn setup(per_party: usize, seed: u64) -> (Vec<Party>, Dataset) {
    let mut rng = Pcg64::new(seed);
    let make = |n: usize, rng: &mut Pcg64, name: &str| -> Dataset {
        let x = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, rng);
        let labels = (0..n)
            .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
            .collect();
        Dataset::new(name, x, labels, 2, vec![4], None)
    };
    let locals = (0..N_PARTIES)
        .map(|id| Party::new(id, make(per_party, &mut rng, "local")))
        .collect();
    let test = make(120, &mut rng, "test");
    (locals, test)
}

/// The acceptance-bar configuration: SCAFFOLD (the stateful algorithm —
/// control variates must survive the wire), a lossy top-k codec (error
/// feedback must survive it too), and a crash/drop fault plan.
fn config(rounds: usize) -> FlConfig {
    FlConfig {
        algorithm: Algorithm::Scaffold {
            variant: ControlVariateUpdate::Reuse,
        },
        rounds,
        local: LocalConfig {
            epochs: 1,
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
        seed: 71,
        threads: 2,
        min_quorum: 0.25,
        fault_plan: Some("crash=0.15,drop=0.15,seed=9".parse::<FaultPlan>().unwrap()),
        checkpoint: None,
        codec: UpdateCodec::TopK { fraction: 0.25 },
    }
}

fn model() -> ModelSpec {
    ModelSpec::Mlp { in_dim: 4 }
}

fn build_sim(cfg: FlConfig) -> FedSim {
    let (parties, test) = setup(40, 5);
    FedSim::new(model(), parties, test, cfg).expect("valid sim")
}

/// Spawn 3 party-client threads, each hosting 2 of the 6 parties.
fn spawn_parties(
    server: ServerAddr,
    cfg: FlConfig,
    fingerprint: &str,
) -> Vec<std::thread::JoinHandle<Result<(), niid_bench_rs::fl::NetError>>> {
    (0..3)
        .map(|slot| {
            let server = server.clone();
            let cfg = cfg.clone();
            let fingerprint = fingerprint.to_string();
            std::thread::spawn(move || {
                let (parties, _) = setup(40, 5);
                let host = PartyHost {
                    model_spec: model(),
                    provider: Box::new(ResidentProvider::new(parties)),
                    config: cfg,
                };
                let party_ids = (0..N_PARTIES).filter(|id| id % 3 == slot).collect();
                let mut client = PartyClientConfig::new(server, party_ids, fingerprint);
                client.reconnect_backoff = Duration::from_millis(50);
                client.max_reconnects = 600; // outlive a server restart
                run_party_client(&client, &host)
            })
        })
        .collect()
}

/// Bit-identity on everything except wall-clock timings — the same
/// contract the resume smoke asserts.
fn assert_identical(distributed: &RunResult, reference: &RunResult, what: &str) {
    assert_eq!(
        distributed.rounds.len(),
        reference.rounds.len(),
        "{what}: round count"
    );
    for (d, r) in distributed.rounds.iter().zip(&reference.rounds) {
        assert_eq!(d.round, r.round, "{what}: round index");
        assert_eq!(
            d.test_accuracy, r.test_accuracy,
            "{what}: round {} accuracy",
            d.round
        );
        assert_eq!(
            d.avg_local_loss, r.avg_local_loss,
            "{what}: round {} loss",
            d.round
        );
        assert_eq!(d.up_bytes, r.up_bytes, "{what}: round {} up bytes", d.round);
        assert_eq!(
            d.down_bytes, r.down_bytes,
            "{what}: round {} down bytes",
            d.round
        );
        assert_eq!(d.failures, r.failures, "{what}: round {} failures", d.round);
        assert_eq!(
            d.participants, r.participants,
            "{what}: round {} participants",
            d.round
        );
    }
    assert_eq!(
        distributed.final_accuracy, reference.final_accuracy,
        "{what}: final accuracy"
    );
    assert_eq!(
        distributed.best_accuracy, reference.best_accuracy,
        "{what}: best accuracy"
    );
    assert_eq!(
        distributed.total_bytes, reference.total_bytes,
        "{what}: total bytes"
    );
}

fn write_addr_file(path: &Path, addr: &str) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr).unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

/// 1 coordinator + 3 party clients on localhost, SCAFFOLD + top-k +
/// crash/drop faults: the distributed record stream equals the
/// in-process one bit-for-bit.
#[test]
fn distributed_run_is_bit_identical_to_in_process() {
    let reference = build_sim(config(4)).run().expect("in-process run");

    let sim = build_sim(config(4));
    let fingerprint = sim.fingerprint();
    let net = NetConfig {
        accept_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };
    let mut coord = Coordinator::bind("127.0.0.1:0", N_PARTIES, fingerprint.clone(), net)
        .expect("bind coordinator");
    let addr = coord.local_addr().expect("local addr").to_string();

    let clients = spawn_parties(ServerAddr::Fixed(addr), config(4), &fingerprint);
    coord.wait_for_roster().expect("roster");
    let distributed = sim
        .run_distributed(&mut coord, &NoopSink)
        .expect("distributed run");
    coord.shutdown_all();
    for c in clients {
        c.join()
            .expect("client thread")
            .expect("client exits clean");
    }

    assert_identical(&distributed, &reference, "distributed vs in-process");
    let faults: usize = distributed.rounds.iter().map(|r| r.failures).sum();
    assert!(
        faults > 0,
        "fault plan injected nothing; the test is vacuous"
    );
}

/// Kill the coordinator mid-run (parties stay up), restart it on a fresh
/// port, and resume from the checkpoint: the stitched stream still
/// equals the uninterrupted in-process run, and the party processes
/// follow the server to its new address via the address file.
#[test]
fn distributed_resume_survives_a_server_restart() {
    let reference = build_sim(config(6)).run().expect("in-process run");

    let dir = std::env::temp_dir().join(format!("niid-dist-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let addr_file = dir.join("server.addr");

    let mut cfg = config(6);
    cfg.checkpoint = Some(CheckpointPolicy::new(&dir, 2));
    let fingerprint = build_sim(cfg.clone()).fingerprint();

    let net = NetConfig {
        accept_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    };

    // Server 1: bind, advertise, run 3 of 6 rounds, then "die".
    let mut coord = Coordinator::bind("127.0.0.1:0", N_PARTIES, fingerprint.clone(), net.clone())
        .expect("bind coordinator 1");
    write_addr_file(&addr_file, &coord.local_addr().unwrap().to_string());
    let clients = spawn_parties(
        ServerAddr::FromFile(addr_file.clone()),
        cfg.clone(),
        &fingerprint,
    );
    coord.wait_for_roster().expect("roster 1");

    let sim = build_sim(cfg.clone());
    sim.run_with(RunOptions {
        stop_after: Some(3),
        coordinator: Some(&mut coord),
        ..RunOptions::new(&NoopSink)
    })
    .expect("interrupted distributed run");
    assert!(
        sim.has_checkpoint(),
        "no checkpoint after the simulated kill"
    );
    drop(coord); // connections + listener die with the server

    // Server 2: fresh ephemeral port; the clients re-read the address
    // file and reconnect on their own.
    let mut coord2 =
        Coordinator::bind("127.0.0.1:0", N_PARTIES, fingerprint, net).expect("bind coordinator 2");
    write_addr_file(&addr_file, &coord2.local_addr().unwrap().to_string());
    coord2.wait_for_roster().expect("roster 2 after restart");

    let resumed = sim
        .run_with(RunOptions {
            start: Start::Auto,
            coordinator: Some(&mut coord2),
            ..RunOptions::new(&NoopSink)
        })
        .expect("resumed distributed run");
    coord2.shutdown_all();
    for c in clients {
        c.join()
            .expect("client thread")
            .expect("client exits clean");
    }

    assert_identical(&resumed, &reference, "restarted+resumed vs in-process");
    let _ = std::fs::remove_dir_all(&dir);
}
