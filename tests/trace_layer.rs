//! Integration tests for the round-level tracing layer: event cardinality,
//! phase-timing accounting, and the JSONL round trip from a live federated
//! run through a file back into a summary.

use niid_bench_rs::core::experiment::ExperimentSpec;
use niid_bench_rs::core::partition::{build_parties, partition, Strategy};
use niid_bench_rs::data::{generate, DatasetId, GenConfig, Split};
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::{Algorithm, JsonlSink, MemorySink, RunResult, TraceEvent, TraceSummary};
use niid_bench_rs::json::{parse_jsonl, FromJson};
use niid_bench_rs::nn::ModelSpec;

const PARTIES: usize = 4;

fn setup() -> (ModelSpec, Vec<niid_bench_rs::fl::Party>, Split) {
    let gen = GenConfig::tiny(31);
    let split = generate(DatasetId::Adult, &gen);
    let part = partition(
        &split.train,
        PARTIES,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        5,
    )
    .expect("partition");
    let parties = build_parties(&split.train, &part, 4);
    let spec = ExperimentSpec::new(
        DatasetId::Adult,
        Strategy::DirichletLabelSkew { beta: 0.5 },
        Algorithm::FedAvg,
        gen,
    );
    (spec.model_spec(), parties, split)
}

fn config(rounds: usize, sample_fraction: f64, threads: usize) -> FlConfig {
    FlConfig {
        algorithm: Algorithm::FedAvg,
        rounds,
        local: LocalConfig {
            epochs: 1,
            batch_size: 32,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
        },
        sample_fraction,
        buffer_policy: BufferPolicy::Average,
        eval_batch_size: 256,
        eval_every: 1,
        server_lr: 1.0,
        seed: 9,
        threads,
        min_quorum: 0.5,
        fault_plan: None,
        checkpoint: None,
        codec: niid_fl::UpdateCodec::DenseF32,
    }
}

fn traced_run(rounds: usize, sample_fraction: f64, threads: usize) -> (RunResult, Vec<TraceEvent>) {
    let (model, parties, split) = setup();
    let sim = FedSim::new(
        model,
        parties,
        split.test,
        config(rounds, sample_fraction, threads),
    )
    .expect("sim");
    let sink = MemorySink::new();
    let result = sim.run_traced(&sink).expect("run");
    (result, sink.events())
}

/// Count PartyTrained events per round and check the party ids are distinct
/// and in range.
fn party_trained_by_round(events: &[TraceEvent], rounds: usize) -> Vec<Vec<usize>> {
    let mut per_round = vec![Vec::new(); rounds];
    for e in events {
        if let TraceEvent::PartyTrained {
            round, party_id, ..
        } = e
        {
            assert!(*party_id < PARTIES, "party id {party_id} out of range");
            assert!(
                !per_round[*round].contains(party_id),
                "party {party_id} traced twice in round {round}"
            );
            per_round[*round].push(*party_id);
        }
    }
    per_round
}

#[test]
fn full_participation_traces_every_party_every_round() {
    let rounds = 3;
    let (result, events) = traced_run(rounds, 1.0, 1);
    assert_eq!(result.rounds.len(), rounds);
    for per_round in party_trained_by_round(&events, rounds) {
        assert_eq!(per_round.len(), PARTIES);
    }
    // Exactly one RoundStarted / Aggregated / Evaluated / RoundFinished
    // per round, and the participant count matches full participation.
    for r in 0..rounds {
        let of_round: Vec<&TraceEvent> = events.iter().filter(|e| e.round() == r).collect();
        assert_eq!(
            of_round
                .iter()
                .filter(|e| e.name() == "round_started")
                .count(),
            1
        );
        assert_eq!(
            of_round.iter().filter(|e| e.name() == "aggregated").count(),
            1
        );
        assert_eq!(
            of_round.iter().filter(|e| e.name() == "evaluated").count(),
            1
        );
        assert_eq!(
            of_round
                .iter()
                .filter(|e| e.name() == "round_finished")
                .count(),
            1
        );
        let TraceEvent::RoundStarted { participants, .. } = of_round[0] else {
            panic!("first event of round {r} is {}", of_round[0].name());
        };
        assert_eq!(*participants, PARTIES);
    }
}

#[test]
fn partial_participation_traces_only_selected_parties() {
    let rounds = 4;
    let (result, events) = traced_run(rounds, 0.5, 1);
    let expected = ((0.5 * PARTIES as f64).round() as usize).clamp(1, PARTIES);
    for (r, per_round) in party_trained_by_round(&events, rounds).iter().enumerate() {
        assert_eq!(per_round.len(), expected, "round {r}");
        assert_eq!(result.rounds[r].participants, expected);
    }
}

#[test]
fn parallel_training_emits_one_event_per_party() {
    let rounds = 2;
    let (_, events) = traced_run(rounds, 1.0, 2);
    for per_round in party_trained_by_round(&events, rounds) {
        assert_eq!(per_round.len(), PARTIES);
    }
}

#[test]
fn phase_timings_are_non_negative_and_bounded_by_round_wall() {
    let rounds = 3;
    let (result, events) = traced_run(rounds, 1.0, 1);
    for (r, rec) in result.rounds.iter().enumerate() {
        assert!(rec.local_wall_ms >= 0.0);
        assert!(rec.aggregate_wall_ms >= 0.0);
        assert!(rec.eval_wall_ms >= 0.0);
        let total: f64 = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::RoundFinished { round, wall_ms } if *round == r => Some(*wall_ms),
                _ => None,
            })
            .expect("round_finished present");
        let phases = rec.local_wall_ms + rec.aggregate_wall_ms + rec.eval_wall_ms;
        // The phases partition the round (modulo event emission and
        // bookkeeping between the timers), so their sum cannot meaningfully
        // exceed the round wall; allow slack for timer granularity.
        assert!(
            phases <= total * 1.05 + 0.5,
            "round {r}: phases {phases:.3} ms vs wall {total:.3} ms"
        );
        // Per-party wall times are bounded by the local phase.
        let per_party: f64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PartyTrained { round, wall_ms, .. } if *round == r => Some(*wall_ms),
                _ => None,
            })
            .sum();
        assert!(
            per_party <= rec.local_wall_ms * 1.05 + 0.5,
            "round {r}: serial party time {per_party:.3} ms vs local phase {:.3} ms",
            rec.local_wall_ms
        );
    }
}

#[test]
fn jsonl_trace_round_trips_into_a_summary() {
    // Two cells appended to one file, as `exp` writes a sweep: the second
    // restarts its round index at 0 and must still count.
    let (cells, rounds_per_cell) = (2, 3);
    let rounds = cells * rounds_per_cell;
    let path = std::env::temp_dir().join(format!("niid_trace_{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    let (model, parties, split) = setup();
    let sim =
        FedSim::new(model, parties, split.test, config(rounds_per_cell, 1.0, 1)).expect("sim");
    for _ in 0..cells {
        let sink = JsonlSink::append(&path).expect("open trace file");
        sim.run_traced(&sink).expect("run");
        sink.flush().expect("flush");
    }

    // Every line is a parseable event, in emission order.
    let text = std::fs::read_to_string(&path).expect("read trace");
    let values = parse_jsonl(&text).expect("parse jsonl");
    let events: Vec<TraceEvent> = values
        .iter()
        .map(|v| TraceEvent::from_json(v).expect("decode event"))
        .collect();
    assert_eq!(
        events
            .iter()
            .filter(|e| e.name() == "party_trained")
            .count(),
        rounds * PARTIES
    );

    let summary = TraceSummary::from_jsonl_file(&path).expect("summarize");
    assert_eq!(summary.rounds, rounds);
    assert_eq!(summary.party_train.count, rounds * PARTIES);
    assert_eq!(summary.aggregate.count, rounds);
    assert_eq!(summary.eval.count, rounds);
    assert_eq!(summary.round.count, rounds);
    assert!(summary.round.total_ms > 0.0);
    assert!(summary.round.mean_ms <= summary.round.max_ms + 1e-9);
    // The straggler histogram accounts for every round exactly once.
    let histogram_total: usize = summary.slowest_parties.iter().map(|(_, c)| c).sum();
    assert_eq!(histogram_total, rounds);
    let rendered = summary.render();
    assert!(rendered.contains("party_train"), "render: {rendered}");

    std::fs::remove_file(&path).ok();
}
