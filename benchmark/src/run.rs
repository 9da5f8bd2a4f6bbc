//! Driving passes, the end-to-end metrics and the correctness checks.
//!
//! A *pass* is one complete training run of the workload's cell from
//! round 0. The timed phase repeats passes until `--seconds` have gone
//! by and reports medians over them; every pass of one seed must yield
//! the same record stream, which is itself a check.

use crate::measure::{
    cpu_seconds, median, peak_rss_mib, record_digest, round_gaps_ms, speed_probe, Recording,
    Stopwatch, SPEED_PROBE_REF_S,
};
use crate::workloads::{setup, Cell, SetupTimes, Workload};
use niid_fl::trace::{JsonlSink, NoopSink, TraceEvent};
use niid_fl::{DynamicsRecorder, FaultAction, FaultPlan, RunResult, UpdateCodec};
use niid_metrics::{JsonlExporter, Registry};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// One pass and what the benchmark's own clocks saw of it.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `VmHWM` of the process when the pass ended.
    pub peak_rss_mib: f64,
    pub result: RunResult,
    pub rec: Recording,
    /// Bytes of JSONL (trace + metric series) the workload wrote.
    pub written_bytes: u64,
}

impl Pass {
    pub fn rounds(&self) -> usize {
        self.result.rounds.len()
    }
}

/// Run one pass of `cell`. `full` keeps every trace event in memory.
/// `observed` says whether `silo_robust_observed` runs with its observer,
/// metric series and JSONL trace (always true except for the plain arm
/// of the observer-overhead probe).
pub fn run_pass(
    cell: &mut Cell,
    run_dir: &Path,
    full: bool,
    observed: bool,
) -> Result<Pass, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let trace_path = run_dir.join("trace.jsonl");
    let series_path = run_dir.join("dynamics.jsonl");
    let observed = observed && cell.workload == Workload::SiloRobustObserved;
    let exporter = observed
        .then(|| JsonlExporter::create(&series_path).map(Arc::new))
        .transpose()
        .map_err(|e| io("metric series", e))?;
    let recorder = exporter.as_ref().map(|e| {
        let layout = cell.model.build(cell.num_classes, 0).state_layout();
        DynamicsRecorder::new(Arc::new(Registry::new()), &layout, Some(Arc::clone(e)))
    });
    let tee = observed
        .then(|| JsonlSink::create(&trace_path))
        .transpose()
        .map_err(|e| io("jsonl trace", e))?;

    let cpu0 = cpu_seconds();
    let origin = Instant::now();
    let sink = Stopwatch::new(origin, cell.config.rounds, full, tee);
    let result = match (cell.cluster.as_mut(), recorder.as_ref()) {
        (Some(cluster), _) => cell.sim.run_distributed(&mut cluster.coord, &sink),
        (None, Some(rec)) => cell.sim.run_observed(&sink, Some(rec)),
        (None, None) => cell.sim.run_traced(&sink),
    }
    .map_err(|e| format!("{}: run failed: {e}", cell.workload.name()))?;
    if let Some(e) = &exporter {
        e.flush();
    }
    let rec = sink.finish();
    let wall_s = origin.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;

    let written_bytes = if exporter.is_some() {
        [&trace_path, &series_path]
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
            .sum()
    } else {
        0
    };
    Ok(Pass {
        wall_s,
        cpu_s,
        peak_rss_mib: peak_rss_mib(),
        result,
        rec,
        written_bytes,
    })
}

/// Repeat passes for about `seconds`: at least one, and another only
/// while half of it still fits, so the phase ends within half a pass of
/// the time asked for. `after_pass` runs after every pass (the timed
/// phase takes a speed probe and a set-up there) and its time counts
/// towards `seconds`.
pub fn run_passes(
    cell: &mut Cell,
    run_dir: &Path,
    seconds: f64,
    full: bool,
    mut after_pass: impl FnMut() -> Result<(), String>,
) -> Result<Vec<Pass>, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let pass = run_pass(cell, run_dir, full, true)?;
        after_pass()?;
        let next_half = pass.wall_s / 2.0;
        passes.push(pass);
        if started.elapsed().as_secs_f64() + next_half >= seconds {
            return Ok(passes);
        }
    }
}

/// How much slower than the reference sandbox the machine ran during a
/// run: the median of its speed probes over [`SPEED_PROBE_REF_S`]. One
/// factor for the whole run, because the machine's speed wanders over
/// minutes while a single probe is only good to a few percent.
pub fn slowdown(probes: &[f64]) -> f64 {
    median(probes).map_or(1.0, |p| p / SPEED_PROBE_REF_S)
}

/// One more set-up of the workload's cell, in a fresh process (this
/// executable again with `--setup-only`), and the speed probe taken just
/// before it. The timed phase takes one after every pass.
///
/// Why not simply set up a few times when the run begins: a set-up is
/// short and mostly allocates, so what it costs depends on the state of
/// the allocator and on the sandbox's speed at that instant, which moves
/// by tens of percent within seconds. Back-to-back set-ups in one process
/// flip between heap reuse and fresh pages (`dist_tcp_dense` read 60 or
/// 100 ms, all stages together), and which one a run mostly saw changed
/// its median. A fresh process is what a user pays set-up in, starts
/// from the same allocator state every time, and spread over the run
/// with each sample divided by the slowdown its own probe saw, the median
/// repeats.
pub struct SetupSample {
    pub times: SetupTimes,
    pub probe_s: f64,
}

impl SetupSample {
    pub fn take(w: Workload, seed: u64, smoke: bool) -> Result<Self, String> {
        let probe_s = speed_probe(crate::workloads::train_threads());
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--setup-only", "--workload", w.name()])
            .args(["--seed", &seed.to_string()]);
        if smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child, so none outlives the run.
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let times = text.lines().last().and_then(SetupTimes::parse_line);
        match times {
            Some(times) if out.status.success() => Ok(SetupSample { times, probe_s }),
            _ => Err(format!("set-up child failed ({}): {text}", out.status)),
        }
    }

    /// Seconds the whole set-up took, at reference speed.
    pub fn total_ref_s(&self) -> f64 {
        self.times.total_s * SPEED_PROBE_REF_S / self.probe_s
    }
}

/// What `--setup-only` does: build the cell once, tear it down, and print
/// the stage times on one line for [`SetupSample::take`].
pub fn setup_only(w: Workload, seed: u64, smoke: bool, run_dir: &Path) -> Result<(), String> {
    let cell = setup(w, seed, w.rounds(smoke), run_dir)?;
    let times = cell.times;
    teardown(cell)?;
    println!("{}", times.to_line());
    Ok(())
}

/// Stop the party clients, if the cell has any.
pub fn teardown(mut cell: Cell) -> Result<(), String> {
    match cell.cluster.take() {
        Some(cluster) => cluster.shutdown(),
        None => Ok(()),
    }
}

/// The end-to-end numbers of one run. Every time is at reference speed:
/// what the clock read, divided by the run's [`slowdown`].
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub samples_per_s: f64,
    pub round_ms_p50: f64,
    /// How many round gaps `round_ms_p50` is the median of.
    pub round_samples: usize,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    pub wire_bytes_per_round: f64,
    /// The run's slowdown and the median pass as the clock read it, for
    /// the record.
    pub slowdown: f64,
    pub raw_wall_s: f64,
}

/// The first evaluated round of `pass` that reached `target`, and how
/// many seconds into the pass it finished. A pass that never reached it
/// (an unlucky partition learns slowly) counts in full: one round past
/// its last and its whole wall time, a lower limit.
pub fn time_to_target(pass: &Pass, target: f64) -> (usize, f64) {
    pass.result
        .rounds
        .iter()
        .position(|r| r.test_accuracy.is_some_and(|a| a >= target))
        .and_then(|round| Some((round, pass.rec.marks.get(round)?.finished)))
        .unwrap_or((pass.rounds(), pass.wall_s))
}

/// Median gap between successive round ends over every pass as the clock
/// read them, and the number of gaps.
pub fn pooled_round_ms_p50(passes: &[Pass]) -> (f64, usize) {
    let gaps: Vec<f64> = passes
        .iter()
        .flat_map(|p| round_gaps_ms(&p.rec.marks))
        .collect();
    (median(&gaps).unwrap_or(0.0), gaps.len())
}

pub fn end_to_end(
    setups: &[SetupSample],
    passes: &[Pass],
    slowdown: f64,
    epochs: usize,
) -> EndToEnd {
    let med =
        |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let (round_ms_p50, round_samples) = pooled_round_ms_p50(passes);
    let setup_s = median(
        &setups
            .iter()
            .map(SetupSample::total_ref_s)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let last = passes.last().expect("at least one pass");
    EndToEnd {
        setup_s,
        wall_s: med(&|p| p.wall_s) / slowdown,
        samples_per_s: med(&|p| (p.rec.samples * epochs as u64) as f64 / p.wall_s) * slowdown,
        round_ms_p50: round_ms_p50 / slowdown,
        round_samples,
        cpu_s: med(&|p| p.cpu_s) / slowdown,
        // After the first pass, before any speed probe: the probes' own
        // buffers are then no part of the high-water mark.
        peak_rss_mib: passes[0].peak_rss_mib,
        wire_bytes_per_round: last.result.total_bytes as f64 / last.rounds() as f64,
        slowdown,
        raw_wall_s: med(&|p| p.wall_s),
    }
}

/// What the correctness checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per failed check; empty means correct.
    pub problems: Vec<String>,
    /// Party-rounds attempted (selected parties over every pass run).
    pub attempted: u64,
    /// Party failures the fault plan did not predict.
    pub unplanned: u64,
    /// Faults the plan injected in the verified pass.
    pub injected: u64,
    /// Rounds of the verified pass that aggregated fewer than selected.
    pub degraded_rounds: u64,
    pub record_digest: u64,
    /// Median round time of the in-process oracle (`dist_tcp_dense`).
    pub oracle_round_ms_p50: Option<f64>,
}

/// Per-round party outcomes pulled out of a full event log.
#[derive(Default, Clone)]
struct RoundParties {
    trained: Vec<usize>,
    /// `(party, failure kind tag)`.
    failed: Vec<(usize, String)>,
}

fn parties_by_round(events: &[(f64, TraceEvent)], rounds: usize) -> Vec<RoundParties> {
    let mut out = vec![RoundParties::default(); rounds];
    for (_, e) in events {
        match e {
            TraceEvent::PartyTrained {
                round, party_id, ..
            } if *round < rounds => out[*round].trained.push(*party_id),
            TraceEvent::PartyFailed {
                round,
                party_id,
                kind,
                ..
            } if *round < rounds => out[*round].failed.push((*party_id, kind.clone())),
            _ => {}
        }
    }
    out
}

/// One round's failures set against the fault plan.
#[derive(Debug, Default, PartialEq)]
struct FaultAccount {
    /// Failures the plan predicted (expected output, not failed work).
    injected: u64,
    /// The injected ones that were drops (billed as sent, then lost).
    dropped: u64,
    /// One line per failed operation: a failure the plan did not
    /// predict, or a party that trained through a planned crash or drop.
    unplanned: Vec<String>,
}

fn account_faults(plan: Option<&FaultPlan>, round: usize, parties: &RoundParties) -> FaultAccount {
    let action = |party: usize| plan.map_or(FaultAction::None, |p| p.action(round, party));
    let mut acc = FaultAccount::default();
    for &party in &parties.trained {
        if matches!(action(party), FaultAction::Crash | FaultAction::Drop) {
            acc.unplanned.push(format!(
                "round {round}: party {party} trained through a planned fault"
            ));
        }
    }
    for (party, kind) in &parties.failed {
        match (action(*party), kind.as_str()) {
            (FaultAction::Crash, "injected_crash") => acc.injected += 1,
            (FaultAction::Drop, "injected_drop") => {
                acc.injected += 1;
                acc.dropped += 1;
            }
            _ => acc.unplanned.push(format!(
                "round {round}: party {party} failed unplanned ({kind})"
            )),
        }
    }
    acc
}

/// Check `verified` (a pass with a full event log) against everything
/// that can be re-derived from outside, then tie every timed pass to it
/// by digest. `smoke` skips the accuracy floor: a handful of rounds
/// does not learn.
pub fn verify(
    cell: &Cell,
    timed: &[Pass],
    verified: &Pass,
    smoke: bool,
) -> Result<Verdict, String> {
    let w = cell.workload;
    let cfg = &cell.config;
    let records = &verified.result.rounds;
    let mut v = Verdict {
        record_digest: record_digest(records),
        attempted: timed
            .iter()
            .chain(std::iter::once(verified))
            .flat_map(|p| p.result.rounds.iter())
            .map(|r| r.participants as u64)
            .sum(),
        ..Verdict::default()
    };
    let problem = |v: &mut Verdict, msg: String| {
        if v.problems.len() < 20 {
            v.problems.push(msg);
        }
    };

    if records.len() != cfg.rounds {
        problem(
            &mut v,
            format!(
                "{} rounds recorded, {} configured",
                records.len(),
                cfg.rounds
            ),
        );
    }
    for (i, p) in timed.iter().enumerate() {
        if record_digest(&p.result.rounds) != v.record_digest {
            problem(
                &mut v,
                format!("timed pass {i} diverged from the verified pass"),
            );
        }
    }

    // Wire bytes re-derived from the codec's data-independent lengths.
    let probe = cell.model.build(cell.num_classes, 0);
    let (p_len, b_len) = (probe.params_flat().len(), probe.buffers_flat().len());
    let dense = UpdateCodec::DenseF32;
    let scaffold = cfg.algorithm.uses_control_variates();
    let side = if scaffold {
        dense.encoded_len(p_len)
    } else {
        0
    };
    let down_each = dense.encoded_len(p_len) + dense.encoded_len(b_len) + side;
    let up_each = cfg.codec.encoded_len(p_len) + dense.encoded_len(b_len) + side;

    let cohort = cell.cohort();
    let by_round = parties_by_round(&verified.rec.events, records.len());
    for (r, parties) in records.iter().zip(&by_round) {
        let round = r.round;
        if r.participants != cohort || parties.trained.len() + parties.failed.len() != cohort {
            problem(
                &mut v,
                format!(
                    "round {round}: {} participants ({} trained, {} failed), cohort is {cohort}",
                    r.participants,
                    parties.trained.len(),
                    parties.failed.len()
                ),
            );
        }
        if r.failures != parties.failed.len() {
            problem(
                &mut v,
                format!("round {round}: record and events disagree on failures"),
            );
        }
        let faults = account_faults(cfg.fault_plan.as_ref(), round, parties);
        v.injected += faults.injected;
        v.unplanned += faults.unplanned.len() as u64;
        for msg in faults.unplanned {
            problem(&mut v, msg);
        }
        let dropped = faults.dropped as usize;
        v.degraded_rounds += u64::from(!parties.failed.is_empty());
        let down = cohort * down_each;
        let up = (parties.trained.len() + dropped) * up_each;
        if (r.down_bytes, r.up_bytes) != (down, up) {
            problem(
                &mut v,
                format!(
                    "round {round}: billed {}+{} bytes, codec lengths give {down}+{up}",
                    r.down_bytes, r.up_bytes
                ),
            );
        }
        if !r.avg_local_loss.is_finite() {
            problem(&mut v, format!("round {round}: loss {}", r.avg_local_loss));
        }
    }

    let floor = w.accuracy_floor();
    if !smoke && verified.result.final_accuracy < floor {
        problem(
            &mut v,
            format!(
                "final accuracy {} below the floor {floor}",
                verified.result.final_accuracy
            ),
        );
    }

    match w {
        Workload::DistTcpDense => {
            // The same cell trained in-process must give the same records.
            let n = 20.min(cfg.rounds);
            let origin = Instant::now();
            let sink = Stopwatch::new(origin, n, false, None);
            let oracle = cell
                .sim
                .run_interrupted(n, &sink)
                .map_err(|e| format!("in-process oracle: {e}"))?;
            let gaps = round_gaps_ms(&sink.finish().marks);
            v.oracle_round_ms_p50 = median(&gaps);
            if record_digest(&oracle.rounds) != record_digest(&records[..n.min(records.len())]) {
                problem(
                    &mut v,
                    format!("first {n} rounds differ from the in-process oracle"),
                );
            }
        }
        Workload::SiloRobustObserved if cfg.rounds > 7 => {
            // Kill after rounds-7, resume from the last checkpoint.
            cell.sim
                .run_interrupted(cfg.rounds - 7, &NoopSink)
                .map_err(|e| format!("interrupted run: {e}"))?;
            let resumed = cell.sim.resume().map_err(|e| format!("resume: {e}"))?;
            if record_digest(&resumed.rounds) != v.record_digest {
                problem(
                    &mut v,
                    "resumed run differs from the uninterrupted one".into(),
                );
            }
        }
        _ => {}
    }
    Ok(v)
}

/// The accuracy curve of a pass in at most a dozen evenly spaced points.
pub fn curve_note(pass: &Pass) -> String {
    let curve = pass.result.curve();
    let step = curve.len().div_ceil(12).max(1);
    let points: Vec<String> = curve
        .iter()
        .enumerate()
        .filter(|(i, _)| i % step == 0 || i + 1 == curve.len())
        .map(|(_, (round, acc))| format!("{round}:{acc:.3}"))
        .collect();
    format!("accuracy by round: {}", points.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(crash: f64, drop: f64) -> FaultPlan {
        FaultPlan {
            seed: 9,
            crash_prob: crash,
            drop_prob: drop,
            delay_prob: 0.0,
            delay_ms: 0,
        }
    }

    fn parties(trained: &[usize], failed: &[(usize, &str)]) -> RoundParties {
        RoundParties {
            trained: trained.to_vec(),
            failed: failed.iter().map(|(p, k)| (*p, k.to_string())).collect(),
        }
    }

    #[test]
    fn only_unpredicted_failures_count_as_failed_operations() {
        // Every cell crashes: reported crashes are expected output.
        let all_crash = plan(1.0, 0.0);
        let acc = account_faults(
            Some(&all_crash),
            3,
            &parties(&[], &[(0, "injected_crash"), (1, "injected_crash")]),
        );
        assert_eq!((acc.injected, acc.dropped, acc.unplanned.len()), (2, 0, 0));
        // ... but a party that trains through its crash, a crash reported
        // as a drop, and a real panic are each a failed operation.
        let acc = account_faults(
            Some(&all_crash),
            3,
            &parties(&[2], &[(0, "injected_drop"), (1, "panic")]),
        );
        assert_eq!((acc.injected, acc.unplanned.len()), (0, 3));
        // Drops are billed as sent.
        let acc = account_faults(
            Some(&plan(0.0, 1.0)),
            0,
            &parties(&[], &[(5, "injected_drop")]),
        );
        assert_eq!((acc.injected, acc.dropped, acc.unplanned.len()), (1, 1, 0));
        // Without a plan any failure is unplanned, and training is fine.
        let acc = account_faults(None, 0, &parties(&[0, 1], &[(2, "injected_crash")]));
        assert_eq!((acc.injected, acc.unplanned.len()), (0, 1));
        assert_eq!(
            account_faults(None, 0, &parties(&[0, 1], &[])),
            FaultAccount::default()
        );
    }

    #[test]
    fn events_are_grouped_by_round() {
        let trained = |round, party_id| TraceEvent::PartyTrained {
            round,
            party_id,
            tau: 1,
            n_samples: 1,
            avg_loss: 0.0,
            wall_ms: 0.0,
        };
        let failed = TraceEvent::PartyFailed {
            round: 1,
            party_id: 7,
            kind: "injected_drop".into(),
            message: String::new(),
        };
        let events = vec![
            (0.0, trained(0, 3)),
            (0.1, trained(1, 4)),
            (0.2, failed),
            (0.3, trained(9, 1)),
        ];
        let by_round = parties_by_round(&events, 2);
        assert_eq!(by_round[0].trained, vec![3]);
        assert_eq!(by_round[1].trained, vec![4]);
        assert_eq!(by_round[1].failed, vec![(7, "injected_drop".to_string())]);
    }
}
