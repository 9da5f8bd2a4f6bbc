//! Metric names, the result line, the all-workloads driver and
//! `--compare`. `BENCHMARK.json` repeats the two metric tables below; a
//! unit test keeps them equal.

use crate::measure::{median, quartiles, SPEED_PROBE_REF_S};
use crate::run::{EndToEnd, Verdict};
use crate::workloads::{train_threads, Workload};
use crate::Options;
use niid_json::{parse, Json};
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the baseline's median by which it may get worse.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: [EndToEndDef; 7] = [
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "samples_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEndDef { name: "round_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "cpu_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.15 },
    EndToEndDef { name: "wire_bytes_per_round", unit: "bytes", better: Better::Lower, bound: 0.02 },
];

/// Metric values by name, in table order.
pub type Metrics = Vec<(&'static str, f64)>;

pub fn end_to_end_metrics(e: &EndToEnd) -> Metrics {
    vec![
        ("setup_s", e.setup_s),
        ("wall_s", e.wall_s),
        ("samples_per_s", e.samples_per_s),
        ("round_ms_p50", e.round_ms_p50),
        ("cpu_s", e.cpu_s),
        ("peak_rss_mib", e.peak_rss_mib),
        ("wire_bytes_per_round", e.wire_bytes_per_round),
    ]
}

/// A per-layer metric: the layer is the name's prefix; `moves` says which
/// end-to-end metric it should move, on which workload (`->`), or what
/// the number is when it is bookkeeping.
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

#[rustfmt::skip]
pub const PER_LAYER: [LayerDef; 70] = [
    layer("data.generate_s", "s", L, "-> setup_s @ all"),
    layer("data.rows_per_s", "1/s", H, "-> setup_s @ all"),
    layer("partition.assign_s", "s", L, "-> setup_s @ silo workloads"),
    layer("partition.build_parties_s", "s", L, "-> setup_s @ silo workloads"),
    layer("partition.lazy_party_us", "us", L, "-> round_ms_p50 @ cross_device_topk8"),
    layer("stats.sample_cohort_us", "us", L, "-> round_ms_p50 @ cross_device_topk8"),
    layer("tensor.gemm_self_ms_per_round", "ms", L, "-> samples_per_s, wall_s @ silo_lenet"),
    layer("tensor.conv_self_ms_per_round", "ms", L, "-> samples_per_s, wall_s @ silo_lenet"),
    layer("tensor.self_share", "fraction", L, "share of span time in gemm+conv; high @ silo_lenet, low @ cross_device_topk8"),
    layer("tensor.pool_idle_ms_per_round", "ms", L, "-> cpu_s, round_ms_p50 @ cross_device_topk8"),
    layer("tensor.gemm_calls_per_round", "count", L, "-> samples_per_s @ silo_lenet"),
    layer("tensor.gemm_flops_per_round", "count", L, "-> samples_per_s @ silo_lenet"),
    layer("tensor.gemm_gflops", "GFLOP/s", H, "-> samples_per_s, wall_s @ silo_lenet"),
    layer("tensor.pool_tasks_per_round", "count", L, "-> cpu_s, round_ms_p50 @ cross_device_topk8"),
    layer("tensor.pool_steals_per_round", "count", L, "-> cpu_s, round_ms_p50 @ cross_device_topk8"),
    layer("tensor.pool_utilization", "fraction", H, "-> cpu_s @ cross_device_topk8"),
    layer("tensor.scratch_reuse_rate", "fraction", H, "-> samples_per_s @ silo_lenet"),
    layer("tensor.simd_dispatch_rate", "fraction", H, "-> samples_per_s @ silo_lenet"),
    layer("nn.forward_us", "us", L, "-> samples_per_s @ silo_lenet"),
    layer("nn.backward_us", "us", L, "-> samples_per_s @ silo_lenet"),
    layer("nn.loss_us", "us", L, "-> samples_per_s @ silo_lenet"),
    layer("nn.sgd_step_us", "us", L, "-> samples_per_s @ silo_lenet, cross_device_topk8"),
    layer("nn.param_count", "count", L, "-> wire_bytes_per_round @ all"),
    layer("local.party_train_ms_p50", "ms", L, "-> round_ms_p50 @ silo_lenet, silo_robust_observed"),
    layer("local.party_train_ms_max", "ms", L, "-> round_ms_p50 @ silo_lenet, silo_robust_observed"),
    layer("local.straggler_ratio", "ratio", L, "-> round_ms_p50 @ silo_lenet, silo_robust_observed"),
    layer("local.step_us", "us", L, "-> round_ms_p50 @ silo_lenet, silo_robust_observed"),
    layer("local.steps_per_round", "count", L, "-> round_ms_p50 @ silo_lenet, silo_robust_observed"),
    layer("engine.local_phase_s", "s", L, "-> wall_s @ all"),
    layer("engine.aggregate_phase_s", "s", L, "-> wall_s @ all"),
    layer("engine.eval_phase_s", "s", L, "-> wall_s @ all"),
    layer("engine.comm_phase_s", "s", L, "-> wall_s @ all"),
    layer("engine.sample_ms_per_round", "ms", L, "-> round_ms_p50 @ cross_device_topk8"),
    layer("engine.other_s", "s", L, "-> wall_s @ all (what a drive collapse must hold)"),
    layer("engine.unattributed_share", "fraction", L, "-> wall_s @ all (reported, not gated)"),
    layer("engine.round_ms_tail", "ms", L, "-> wall_s @ all"),
    layer("engine.round_ms_tail_pct", "%", H, "which percentile engine.round_ms_tail is"),
    layer("engine.traced_residual_share", "fraction", L, "fl.round self time / fl.round total in the traced run"),
    layer("aggregate.dense_us", "us", L, "-> round_ms_p50 @ silo_lenet, dist_tcp_dense (about 0)"),
    layer("aggregate.sparse_us", "us", L, "-> round_ms_p50 @ cross_device_topk8"),
    layer("aggregate.self_ms_per_round", "ms", L, "-> round_ms_p50 @ cross_device_topk8"),
    layer("compress.encode_mb_s", "MB/s", H, "-> round_ms_p50 @ cross_device_topk8, silo_robust_observed"),
    layer("compress.decode_mb_s", "MB/s", H, "-> round_ms_p50 @ cross_device_topk8, silo_robust_observed"),
    layer("compress.feedback_encode_us", "us", L, "-> round_ms_p50 @ cross_device_topk8, silo_robust_observed"),
    layer("compress.ratio", "ratio", H, "-> wire_bytes_per_round @ cross_device_topk8, silo_robust_observed"),
    layer("party.resident_peak_bytes", "bytes", L, "-> peak_rss_mib @ cross_device_topk8"),
    layer("net.handshake_ms", "ms", L, "-> setup_s @ dist_tcp_dense"),
    layer("net.frame_write_mb_s", "MB/s", H, "-> round_ms_p50 @ dist_tcp_dense"),
    layer("net.frame_read_mb_s", "MB/s", H, "-> round_ms_p50 @ dist_tcp_dense"),
    layer("net.msg_encode_us", "us", L, "-> round_ms_p50 @ dist_tcp_dense"),
    layer("net.msg_decode_us", "us", L, "-> round_ms_p50 @ dist_tcp_dense"),
    layer("net.wire_overhead_ratio", "ratio", L, "-> round_ms_p50 @ dist_tcp_dense"),
    layer("checkpoint.save_ms", "ms", L, "-> wall_s @ silo_robust_observed"),
    layer("checkpoint.load_ms", "ms", L, "-> resume time @ silo_robust_observed"),
    layer("checkpoint.bytes", "bytes", L, "-> wall_s @ silo_robust_observed"),
    layer("checkpoint.stall_share", "fraction", L, "-> wall_s @ silo_robust_observed"),
    layer("dynamics.observer_overhead_ratio", "ratio", L, "-> wall_s @ silo_robust_observed"),
    layer("trace.events_per_round", "count", L, "-> wall_s @ silo_robust_observed"),
    layer("trace.jsonl_bytes_per_round", "bytes", L, "-> wall_s @ silo_robust_observed"),
    layer("prof.trace_overhead_ratio", "ratio", L, "how far the traced layer table can be trusted"),
    layer("prof.spans_recorded", "count", L, "-> prof.trace_overhead_ratio"),
    layer("prof.spans_dropped", "count", L, "percentiles from rings only; totals stay exact"),
    layer("fault.injected_per_round", "count", L, "-> expected output @ silo_robust_observed"),
    layer("fault.degraded_rounds", "count", L, "-> expected output @ silo_robust_observed"),
    layer("fault.unplanned", "count", L, "-> failed operations @ all (must be 0)"),
    layer("engine.time_to_target_s", "s", L, "wall time to the first evaluated round at the workload's target accuracy"),
    layer("engine.time_to_target_round", "count", L, "engine.time_to_target_s / round_ms_p50"),
    layer("engine.final_accuracy", "fraction", H, "test accuracy of the last round; exact for a seed, differs by 15-25 % between seeds"),
    layer("bench.passes", "count", H, "how many untraced passes the medians are over"),
    layer("bench.slowdown", "ratio", L, "speed probe / its reference time: what the end-to-end times were divided by"),
];

/// Unit of a metric of either table, and what to print after it: the
/// direction and bound of an end-to-end metric, or what a per-layer
/// metric should move.
fn describe(name: &str) -> (&'static str, String) {
    if let Some(d) = END_TO_END.iter().find(|d| d.name == name) {
        let remark = format!(
            "{} is better, bound {}%",
            d.better.as_str(),
            d.bound * 100.0
        );
        return (d.unit, remark);
    }
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .map_or(("", String::new()), |d| {
            (
                d.unit,
                format!("{} is better; {}", d.better.as_str(), d.moves),
            )
        })
}

/// The result of one run of one workload.
pub struct Outcome {
    pub workload: Workload,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub problems: Vec<String>,
    pub record_digest: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(
        workload: Workload,
        opts: &Options,
        e2e: &EndToEnd,
        verdict: Verdict,
        metrics: Metrics,
        more_notes: Vec<String>,
    ) -> Self {
        let mut notes = vec![
            format!(
                "seed {} seconds {} trace {} smoke {} threads {} simd {}",
                opts.seed,
                opts.seconds,
                u8::from(opts.trace),
                opts.smoke,
                train_threads(),
                niid_tensor::active_kernel().name()
            ),
            format!(
                "round_ms_p50 is the median of {} round gaps",
                e2e.round_samples
            ),
            format!(
                "times are at reference speed: the speed probe took {:.3}x its reference {} s; \
                 by the clock the median pass took {:.4} s",
                e2e.slowdown, SPEED_PROBE_REF_S, e2e.raw_wall_s
            ),
        ];
        notes.extend(more_notes);
        Outcome {
            workload,
            correct: verdict.problems.is_empty(),
            attempted: verdict.attempted.max(1),
            failed: verdict.unplanned,
            metrics,
            problems: verdict.problems,
            record_digest: verdict.record_digest,
            notes,
        }
    }

    fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let m = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(describe(name).0.to_string())),
                ]);
                (name.to_string(), m)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Human-readable lines, then the `info` line the all-workloads
    /// driver reads, then the result object as the last line.
    pub fn print(&self) {
        println!("workload {}", self.workload.name());
        for n in &self.notes {
            println!("  {n}");
        }
        for (name, value) in &self.metrics {
            let (unit, remark) = describe(name);
            println!("  {name:<36} {value:>18.6} {unit:<9} {remark}");
        }
        println!("  record_digest {:016x}", self.record_digest);
        println!(
            "  ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        );
        for p in &self.problems {
            println!("  CHECK FAILED: {p}");
        }
        let info = Json::obj(vec![(
            "record_digest",
            Json::Str(format!("{:016x}", self.record_digest)),
        )]);
        println!("info {info}");
        println!("{}", self.result_json());
    }
}

/// Run this executable again for one workload and return its stdout.
fn child_run(w: Workload, opts: &Options, seconds: f64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &opts.chrome_trace) {
        let file = format!("{}.{}.json", path.display(), w.name());
        cmd.args(["--chrome-trace", &file]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{} failed ({})", w.name(), out.status));
    }
    Ok(text)
}

/// The result object (last line) and the info object of a child's stdout.
fn parse_child(text: &str) -> Result<(Json, Json), String> {
    let last = text.lines().last().ok_or("child printed nothing")?;
    let result = parse(last).map_err(|e| format!("child result: {e}"))?;
    let info = text
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .ok_or("child printed no info line")
        .and_then(|l| parse(l).map_err(|_| "child info line is not JSON"))?;
    Ok((result, info))
}

/// `{name: value}` from a result object's `metrics`.
fn flat_metrics(result: &Json) -> Json {
    let fields = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), Json::Num(m.get("value")?.as_f64()?))))
        .collect();
    Json::Obj(fields)
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Every workload in its own sequential child process (so peak RSS and
/// profiler totals start from zero): `--repeat` untraced runs, then one
/// traced run. Writes the report to `--json` when given.
pub fn run_all(opts: &Options) -> ExitCode {
    let seconds = if opts.smoke { 0.2 } else { opts.seconds };
    let mut workloads = Vec::new();
    let mut all_ok = true;
    let is_correct = |j: &Json| j.get("correct").and_then(Json::as_bool).unwrap_or(false);
    let count = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    for w in Workload::ALL {
        let one = (|| -> Result<Json, String> {
            let mut runs = Vec::new();
            let mut digest = Json::Null;
            let mut correct = true;
            let (mut attempted, mut failed) = (0.0, 0.0);
            for _ in 0..opts.repeat {
                let (result, info) = parse_child(&child_run(w, opts, seconds, false)?)?;
                correct &= is_correct(&result);
                attempted += count(&result, "attempted");
                failed += count(&result, "failed");
                digest = info.get("record_digest").cloned().unwrap_or(Json::Null);
                runs.push(flat_metrics(&result));
            }
            let (traced, _) = parse_child(&child_run(w, opts, seconds, true)?)?;
            correct &= is_correct(&traced);
            Ok(Json::obj(vec![
                ("name", Json::Str(w.name().to_string())),
                ("correct", Json::Bool(correct)),
                ("ops_attempted", Json::Num(attempted)),
                ("ops_failed", Json::Num(failed)),
                ("record_digest", digest),
                ("runs", Json::Arr(runs)),
                ("per_layer", flat_metrics(&traced)),
            ]))
        })();
        match one {
            Ok(j) => {
                all_ok &= is_correct(&j);
                workloads.push(j);
            }
            Err(e) => {
                eprintln!("niid-benchmark: {e}");
                all_ok = false;
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::obj(vec![
        ("schema", Json::Str("niid-benchmark/1".into())),
        (
            "env",
            Json::obj(vec![
                ("nproc", Json::Num(nproc as f64)),
                ("threads", Json::Num(train_threads() as f64)),
                (
                    "simd",
                    Json::Str(niid_tensor::active_kernel().name().into()),
                ),
                ("rustc", Json::Str(rustc_version())),
                ("seed", Json::Num(opts.seed as f64)),
                ("seconds", Json::Num(seconds)),
                ("smoke", Json::Bool(opts.smoke)),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, report.pretty() + "\n") {
            eprintln!("niid-benchmark: write {}: {e}", path.display());
            all_ok = false;
        }
    }
    println!(
        "{}",
        if all_ok {
            "ALL CHECKS PASSED"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `ok`, `regressed` or `unresolved` for one workload x metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict3 {
    Ok,
    Regressed,
    Unresolved,
}

/// Spread of a sample: interquartile distance as a share of the median;
/// `None` with fewer than two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Judge the change `b` against the baseline `a` for one metric:
/// `regressed` when b's median is worse than a's by more than the bound,
/// otherwise `unresolved` when either side's run-to-run spread is wider
/// than the bound (the comparison cannot tell), otherwise `ok`.
pub fn judge(def: &EndToEndDef, a: &[f64], b: &[f64]) -> Verdict3 {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict3::Unresolved;
    };
    let worse_by = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > def.bound {
        Verdict3::Regressed
    } else if [a, b]
        .iter()
        .any(|v| spread(v).is_some_and(|s| s > def.bound))
    {
        Verdict3::Unresolved
    } else {
        Verdict3::Ok
    }
}

fn metric_runs(workload: &Json, name: &str) -> Vec<f64> {
    workload
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| r.get(name)?.as_f64())
        .collect()
}

/// Compare two reports written by `--json`; each workload on its own
/// rows. Exit 1 when any metric regressed.
pub fn compare_files(a_path: &str, b_path: &str) -> ExitCode {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("niid-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .to_vec()
    };
    let simd = |j: &Json| j.get("env").and_then(|e| e.get("simd")).cloned();
    let same_kernel = simd(&a) == simd(&b);
    let mut regressed = false;
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "change", "spreadA", "spreadB"
    );
    for wa in workloads(&a) {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            println!("{name:<22} missing from {b_path}");
            continue;
        };
        for def in &END_TO_END {
            let (va, vb) = (metric_runs(&wa, def.name), metric_runs(&wb, def.name));
            let verdict = judge(def, &va, &vb);
            regressed |= verdict == Verdict3::Regressed;
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            let pct =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<22} {:<22} {:>14.4} {:>14.4} {:>7.1}% {:>8} {:>8}  {}",
                name,
                def.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                pct(spread(&va)),
                pct(spread(&vb)),
                match verdict {
                    Verdict3::Ok => "ok",
                    Verdict3::Regressed => "regressed",
                    Verdict3::Unresolved => "unresolved",
                }
            );
        }
        let digests = (wa.get("record_digest"), wb.get("record_digest"));
        println!(
            "{:<22} record_digest {}",
            name,
            match (same_kernel, digests.0 == digests.1) {
                (false, _) => "not compared (different simd arm)",
                (true, true) => "identical",
                (true, false) => "DIFFERENT",
            }
        );
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, whatever the table says today.
    fn def(name: &'static str) -> EndToEndDef {
        let better = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("metric")
            .better;
        EndToEndDef {
            name,
            unit: "",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn compare_verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 10.0, 13.0, 7.0];
        assert_eq!(judge(&def("wall_s"), &steady, &steady), Verdict3::Ok);
        assert_eq!(judge(&def("wall_s"), &steady, &slower), Verdict3::Regressed);
        assert_eq!(
            judge(&def("wall_s"), &slower, &steady),
            Verdict3::Ok,
            "faster is fine"
        );
        assert_eq!(judge(&def("wall_s"), &steady, &noisy), Verdict3::Unresolved);
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&def("samples_per_s"), &slower, &steady),
            Verdict3::Regressed
        );
        assert_eq!(judge(&def("samples_per_s"), &steady, &slower), Verdict3::Ok);
        // A single run has no spread: judged on the medians alone.
        assert_eq!(judge(&def("wall_s"), &[10.0], &[10.5]), Verdict3::Ok);
        assert_eq!(judge(&def("wall_s"), &[10.0], &[11.5]), Verdict3::Regressed);
        assert_eq!(judge(&def("wall_s"), &[], &[1.0]), Verdict3::Unresolved);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "{n} used twice");
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let j = parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let e2e = j.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name"), d.name);
            assert_eq!(field(m, "unit"), d.unit);
            assert_eq!(field(m, "better"), d.better.as_str());
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(d.bound),
                "{}",
                d.name
            );
        }
        let layers = j.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, d) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(m, "name"), d.name);
            assert_eq!(field(m, "unit"), d.unit);
            assert_eq!(field(m, "better"), d.better.as_str());
        }
        let workloads = j.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (m, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(field(m, "name"), w.name());
            assert_eq!(field(m, "why"), w.why());
        }
    }
}
