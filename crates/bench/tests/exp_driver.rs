//! The experiment registry's invariants and the `exp` driver's command-line
//! contract: every way of asking for something it cannot do ends in
//! `error: …` on stderr and exit 2 *before* any cell trains — never a
//! panic, never a flag silently ignored. The output flags end to end:
//! the `--profile`, `--trace` and `--metrics-dir` files, a crash plan,
//! and checkpoint/resume down to the legacy-checkpoint refusal.

use niid_bench::experiments::{find, Kind, EXPERIMENTS};
use niid_json::{FromJson, Json};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Output;

mod common;

fn exp(args: &[&str]) -> Output {
    common::exp_command()
        .args(args)
        .output()
        .expect("spawn exp")
}

/// Assert exit 2, no experiment header on stdout (nothing ran), and
/// return stderr.
fn refused(args: &[&str]) -> String {
    let out = exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before refusing");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    stderr
}

/// Assert exit 0 and return stdout.
fn ran(args: &[&str]) -> String {
    let out = exp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// Every trace line parses as a `TraceEvent`; returns the text.
fn read_trace(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("trace written");
    for line in text.lines() {
        niid_fl::TraceEvent::from_json_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    text
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("directory exists") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.push(path);
        }
    }
    files
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("niid_exp_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn registry_ids_are_unique_and_cover_every_paper_artefact() {
    let ids: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate id");
    assert!(EXPERIMENTS
        .iter()
        .all(|e| !e.id.is_empty() && !e.title.is_empty()));
    for id in ["table1", "table2", "table3"] {
        assert!(find(id).is_some(), "{id} missing");
    }
    for n in 3..=12 {
        assert!(find(&format!("fig{n}")).is_some(), "fig{n} missing");
    }
    assert!(find("exp_fig8").is_none() && find("").is_none());
}

#[test]
fn registry_budgets_match_the_paper_and_the_recorded_bench_runs() {
    // Bench budgets are what the deleted run_experiments.sh passed as
    // `--rounds` (15 where it passed nothing).
    let bench = [
        ("table3", 8),
        ("fig7", 10),
        ("fig9", 4),
        ("fig10", 10),
        ("fig12", 12),
        ("ablation", 5),
    ];
    let mut sweeps = 0;
    for e in EXPERIMENTS {
        let Kind::Sweep(budget, ..) = e.kind else {
            continue;
        };
        sweeps += 1;
        let hundred = matches!(e.id, "fig11" | "fig12");
        assert_eq!(
            budget.paper_rounds,
            if hundred { 100 } else { 50 },
            "{}",
            e.id
        );
        assert_eq!(
            budget.paper_trials,
            if e.id == "table3" { 3 } else { 1 },
            "{}",
            e.id
        );
        let want = bench.iter().find(|b| b.0 == e.id).map_or(15, |b| b.1);
        assert_eq!(budget.bench_rounds, want, "{}", e.id);
    }
    assert_eq!(sweeps, 9, "table3, fig7-12, ablation, comm");
    for id in ["table1", "table2", "fig3", "fig4", "fig5", "fig6"] {
        assert!(
            matches!(find(id).unwrap().kind, Kind::Static(_)),
            "{id} trains nothing"
        );
    }
}

#[test]
fn list_prints_every_id() {
    let out = exp(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for e in EXPERIMENTS {
        assert!(
            text.contains(&format!("| {} ", e.id)),
            "{} not listed",
            e.id
        );
    }
}

#[test]
fn unknown_id_is_refused_and_points_at_list() {
    assert!(refused(&["fig99", "--quick"]).contains("exp list"));
    assert!(refused(&["--quick"]).contains("usage: exp"));
}

#[test]
fn zero_trials_and_resume_without_a_directory_are_refused_at_parse() {
    assert!(refused(&["fig8", "--quick", "--trials", "0"]).contains("--trials"));
    assert!(refused(&["fig8", "--quick", "--rounds", "0"]).contains("--rounds"));
    for q in ["0", "1.5", "NaN"] {
        assert!(refused(&["fig8", "--quick", "--min-quorum", q]).contains("--min-quorum"));
    }
    let err = refused(&["fig8", "--quick", "--checkpoint-every", "0"]);
    assert!(err.contains("--checkpoint-every"), "{err}");
    assert!(refused(&["fig8", "--quick", "--resume"]).contains("--checkpoint-dir"));
}

#[test]
fn static_experiments_refuse_flags_they_would_ignore() {
    let json = scratch("static").with_extension("json");
    let err = refused(&["fig5", "--quick", "--json", json.to_str().unwrap()]);
    assert!(
        err.contains("runs no training") && err.contains("--json"),
        "{err}"
    );
    assert!(!json.exists(), "refused, yet wrote {}", json.display());
    let err = refused(&["table1", "--trace", "t.jsonl", "--faults", "crash=0.1"]);
    assert!(err.contains("--trace, --faults"), "{err}");
    // The engine-direct sweep takes --json and --codec but no cell flags.
    assert!(refused(&["scale", "--short", "--rounds", "2"]).contains("--rounds"));
}

#[test]
fn unwritable_json_is_refused_before_the_first_cell() {
    let err = refused(&["fig8", "--quick", "--json", "/nonexistent-dir/x.json"]);
    assert!(
        err.contains("cannot create /nonexistent-dir/x.json"),
        "{err}"
    );
}

#[test]
fn one_file_flags_are_refused_for_several_experiments() {
    assert!(refused(&["fig8", "fig10", "--quick", "--trace", "t.jsonl"]).contains("--out"));
}

#[test]
fn out_writes_a_txt_per_id_and_a_json_per_trained_id() {
    let dir = scratch("out");
    ran(&["fig5", "scale", "--short", "--out", arg(&dir)]);
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
    assert!(read("fig5.txt").starts_with("=== Figure 5"));
    assert!(read("scale.txt").contains("N=10k"));
    assert!(read("scale.json").contains("\"op\": \"fl_scale\""));
    assert!(!dir.join("fig5.json").exists(), "static ids have no JSON");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn niid_trace_alone_truncates_the_file_and_prints_the_summary() {
    let trace = scratch("env_trace").with_extension("jsonl");
    let run = |args: &[&str]| {
        let out = common::exp_command()
            .env("NIID_TRACE", &trace)
            .args(args)
            .output()
            .expect("spawn exp");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    for _ in 0..2 {
        let stdout = run(&["fig8", "--quick", "--rounds", "1"]);
        assert!(stdout.contains("trace summary"), "{stdout}");
    }
    let events = read_trace(&trace);
    let rounds = events.matches("\"round_started\"").count();
    assert_eq!(rounds, 5, "one run's five cells x one round, not two runs'");
    // A row that trains nothing still runs, and leaves the file alone.
    let stdout = run(&["table1", "--quick"]);
    assert!(!stdout.contains("trace summary"), "{stdout}");
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), events);
    let _ = std::fs::remove_file(&trace);
}

#[cfg(unix)]
#[test]
fn sigterm_mid_run_flushes_the_trace_and_exits_143() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let trace = scratch("sigterm_trace").with_extension("jsonl");
    let _ = std::fs::remove_file(&trace);
    let child = common::exp_command()
        .args(["table3", "--quick", "--rounds", "100000", "--trace"])
        .arg(&trace)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn exp");
    // The first buffer flush lands once training has started, so the
    // header has already installed the exit guard.
    let deadline = Instant::now() + Duration::from_secs(120);
    while std::fs::metadata(&trace).map_or(true, |m| m.len() == 0) {
        assert!(Instant::now() < deadline, "exp wrote no trace");
        std::thread::sleep(Duration::from_millis(20));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let out = child.wait_with_output().expect("wait for exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(143), "{stderr}");
    assert!(stderr.contains("flushed 1 sink(s)"), "{stderr}");
    assert!(read_trace(&trace).ends_with('\n'), "torn last line");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn profile_trace_and_metrics_outputs_carry_every_phase() {
    let dir = scratch("outputs");
    std::fs::create_dir_all(&dir).unwrap();
    let (profile, trace, metrics) = (dir.join("p.json"), dir.join("t.jsonl"), dir.join("m"));
    let stdout = ran(&[
        "fig8",
        "--quick",
        "--profile",
        arg(&profile),
        "--trace",
        arg(&trace),
        "--metrics-dir",
        arg(&metrics),
    ]);
    // Five cells of three rounds share one series file: the summary
    // counts a round per snapshot, so 15, not 3.
    assert!(
        stdout.lines().any(|l| l == "metrics summary: 15 round(s)"),
        "{stdout}"
    );
    let text = std::fs::read_to_string(&profile).expect("profile written");
    let json = niid_json::parse(&text).expect("profile parses");
    let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
    let spans: HashSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name")?.as_str())
        .collect();
    let mut required = vec![
        "fl.round",
        "fl.sample",
        "fl.train",
        "fl.aggregate",
        "fl.eval",
        "fl.local_train",
        "local.step",
        "conv.dw",
    ];
    // The scalar arm runs the materialized lowering: no direct spans.
    if niid_tensor::simd::configured_kernel().is_simd() {
        required.push("conv.direct_fwd");
    }
    for name in required {
        assert!(spans.contains(name), "no {name} span in {spans:?}");
    }
    read_trace(&trace);
    let series = std::fs::read_to_string(metrics.join("metrics.jsonl")).unwrap();
    let names: HashSet<String> = niid_json::parse_jsonl(&series)
        .expect("metrics.jsonl parses")
        .iter()
        .filter_map(|l| Some(l.get("name")?.as_str()?.to_owned()))
        .collect();
    for name in [
        "niid_weight_divergence_l2",
        "niid_grad_norm_l2",
        "niid_train_loss",
    ] {
        assert!(names.contains(name), "no {name} series");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_plan_degrades_rounds_and_completes() {
    let trace = scratch("crash_trace").with_extension("jsonl");
    ran(&[
        "fig8",
        "--quick",
        "--faults",
        "crash=0.3,seed=7",
        "--min-quorum",
        "0.25",
        "--trace",
        arg(&trace),
    ]);
    assert!(read_trace(&trace).contains("\"party_failed\""));
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn checkpoints_resume_and_a_legacy_checkpoint_is_refused() {
    let dir = scratch("checkpoint");
    let run = [
        "fig8",
        "--quick",
        "--checkpoint-dir",
        arg(&dir),
        "--checkpoint-every",
        "2",
    ];
    let resume = [&run[..], &["--resume"]].concat();
    // One trial per fig8 cell, and every save renamed its `*.tmp` away.
    let only_checkpoints = || {
        let files = files_under(&dir);
        let bin = files.iter().filter(|f| f.ends_with("checkpoint.bin"));
        assert_eq!((files.len(), bin.count()), (5, 5), "{files:?}");
        files
    };
    ran(&run);
    only_checkpoints();
    ran(&resume);
    let ck = only_checkpoints().swap_remove(0);

    // A pre-v4 text checkpoint stops `--resume` with the typed error and
    // exit 2: not a panic, and not a fresh run over the old state.
    std::fs::remove_file(&ck).unwrap();
    let legacy = r#"{"version":3,"round_next":2}"#;
    std::fs::write(ck.with_extension("json"), legacy).unwrap();
    let out = exp(&resume);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unsupported checkpoint version"), "{err}");
    assert!(!ck.exists(), "a fresh run overwrote the legacy checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}
