//! The experiment registry's invariants and the `exp` driver's command-line
//! contract: every way of asking for something it cannot do ends in
//! `error: …` on stderr and exit 2 *before* any cell trains — never a
//! panic, never a flag silently ignored.

use niid_bench::experiments::{find, Kind, EXPERIMENTS};
use std::collections::HashSet;
use std::path::PathBuf;
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
    let out = exp(&["fig5", "scale", "--short", "--out", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
    let events = std::fs::read_to_string(&trace).expect("trace written");
    let rounds = events.matches("\"round_started\"").count();
    assert_eq!(rounds, 5, "one run's five cells x one round, not two runs'");
    // A row that trains nothing still runs, and leaves the file alone.
    let stdout = run(&["table1", "--quick"]);
    assert!(!stdout.contains("trace summary"), "{stdout}");
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), events);
    let _ = std::fs::remove_file(&trace);
}
