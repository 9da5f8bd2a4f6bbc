//! The one experiment driver: `exp <id>... | all | list [flags]`.
//!
//! Regenerates any table or figure of the paper (ids and budgets:
//! `exp list`; flags: the `niid_bench` crate doc). Parse, header, run,
//! JSON and the trace/metrics/profile epilogue happen here, once, for
//! every experiment; what an experiment *is* lives in
//! `niid_bench::experiments`.

use niid_bench::experiments::{find, list, Experiment, Kind, Plan, EXPERIMENTS};
use niid_bench::{fail, print_epilogue, print_header, Args, USAGE};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::process::Command;

/// Exit 2 if a given flag would be silently ignored by this experiment.
fn reject_ignored_flags(e: &Experiment, args: &Args) {
    let mut ignored = args.cell_flags();
    let why = match e.kind {
        Kind::Sweep(..) => return,
        Kind::Bench(_) => "drives the engine directly",
        Kind::Static(_) => {
            ignored.extend(args.json.as_ref().map(|_| "--json"));
            ignored.extend(args.codec.as_ref().map(|_| "--codec"));
            "runs no training"
        }
    };
    if !ignored.is_empty() {
        let flags = ignored.join(", ");
        fail(format!("{} {why}: it does not take {flags}", e.id));
    }
}

/// Run one experiment in this process, output to stdout.
fn run(e: &Experiment, args: &Args) {
    // Open the JSON file before the first cell trains, not after the last.
    let json = args.json.as_ref().map(|path| match File::create(path) {
        Ok(file) => (path, file),
        Err(err) => fail(format!("cannot create {path}: {err}")),
    });
    print_header(e.title, args);
    let doc = match e.kind {
        Kind::Static(body) => {
            body(args);
            None
        }
        Kind::Sweep(budget, groups, show) => Some(show(&groups(&Plan { args, budget }))),
        Kind::Bench(body) => Some(body(args)),
    };
    if !e.expected.is_empty() {
        println!("{}", e.expected);
    }
    if let (Some((path, mut file)), Some(doc)) = (json, doc) {
        if let Err(err) = writeln!(file, "{}", doc.pretty()) {
            fail(format!("cannot write {path}: {err}"));
        }
        println!("(results written to {path})");
    }
    print_epilogue(args);
}

/// Run each experiment as `exp <id> <flags>` in a child process with
/// stdout + stderr in `<dir>/<id>.txt` and its JSON in `<dir>/<id>.json`:
/// a typed failure (exit 2) costs that id, not the batch, and process-wide
/// state (profiler, metrics registry, residency peak) starts fresh, so
/// each file is what `exp <id>` alone would have produced.
fn run_isolated(dir: &Path, selected: &[&Experiment], flags: &[String]) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(format!("current exe: {e}")));
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
    let mut failed = Vec::new();
    for e in selected {
        let txt = dir.join(format!("{}.txt", e.id));
        let (out, err) = File::create(&txt)
            .and_then(|f| Ok((f.try_clone()?, f)))
            .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", txt.display())));
        let mut child = Command::new(&exe);
        child.arg(e.id).args(flags).stdout(out).stderr(err);
        if !matches!(e.kind, Kind::Static(_)) {
            child.arg("--json").arg(dir.join(format!("{}.json", e.id)));
        }
        let ok = child.status().is_ok_and(|s| s.success());
        eprintln!("{}: {}", e.id, if ok { "done" } else { "FAILED" });
        if !ok {
            failed.push(e.id);
        }
    }
    if !failed.is_empty() {
        fail(format!(
            "{} failed; see {}/<id>.txt",
            failed.join(", "),
            dir.display()
        ));
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let mut ids = Vec::new();
    while let Some(id) = argv.next_if(|a| !a.starts_with('-')) {
        ids.push(id);
    }
    let mut flags: Vec<String> = argv.collect();
    let args = Args::parse_from(flags.iter().cloned());

    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let known = |id: &&str| match find(id) {
        Some(e) => e,
        None => fail(format!(
            "unknown experiment {id:?}; `exp list` prints the ids"
        )),
    };
    let selected: Vec<&Experiment> = match ids[..] {
        [] => fail(format!("no experiment named\n{USAGE}")),
        ["list"] => return print!("{}", list()),
        ["all"] => EXPERIMENTS.iter().collect(),
        _ => ids.iter().map(known).collect(),
    };
    for e in &selected {
        reject_ignored_flags(e, &args);
    }
    let names_a_file = [&args.json, &args.trace, &args.metrics_dir, &args.profile];
    if selected.len() > 1 && names_a_file.iter().any(|flag| flag.is_some()) {
        fail(
            "--json, --trace, --metrics-dir and --profile name one experiment's file: run one \
             id at a time (--out DIR writes a .txt and a .json per id)",
        );
    }
    match &args.out {
        None => selected.iter().for_each(|e| run(e, &args)),
        Some(_) if args.json.is_some() => fail("--out names the JSON files itself: drop --json"),
        Some(dir) => {
            let at = flags
                .iter()
                .position(|f| f == "--out")
                .expect("parsed --out");
            flags.drain(at..at + 2);
            run_isolated(Path::new(dir), &selected, &flags);
        }
    }
}
