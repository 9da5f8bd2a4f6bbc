//! End-to-end federated-learning benchmark with a per-layer ledger
//! measured from outside the crates. See `benchmark/README.md`.
//!
//! ```text
//! niid-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last stdout line is the result JSON
//! niid-benchmark [--seed N] [--seconds S] [--repeat K] [--smoke] [--json PATH]
//!     every workload, untraced then traced, each in its own child process
//! niid-benchmark --setup-only --workload NAME --seed N
//!     build the cell once and print its stage times; a measuring run
//!     starts this as a child to time set-up in a fresh process
//! niid-benchmark --compare A.json B.json
//!     verdict per workload x end-to-end metric; exit 1 on `regressed`
//! ```

mod layers;
mod measure;
mod report;
mod run;
mod workloads;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Build the workload's cell once and print its stage times: what the
    /// measuring run starts as a child to time a set-up in a fresh process.
    pub setup_only: bool,
    pub repeat: usize,
    pub json: Option<PathBuf>,
    pub chrome_trace: Option<PathBuf>,
}

const USAGE: &str = "usage: niid-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat K] [--smoke] [--setup-only] [--json PATH] [--chrome-trace PATH] \
| --compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        setup_only: false,
        repeat: 1,
        json: None,
        chrome_trace: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("missing value for {arg}"))
                .cloned()
        };
        let bad = |what: &str, v: &str| format!("bad {what}: {v}");
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(&v).ok_or_else(|| bad("--workload", &v))?);
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| bad("--seed", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("--seconds", &v))?;
            }
            "--trace" | "--traced" => {
                o.trace = if arg == "--traced" {
                    true
                } else {
                    match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad("--trace", v)),
                    }
                }
            }
            "--repeat" => {
                let v = value()?;
                o.repeat = v
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| bad("--repeat", &v))?;
            }
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            "--json" => o.json = Some(PathBuf::from(value()?)),
            "--chrome-trace" => o.chrome_trace = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if o.setup_only && o.workload.is_none() {
        return Err("--setup-only needs --workload".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "--compare") {
        return match args.as_slice() {
            [_, a, b] => report::compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("niid-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Cap the kernel pool at the training-thread count before anything
    // reads it, so the process never runs more threads than that.
    std::env::set_var(
        niid_tensor::parallel::ENV_THREADS,
        workloads::train_threads().to_string(),
    );
    let failed = |e: String| {
        eprintln!("niid-benchmark: {e}");
        ExitCode::from(1)
    };
    match opts.workload {
        None => report::run_all(&opts),
        Some(w) if opts.setup_only => {
            match in_run_dir(|dir| run::setup_only(w, opts.seed, opts.smoke, dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => failed(e),
            }
        }
        Some(w) => match in_run_dir(|dir| run_in(w, &opts, dir)) {
            Ok(outcome) => {
                outcome.print();
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(e) => failed(e),
        },
    }
}

/// Run `f` with a fresh scratch directory and remove it afterwards.
fn in_run_dir<T>(f: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let run_dir = workloads::make_run_dir()?;
    let result = f(&run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

/// One measuring run of one workload: set-up, the timed untraced passes
/// (a speed probe and one more set-up, in a child process, after each), a
/// verification pass, the checks, and the metrics of the requested kind.
fn run_in(w: Workload, opts: &Options, run_dir: &Path) -> Result<Outcome, String> {
    let rounds = w.rounds(opts.smoke);
    let timed_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut setups = Vec::new();
    let mut cell = workloads::setup(w, opts.seed, rounds, run_dir)?;
    let measured = (|| {
        let timed = run::run_passes(&mut cell, run_dir, timed_s, false, || {
            setups.push(run::SetupSample::take(w, opts.seed, opts.smoke)?);
            Ok(())
        })?;
        let probes: Vec<f64> = setups.iter().map(|s| s.probe_s).collect();
        let slowdown = run::slowdown(&probes);
        let verified = run::run_pass(&mut cell, run_dir, true, true)?;
        let verdict = run::verify(&cell, &timed, &verified, opts.smoke)?;
        let epochs = cell.config.local.epochs;
        let e2e = run::end_to_end(&setups, &timed, slowdown, epochs);
        let (metrics, mut notes) = if opts.trace {
            let ledger = layers::Ledger {
                opts,
                run_dir,
                setups: &setups,
                timed: &timed,
                verified: &verified,
                verdict: &verdict,
                slowdown,
            };
            layers::per_layer(&cell, &ledger)?
        } else {
            (report::end_to_end_metrics(&e2e), Vec::new())
        };
        let each: Vec<f64> = setups.iter().map(run::SetupSample::total_ref_s).collect();
        notes.push(format!(
            "setup_s is the median of {} set-ups, one after each pass ({:.4} to {:.4} s)",
            each.len(),
            each.iter().copied().fold(f64::INFINITY, f64::min),
            each.iter().copied().fold(0.0, f64::max)
        ));
        notes.push(run::curve_note(&verified));
        Ok(Outcome::new(w, opts, &e2e, verdict, metrics, notes))
    })();
    run::teardown(cell)?;
    measured
}
