//! The experiment surface of the reproduction: one declarative table of
//! experiments ([`experiments::EXPERIMENTS`] — every table and figure of
//! the paper plus the ablation, compression and scale extensions) and the
//! plumbing the one driver binary (`exp`) runs them through.
//!
//! `exp --help` prints [`USAGE`], the flag reference. The default (no
//! scale flag) is the `bench` scale recorded in EXPERIMENTS.md, at each
//! experiment's own `bench_rounds` budget.

#![forbid(unsafe_code)]

pub mod dist;
pub mod experiments;
mod experiments_scale;
mod experiments_static;
pub mod harness;

use niid_core::experiment::{run_experiment, ExperimentResult, ExperimentSpec};
use niid_data::GenConfig;
use niid_fl::{FaultPlan, TraceSummary, UpdateCodec};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Print `error: <msg>` and exit 2 — the one exit for a bad command line,
/// a typed run failure or an unwritable output.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The value following flag `name` (shared with [`dist::DistArgs`]).
pub(crate) fn take(it: &mut impl Iterator<Item = String>, name: &str) -> String {
    it.next()
        .unwrap_or_else(|| fail(format!("missing value for {name}")))
}

/// The value following flag `name`, parsed.
pub(crate) fn parsed<T>(it: &mut impl Iterator<Item = String>, name: &str) -> T
where
    T: FromStr<Err: Display>,
{
    take(it, name)
        .parse()
        .unwrap_or_else(|e| fail(format!("bad {name}: {e}")))
}

/// Scale profile for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke test.
    Quick,
    /// The default profile used for EXPERIMENTS.md.
    Bench,
    /// Full paper settings.
    Paper,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Round-count override.
    pub rounds: Option<usize>,
    /// Trial-count override.
    pub trials: Option<usize>,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional output directory: one isolated process per experiment,
    /// `<out>/<id>.txt` + `<out>/<id>.json`.
    pub out: Option<String>,
    /// Optional JSONL trace-output path: `--trace`, else `NIID_TRACE`.
    pub trace: Option<String>,
    /// Optional training-dynamics metrics directory: `--metrics-dir`,
    /// else `NIID_METRICS`.
    pub metrics_dir: Option<String>,
    /// Optional live-metrics port (0 = ephemeral): `--metrics-port`, else
    /// `NIID_METRICS_PORT`.
    pub metrics_port: Option<u16>,
    /// Optional checkpoint root directory: `--checkpoint-dir`, else
    /// `NIID_CHECKPOINT`.
    pub checkpoint_dir: Option<String>,
    /// Checkpoint cadence override (rounds).
    pub checkpoint_every: Option<usize>,
    /// Resume trials from their checkpoints when present.
    pub resume: bool,
    /// Optional deterministic fault-injection plan.
    pub faults: Option<FaultPlan>,
    /// Minimum surviving fraction of each round's selected cohort.
    pub min_quorum: Option<f64>,
    /// Wire codec for update uploads (`--codec` spec).
    pub codec: Option<UpdateCodec>,
    /// Optional Perfetto-loadable profile output path; also enables the
    /// span profiler for the whole run.
    pub profile: Option<String>,
    /// What [`Args::cell_flags`] reports, recorded before the `NIID_*`
    /// defaults fill in.
    cell_flags: Vec<&'static str>,
}

/// What `exp --help` prints.
pub const USAGE: &str = "\
usage: exp <id>... | all | list  [flags]        (`exp list` prints the ids)

--quick | --short       tiny scale (seconds; smoke-testing the harness)
--paper-scale           full Table 2 sizes and paper round counts (very slow on CPU)
--seed <u64>            master seed (default 42)
--rounds <n>            override communication rounds
--trials <n>            override trial count
--json <path>           also write results as JSON
--out <dir>             one process per experiment, writing <dir>/<id>.txt and <dir>/<id>.json
--trace <path>          append round trace events (JSONL); print a phase-timing summary at exit
--metrics-dir <dir>     write training-dynamics metrics to <dir>/metrics.jsonl; print a summary
--metrics-port <p>      serve live Prometheus metrics on 127.0.0.1:<p> (0 = ephemeral, printed)
--checkpoint-dir <dir>  write round-granular checkpoints under <dir>/trial<t>/checkpoint.bin
--checkpoint-every <k>  checkpoint cadence in rounds (default 5)
--resume                resume trials from their checkpoints (--checkpoint-dir or NIID_CHECKPOINT)
--faults <spec>         fault injection: crash=0.3 or crash=0.2,drop=0.05,delay=0.1:50,seed=7
--min-quorum <f>        surviving fraction of a round's cohort below which it aborts (default 0.5)
--codec <spec>          upload codec: dense (default), topk[:f], int8[:L], topk8[:f[:L]]
--profile <path>        record spans; write a Chrome trace-event JSON (Perfetto) at exit";

impl Args {
    /// Parse the flags of a command line (the `exp` driver strips the
    /// leading experiment ids); exits 2 with a message on error.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args {
            scale: Scale::Bench,
            seed: 42,
            rounds: None,
            trials: None,
            json: None,
            out: None,
            trace: None,
            metrics_dir: None,
            metrics_port: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            faults: None,
            min_quorum: None,
            codec: None,
            profile: None,
            cell_flags: Vec::new(),
        };
        let it = &mut args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                // `--short` is the bench harness's (and CI's) word for it.
                "--quick" | "--short" => out.scale = Scale::Quick,
                "--paper-scale" => out.scale = Scale::Paper,
                "--seed" => out.seed = parsed(it, "--seed"),
                "--rounds" => out.rounds = Some(parsed(it, "--rounds")),
                "--trials" => out.trials = Some(parsed(it, "--trials")),
                "--json" => out.json = Some(take(it, "--json")),
                "--out" => out.out = Some(take(it, "--out")),
                "--trace" => out.trace = Some(take(it, "--trace")),
                "--metrics-dir" => out.metrics_dir = Some(take(it, "--metrics-dir")),
                "--metrics-port" => out.metrics_port = Some(parsed(it, "--metrics-port")),
                "--checkpoint-dir" => out.checkpoint_dir = Some(take(it, "--checkpoint-dir")),
                "--checkpoint-every" => {
                    out.checkpoint_every = Some(parsed(it, "--checkpoint-every"))
                }
                "--resume" => out.resume = true,
                "--profile" => out.profile = Some(take(it, "--profile")),
                "--faults" => out.faults = Some(parsed(it, "--faults")),
                "--min-quorum" => out.min_quorum = Some(parsed(it, "--min-quorum")),
                "--codec" => out.codec = Some(parsed(it, "--codec")),
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => fail(format!("unknown argument: {other}")),
            }
        }
        if out.trials == Some(0) {
            fail("bad --trials: must be at least 1");
        }
        if out.checkpoint_every == Some(0) {
            fail("bad --checkpoint-every: must be at least 1");
        }
        out.cell_flags = [
            ("--rounds", out.rounds.is_some()),
            ("--trials", out.trials.is_some()),
            ("--trace", out.trace.is_some()),
            ("--metrics-dir", out.metrics_dir.is_some()),
            ("--metrics-port", out.metrics_port.is_some()),
            ("--checkpoint-dir", out.checkpoint_dir.is_some()),
            ("--checkpoint-every", out.checkpoint_every.is_some()),
            ("--resume", out.resume),
            ("--faults", out.faults.is_some()),
            ("--min-quorum", out.min_quorum.is_some()),
        ]
        .into_iter()
        .filter_map(|(flag, given)| given.then_some(flag))
        .collect();
        // A flag wins; otherwise its `NIID_*` variable is the default,
        // resolved here once for the header, the cells and the epilogue.
        let env = |var: &str| std::env::var(var).ok().filter(|v| !v.is_empty());
        out.trace = out.trace.or_else(|| env("NIID_TRACE"));
        out.metrics_dir = out.metrics_dir.or_else(|| env("NIID_METRICS"));
        out.metrics_port = out.metrics_port.or_else(|| {
            let port = env("NIID_METRICS_PORT")?;
            Some(
                port.parse()
                    .unwrap_or_else(|e| fail(format!("bad NIID_METRICS_PORT: {e}"))),
            )
        });
        out.checkpoint_dir = out.checkpoint_dir.or_else(|| env("NIID_CHECKPOINT"));
        if out.resume && out.checkpoint_dir.is_none() {
            fail("--resume needs --checkpoint-dir DIR (or NIID_CHECKPOINT) to resume from");
        }
        out
    }

    /// Data-generation config for the selected scale.
    pub fn gen_config(&self) -> GenConfig {
        match self.scale {
            Scale::Quick => GenConfig::tiny(self.seed),
            Scale::Bench => GenConfig::bench(self.seed),
            Scale::Paper => GenConfig::paper(self.seed),
        }
    }

    /// Apply the scale's round/epoch/trial defaults (and any explicit
    /// overrides) onto a spec. `paper_rounds` is the figure's own round
    /// count in the paper (50 for Table 3, 100 for Fig. 12, ...).
    pub fn apply(&self, spec: &mut ExperimentSpec, paper_rounds: usize, paper_trials: usize) {
        let (rounds, epochs, batch, trials) = match self.scale {
            Scale::Quick => (3, 2, 32, 1),
            Scale::Bench => (15, 5, 32, 1),
            Scale::Paper => (paper_rounds, 10, 64, paper_trials),
        };
        spec.rounds = self.rounds.unwrap_or(rounds);
        spec.local_epochs = epochs;
        spec.batch_size = batch;
        spec.trials = self.trials.unwrap_or(trials);
        // The flag or its `NIID_*` default beats what the row set.
        spec.trace_path = self.trace.clone().or(spec.trace_path.take());
        spec.metrics_dir = self.metrics_dir.clone().or(spec.metrics_dir.take());
        spec.metrics_port = self.metrics_port.or(spec.metrics_port);
        spec.checkpoint_dir = self.checkpoint_dir.clone().or(spec.checkpoint_dir.take());
        spec.checkpoint_every = self.checkpoint_every.unwrap_or(spec.checkpoint_every);
        spec.resume |= self.resume;
        spec.faults = self.faults.clone().or(spec.faults.take());
        spec.min_quorum = self.min_quorum.unwrap_or(spec.min_quorum);
        spec.codec = self.codec.unwrap_or(spec.codec);
    }

    /// Path of the metrics JSONL series, when `--metrics-dir` was given.
    pub fn metrics_jsonl_path(&self) -> Option<PathBuf> {
        let dir = self.metrics_dir.as_ref()?;
        Some(Path::new(dir).join("metrics.jsonl"))
    }

    /// The given flags that only [`Args::apply`] consumes — meaningless
    /// to an experiment that runs no `ExperimentSpec` cells. Flags only:
    /// a `NIID_*` default never makes such an experiment refuse to run.
    pub fn cell_flags(&self) -> Vec<&'static str> {
        self.cell_flags.clone()
    }
}

/// Run one experiment cell, or print its typed error and exit 2. A
/// refused checkpoint, a lost quorum or an unpartitionable cell is an
/// outcome the run was built to report, not a bug to unwind through a
/// panic banner.
pub fn run_or_exit(spec: &ExperimentSpec) -> ExperimentResult {
    run_experiment(spec).unwrap_or_else(|e| {
        let (dataset, strategy) = (spec.dataset.name(), spec.strategy.label());
        fail(format!(
            "{dataset} / {strategy} / {}: {e}",
            spec.algorithm.name()
        ))
    })
}

/// Print a standard experiment header. Cells append to the `--trace` and
/// `--metrics-dir` files, so each is truncated here, once per invocation,
/// and holds this run's events alone. Both are best-effort: an unwritable
/// path warns (`run_experiment` then disables the sink) but never kills
/// the run. Any of `--trace`, `--metrics-dir` or `--metrics-port` also
/// installs the exit guard here, the one place that installs it.
pub fn print_header(what: &str, args: &Args) {
    println!("=== {what} ===");
    println!(
        "scale: {:?}   seed: {}   (use --quick / --paper-scale to change)",
        args.scale, args.seed
    );
    let start = |what: &str, path: &Path| match std::fs::File::create(path) {
        Ok(_) => println!("{what} to {}", path.display()),
        Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
    };
    if let Some(path) = &args.trace {
        start("tracing rounds", Path::new(path));
    }
    if let Some(path) = args.metrics_jsonl_path() {
        let _ = std::fs::create_dir_all(path.parent().expect("joined under --metrics-dir"));
        start("metrics series", &path);
    }
    if args.trace.is_some() || args.metrics_dir.is_some() || args.metrics_port.is_some() {
        // The one exit guard: Ctrl-C or SIGTERM during a long run flushes
        // every open trace and metrics file, so they stay parseable.
        niid_metrics::install_signal_flush();
    }
    if let Some(path) = &args.profile {
        niid_prof::enable(true);
        println!("profiling spans to {path} (Chrome trace-event JSON)");
    }
    println!();
}

/// The end-of-run reports, each printed only when its flag was given: the
/// `--trace` file folded into a per-phase timing table (with this
/// process's pool steal/idle line), the `--metrics-dir` series folded
/// into the training-dynamics summary, and the `--profile` Chrome trace
/// plus flame table.
pub fn print_epilogue(args: &Args) {
    if let Some(path) = &args.trace {
        match TraceSummary::from_jsonl_file(path) {
            Ok(summary) => print!("\n{}", summary.with_pool_activity().render()),
            Err(e) => eprintln!("warning: cannot summarize trace {path}: {e}"),
        }
    }
    if let Some(path) = args.metrics_jsonl_path() {
        niid_metrics::flush_all();
        match niid_fl::DynamicsSummary::from_jsonl_file(&path) {
            Ok(summary) => print!("\n{}", summary.render()),
            Err(e) => eprintln!("warning: cannot summarize metrics {}: {e}", path.display()),
        }
    }
    if let Some(path) = &args.profile {
        match niid_prof::write_chrome_trace(path) {
            Ok(()) => {
                println!("\nprofile written to {path} (load in https://ui.perfetto.dev)");
                print!("{}", niid_prof::render_flame_table(12));
            }
            Err(e) => eprintln!("warning: cannot write profile {path}: {e}"),
        }
    }
}

/// Render a training curve as a compact ASCII sparkline plus key points,
/// used by the curve renderers.
pub fn curve_line(label: &str, curve: &[(usize, f64)]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let spark: String = curve
        .iter()
        .map(|&(_, acc)| {
            let idx = ((acc * 8.0) as usize).min(7);
            BARS[idx]
        })
        .collect();
    let last = curve.last().map(|&(_, a)| a).unwrap_or(0.0);
    format!("{label:<28} {spark}  final {:.1}%", last * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, Scale::Bench);
        assert_eq!(a.seed, 42);
        assert!(a.rounds.is_none());
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--quick", "--seed", "7", "--rounds", "9", "--trials", "2"]);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.rounds, Some(9));
        assert_eq!(a.trials, Some(2));
    }

    #[test]
    fn apply_respects_overrides() {
        use niid_core::partition::Strategy;
        use niid_data::DatasetId;
        use niid_fl::Algorithm;
        let a = parse(&["--rounds", "4"]);
        let mut spec = ExperimentSpec::new(
            DatasetId::Mnist,
            Strategy::Homogeneous,
            Algorithm::FedAvg,
            a.gen_config(),
        );
        a.apply(&mut spec, 50, 3);
        assert_eq!(spec.rounds, 4, "explicit --rounds wins");
        assert_eq!(spec.trials, 1, "bench scale default");
    }

    #[test]
    fn fault_and_checkpoint_flags_parse() {
        let a = parse(&[
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "3",
            "--resume",
            "--faults",
            "crash=0.3,seed=7",
            "--min-quorum",
            "0.25",
        ]);
        assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(a.checkpoint_every, Some(3));
        assert!(a.resume);
        let plan = a.faults.expect("fault plan parsed");
        assert_eq!(plan.crash_prob, 0.3);
        assert_eq!(plan.seed, 7);
        assert_eq!(a.min_quorum, Some(0.25));

        use niid_core::partition::Strategy;
        use niid_data::DatasetId;
        use niid_fl::Algorithm;
        let b = parse(&[
            "--checkpoint-dir",
            "/tmp/ck2",
            "--faults",
            "crash=0.1",
            "--min-quorum",
            "0.4",
        ]);
        let mut spec = ExperimentSpec::new(
            DatasetId::Mnist,
            Strategy::Homogeneous,
            Algorithm::FedAvg,
            b.gen_config(),
        );
        b.apply(&mut spec, 50, 3);
        assert_eq!(spec.checkpoint_dir.as_deref(), Some("/tmp/ck2"));
        assert!(!spec.resume);
        assert_eq!(spec.faults.as_ref().map(|p| p.crash_prob), Some(0.1));
        assert_eq!(spec.min_quorum, 0.4);
    }

    #[test]
    fn codec_flag_parses_and_applies() {
        use niid_core::partition::Strategy;
        use niid_data::DatasetId;
        use niid_fl::Algorithm;
        let a = parse(&["--codec", "topk8:0.1:64"]);
        assert_eq!(
            a.codec,
            Some(UpdateCodec::TopKInt8 {
                fraction: 0.1,
                levels: 64
            })
        );
        let mut spec = ExperimentSpec::new(
            DatasetId::Mnist,
            Strategy::Homogeneous,
            Algorithm::FedAvg,
            a.gen_config(),
        );
        assert_eq!(spec.codec, UpdateCodec::DenseF32, "dense by default");
        a.apply(&mut spec, 50, 3);
        assert_eq!(spec.codec, a.codec.unwrap());
    }

    #[test]
    fn profile_flag_parses() {
        let a = parse(&["--profile", "/tmp/trace.json"]);
        assert_eq!(a.profile.as_deref(), Some("/tmp/trace.json"));
        assert!(parse(&[]).profile.is_none());
    }

    #[test]
    fn curve_line_formats() {
        let s = curve_line("FedAvg", &[(0, 0.1), (1, 0.5), (2, 0.9)]);
        assert!(s.starts_with("FedAvg"));
        assert!(s.contains("final 90.0%"));
    }
}
