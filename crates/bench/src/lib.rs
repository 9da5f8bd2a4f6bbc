//! Shared plumbing for the experiment binaries (`exp_table*`, `exp_fig*`).
//!
//! Every binary regenerates one table or figure of the paper. They share a
//! tiny hand-rolled CLI:
//!
//! ```text
//! --quick        tiny scale (seconds; smoke-testing the harness)
//! --paper-scale  full Table 2 sizes and paper round counts (very slow on CPU)
//! --seed <u64>   master seed (default 42)
//! --rounds <n>   override communication rounds
//! --trials <n>   override trial count
//! --json <path>  also write results as JSON
//! --trace <path> append round-level trace events (JSON Lines) and print
//!                a phase-timing summary at exit
//! --metrics-dir <dir>  write training-dynamics metrics (JSON Lines) to
//!                      <dir>/metrics.jsonl and print a dynamics summary
//! --metrics-port <p>   serve live Prometheus metrics on 127.0.0.1:<p>
//!                      (0 picks an ephemeral port, printed at startup)
//! --checkpoint-dir <dir>  write round-granular checkpoints under
//!                         <dir>/trial<t>/checkpoint.bin
//! --checkpoint-every <k>  checkpoint cadence in rounds (default 5)
//! --resume             resume each trial from its checkpoint when one
//!                      exists (requires --checkpoint-dir or NIID_CHECKPOINT)
//! --faults <spec>      deterministic fault injection, e.g.
//!                      crash=0.3 or crash=0.2,drop=0.05,delay=0.1:50,seed=7
//! --min-quorum <f>     minimum surviving fraction of each round's cohort
//!                      before the run aborts with a quorum error (default 0.5)
//! --codec <spec>       wire codec for update uploads: dense (default),
//!                      topk[:f], int8[:L], topk8[:f[:L]]
//! --profile <path>     record span-profiler data and write a Chrome
//!                      trace-event JSON (loadable in Perfetto) at exit
//! ```
//!
//! The default (no flag) is the `bench` scale recorded in EXPERIMENTS.md.

pub mod dist;
pub mod harness;

use niid_core::experiment::{run_experiment, ExperimentResult, ExperimentSpec};
use niid_data::GenConfig;
use niid_fl::{FaultPlan, TraceSummary, UpdateCodec};
use niid_json::ToJson;
use std::io::Write;

/// Scale profile for an experiment binary.
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
    /// Optional JSONL trace-output path.
    pub trace: Option<String>,
    /// Optional training-dynamics metrics directory.
    pub metrics_dir: Option<String>,
    /// Optional live-metrics port (0 = ephemeral).
    pub metrics_port: Option<u16>,
    /// Optional checkpoint root directory.
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
}

impl Args {
    /// Parse `std::env::args()`; exits with a usage message on error.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args {
            scale: Scale::Bench,
            seed: 42,
            rounds: None,
            trials: None,
            json: None,
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
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--quick" => out.scale = Scale::Quick,
                "--paper-scale" => out.scale = Scale::Paper,
                "--seed" => {
                    out.seed = take("--seed").parse().unwrap_or_else(|e| {
                        eprintln!("bad --seed: {e}");
                        std::process::exit(2);
                    })
                }
                "--rounds" => {
                    out.rounds = Some(take("--rounds").parse().unwrap_or_else(|e| {
                        eprintln!("bad --rounds: {e}");
                        std::process::exit(2);
                    }))
                }
                "--trials" => {
                    out.trials = Some(take("--trials").parse().unwrap_or_else(|e| {
                        eprintln!("bad --trials: {e}");
                        std::process::exit(2);
                    }))
                }
                "--json" => out.json = Some(take("--json")),
                "--trace" => out.trace = Some(take("--trace")),
                "--metrics-dir" => out.metrics_dir = Some(take("--metrics-dir")),
                "--metrics-port" => {
                    out.metrics_port = Some(take("--metrics-port").parse().unwrap_or_else(|e| {
                        eprintln!("bad --metrics-port: {e}");
                        std::process::exit(2);
                    }))
                }
                "--checkpoint-dir" => out.checkpoint_dir = Some(take("--checkpoint-dir")),
                "--checkpoint-every" => {
                    out.checkpoint_every =
                        Some(take("--checkpoint-every").parse().unwrap_or_else(|e| {
                            eprintln!("bad --checkpoint-every: {e}");
                            std::process::exit(2);
                        }))
                }
                "--resume" => out.resume = true,
                "--profile" => out.profile = Some(take("--profile")),
                "--faults" => {
                    out.faults = Some(take("--faults").parse().unwrap_or_else(|e| {
                        eprintln!("bad --faults: {e}");
                        std::process::exit(2);
                    }))
                }
                "--min-quorum" => {
                    out.min_quorum = Some(take("--min-quorum").parse().unwrap_or_else(|e| {
                        eprintln!("bad --min-quorum: {e}");
                        std::process::exit(2);
                    }))
                }
                "--codec" => {
                    out.codec = Some(take("--codec").parse().unwrap_or_else(|e| {
                        eprintln!("bad --codec: {e}");
                        std::process::exit(2);
                    }))
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--quick | --paper-scale] [--seed N] [--rounds N] \
                         [--trials N] [--json PATH] [--trace PATH] \
                         [--metrics-dir DIR] [--metrics-port PORT] \
                         [--checkpoint-dir DIR] [--checkpoint-every K] [--resume] \
                         [--faults SPEC] [--min-quorum F] [--codec SPEC] \
                         [--profile PATH]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
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
        match self.scale {
            Scale::Quick => {
                spec.rounds = 3;
                spec.local_epochs = 2;
                spec.batch_size = 32;
                spec.trials = 1;
            }
            Scale::Bench => {
                spec.rounds = 15;
                spec.local_epochs = 5;
                spec.batch_size = 32;
                spec.trials = 1;
            }
            Scale::Paper => {
                spec.rounds = paper_rounds;
                spec.local_epochs = 10;
                spec.batch_size = 64;
                spec.trials = paper_trials;
            }
        }
        if let Some(r) = self.rounds {
            spec.rounds = r;
        }
        if let Some(t) = self.trials {
            spec.trials = t;
        }
        if self.trace.is_some() {
            // --trace beats the NIID_TRACE env default picked up by
            // ExperimentSpec::new.
            spec.trace_path = self.trace.clone();
        }
        if self.metrics_dir.is_some() {
            // Same precedence: the flag beats NIID_METRICS.
            spec.metrics_dir = self.metrics_dir.clone();
        }
        if self.metrics_port.is_some() {
            spec.metrics_port = self.metrics_port;
        }
        if self.checkpoint_dir.is_some() {
            // The flag beats the NIID_CHECKPOINT env default.
            spec.checkpoint_dir = self.checkpoint_dir.clone();
        }
        if let Some(every) = self.checkpoint_every {
            spec.checkpoint_every = every;
        }
        if self.resume {
            spec.resume = true;
        }
        if self.faults.is_some() {
            spec.faults = self.faults.clone();
        }
        if let Some(q) = self.min_quorum {
            spec.min_quorum = q;
        }
        if let Some(codec) = self.codec {
            spec.codec = codec;
        }
    }

    /// Path of the metrics JSONL series, when `--metrics-dir` was given.
    pub fn metrics_jsonl_path(&self) -> Option<std::path::PathBuf> {
        self.metrics_dir
            .as_ref()
            .map(|d| std::path::Path::new(d).join("metrics.jsonl"))
    }
}

/// Run one experiment cell, or print its typed error and exit 2. A
/// refused checkpoint, a lost quorum or an unpartitionable cell is an
/// outcome the run was built to report, not a bug to unwind through a
/// panic banner.
pub fn run_or_exit(spec: &ExperimentSpec) -> ExperimentResult {
    run_experiment(spec).unwrap_or_else(|e| {
        eprintln!(
            "error: {} / {} / {}: {e}",
            spec.dataset.name(),
            spec.strategy.label(),
            spec.algorithm.name()
        );
        std::process::exit(2)
    })
}

/// Print a standard experiment header. When `--trace` was given, the trace
/// file is truncated here so one invocation's events never mix with a
/// previous run's (experiment cells append to it).
pub fn print_header(what: &str, args: &Args) {
    println!("=== {what} ===");
    println!(
        "scale: {:?}   seed: {}   (use --quick / --paper-scale to change)",
        args.scale, args.seed
    );
    if let Some(path) = &args.trace {
        // Tracing is best-effort: an unwritable path must not kill the run.
        // run_experiment prints its own warning and disables the sink.
        match std::fs::File::create(path) {
            Ok(_) => println!("tracing rounds to {path}"),
            Err(e) => eprintln!("warning: cannot create trace file {path}: {e}"),
        }
    }
    if let Some(path) = args.metrics_jsonl_path() {
        // Same append-per-cell convention as the trace file: truncate once
        // per invocation so the series belongs to this run alone.
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::File::create(&path) {
            Ok(_) => println!("metrics series to {}", path.display()),
            Err(e) => eprintln!(
                "warning: cannot create metrics file {}: {e}",
                path.display()
            ),
        }
    }
    if args.metrics_dir.is_some() || args.metrics_port.is_some() {
        // Ctrl-C during a long run still leaves flushed, parseable
        // trace/metrics files.
        niid_metrics::install_signal_flush();
    }
    if let Some(path) = &args.profile {
        niid_prof::enable(true);
        println!("profiling spans to {path} (Chrome trace-event JSON)");
    }
    println!();
}

/// Write a serializable value as pretty JSON if `--json` was given.
pub fn maybe_write_json<T: ToJson>(args: &Args, value: &T) {
    if let Some(path) = &args.json {
        let json = value.to_json_pretty();
        let mut f =
            std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        f.write_all(json.as_bytes()).expect("write json");
        println!("(results written to {path})");
    }
}

/// Fold the `--trace` file (if any) into a per-phase timing table and
/// print it — the binaries call this once after their last experiment.
/// The steal/idle line is attached from this process's live pool spans.
pub fn maybe_print_trace_summary(args: &Args) {
    if let Some(path) = &args.trace {
        match TraceSummary::from_jsonl_file(path) {
            Ok(summary) => {
                println!();
                print!("{}", summary.with_pool_activity().render());
            }
            Err(e) => eprintln!("warning: cannot summarize trace {path}: {e}"),
        }
    }
}

/// Write the Chrome trace-event profile and print the flame table when
/// `--profile` was given — the binaries call this once at exit.
pub fn maybe_write_profile(args: &Args) {
    let Some(path) = &args.profile else { return };
    match niid_prof::write_chrome_trace(path) {
        Ok(()) => {
            println!();
            println!("profile written to {path} (load in https://ui.perfetto.dev)");
            print!("{}", niid_prof::render_flame_table(12));
        }
        Err(e) => eprintln!("warning: cannot write profile {path}: {e}"),
    }
}

/// Fold the `--metrics-dir` series (if any) into the one-screen training-
/// dynamics summary — top-diverging parties, BN drift, substrate stats —
/// and print it after the last experiment.
pub fn maybe_print_metrics_summary(args: &Args) {
    let Some(path) = args.metrics_jsonl_path() else {
        return;
    };
    niid_metrics::flush_all();
    match niid_fl::DynamicsSummary::from_jsonl_file(&path) {
        Ok(summary) => {
            println!();
            print!("{}", summary.render());
        }
        Err(e) => eprintln!("warning: cannot summarize metrics {}: {e}", path.display()),
    }
}

/// Render a training curve as a compact ASCII sparkline plus key points,
/// used by the figure binaries.
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
