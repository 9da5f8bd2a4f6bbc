//! The experiment registry: every table and figure of the paper (plus the
//! ablation, compression and scale extensions) as one row of
//! [`EXPERIMENTS`]. A row is data — an id, a title, round budgets, the
//! expected-shape note and a [`Kind`] — and the `exp` driver is the only
//! code that runs one, so a cross-cutting change (a new flag, a seeds
//! column) is made once.
//!
//! A `Sweep` row names a `groups` function, which lays the experiment out
//! as headed groups of labelled [`ExperimentSpec`] cells (plain data:
//! nothing trains while the grid is built), and a renderer ([`Show`]),
//! which runs the cells in order, prints each result as it lands and
//! returns the `--json` document.

use crate::experiments_scale::scale;
use crate::experiments_static::{fig3, fig4, fig5, fig6, table1, table2};
use crate::harness::bench_entry;
use crate::{curve_line, run_or_exit, Args, Scale};
use niid_core::experiment::{ExperimentResult, ExperimentSpec};
use niid_core::partition::Strategy;
use niid_core::{Leaderboard, Table};
use niid_data::DatasetId::{self, *};
use niid_fl::engine::BufferPolicy;
use niid_fl::{Algorithm, ControlVariateUpdate, UpdateCodec};
use niid_json::{Json, ToJson};
use niid_nn::ModelSpec;

/// One reproducible artefact: `exp <id>` regenerates it.
pub struct Experiment {
    /// Command-line id (`table3`, `fig8`, `comm`, …).
    pub id: &'static str,
    /// Header line.
    pub title: &'static str,
    /// How it runs.
    pub kind: Kind,
    /// What the output should look like, printed under it (may be empty).
    pub expected: &'static str,
}

/// How an experiment runs — and therefore which flags mean anything to it.
pub enum Kind {
    /// Computed from generated data and partitions alone; trains nothing.
    Static(fn(&Args)),
    /// A grid of [`ExperimentSpec`] cells run through `run_experiment`: its
    /// round/trial budget, the function that lays the grid out for the
    /// given flags, and the renderer that runs and prints it.
    Sweep(Budget, fn(&Plan) -> Vec<Group>, Show),
    /// Drives the engine directly (no `ExperimentSpec` cells), honouring
    /// only scale, `--seed`, `--codec`, `--json` and `--profile`; returns
    /// bench-schema entries.
    Bench(fn(&Args) -> Json),
}

/// A sweep's round/trial budget: the paper's own counts (`--paper-scale`)
/// and the rounds the default bench scale affords on a CPU — the numbers
/// EXPERIMENTS.md was recorded at. `--quick` is 3 rounds for everything;
/// `--rounds`/`--trials` override all of them.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Communication rounds in the paper's figure.
    pub paper_rounds: usize,
    /// Trials the paper averages over.
    pub paper_trials: usize,
    /// Communication rounds at the default (bench) scale.
    pub bench_rounds: usize,
}

impl Budget {
    /// Table form: paper rounds, paper trials, bench rounds.
    pub const fn new(paper_rounds: usize, paper_trials: usize, bench_rounds: usize) -> Self {
        Budget {
            paper_rounds,
            paper_trials,
            bench_rounds,
        }
    }
}

/// A heading plus the labelled cells under it.
pub struct Group {
    /// Printed (or tabulated) above the cells; may be empty.
    pub heading: String,
    /// `(label, fully-applied cell)` in run order.
    pub cells: Vec<(String, ExperimentSpec)>,
}

/// A renderer: runs every cell of every group in order (`run_or_exit`),
/// prints results as they complete, and returns the `--json` document.
pub type Show = fn(&[Group]) -> Json;

/// What a `groups` function builds cells from.
pub struct Plan<'a> {
    /// The parsed flags.
    pub args: &'a Args,
    /// The experiment's own budget.
    pub budget: Budget,
}

impl Plan<'_> {
    /// A cell with the scale's defaults, the experiment's budget and every
    /// flag applied; `groups` functions then override the swept field.
    pub fn cell(&self, dataset: DatasetId, strategy: Strategy, algo: Algorithm) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(dataset, strategy, algo, self.args.gen_config());
        let b = self.budget;
        self.args.apply(&mut spec, b.paper_rounds, b.paper_trials);
        if self.args.scale == Scale::Bench && self.args.rounds.is_none() {
            spec.rounds = b.bench_rounds;
        }
        spec
    }
}

/// Every experiment, in the order `exp all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table 1: partitioning strategies across studies",
        kind: Kind::Static(table1),
        expected: "",
    },
    Experiment {
        id: "table2",
        title: "Table 2: dataset statistics (paper vs generated)",
        kind: Kind::Static(table2),
        expected: "generated columns reflect the selected scale; --paper-scale reproduces \
                   the paper's sizes exactly (image side 28/32 excepted; see DESIGN.md)",
    },
    Experiment {
        id: "table3",
        title: "Table 3: overall accuracy comparison",
        kind: Kind::Sweep(Budget::new(50, 3, 8), table3_groups, table3),
        expected: "",
    },
    Experiment {
        id: "fig3",
        title: "Figure 3: p_k ~ Dir(0.5) allocation on MNIST",
        kind: Kind::Static(fig3),
        expected: "smaller beta => more unbalanced allocation, as in §4.1",
    },
    Experiment {
        id: "fig4",
        title: "Figure 4: x^ ~ Gau(sigma * i/N) on FMNIST",
        kind: Kind::Static(fig4),
        expected: "excess variance grows linearly with the party index — the feature\n\
                   distributions differ across parties while labels stay balanced (§4.2)",
    },
    Experiment {
        id: "fig5",
        title: "Figure 5: FCUBE octant assignment",
        kind: Kind::Static(fig5),
        expected: "each party holds two octants symmetric about the origin: feature\n\
                   distributions differ across parties while labels remain balanced (§4.2)",
    },
    Experiment {
        id: "fig6",
        title: "Figure 6: decision tree for algorithm selection",
        kind: Kind::Static(fig6),
        expected: "",
    },
    Experiment {
        id: "fig7",
        title: "Figure 7: training curves on CIFAR-10",
        kind: Kind::Sweep(Budget::new(50, 1, 10), fig7, curve_volatility),
        expected: "expected shape (paper §5.2): #C=1 curves are unstable/flat; FedProx\n\
                   tracks FedAvg closely; FedNova is unstable under q~Dir(0.5)",
    },
    Experiment {
        id: "fig8",
        title: "Figure 8: FedProx mu sweep on CIFAR-10, p_k~Dir(0.5)",
        kind: Kind::Sweep(Budget::new(50, 1, 15), fig8, curve),
        expected: "expected shape (paper §5.2): training with larger mu is slower; mu=0\n\
                   matches FedAvg exactly; a moderate mu can end slightly higher",
    },
    Experiment {
        id: "fig9",
        title: "Figure 9: effect of the number of local epochs (CIFAR-10)",
        kind: Kind::Sweep(Budget::new(50, 1, 4), fig9, epoch_grid),
        expected: "expected shape (paper §5.3): very large E degrades accuracy under\n\
                   label skew, and the optimal E differs per partition",
    },
    Experiment {
        id: "fig10",
        title: "Figure 10: batch-size effect on CIFAR-10, p_k~Dir(0.5)",
        kind: Kind::Sweep(Budget::new(50, 1, 10), fig10, curve),
        expected: "expected shape (paper §5.4): large batches slow learning for every\n\
                   algorithm alike — batch-size behaviour is independent of the skew",
    },
    Experiment {
        id: "fig11",
        title: "Figure 11: VGG-9 / ResNet (BatchNorm) on CIFAR-10",
        kind: Kind::Sweep(Budget::new(100, 1, 15), fig11, curve_volatility),
        expected: "expected shape (paper §5.5 / Finding 7): the BatchNorm ResNet trails\n\
                   VGG-9 and is less stable under non-IID partitions. The third arm\n\
                   measures the naive reading of §6.2 (freeze the server's statistics,\n\
                   average only learned parameters): the *global* model then evaluates\n\
                   with initialization-time statistics and collapses — showing why the\n\
                   mitigation only works in personalized/per-client form (FedBN), and\n\
                   why BN aggregation is a genuinely open problem, as §6.2 argues",
    },
    Experiment {
        id: "fig12",
        title: "Figure 12: 100 parties, sample fraction 0.1 (CIFAR-10)",
        kind: Kind::Sweep(Budget::new(100, 1, 12), fig12, curve_volatility),
        expected: "expected shape (paper §5.6 / Finding 8): curves are unstable under\n\
                   partial participation; SCAFFOLD underperforms on every partition",
    },
    Experiment {
        id: "ablation",
        title: "Ablations: SCAFFOLD variant / momentum via epochs / server lr",
        kind: Kind::Sweep(Budget::new(50, 1, 5), ablation, ablation_curves),
        expected: "reading: under IID more local epochs only help; under label skew\n\
                   they trade per-round progress against drift (Finding 5's mechanism)",
    },
    Experiment {
        id: "comm",
        title: "Compression ablation: codec x partitioning skew, FedAvg",
        kind: Kind::Sweep(Budget::new(50, 1, 15), comm_groups, comm),
        expected: "expected shape: topk8 cuts uploads ~10x at 5% density; int8 alone\n\
                   is ~4x; accuracy stays within ~1 point of dense on every skew once\n\
                   error feedback has flushed the early-round residuals",
    },
    Experiment {
        id: "scale",
        title: "Cross-device scale: cohort-on-demand sweep, N up to 1M parties",
        kind: Kind::Bench(scale),
        expected: "",
    },
];

/// The experiment with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The `exp list` table: ids, kinds and round budgets (the "rounds run"
/// table of EXPERIMENTS.md is this output, pasted).
pub fn list() -> Table {
    let mut t = Table::new(vec![
        "id",
        "kind",
        "paper rounds x trials",
        "bench rounds",
        "what",
    ]);
    for e in EXPERIMENTS {
        let (kind, paper, bench) = match e.kind {
            Kind::Static(_) => ("static", "-".to_string(), "-".to_string()),
            Kind::Bench(_) => ("bench", "-".to_string(), "-".to_string()),
            Kind::Sweep(b, ..) => (
                "sweep",
                format!("{} x {}", b.paper_rounds, b.paper_trials),
                b.bench_rounds.to_string(),
            ),
        };
        t.add_row(vec![e.id, kind, &paper, &bench, e.title]);
    }
    t
}

// ---------------------------------------------------------------- grids

const DIR: Strategy = Strategy::DirichletLabelSkew { beta: 0.5 };
const QTY: Strategy = Strategy::QuantitySkew { beta: 0.5 };
const NOISE: Strategy = Strategy::NoiseFeatureSkew { sigma: 0.1 };
const fn labels(k: usize) -> Strategy {
    Strategy::QuantityLabelSkew { k }
}
/// The six CIFAR-10 partitions of Figures 7 and 12 (five non-IID + IID).
const SIX: [Strategy; 6] = [
    DIR,
    labels(1),
    labels(2),
    labels(3),
    QTY,
    Strategy::Homogeneous,
];

/// One group per partition, headed `partition: <label>`.
fn per_partition(
    partitions: &[Strategy],
    cells: impl Fn(Strategy) -> Vec<(String, ExperimentSpec)>,
) -> Vec<Group> {
    let group = |&s: &Strategy| Group {
        heading: format!("partition: {}", s.label()),
        cells: cells(s),
    };
    partitions.iter().map(group).collect()
}

/// One CIFAR-10 cell per default algorithm, labelled by algorithm name,
/// each passed through `tweak` (the figure's own override).
fn per_algorithm(
    plan: &Plan,
    strategy: Strategy,
    tweak: impl Fn(&mut ExperimentSpec),
) -> Vec<(String, ExperimentSpec)> {
    let cell = |algo: Algorithm| {
        let mut spec = plan.cell(Cifar10, strategy, algo);
        tweak(&mut spec);
        (algo.name().to_string(), spec)
    };
    Algorithm::all_default().into_iter().map(cell).collect()
}

/// Table 3, section by section: every dataset × partition cell the paper
/// reports, four algorithms per row. FedProx μ = 0.01 is fixed (μ tuning
/// is `fig8`'s subject).
fn table3_groups(plan: &Plan) -> Vec<Group> {
    let images = [Mnist, Fmnist, Cifar10, Svhn];
    let tabular = [Adult, Rcv1, Covtype];
    let mut label = Vec::new();
    for ds in images {
        label.extend([DIR, labels(1), labels(2), labels(3)].map(|s| (ds, s)));
    }
    for ds in tabular {
        label.extend([(ds, DIR), (ds, labels(1))]);
    }
    let mut feature: Vec<_> = images.iter().map(|&ds| (ds, NOISE)).collect();
    feature.push((Fcube, Strategy::FcubeSynthetic));
    feature.push((Femnist, Strategy::ByWriter));
    let quantity = images.iter().chain(&tabular).map(|&ds| (ds, QTY)).collect();
    let iid = DatasetId::all()
        .into_iter()
        .map(|ds| (ds, Strategy::Homogeneous))
        .collect();

    let section = |(heading, rows): (&str, Vec<(DatasetId, Strategy)>)| Group {
        heading: heading.to_string(),
        cells: rows
            .iter()
            .flat_map(|&(ds, s)| {
                Algorithm::all_default().map(|a| (a.name().into(), plan.cell(ds, s, a)))
            })
            .collect(),
    };
    [
        ("Label distribution skew", label),
        ("Feature distribution skew", feature),
        ("Quantity skew", quantity),
        ("Homogeneous partition (IID)", iid),
    ]
    .map(section)
    .into()
}

/// Figure 7: the four algorithms' training curves under six partitions.
fn fig7(plan: &Plan) -> Vec<Group> {
    per_partition(&SIX, |s| per_algorithm(plan, s, |_| {}))
}

/// Figure 8: FedProx with μ ∈ {0, 0.001, 0.01, 0.1, 1} under
/// `p_k ~ Dir(0.5)` — larger μ trains slower but can end higher.
fn fig8(plan: &Plan) -> Vec<Group> {
    let cell = |mu: f32| {
        let spec = plan.cell(Cifar10, DIR, Algorithm::FedProx { mu });
        (format!("mu = {mu}"), spec)
    };
    vec![Group {
        heading: String::new(),
        cells: [0.0, 0.001, 0.01, 0.1, 1.0].map(cell).into(),
    }]
}

/// Figure 9: final accuracy with E ∈ {10, 20, 40, 80} local epochs (paper
/// values; smaller scales keep the 1:2:4:8 ratios) across four label
/// partitions. Rows of four cells: one algorithm over the epoch grid.
fn fig9(plan: &Plan) -> Vec<Group> {
    let epoch_grid = match plan.args.scale {
        Scale::Quick => [1, 2, 4, 8],
        Scale::Bench => [2, 5, 10, 20],
        Scale::Paper => [10, 20, 40, 80],
    };
    let cells = |s| {
        let mut cells = Vec::new();
        for algo in Algorithm::all_default() {
            for epochs in epoch_grid {
                let mut spec = plan.cell(Cifar10, s, algo);
                spec.local_epochs = epochs;
                cells.push((algo.name().to_string(), spec));
            }
        }
        cells
    };
    per_partition(&[labels(1), labels(2), labels(3), DIR], cells)
}

/// Figure 10: batch sizes {16 … 256} under `p_k ~ Dir(0.5)`, one group
/// per algorithm — larger batches learn slower, independent of the skew.
fn fig10(plan: &Plan) -> Vec<Group> {
    let group = |algo: Algorithm| Group {
        heading: format!("{}:", algo.name()),
        cells: [16, 32, 64, 128, 256]
            .map(|batch| {
                let mut spec = plan.cell(Cifar10, DIR, algo);
                spec.batch_size = batch;
                (format!("B = {batch}"), spec)
            })
            .into(),
    };
    Algorithm::all_default().map(group).into()
}

/// Figure 11: VGG-9 and a BatchNorm ResNet under IID, `p_k ~ Dir(0.5)`
/// and `#C = 3` (width-scaled models; see DESIGN.md), plus the §6.2
/// extension arm that keeps BatchNorm statistics out of the average.
fn fig11(plan: &Plan) -> Vec<Group> {
    let (vgg_width, resnet_width, blocks_per_stage) = match plan.args.scale {
        Scale::Quick => (2, 4, 1),
        Scale::Bench => (4, 8, 1),
        Scale::Paper => (32, 64, 3),
    };
    let side = plan.args.gen_config().image_side;
    let vgg = ModelSpec::Vgg9 {
        in_channels: 3,
        side,
        width: vgg_width,
    };
    let resnet = ModelSpec::ResNetLite {
        in_channels: 3,
        side,
        width: resnet_width,
        blocks_per_stage,
    };
    let arms = [
        ("VGG-9", vgg, BufferPolicy::Average),
        (
            "ResNet (avg BN stats)",
            resnet.clone(),
            BufferPolicy::Average,
        ),
        ("ResNet (local BN stats)", resnet, BufferPolicy::KeepGlobal),
    ];
    let cells = |s| {
        let cell = |(name, model, policy): &(&str, ModelSpec, BufferPolicy)| {
            let mut spec = plan.cell(Cifar10, s, Algorithm::FedAvg);
            spec.model = Some(model.clone());
            spec.buffer_policy = *policy;
            (name.to_string(), spec)
        };
        arms.iter().map(cell).collect()
    };
    per_partition(&[Strategy::Homogeneous, DIR, labels(3)], cells)
}

/// Figure 12: partial participation — 100 parties, sample fraction 0.1
/// (20 parties at `--quick`, which lacks the data for 100 silos).
fn fig12(plan: &Plan) -> Vec<Group> {
    let parties = if plan.args.scale == Scale::Quick {
        20
    } else {
        100
    };
    per_partition(&SIX, |s| {
        per_algorithm(plan, s, |spec| {
            spec.n_parties = parties;
            spec.sample_fraction = 0.1;
        })
    })
}

/// Ablations of design choices within the paper's §6 discussion: the
/// SCAFFOLD control-variate rule (Algorithm 2 line 23: option (i) `∇L(wᵗ)`
/// vs option (ii) reuse), the server learning rate η (Algorithm 1 line 9;
/// the paper fixes 1) and drift amplification by local epochs.
fn ablation(plan: &Plan) -> Vec<Group> {
    let variants = [
        (
            "option (i): grad at global",
            ControlVariateUpdate::GradientAtGlobal,
        ),
        ("option (ii): reuse", ControlVariateUpdate::Reuse),
    ];
    let variant_cell = |(name, variant): (&str, ControlVariateUpdate)| {
        let spec = plan.cell(Cifar10, DIR, Algorithm::Scaffold { variant });
        (name.to_string(), spec)
    };
    let server_lr_cell = |server_lr: f32| {
        let mut spec = plan.cell(Cifar10, DIR, Algorithm::FedAvg);
        spec.server_lr = server_lr;
        (format!("eta = {server_lr}"), spec)
    };
    let mut drift = Vec::new();
    for strategy in [Strategy::Homogeneous, labels(2)] {
        for epochs in [1, 5, 20] {
            let mut spec = plan.cell(Cifar10, strategy, Algorithm::FedAvg);
            spec.local_epochs = epochs;
            drift.push((format!("{} E={epochs}", strategy.label()), spec));
        }
    }
    vec![
        Group {
            heading: "1. SCAFFOLD control-variate rule (CIFAR-10, p_k~Dir(0.5)):".into(),
            cells: variants.map(variant_cell).into(),
        },
        Group {
            heading: "2. Server learning rate (CIFAR-10, p_k~Dir(0.5), FedAvg):".into(),
            cells: [1.0, 0.5, 0.25].map(server_lr_cell).into(),
        },
        Group {
            heading: "3. Drift amplification: local epochs under #C=2 vs IID (FedAvg):".into(),
            cells: drift,
        },
    ]
}

/// Accuracy-vs-bytes: every wire codec (dense reference first, then the
/// lossy codecs at 5% top-k / 128-level int8) crossed with the paper's six
/// skews, FedAvg throughout. The codec is the swept field, so `--codec`
/// does not apply.
fn comm_groups(plan: &Plan) -> Vec<Group> {
    let (fraction, levels) = (0.05, 128);
    let codecs = [
        UpdateCodec::DenseF32,
        UpdateCodec::TopK { fraction },
        UpdateCodec::Int8Q { levels },
        UpdateCodec::TopKInt8 { fraction, levels },
    ];
    let skew = |(heading, dataset, strategy): (&str, DatasetId, Strategy)| Group {
        heading: heading.to_string(),
        cells: codecs
            .map(|codec| {
                let mut spec = plan.cell(dataset, strategy, Algorithm::FedAvg);
                spec.codec = codec;
                (codec.label().to_string(), spec)
            })
            .into(),
    };
    [
        ("cifar10-homog", Cifar10, Strategy::Homogeneous),
        ("cifar10-dirichlet", Cifar10, DIR),
        ("cifar10-labels2", Cifar10, labels(2)),
        ("cifar10-noise", Cifar10, NOISE),
        ("cifar10-qty", Cifar10, QTY),
        ("femnist-bywriter", Femnist, Strategy::ByWriter),
    ]
    .map(skew)
    .into()
}

// ------------------------------------------------------------ renderers

/// Run `groups` as sparkline curves: heading (cells indented under it
/// when there is one), one line per cell, a blank line after each group.
fn run_curves(groups: &[Group], volatility: bool) -> Vec<ExperimentResult> {
    let mut all = Vec::new();
    for g in groups {
        let indent = if g.heading.is_empty() { "" } else { "  " };
        if !g.heading.is_empty() {
            println!("{}", g.heading);
        }
        for (label, spec) in &g.cells {
            let result = run_or_exit(spec);
            let run = &result.runs[0];
            let line = curve_line(label, &run.curve());
            if volatility {
                let v = run.accuracy_volatility(2);
                println!("{indent}{line}   volatility {v:.4}");
            } else {
                println!("{indent}{line}");
            }
            all.push(result);
        }
        println!();
    }
    all
}

/// Training curves.
fn curve(groups: &[Group]) -> Json {
    run_curves(groups, false).to_json()
}

/// Training curves plus each curve's accuracy volatility.
fn curve_volatility(groups: &[Group]) -> Json {
    run_curves(groups, true).to_json()
}

/// The ablation page: volatility matters for its first two groups (which
/// compare stability), not for the drift curves.
fn ablation_curves(groups: &[Group]) -> Json {
    let mut all = run_curves(&groups[..2], true);
    all.extend(run_curves(&groups[2..], false));
    all.to_json()
}

/// Figure 9's accuracy grid: per group a table of algorithm rows (four
/// consecutive cells each) by local-epoch columns.
fn epoch_grid(groups: &[Group]) -> Json {
    let mut all = Vec::new();
    for g in groups {
        println!("{}", g.heading);
        let mut t = Table::new(vec!["algorithm", "E0", "E1", "E2", "E3"]);
        for row in g.cells.chunks(4) {
            let mut cols = vec![row[0].0.clone()];
            for (_, spec) in row {
                let result = run_or_exit(spec);
                cols.push(format!("{:.1}%", result.mean_accuracy * 100.0));
                all.push(result);
            }
            t.add_row(cols);
        }
        let epochs: Vec<usize> = g.cells[..4].iter().map(|c| c.1.local_epochs).collect();
        println!("epoch grid {epochs:?}:");
        println!("{t}");
    }
    all.to_json()
}

/// Table 3: one table over all sections — a row per dataset × partition
/// (one cell per algorithm, so rows are `all_default().len()` consecutive
/// cells) and a "times best" leaderboard row closing each section.
fn table3(groups: &[Group]) -> Json {
    let algorithms = Algorithm::all_default();
    let mut header = vec!["category", "dataset", "partitioning"];
    header.extend(algorithms.iter().map(Algorithm::name));
    let mut table = Table::new(header);
    let mut all = Vec::new();
    for g in groups {
        let mut board = Leaderboard::new();
        for row in g.cells.chunks(algorithms.len()) {
            let (dataset, partitioning) = (row[0].1.dataset.name(), row[0].1.strategy.label());
            let mut cols = vec![g.heading.clone(), dataset.to_string(), partitioning.clone()];
            for (_, spec) in row {
                let result = run_or_exit(spec);
                cols.push(result.cell());
                board.add(&result);
                all.push(result);
            }
            table.add_row(cols);
            eprintln!("  done: {dataset} / {partitioning}");
        }
        let wins = board.win_counts();
        let mut win_row = vec![g.heading.clone(), "-".into(), "times best".into()];
        win_row.extend(algorithms.map(|a| wins.get(a.name()).copied().unwrap_or(0).to_string()));
        table.add_row(win_row);
    }
    println!("{table}");
    all.to_json()
}

/// Codec × skew: per cell the curve, the *measured* traffic (encoded
/// payload bytes, so error-feedback residuals and int8 scale headers are
/// all accounted for) against the group's first — dense — cell, and an
/// `fl_comm` bench entry.
fn comm(groups: &[Group]) -> Json {
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let mut entries = Vec::new();
    for g in groups {
        println!("--- {} ---", g.heading);
        let mut dense = None;
        for (encoding, spec) in &g.cells {
            let result = run_or_exit(spec);
            let run = &result.runs[0];
            let up: usize = run.rounds.iter().map(|r| r.up_bytes).sum();
            let down: usize = run.rounds.iter().map(|r| r.down_bytes).sum();
            let (dense_up, dense_acc) = *dense.get_or_insert((up, run.final_accuracy));
            let ratio = dense_up as f64 / up as f64;
            println!("{}", curve_line(encoding, &run.curve()));
            println!(
                "        up {:8.3} MiB  down {:8.3} MiB  {ratio:5.2}x vs dense  acc {:+.2} pts",
                mib(up),
                mib(down),
                (run.final_accuracy - dense_acc) * 100.0
            );
            entries.push(bench_entry(
                "fl_comm",
                format!("{}/{encoding}", g.heading),
                format!("{} rounds={}", g.heading, run.rounds.len()),
                run.rounds.len(),
                run.wall_seconds,
                vec![
                    ("encoding", Json::Str(encoding.clone())),
                    ("final_accuracy", Json::Num(run.final_accuracy)),
                    ("up_bytes_total", Json::Num(up as f64)),
                    ("down_bytes_total", Json::Num(down as f64)),
                    ("bytes_ratio_vs_dense", Json::Num(ratio)),
                ],
            ));
        }
        println!();
    }
    Json::arr(entries)
}
