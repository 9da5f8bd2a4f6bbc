//! The `Static` experiments: tables and figures that are computed from
//! generated data and partitions alone — no federated training, so none of
//! the run flags apply. Each function prints the body; the driver prints
//! the header before it and the registry's `expected` note after it.

use crate::Args;
use niid_core::partition::{build_parties, partition, Strategy};
use niid_core::recommend::{recommend, recommend_from_report, InferenceThresholds};
use niid_core::skew::analyze;
use niid_core::Table;
use niid_data::{fcube_octant, generate, DatasetId};
use niid_fl::Algorithm;

/// Table 1: which non-IID settings each algorithm's original evaluation
/// covered (the paper's static claims, one `y`/`n` per algorithm), plus a
/// live check that this implementation provides every row — the
/// NIID-Bench column is verified by actually running the strategy.
pub(crate) fn table1(args: &Args) {
    let coverage = [
        ("Label distribution skew", "quantity-based", "yynn"),
        ("Label distribution skew", "distribution-based", "nnyy"),
        ("Feature distribution skew", "noise-based", "nnnn"),
        ("Feature distribution skew", "synthetic", "nynn"),
        ("Feature distribution skew", "real-world", "nynn"),
        ("Quantity skew", "", "nnny"),
    ];
    let gen = args.gen_config();
    let mnist = generate(DatasetId::Mnist, &gen);
    let fcube = generate(DatasetId::Fcube, &gen);
    let femnist = generate(DatasetId::Femnist, &gen);
    let live = [
        (&mnist, 10, Strategy::QuantityLabelSkew { k: 2 }),
        (&mnist, 10, Strategy::DirichletLabelSkew { beta: 0.5 }),
        (&mnist, 10, Strategy::NoiseFeatureSkew { sigma: 0.1 }),
        (&fcube, 4, Strategy::FcubeSynthetic),
        (&femnist, 10, Strategy::ByWriter),
        (&mnist, 10, Strategy::QuantitySkew { beta: 0.5 }),
    ];

    let mut header = vec!["Partitioning strategy", "variant"];
    header.extend(Algorithm::all_default().iter().map(Algorithm::name));
    header.push("NIID-Bench");
    let mut t = Table::new(header);
    for ((family, variant, covered), (split, parties, strategy)) in coverage.into_iter().zip(live) {
        let mut row = vec![family, variant];
        row.extend(covered.chars().map(|c| if c == 'y' { "yes" } else { "no" }));
        let ok = partition(&split.train, parties, strategy, args.seed).is_ok();
        row.push(if ok { "yes (verified)" } else { "MISSING" });
        t.add_row(row);
    }
    println!("{t}");
}

/// Table 2: the paper's reported dataset sizes next to what this run's
/// scale actually generates.
pub(crate) fn table2(args: &Args) {
    let gen = args.gen_config();
    let mut t = Table::new(vec![
        "dataset",
        "#train (paper)",
        "#test (paper)",
        "#features (paper)",
        "#classes",
        "#train (generated)",
        "#test (generated)",
        "#features (generated)",
    ]);
    for id in DatasetId::all() {
        let p = id.paper_stats();
        let split = generate(id, &gen);
        let (train, test) = (&split.train, &split.test);
        let mut row = vec![id.name().to_string()];
        let paper = [p.train_instances, p.test_instances, p.features, p.classes];
        row.extend(paper.map(|n| n.to_string()));
        row.extend([train.len(), test.len(), train.dim()].map(|n| n.to_string()));
        t.add_row(row);
    }
    println!("{t}");
}

/// Figure 3: the per-party per-class allocation matrix of a
/// distribution-based label-imbalance partition on the MNIST-like dataset
/// (the paper draws it as colored rectangles).
pub(crate) fn fig3(args: &Args) {
    let split = generate(DatasetId::Mnist, &args.gen_config());
    for beta in [0.5, 0.1, 5.0] {
        let strategy = Strategy::DirichletLabelSkew { beta };
        let part = partition(&split.train, 10, strategy, args.seed).expect("partition");
        println!("beta = {beta}  (paper's figure uses beta = 0.5)");
        println!("{}", analyze(&split.train, &part));
    }
}

/// Figure 4: noise-based feature imbalance on the FMNIST-like dataset —
/// party `Pᵢ` receives Gaussian noise of variance `σ·i/N`. The paper shows
/// noised images; this reports each party's noise level and the measured
/// feature-variance inflation, the statistic the images illustrate.
pub(crate) fn fig4(args: &Args) {
    let sigma = 0.1; // the Table 3 feature-skew setting
    let split = generate(DatasetId::Fmnist, &args.gen_config());
    let strategy = Strategy::NoiseFeatureSkew { sigma };
    let part = partition(&split.train, 10, strategy, args.seed).expect("partition");
    let parties = build_parties(&split.train, &part, args.seed);

    let var_of = |vals: &[f32]| -> f64 {
        let mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
        vals.iter()
            .map(|&v| (v as f64 - mean) * (v as f64 - mean))
            .sum::<f64>()
            / vals.len() as f64
    };
    let base_var = var_of(split.train.features.as_slice());

    let mut t = Table::new(vec![
        "party",
        "noise variance (sigma*i/N)",
        "measured feature variance",
        "excess over clean data",
    ]);
    for p in &parties {
        let v = var_of(p.data.features.as_slice());
        t.add_row(vec![
            format!("P{}", p.id + 1),
            format!("{:.4}", sigma * (p.id + 1) as f64 / parties.len() as f64),
            format!("{v:.4}"),
            format!("{:+.4}", v - base_var),
        ]);
    }
    println!("clean-data feature variance: {base_var:.4}");
    println!("{t}");
}

/// Figure 5: FCUBE's synthetic feature-skew partition — eight octants,
/// each party owning a symmetric pair, labels decided by the plane
/// `x₁ = 0`.
pub(crate) fn fig5(args: &Args) {
    let split = generate(DatasetId::Fcube, &args.gen_config());
    let part = partition(&split.train, 4, Strategy::FcubeSynthetic, args.seed).expect("partition");
    let mut t = Table::new(vec![
        "party",
        "octants (x1<0|x2<0|x3<0 bits)",
        "samples",
        "label-0",
        "label-1",
    ]);
    for (p, rows) in part.assignments.iter().enumerate() {
        let mut octs: Vec<usize> = rows
            .iter()
            .map(|&i| fcube_octant(split.train.features.row(i)))
            .collect();
        octs.sort_unstable();
        octs.dedup();
        let zeros = rows.iter().filter(|&&i| split.train.labels[i] == 0).count();
        t.add_row(vec![
            format!("P{}", p + 1),
            format!("{octs:?}"),
            rows.len().to_string(),
            zeros.to_string(),
            (rows.len() - zeros).to_string(),
        ]);
    }
    println!("{t}");
}

/// Figure 6: the decision tree that picks "the (almost) best FL algorithm
/// given the non-IID setting", exercised with declared skew kinds and
/// with skew kinds *inferred* from measured partitions.
pub(crate) fn fig6(args: &Args) {
    println!("declared skew kind -> recommendation:");
    let mut t = Table::new(vec!["partitioning strategy", "skew family", "recommended"]);
    for strategy in [
        Strategy::Homogeneous,
        Strategy::QuantityLabelSkew { k: 1 },
        Strategy::QuantityLabelSkew { k: 3 },
        Strategy::DirichletLabelSkew { beta: 0.5 },
        Strategy::NoiseFeatureSkew { sigma: 0.1 },
        Strategy::FcubeSynthetic,
        Strategy::ByWriter,
        Strategy::QuantitySkew { beta: 0.5 },
    ] {
        let kind = strategy.skew_kind();
        t.add_row(vec![
            strategy.label(),
            format!("{kind:?}"),
            recommend(kind).name().to_string(),
        ]);
    }
    println!("{t}");

    println!("inferred from measured partitions (§6.1 profiling direction):");
    let split = generate(DatasetId::Mnist, &args.gen_config());
    let mut t = Table::new(vec!["actual partition", "inferred kind", "recommended"]);
    for strategy in [
        Strategy::Homogeneous,
        Strategy::QuantityLabelSkew { k: 2 },
        Strategy::DirichletLabelSkew { beta: 0.1 },
        Strategy::QuantitySkew { beta: 0.2 },
    ] {
        let part = partition(&split.train, 10, strategy, args.seed).expect("partition");
        let report = analyze(&split.train, &part);
        let (kind, algo) = recommend_from_report(&report, InferenceThresholds::default());
        t.add_row(vec![
            strategy.label(),
            format!("{kind:?}"),
            algo.name().to_string(),
        ]);
    }
    println!("{t}");
}
