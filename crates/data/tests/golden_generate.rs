//! Golden generation bits: one pinned FNV-1a digest per dataset cell.
//!
//! Synthetic rows are filled in chunks on the kernel pool, each chunk's
//! generator jumped to the state the sequential stream has at the chunk's
//! first row. A row-skip that consumes a different number of draws than
//! its row fill shifts every later chunk (and the caller's generator), so
//! these digests — recorded from the sequential row loop — move.
//!
//! Every cell is asserted at thread budget 1 and at the full budget; run
//! under `NIID_THREADS=4` to fill rows four tasks wide on any machine.
//! The large cells span several chunks on each skip path: the dense
//! tabular jump, the sparse tabular walk and the image walk (with and
//! without label noise).

use niid_data::images::{ImageTask, ImageTaskSpec};
use niid_data::tabular::{TabularTask, TabularTaskSpec};
use niid_data::{generate, Dataset, DatasetId, GenConfig};
use niid_stats::Pcg64;
use niid_tensor::{configured_threads, with_thread_budget};

/// FNV-1a over a byte stream.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Feature bits, labels and writer ids of `d`.
fn hash_dataset(h: &mut u64, d: &Dataset) {
    for v in d.features.as_slice() {
        fnv1a(h, &v.to_bits().to_le_bytes());
    }
    for &y in &d.labels {
        fnv1a(h, &(y as u64).to_le_bytes());
    }
    for &w in d.writer_ids.iter().flatten() {
        fnv1a(h, &w.to_le_bytes());
    }
}

/// Train then test split of `generate(id, cfg)`.
fn split_digest(id: DatasetId, cfg: &GenConfig) -> u64 {
    let split = generate(id, cfg);
    let mut h = 0xcbf2_9ce4_8422_2325;
    hash_dataset(&mut h, &split.train);
    hash_dataset(&mut h, &split.test);
    h
}

/// One `sample` call plus the caller's next `next_u64` after it, so a
/// generator left at the wrong position fails even when the rows match.
fn sample_digest(seed: u64, sample: impl FnOnce(&mut Pcg64) -> Dataset) -> u64 {
    let mut rng = Pcg64::new(seed);
    let d = sample(&mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325;
    hash_dataset(&mut h, &d);
    fnv1a(&mut h, &rng.next_u64().to_le_bytes());
    h
}

fn tabular(dim: usize, sparsity: f32, interactions: usize) -> TabularTask {
    let spec = TabularTaskSpec {
        dim,
        sparsity,
        interactions,
        interaction_weight: if interactions > 0 { 0.6 } else { 0.0 },
        bias: 0.2,
        margin_noise: 0.2,
    };
    TabularTask::new(spec, 11)
}

fn image(channels: usize, modes: usize, label_noise: f32) -> ImageTask {
    let spec = ImageTaskSpec {
        channels,
        side: 16,
        classes: 10,
        modes,
        class_separation: 0.5,
        pixel_noise: 0.4,
        deformation: 0.2,
        label_noise,
    };
    ImageTask::new(spec, 13)
}

/// `(cell, digest)` for every pinned cell.
fn cells() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let tiny = GenConfig::tiny(42);
    for id in DatasetId::all() {
        out.push((format!("{}@tiny", id.name()), split_digest(id, &tiny)));
    }
    let bench = GenConfig::bench(42);
    let large = [
        (
            "covtype@20000",
            DatasetId::Covtype,
            GenConfig {
                max_train: 20_000,
                ..tiny
            },
        ),
        (
            "rcv1@dim2048",
            DatasetId::Rcv1,
            GenConfig {
                max_tabular_dim: 2048,
                ..tiny
            },
        ),
        ("cifar10@bench", DatasetId::Cifar10, bench),
        ("femnist@bench", DatasetId::Femnist, bench),
    ];
    for (name, id, cfg) in large {
        out.push((name.to_string(), split_digest(id, &cfg)));
    }
    let dense = tabular(54, 0.0, 40);
    let sparse = tabular(2048, 0.9, 0);
    let noisy = image(3, 3, 0.32);
    let clean = image(1, 1, 0.0);
    out.push((
        "sample/dense".into(),
        sample_digest(1, |r| dense.sample(12_000, "dense", r)),
    ));
    out.push((
        "sample/sparse".into(),
        sample_digest(2, |r| sparse.sample(400, "sparse", r)),
    ));
    out.push((
        "sample/image-noisy".into(),
        sample_digest(3, |r| noisy.sample(1_000, "noisy", r)),
    ));
    out.push((
        "sample/image-clean".into(),
        sample_digest(4, |r| clean.sample(2_500, "clean", r)),
    ));
    out.push((
        "sample/one-row".into(),
        sample_digest(5, |r| dense.sample(1, "one", r)),
    ));
    out
}

const PINNED: [(&str, u64); 18] = [
    ("mnist@tiny", 0x8bba_c62d_c3ef_40ad),
    ("fmnist@tiny", 0x4635_da5f_9cba_c858),
    ("cifar10@tiny", 0xdf4e_060a_454a_fab1),
    ("svhn@tiny", 0x2a55_d8c1_815c_92d5),
    ("adult@tiny", 0x90dc_3ea3_c957_baf1),
    ("rcv1@tiny", 0x1e92_be26_90c9_4de7),
    ("covtype@tiny", 0x8a38_65d8_7cd9_fb6e),
    ("fcube@tiny", 0x40ba_d0d0_3a91_5a3a),
    ("femnist@tiny", 0x1a84_a350_1b77_ae61),
    ("covtype@20000", 0xd5fc_77d7_90c2_ede7),
    ("rcv1@dim2048", 0xa13d_c318_47ea_eda5),
    ("cifar10@bench", 0xfafb_44b9_36ca_0fec),
    ("femnist@bench", 0x6b11_d70f_dfd6_5dfc),
    ("sample/dense", 0xe554_9593_d511_7fd9),
    ("sample/sparse", 0x9b14_9d76_b6e2_ab97),
    ("sample/image-noisy", 0x700c_749f_c615_45ba),
    ("sample/image-clean", 0x922a_4f28_ca5f_1b5d),
    ("sample/one-row", 0x3d93_7735_bfa7_3bf0),
];

fn assert_pinned(budget: usize) {
    let got = with_thread_budget(budget, cells);
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "cell list and pins disagree");
    let moved: Vec<String> = got
        .iter()
        .zip(PINNED)
        .filter(|((_, g), (_, want))| g != want)
        .map(|((name, g), (_, want))| format!("{name}: got {g:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "generated bits moved at thread budget {budget}:\n{}",
        moved.join("\n")
    );
}

#[test]
fn sequential_generation_bits_are_pinned() {
    assert_pinned(1);
}

#[test]
fn pooled_generation_bits_are_pinned() {
    assert_pinned(configured_threads());
}
