//! The six NIID-Bench partitioning strategies (§4) plus the homogeneous
//! baseline.
//!
//! | Strategy | Paper notation | Skew family |
//! |---|---|---|
//! | [`Strategy::Homogeneous`] | IID | none |
//! | [`Strategy::QuantityLabelSkew`] | `#C = k` | label (quantity-based) |
//! | [`Strategy::DirichletLabelSkew`] | `p_k ~ Dir(β)` | label (distribution-based) |
//! | [`Strategy::NoiseFeatureSkew`] | `x̂ ~ Gau(σ)` | feature (noise-based) |
//! | [`Strategy::FcubeSynthetic`] | FCUBE | feature (synthetic) |
//! | [`Strategy::ByWriter`] | FEMNIST | feature (real-world) |
//! | [`Strategy::QuantitySkew`] | `q ~ Dir(β)` | quantity |

use niid_data::{add_gaussian_noise, fcube_octant, Dataset};
use niid_fl::{Party, PartyProvider};
use niid_json::{FromJson, Json, JsonError, ToJson};
use niid_stats::{derive_seed, sample_dirichlet, Pcg64};
use std::fmt;
use std::sync::Arc;

/// A data partitioning strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// IID baseline: a uniform random split.
    Homogeneous,
    /// Each party holds samples of exactly `k` classes (`#C = k`).
    QuantityLabelSkew {
        /// Number of distinct labels per party (`1 <= k <= num_classes`).
        k: usize,
    },
    /// For every class, party shares are drawn from `Dir_N(beta)`.
    DirichletLabelSkew {
        /// Concentration; smaller = more skewed (paper default 0.5).
        beta: f64,
    },
    /// IID split, then party `Pᵢ` adds Gaussian noise of variance
    /// `sigma · (i+1)/N` to its local features.
    NoiseFeatureSkew {
        /// Maximum noise variance (the last party's level).
        sigma: f64,
    },
    /// FCUBE's geometric split: each of 4 parties gets two octants that
    /// are symmetric about the origin.
    FcubeSynthetic,
    /// Real-world feature skew: writers are divided evenly among parties
    /// and each party receives all samples of its writers.
    ByWriter,
    /// Party sizes are drawn from `Dir_N(beta)` over the whole dataset.
    QuantitySkew {
        /// Concentration; smaller = more unbalanced sizes.
        beta: f64,
    },
}

impl Strategy {
    /// Paper-style short label (`#C=2`, `p_k~Dir(0.5)`, ...).
    pub fn label(&self) -> String {
        match self {
            Strategy::Homogeneous => "homogeneous".to_string(),
            Strategy::QuantityLabelSkew { k } => format!("#C={k}"),
            Strategy::DirichletLabelSkew { beta } => format!("p_k~Dir({beta})"),
            Strategy::NoiseFeatureSkew { sigma } => format!("x^~Gau({sigma})"),
            Strategy::FcubeSynthetic => "fcube-synthetic".to_string(),
            Strategy::ByWriter => "by-writer".to_string(),
            Strategy::QuantitySkew { beta } => format!("q~Dir({beta})"),
        }
    }

    /// The skew family this strategy exercises, for the decision tree.
    pub fn skew_kind(&self) -> crate::recommend::SkewKind {
        use crate::recommend::SkewKind;
        match *self {
            Strategy::Homogeneous => SkewKind::Homogeneous,
            Strategy::QuantityLabelSkew { k } => SkewKind::LabelQuantityBased { k },
            Strategy::DirichletLabelSkew { beta } => SkewKind::LabelDistributionBased { beta },
            Strategy::NoiseFeatureSkew { .. } => SkewKind::FeatureNoise,
            Strategy::FcubeSynthetic => SkewKind::FeatureSynthetic,
            Strategy::ByWriter => SkewKind::FeatureRealWorld,
            Strategy::QuantitySkew { .. } => SkewKind::Quantity,
        }
    }
}

impl ToJson for Strategy {
    fn to_json(&self) -> Json {
        match *self {
            Strategy::Homogeneous => Json::Str("Homogeneous".into()),
            Strategy::FcubeSynthetic => Json::Str("FcubeSynthetic".into()),
            Strategy::ByWriter => Json::Str("ByWriter".into()),
            Strategy::QuantityLabelSkew { k } => Json::obj(vec![(
                "QuantityLabelSkew",
                Json::obj(vec![("k", k.to_json())]),
            )]),
            Strategy::DirichletLabelSkew { beta } => Json::obj(vec![(
                "DirichletLabelSkew",
                Json::obj(vec![("beta", beta.to_json())]),
            )]),
            Strategy::NoiseFeatureSkew { sigma } => Json::obj(vec![(
                "NoiseFeatureSkew",
                Json::obj(vec![("sigma", sigma.to_json())]),
            )]),
            Strategy::QuantitySkew { beta } => Json::obj(vec![(
                "QuantitySkew",
                Json::obj(vec![("beta", beta.to_json())]),
            )]),
        }
    }
}

impl FromJson for Strategy {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(name) = v.as_str() {
            return match name {
                "Homogeneous" => Ok(Strategy::Homogeneous),
                "FcubeSynthetic" => Ok(Strategy::FcubeSynthetic),
                "ByWriter" => Ok(Strategy::ByWriter),
                other => Err(JsonError::new(format!("unknown Strategy: {other}"))),
            };
        }
        let field = |variant: &str, key: &str| -> Result<&Json, JsonError> {
            v.get(variant)
                .and_then(|inner| inner.get(key))
                .ok_or_else(|| JsonError::new(format!("{variant} missing {key}")))
        };
        if v.get("QuantityLabelSkew").is_some() {
            return Ok(Strategy::QuantityLabelSkew {
                k: usize::from_json(field("QuantityLabelSkew", "k")?)?,
            });
        }
        if v.get("DirichletLabelSkew").is_some() {
            return Ok(Strategy::DirichletLabelSkew {
                beta: f64::from_json(field("DirichletLabelSkew", "beta")?)?,
            });
        }
        if v.get("NoiseFeatureSkew").is_some() {
            return Ok(Strategy::NoiseFeatureSkew {
                sigma: f64::from_json(field("NoiseFeatureSkew", "sigma")?)?,
            });
        }
        if v.get("QuantitySkew").is_some() {
            return Ok(Strategy::QuantitySkew {
                beta: f64::from_json(field("QuantitySkew", "beta")?)?,
            });
        }
        Err(JsonError::new(format!("unknown Strategy: {v}")))
    }
}

/// Errors from partitioning.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// `#C = k` with `k` outside `[1, num_classes]`.
    BadLabelCount {
        /// Requested labels per party.
        k: usize,
        /// Classes available.
        classes: usize,
    },
    /// The strategy needs writer metadata the dataset lacks.
    NeedsWriterIds,
    /// FCUBE's split is defined for exactly 4 parties over 3-D features.
    FcubeShape {
        /// Explanation of what was wrong.
        message: String,
    },
    /// Fewer samples (or writers) than parties.
    NotEnoughData {
        /// Explanation.
        message: String,
    },
    /// A non-positive concentration or noise level.
    BadParameter {
        /// Explanation.
        message: String,
    },
    /// Zero parties requested.
    NoParties,
    /// The strategy needs global label/feature statistics and cannot be
    /// evaluated lazily per party (see [`LazyPartition`]).
    UnsupportedLazy {
        /// The strategy's paper-style label.
        strategy: String,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::BadLabelCount { k, classes } => write!(
                f,
                "#C={k} is invalid for a dataset with {classes} classes (need 1 <= k <= classes)"
            ),
            PartitionError::NeedsWriterIds => {
                write!(f, "by-writer partitioning needs a dataset with writer ids")
            }
            PartitionError::FcubeShape { message } => write!(f, "fcube partition: {message}"),
            PartitionError::NotEnoughData { message } => write!(f, "not enough data: {message}"),
            PartitionError::BadParameter { message } => write!(f, "bad parameter: {message}"),
            PartitionError::NoParties => write!(f, "cannot partition into zero parties"),
            PartitionError::UnsupportedLazy { strategy } => write!(
                f,
                "strategy {strategy} needs global statistics and cannot be partitioned lazily \
                 (lazy partitioning supports homogeneous and x^~Gau(sigma))"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The result of partitioning: for each party, the row indices of its
/// local data. Disjointness and validity are enforced by construction and
/// re-checked by [`Partition::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// `assignments[p]` = training-set row indices owned by party `p`.
    pub assignments: Vec<Vec<usize>>,
    /// The strategy that produced this partition.
    pub strategy: Strategy,
}

impl Partition {
    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.assignments.len()
    }

    /// Total samples assigned (may be less than the dataset when `#C = k`
    /// leaves classes without an owner — see [`partition`] docs).
    pub fn assigned_count(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Party sizes.
    pub fn sizes(&self) -> Vec<usize> {
        self.assignments.iter().map(Vec::len).collect()
    }

    /// Check structural invariants against a dataset of `n` rows:
    /// all indices in range and no index assigned twice.
    ///
    /// # Panics
    /// Panics on violation — these are internal bugs, never data issues.
    pub fn validate(&self, n: usize) {
        let mut seen = vec![false; n];
        for (p, rows) in self.assignments.iter().enumerate() {
            for &i in rows {
                assert!(i < n, "party {p} assigned out-of-range row {i} (n={n})");
                assert!(!seen[i], "row {i} assigned to two parties");
                seen[i] = true;
            }
        }
    }
}

/// Partition `train` into `n_parties` silos with the given strategy.
///
/// Notes on faithfulness to the reference NIID-Bench implementation:
///
/// * `#C = k`: each party's first label is `party_index mod classes`
///   (guaranteeing every class has an owner whenever
///   `n_parties >= classes`), remaining labels are drawn uniformly without
///   replacement; each class's samples are split evenly among its owners.
///   When `n_parties < classes`, classes that end up with no owner are
///   dropped from the federated training set (the reference code behaves
///   the same way).
/// * `Dir(β)` strategies redraw (up to 100 times) until every party has at
///   least `min(10, n / (10·N))+1` samples, mirroring the reference
///   implementation's `min_size` loop; the best draw is kept if the limit
///   is hit.
pub fn partition(
    train: &Dataset,
    n_parties: usize,
    strategy: Strategy,
    seed: u64,
) -> Result<Partition, PartitionError> {
    if n_parties == 0 {
        return Err(PartitionError::NoParties);
    }
    let n = train.len();
    if n < n_parties {
        return Err(PartitionError::NotEnoughData {
            message: format!("{n} samples for {n_parties} parties"),
        });
    }
    let mut rng = Pcg64::new(derive_seed(seed, 0x9A27));
    let assignments = match strategy {
        Strategy::Homogeneous | Strategy::NoiseFeatureSkew { .. } => {
            if let Strategy::NoiseFeatureSkew { sigma } = strategy {
                if !(sigma.is_finite() && sigma >= 0.0) {
                    return Err(PartitionError::BadParameter {
                        message: format!("noise sigma must be non-negative, got {sigma}"),
                    });
                }
            }
            homogeneous(n, n_parties, &mut rng)
        }
        Strategy::QuantityLabelSkew { k } => quantity_label_skew(train, n_parties, k, &mut rng)?,
        Strategy::DirichletLabelSkew { beta } => {
            if !(beta.is_finite() && beta > 0.0) {
                return Err(PartitionError::BadParameter {
                    message: format!("beta must be positive, got {beta}"),
                });
            }
            dirichlet_label_skew(train, n_parties, beta, &mut rng)
        }
        Strategy::QuantitySkew { beta } => {
            if !(beta.is_finite() && beta > 0.0) {
                return Err(PartitionError::BadParameter {
                    message: format!("beta must be positive, got {beta}"),
                });
            }
            quantity_skew(n, n_parties, beta, &mut rng)
        }
        Strategy::FcubeSynthetic => fcube_partition(train, n_parties)?,
        Strategy::ByWriter => by_writer(train, n_parties, &mut rng)?,
    };
    let out = Partition {
        assignments,
        strategy,
    };
    out.validate(n);
    Ok(out)
}

fn homogeneous(n: usize, parties: usize, rng: &mut Pcg64) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    split_even(&idx, parties)
}

/// Split a shuffled index list into `parties` near-equal contiguous parts.
fn split_even(idx: &[usize], parties: usize) -> Vec<Vec<usize>> {
    let n = idx.len();
    let base = n / parties;
    let extra = n % parties;
    let mut out = Vec::with_capacity(parties);
    let mut pos = 0usize;
    for p in 0..parties {
        let take = base + usize::from(p < extra);
        out.push(idx[pos..pos + take].to_vec());
        pos += take;
    }
    out
}

fn quantity_label_skew(
    train: &Dataset,
    parties: usize,
    k: usize,
    rng: &mut Pcg64,
) -> Result<Vec<Vec<usize>>, PartitionError> {
    let classes = train.num_classes;
    if k == 0 || k > classes {
        return Err(PartitionError::BadLabelCount { k, classes });
    }
    // Assign k distinct labels to each party; first label round-robin for
    // coverage, the rest uniform without replacement.
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); classes];
    for p in 0..parties {
        let mut chosen = vec![p % classes];
        while chosen.len() < k {
            let cand = rng.next_below(classes);
            if !chosen.contains(&cand) {
                chosen.push(cand);
            }
        }
        for label in chosen {
            owners[label].push(p);
        }
    }
    // Split each class's samples evenly among its owners.
    let by_class = train.indices_by_class();
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); parties];
    for (label, rows) in by_class.into_iter().enumerate() {
        let owning = &owners[label];
        if owning.is_empty() {
            continue; // dropped class (parties < classes with unlucky draw)
        }
        let mut rows = rows;
        rng.shuffle(&mut rows);
        for (chunk, &party) in split_even(&rows, owning.len()).iter().zip(owning) {
            assignments[party].extend_from_slice(chunk);
        }
    }
    Ok(assignments)
}

/// Guarantee no party ends up empty: move single samples from the largest
/// parties to empty ones. Needed when the Dirichlet retry budget is
/// exhausted (e.g. many parties over a small dataset, where tail shares
/// round to zero no matter how often we redraw).
fn top_up_empty_parties(assignments: &mut [Vec<usize>]) {
    loop {
        let Some(empty) = assignments.iter().position(Vec::is_empty) else {
            return;
        };
        let donor = assignments
            .iter()
            .enumerate()
            .max_by_key(|(_, rows)| rows.len())
            .map(|(i, _)| i)
            .expect("non-empty assignment list");
        if assignments[donor].len() <= 1 {
            return; // fewer samples than parties; validated earlier
        }
        let moved = assignments[donor].pop().expect("donor has samples");
        assignments[empty].push(moved);
    }
}

/// The reference implementation's `min_size` redraw threshold:
/// `min(10, n / (10·N)) + 1` samples per party. The `+1` keeps the
/// threshold at least 1 even when `n / (10·N)` truncates to zero, so a
/// draw with an empty party is never accepted.
pub fn dirichlet_min_required(n: usize, parties: usize) -> usize {
    (n / (10 * parties)).min(10) + 1
}

fn dirichlet_label_skew(
    train: &Dataset,
    parties: usize,
    beta: f64,
    rng: &mut Pcg64,
) -> Vec<Vec<usize>> {
    let n = train.len();
    let min_required = dirichlet_min_required(n, parties);
    let by_class = train.indices_by_class();
    let mut best: Option<Vec<Vec<usize>>> = None;
    let mut best_min = 0usize;
    for _attempt in 0..100 {
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); parties];
        for rows in &by_class {
            if rows.is_empty() {
                continue;
            }
            let mut rows = rows.clone();
            rng.shuffle(&mut rows);
            let props = sample_dirichlet(rng, parties, beta);
            distribute_by_proportions(&rows, &props, &mut assignments);
        }
        let min_size = assignments.iter().map(Vec::len).min().unwrap_or(0);
        if min_size >= min_required {
            return assignments;
        }
        if min_size >= best_min {
            best_min = min_size;
            best = Some(assignments);
        }
    }
    // 100 redraws exhausted (tiny datasets / extreme beta): keep the most
    // balanced attempt, topping up any empty party with one sample so the
    // federated engine's no-empty-party invariant holds.
    let mut best = best.expect("at least one dirichlet attempt");
    top_up_empty_parties(&mut best);
    best
}

/// Give each party `round(props[p] * rows.len())` rows via cumulative
/// cut-points (exactly exhausts `rows`).
fn distribute_by_proportions(rows: &[usize], props: &[f64], assignments: &mut [Vec<usize>]) {
    let n = rows.len();
    let mut cut_prev = 0usize;
    let mut cum = 0.0f64;
    for (p, &prop) in props.iter().enumerate() {
        cum += prop;
        let cut = if p + 1 == props.len() {
            n
        } else {
            ((cum * n as f64).round() as usize).min(n)
        };
        if cut > cut_prev {
            assignments[p].extend_from_slice(&rows[cut_prev..cut]);
        }
        cut_prev = cut.max(cut_prev);
    }
}

fn quantity_skew(n: usize, parties: usize, beta: f64, rng: &mut Pcg64) -> Vec<Vec<usize>> {
    let min_required = dirichlet_min_required(n, parties);
    let mut idx: Vec<usize> = (0..n).collect();
    let mut best: Option<Vec<Vec<usize>>> = None;
    let mut best_min = 0usize;
    for _attempt in 0..100 {
        rng.shuffle(&mut idx);
        let props = sample_dirichlet(rng, parties, beta);
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); parties];
        distribute_by_proportions(&idx, &props, &mut assignments);
        let min_size = assignments.iter().map(Vec::len).min().unwrap_or(0);
        if min_size >= min_required {
            return assignments;
        }
        if min_size >= best_min {
            best_min = min_size;
            best = Some(assignments);
        }
    }
    let mut best = best.expect("at least one quantity-skew attempt");
    top_up_empty_parties(&mut best);
    best
}

fn fcube_partition(train: &Dataset, parties: usize) -> Result<Vec<Vec<usize>>, PartitionError> {
    if parties != 4 {
        return Err(PartitionError::FcubeShape {
            message: format!("FCUBE defines exactly 4 parties, got {parties}"),
        });
    }
    if train.dim() != 3 {
        return Err(PartitionError::FcubeShape {
            message: format!("FCUBE needs 3-D features, got {}", train.dim()),
        });
    }
    // Party p owns octants p and 7-p (symmetric about the origin), making
    // labels balanced but feature supports disjoint across parties.
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); 4];
    for i in 0..train.len() {
        let o = fcube_octant(train.features.row(i));
        let party = o.min(7 - o);
        assignments[party].push(i);
    }
    Ok(assignments)
}

fn by_writer(
    train: &Dataset,
    parties: usize,
    rng: &mut Pcg64,
) -> Result<Vec<Vec<usize>>, PartitionError> {
    let writer_ids = train
        .writer_ids
        .as_ref()
        .ok_or(PartitionError::NeedsWriterIds)?;
    let mut writers: Vec<u32> = writer_ids.clone();
    writers.sort_unstable();
    writers.dedup();
    if writers.len() < parties {
        return Err(PartitionError::NotEnoughData {
            message: format!("{} writers for {} parties", writers.len(), parties),
        });
    }
    rng.shuffle(&mut writers);
    // writer -> party by shuffled round-robin.
    let mut party_of = std::collections::HashMap::with_capacity(writers.len());
    for (i, &w) in writers.iter().enumerate() {
        party_of.insert(w, i % parties);
    }
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); parties];
    for (row, &w) in writer_ids.iter().enumerate() {
        assignments[party_of[&w]].push(row);
    }
    Ok(assignments)
}

/// Materialize [`niid_fl::Party`] values from a partition, applying the
/// strategy's per-party feature transform (Gaussian noise for
/// [`Strategy::NoiseFeatureSkew`]).
pub fn build_parties(train: &Dataset, part: &Partition, seed: u64) -> Vec<Party> {
    let n_parties = part.num_parties();
    part.assignments
        .iter()
        .enumerate()
        .map(|(id, rows)| party_from_rows(train, rows, part.strategy, id, n_parties, seed))
        .collect()
}

/// Party `id`'s dataset: its rows of `train`, then the strategy's
/// per-party feature transform. The one transform both the resident
/// ([`build_parties`]) and the on-demand ([`LazyPartition`]) paths run,
/// which is what keeps their parties bit-identical.
fn party_from_rows(
    train: &Dataset,
    rows: &[usize],
    strategy: Strategy,
    id: usize,
    n_parties: usize,
    seed: u64,
) -> Party {
    let local = train.subset(rows);
    let local = match strategy {
        Strategy::NoiseFeatureSkew { sigma } => {
            // Party P_i gets Gau(σ·(i+1)/N): the paper's 1-based party
            // index, so every party has non-zero (and distinct) noise
            // except in the degenerate σ=0 case.
            let variance = sigma * (id + 1) as f64 / n_parties as f64;
            add_gaussian_noise(local, variance, derive_seed(seed, 0xA05E + id as u64))
        }
        _ => local,
    };
    Party::new(id, local)
}

/// A seeded format-preserving permutation over `[0, n)`: a 4-round
/// Feistel network on the smallest even-bit-width domain covering `n`,
/// cycle-walked back into range.
///
/// Why this and not a shuffled `Vec<usize>`: evaluating `perm(i)` is
/// O(1) arithmetic from `(seed, i)` alone, so a million-party partition
/// stores no index vectors at all — party `p`'s rows are
/// `perm(start_p), perm(start_p + 1), …`, computed only when `p` is in a
/// round's sampled cohort. The domain is at most `4n`, so cycle-walking
/// terminates in < 4 expected steps per lookup.
#[derive(Debug, Clone)]
struct FeistelPerm {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl FeistelPerm {
    fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "empty permutation domain");
        // Smallest even bit-width whose domain 2^(2·half) covers n.
        let bits = (u64::BITS - (n as u64 - 1).leading_zeros()).max(2);
        let half_bits = bits.div_ceil(2);
        let keys = std::array::from_fn(|r| derive_seed(seed, 0xFE15 + r as u64));
        Self {
            n: n as u64,
            half_bits,
            keys,
        }
    }

    /// One pass of the Feistel network over the full domain (a bijection
    /// on `[0, 2^(2·half_bits))` for any round keys).
    fn permute_once(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut l, mut r) = (x >> self.half_bits, x & mask);
        for &k in &self.keys {
            let f = derive_seed(k, r) & mask;
            (l, r) = (r, l ^ f);
        }
        (l << self.half_bits) | r
    }

    /// The permuted position of `x` in `[0, n)` (cycle-walking: keep
    /// applying the domain bijection until the image lands in range,
    /// which preserves bijectivity on the restriction).
    fn permute(&self, x: u64) -> u64 {
        debug_assert!(x < self.n);
        let mut y = self.permute_once(x);
        while y >= self.n {
            y = self.permute_once(y);
        }
        y
    }
}

/// A cohort-on-demand partition: the IID strategies' "shuffle all rows,
/// split evenly" recipe, with the shuffle replaced by a seeded
/// [`FeistelPerm`] so no per-party index vector is ever stored. Party
/// `p` owns a contiguous span of the permuted row sequence; its dataset
/// view is regenerated deterministically from `(partition seed, p)`
/// each time [`PartyProvider::materialize`] is called and dropped when
/// the engine's worker finishes with it.
///
/// Supports [`Strategy::Homogeneous`] and [`Strategy::NoiseFeatureSkew`]
/// (the per-party noise transform is a pure function of `(seed, p)` and
/// is applied at materialization, exactly as [`build_parties`] does).
/// Label-, quantity- and writer-skewed strategies need global
/// statistics — class inventories or Dirichlet draws over all parties —
/// and are refused with [`PartitionError::UnsupportedLazy`].
pub struct LazyPartition {
    train: Arc<Dataset>,
    n_parties: usize,
    strategy: Strategy,
    seed: u64,
    perm: FeistelPerm,
}

impl LazyPartition {
    /// Build a lazy partition of `train` into `n_parties` silos. O(1) in
    /// `n_parties`: nothing is assigned until a party is materialized.
    pub fn new(
        train: Arc<Dataset>,
        n_parties: usize,
        strategy: Strategy,
        seed: u64,
    ) -> Result<Self, PartitionError> {
        if n_parties == 0 {
            return Err(PartitionError::NoParties);
        }
        let n = train.len();
        if n < n_parties {
            return Err(PartitionError::NotEnoughData {
                message: format!("{n} samples for {n_parties} parties"),
            });
        }
        match strategy {
            Strategy::Homogeneous => {}
            Strategy::NoiseFeatureSkew { sigma } => {
                if !(sigma.is_finite() && sigma >= 0.0) {
                    return Err(PartitionError::BadParameter {
                        message: format!("noise sigma must be non-negative, got {sigma}"),
                    });
                }
            }
            other => {
                return Err(PartitionError::UnsupportedLazy {
                    strategy: other.label(),
                });
            }
        }
        let perm = FeistelPerm::new(n, derive_seed(seed, 0x1A2F));
        Ok(Self {
            train,
            n_parties,
            strategy,
            seed,
            perm,
        })
    }

    /// `(start, len)` of party `p`'s span in the permuted row sequence —
    /// the same near-even split [`split_even`] produces for the resident
    /// path: the first `n % N` parties take one extra row.
    fn span(&self, p: usize) -> (usize, usize) {
        let n = self.train.len();
        let base = n / self.n_parties;
        let extra = n % self.n_parties;
        let start = p * base + p.min(extra);
        (start, base + usize::from(p < extra))
    }

    /// Party `p`'s training-set row indices, regenerated on demand.
    pub fn party_rows(&self, p: usize) -> Vec<usize> {
        assert!(p < self.n_parties, "party {p} of {}", self.n_parties);
        let (start, len) = self.span(p);
        (start..start + len)
            .map(|i| self.perm.permute(i as u64) as usize)
            .collect()
    }
}

impl PartyProvider for LazyPartition {
    fn n_parties(&self) -> usize {
        self.n_parties
    }

    fn num_samples(&self, id: usize) -> usize {
        self.span(id).1
    }

    fn input_shape(&self) -> &[usize] {
        &self.train.input_shape
    }

    fn num_classes(&self) -> usize {
        self.train.num_classes
    }

    fn materialize(&self, id: usize) -> Party {
        let rows = self.party_rows(id);
        party_from_rows(
            &self.train,
            &rows,
            self.strategy,
            id,
            self.n_parties,
            self.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_data::{generate, generate_fcube, DatasetId, GenConfig};
    use niid_tensor::Tensor;

    fn labelled_dataset(n: usize, classes: usize, seed: u64) -> Dataset {
        let mut rng = Pcg64::new(seed);
        let features = Tensor::rand_uniform(&[n, 4], -1.0, 1.0, &mut rng);
        let labels = (0..n).map(|i| i % classes).collect();
        Dataset::new("lab", features, labels, classes, vec![4], None)
    }

    #[test]
    fn dirichlet_min_required_matches_documented_formula() {
        // min(10, n / (10·N)) + 1, truncating division.
        assert_eq!(dirichlet_min_required(1000, 10), 11, "cap engaged exactly");
        assert_eq!(dirichlet_min_required(999, 10), 10, "just below the cap");
        assert_eq!(
            dirichlet_min_required(50, 10),
            1,
            "tiny data: threshold floors at one sample"
        );
        assert_eq!(dirichlet_min_required(100_000, 10), 11, "cap saturates");
        assert_eq!(dirichlet_min_required(200, 10), 3);
    }

    #[test]
    fn homogeneous_is_even_and_complete() {
        let d = labelled_dataset(103, 5, 1);
        let p = partition(&d, 10, Strategy::Homogeneous, 2).unwrap();
        assert_eq!(p.num_parties(), 10);
        assert_eq!(p.assigned_count(), 103);
        let sizes = p.sizes();
        assert_eq!(
            *sizes.iter().max().unwrap() - *sizes.iter().min().unwrap(),
            1
        );
    }

    #[test]
    fn quantity_label_skew_gives_exactly_k_labels() {
        let d = labelled_dataset(500, 10, 3);
        for k in [1usize, 2, 3] {
            let p = partition(&d, 10, Strategy::QuantityLabelSkew { k }, 4).unwrap();
            for (id, rows) in p.assignments.iter().enumerate() {
                let mut labels: Vec<usize> = rows.iter().map(|&i| d.labels[i]).collect();
                labels.sort_unstable();
                labels.dedup();
                assert!(
                    labels.len() <= k && !labels.is_empty(),
                    "#C={k}: party {id} has labels {labels:?}"
                );
            }
            // With parties >= classes everything is assigned.
            assert_eq!(p.assigned_count(), 500, "#C={k} dropped samples");
        }
    }

    #[test]
    fn quantity_label_skew_k1_single_class_parties() {
        let d = labelled_dataset(200, 10, 5);
        let p = partition(&d, 10, Strategy::QuantityLabelSkew { k: 1 }, 6).unwrap();
        for rows in &p.assignments {
            let first = d.labels[rows[0]];
            assert!(rows.iter().all(|&i| d.labels[i] == first));
        }
    }

    #[test]
    fn quantity_label_skew_rejects_bad_k() {
        let d = labelled_dataset(100, 4, 7);
        assert!(matches!(
            partition(&d, 5, Strategy::QuantityLabelSkew { k: 0 }, 8),
            Err(PartitionError::BadLabelCount { .. })
        ));
        assert!(matches!(
            partition(&d, 5, Strategy::QuantityLabelSkew { k: 5 }, 8),
            Err(PartitionError::BadLabelCount { .. })
        ));
    }

    #[test]
    fn dirichlet_label_skew_covers_everything() {
        let d = labelled_dataset(1000, 10, 9);
        let p = partition(&d, 10, Strategy::DirichletLabelSkew { beta: 0.5 }, 10).unwrap();
        assert_eq!(p.assigned_count(), 1000);
        assert!(
            p.sizes().iter().all(|&s| s > 0),
            "empty party: {:?}",
            p.sizes()
        );
    }

    #[test]
    fn smaller_beta_skews_labels_more() {
        let d = labelled_dataset(4000, 10, 11);
        let skew_of = |beta: f64| -> f64 {
            let p = partition(&d, 10, Strategy::DirichletLabelSkew { beta }, 12).unwrap();
            // Mean (over parties) max label share.
            p.assignments
                .iter()
                .map(|rows| {
                    let mut h = [0usize; 10];
                    for &i in rows {
                        h[d.labels[i]] += 1;
                    }
                    *h.iter().max().unwrap() as f64 / rows.len().max(1) as f64
                })
                .sum::<f64>()
                / 10.0
        };
        let tight = skew_of(100.0);
        let loose = skew_of(0.1);
        assert!(
            loose > tight + 0.2,
            "Dir(0.1) should be much more label-skewed than Dir(100): {loose} vs {tight}"
        );
    }

    #[test]
    fn quantity_skew_sizes_vary_with_beta() {
        let d = labelled_dataset(2000, 2, 13);
        let gini_of = |beta: f64| {
            let p = partition(&d, 10, Strategy::QuantitySkew { beta }, 14).unwrap();
            assert_eq!(p.assigned_count(), 2000);
            let sizes: Vec<f64> = p.sizes().iter().map(|&s| s as f64).collect();
            niid_stats::gini(&sizes)
        };
        assert!(gini_of(0.2) > gini_of(50.0) + 0.1);
    }

    #[test]
    fn fcube_partition_octant_symmetric() {
        let split = generate_fcube(2000, 100, 15);
        let p = partition(&split.train, 4, Strategy::FcubeSynthetic, 16).unwrap();
        assert_eq!(p.assigned_count(), 2000);
        for (party, rows) in p.assignments.iter().enumerate() {
            let mut octants: Vec<usize> = rows
                .iter()
                .map(|&i| fcube_octant(split.train.features.row(i)))
                .collect();
            octants.sort_unstable();
            octants.dedup();
            assert_eq!(octants, vec![party, 7 - party], "party {party}");
            // Labels stay balanced within each party.
            let ones = rows.iter().filter(|&&i| split.train.labels[i] == 1).count();
            let frac = ones as f64 / rows.len() as f64;
            assert!(
                (frac - 0.5).abs() < 0.1,
                "party {party} label fraction {frac}"
            );
        }
    }

    #[test]
    fn fcube_partition_validates_shape() {
        let split = generate_fcube(100, 10, 17);
        assert!(matches!(
            partition(&split.train, 5, Strategy::FcubeSynthetic, 18),
            Err(PartitionError::FcubeShape { .. })
        ));
        let d = labelled_dataset(100, 2, 19);
        assert!(matches!(
            partition(&d, 4, Strategy::FcubeSynthetic, 18),
            Err(PartitionError::FcubeShape { .. })
        ));
    }

    #[test]
    fn by_writer_keeps_writers_whole() {
        let cfg = GenConfig::tiny(20);
        let split = generate(DatasetId::Femnist, &cfg);
        let p = partition(&split.train, 4, Strategy::ByWriter, 21).unwrap();
        assert_eq!(p.assigned_count(), split.train.len());
        let wids = split.train.writer_ids.as_ref().unwrap();
        // No writer spans two parties.
        let mut owner: std::collections::HashMap<u32, usize> = Default::default();
        for (party, rows) in p.assignments.iter().enumerate() {
            for &r in rows {
                let w = wids[r];
                let prev = owner.insert(w, party);
                assert!(prev.is_none() || prev == Some(party), "writer {w} split");
            }
        }
    }

    #[test]
    fn by_writer_requires_writer_ids() {
        let d = labelled_dataset(100, 2, 22);
        assert!(matches!(
            partition(&d, 4, Strategy::ByWriter, 23),
            Err(PartitionError::NeedsWriterIds)
        ));
    }

    #[test]
    fn partitions_are_deterministic() {
        let d = labelled_dataset(300, 10, 24);
        let s = Strategy::DirichletLabelSkew { beta: 0.5 };
        assert_eq!(
            partition(&d, 10, s, 25).unwrap(),
            partition(&d, 10, s, 25).unwrap()
        );
        assert_ne!(
            partition(&d, 10, s, 25).unwrap(),
            partition(&d, 10, s, 26).unwrap()
        );
    }

    #[test]
    fn build_parties_applies_increasing_noise() {
        let d = labelled_dataset(400, 2, 27);
        let p = partition(&d, 4, Strategy::NoiseFeatureSkew { sigma: 1.0 }, 28).unwrap();
        let parties = build_parties(&d, &p, 29);
        assert_eq!(parties.len(), 4);
        // Feature variance increases with party index (variance grows
        // roughly as data variance + σ·(i+1)/N).
        let var_of = |party: &Party| -> f64 {
            let vals = party.data.features.as_slice();
            let mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
            vals.iter()
                .map(|&v| (v as f64 - mean) * (v as f64 - mean))
                .sum::<f64>()
                / vals.len() as f64
        };
        let v0 = var_of(&parties[0]);
        let v3 = var_of(&parties[3]);
        assert!(
            v3 > v0 + 0.4,
            "last party should be much noisier: {v0} vs {v3}"
        );
    }

    #[test]
    fn build_parties_no_transform_for_other_strategies() {
        let d = labelled_dataset(100, 2, 30);
        let p = partition(&d, 4, Strategy::Homogeneous, 31).unwrap();
        let parties = build_parties(&d, &p, 32);
        // Rows must match the source exactly.
        let first_row_idx = p.assignments[0][0];
        assert_eq!(
            parties[0].data.features.row(0),
            d.features.row(first_row_idx)
        );
    }

    #[test]
    fn strategy_labels_match_paper_notation() {
        assert_eq!(Strategy::QuantityLabelSkew { k: 2 }.label(), "#C=2");
        assert_eq!(
            Strategy::DirichletLabelSkew { beta: 0.5 }.label(),
            "p_k~Dir(0.5)"
        );
        assert_eq!(Strategy::QuantitySkew { beta: 0.5 }.label(), "q~Dir(0.5)");
    }

    #[test]
    fn many_parties_small_data_never_yields_empty_party() {
        // Regression: q~Dir(0.5) with 100 parties over 2000 samples used to
        // leave parties empty (tail Dirichlet shares round to zero), which
        // the federated engine rejects.
        let d = labelled_dataset(2000, 10, 40);
        for strategy in [
            Strategy::QuantitySkew { beta: 0.5 },
            Strategy::DirichletLabelSkew { beta: 0.5 },
        ] {
            for seed in 0..5 {
                let p = partition(&d, 100, strategy, seed).unwrap();
                assert!(
                    p.sizes().iter().all(|&s| s > 0),
                    "{} seed {seed}: {:?}",
                    strategy.label(),
                    p.sizes()
                );
                assert_eq!(p.assigned_count(), 2000);
            }
        }
    }

    #[test]
    fn feistel_perm_is_a_bijection_on_awkward_domains() {
        // Powers of two, one above/below, tiny, and prime-ish sizes.
        for n in [1usize, 2, 3, 4, 5, 63, 64, 65, 1000, 4096, 4097] {
            for seed in [0u64, 7, 0xDEAD] {
                let perm = FeistelPerm::new(n, seed);
                let mut seen = vec![false; n];
                for i in 0..n {
                    let y = perm.permute(i as u64) as usize;
                    assert!(y < n, "n={n} seed={seed}: {i} -> {y} out of range");
                    assert!(!seen[y], "n={n} seed={seed}: {y} hit twice");
                    seen[y] = true;
                }
            }
        }
    }

    #[test]
    fn lazy_partition_covers_every_row_exactly_once() {
        let d = Arc::new(labelled_dataset(1003, 5, 50));
        let lazy = LazyPartition::new(Arc::clone(&d), 10, Strategy::Homogeneous, 51).unwrap();
        let mut seen = vec![false; 1003];
        let mut sizes = Vec::new();
        for p in 0..10 {
            let rows = lazy.party_rows(p);
            assert_eq!(rows.len(), lazy.num_samples(p), "span vs rows, party {p}");
            sizes.push(rows.len());
            for r in rows {
                assert!(!seen[r], "row {r} owned twice");
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "unassigned rows");
        // Near-even split, larger parties first — same shape split_even
        // gives the resident path.
        assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
        assert!(sizes[0] >= sizes[9]);
    }

    #[test]
    fn lazy_partition_materialization_is_deterministic() {
        let d = Arc::new(labelled_dataset(400, 2, 52));
        let lazy = LazyPartition::new(
            Arc::clone(&d),
            8,
            Strategy::NoiseFeatureSkew { sigma: 0.5 },
            53,
        )
        .unwrap();
        let a = lazy.materialize(3);
        let b = lazy.materialize(3);
        assert_eq!(a.data.features.as_slice(), b.data.features.as_slice());
        assert_eq!(a.data.labels, b.data.labels);
        // Noise schedule matches build_parties: later parties noisier.
        let var_of = |p: &Party| -> f64 {
            let vals = p.data.features.as_slice();
            let mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
            vals.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / vals.len() as f64
        };
        assert!(var_of(&lazy.materialize(7)) > var_of(&lazy.materialize(0)) + 0.1);
    }

    #[test]
    fn lazy_partition_refuses_global_statistics_strategies() {
        let d = Arc::new(labelled_dataset(100, 5, 54));
        for strategy in [
            Strategy::DirichletLabelSkew { beta: 0.5 },
            Strategy::QuantityLabelSkew { k: 2 },
            Strategy::QuantitySkew { beta: 0.5 },
            Strategy::ByWriter,
            Strategy::FcubeSynthetic,
        ] {
            assert!(matches!(
                LazyPartition::new(Arc::clone(&d), 4, strategy, 55),
                Err(PartitionError::UnsupportedLazy { .. })
            ));
        }
        assert!(matches!(
            LazyPartition::new(Arc::clone(&d), 0, Strategy::Homogeneous, 55),
            Err(PartitionError::NoParties)
        ));
        assert!(matches!(
            LazyPartition::new(d, 101, Strategy::Homogeneous, 55),
            Err(PartitionError::NotEnoughData { .. })
        ));
    }

    #[test]
    fn not_enough_samples_is_an_error() {
        let d = labelled_dataset(3, 2, 33);
        assert!(matches!(
            partition(&d, 10, Strategy::Homogeneous, 34),
            Err(PartitionError::NotEnoughData { .. })
        ));
    }
}
