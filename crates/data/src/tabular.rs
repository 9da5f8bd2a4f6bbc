//! Synthetic tabular (binary-classification) tasks.
//!
//! A frozen random "teacher" defines each task: a linear score plus sparse
//! pairwise interactions, thresholded with margin noise. Knobs mirror the
//! paper's three tabular datasets:
//!
//! * **adult** — moderately non-linear, strong class imbalance (~76/24,
//!   matching the real adult income split; this is what makes the paper's
//!   `#C = 1` adult cells collapse to 76.4% / 23.6%, the majority and
//!   minority base rates),
//! * **rcv1** — very high-dimensional and sparse, nearly balanced,
//! * **covtype** — dense, strongly non-linear (interaction-dominated).

use crate::dataset::Dataset;
use crate::rows::{fill_rows, RowGen};
use niid_stats::{sample_standard_normal, Pcg64, STANDARD_NORMAL_DRAWS};
use niid_tensor::Tensor;

/// Configuration of a synthetic tabular task.
#[derive(Debug, Clone, PartialEq)]
pub struct TabularTaskSpec {
    /// Feature dimension.
    pub dim: usize,
    /// Probability a feature value is zeroed (sparse datasets like rcv1).
    pub sparsity: f32,
    /// Number of pairwise interaction terms in the teacher.
    pub interactions: usize,
    /// Relative weight of interactions vs the linear part (0 = linear).
    pub interaction_weight: f32,
    /// Teacher score threshold shift; positive values make class 0 the
    /// majority (class imbalance).
    pub bias: f32,
    /// Std of the margin noise added before thresholding (label noise).
    pub margin_noise: f32,
}

/// A frozen teacher for one tabular task.
pub struct TabularTask {
    spec: TabularTaskSpec,
    weights: Vec<f32>,
    pairs: Vec<(u32, u32, f32)>,
}

impl TabularTask {
    /// Freeze a teacher from `seed`.
    pub fn new(spec: TabularTaskSpec, seed: u64) -> Self {
        assert!(spec.dim >= 2, "TabularTask: dim must be >= 2");
        assert!(
            (0.0..1.0).contains(&spec.sparsity),
            "TabularTask: sparsity outside [0,1)"
        );
        let mut rng = Pcg64::new(seed);
        // Normalize the linear part so the score scale is O(1) regardless
        // of dim and sparsity (keeps `bias` meaning stable across dims).
        let scale = (1.0 / (spec.dim as f32 * (1.0 - spec.sparsity))).sqrt();
        let weights = (0..spec.dim)
            .map(|_| sample_standard_normal(&mut rng) as f32 * scale)
            .collect();
        let pairs = (0..spec.interactions)
            .map(|_| {
                let i = rng.next_below(spec.dim) as u32;
                let j = rng.next_below(spec.dim) as u32;
                let c = sample_standard_normal(&mut rng) as f32;
                (i, j, c)
            })
            .collect();
        Self {
            spec,
            weights,
            pairs,
        }
    }

    /// The task's spec.
    pub fn spec(&self) -> &TabularTaskSpec {
        &self.spec
    }

    fn score(&self, x: &[f32]) -> f32 {
        let linear: f32 = self.weights.iter().zip(x).map(|(w, v)| w * v).sum();
        if self.pairs.is_empty() || self.spec.interaction_weight == 0.0 {
            return linear;
        }
        let norm = (self.pairs.len() as f32).sqrt();
        let inter: f32 = self
            .pairs
            .iter()
            .map(|&(i, j, c)| c * x[i as usize] * x[j as usize])
            .sum::<f32>()
            / norm;
        (1.0 - self.spec.interaction_weight) * linear + self.spec.interaction_weight * inter
    }

    /// Draw `n` samples, filled in chunks on the kernel pool; the bits
    /// are those of the sequential row loop at any thread count.
    pub fn sample(&self, n: usize, name: &str, rng: &mut Pcg64) -> Dataset {
        let dim = self.spec.dim;
        let mut labels = vec![0; n];
        let features = fill_rows(self, &mut labels, rng);
        Dataset::new(
            name,
            Tensor::from_vec(features, &[n, dim]),
            labels,
            2,
            vec![dim],
            None,
        )
    }
}

impl RowGen for TabularTask {
    fn dim(&self) -> usize {
        self.spec.dim
    }

    fn fill(&self, rng: &mut Pcg64, row: &mut [f32], label: &mut usize) {
        let spec = &self.spec;
        for v in row.iter_mut() {
            let keep = rng.next_f32() >= spec.sparsity;
            *v = if keep {
                sample_standard_normal(rng) as f32
            } else {
                0.0
            };
        }
        let s = self.score(row) + sample_standard_normal(rng) as f32 * spec.margin_noise;
        *label = usize::from(s > spec.bias);
    }

    /// A dense row is always `dim` keep draws, `dim` normals and the
    /// margin normal, so `rows` rows are one jump; a sparse row evaluates
    /// its keep draws and jumps the normal of each kept feature.
    fn skip(&self, rng: &mut Pcg64, rows: usize) {
        let spec = &self.spec;
        if spec.sparsity == 0.0 {
            let per_row = (1 + STANDARD_NORMAL_DRAWS) * spec.dim as u64 + STANDARD_NORMAL_DRAWS;
            rng.advance(per_row.wrapping_mul(rows as u64));
            return;
        }
        for _ in 0..rows {
            for _ in 0..spec.dim {
                if rng.next_f32() >= spec.sparsity {
                    rng.advance(STANDARD_NORMAL_DRAWS);
                }
            }
            rng.advance(STANDARD_NORMAL_DRAWS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> TabularTaskSpec {
        TabularTaskSpec {
            dim: 30,
            sparsity: 0.0,
            interactions: 0,
            interaction_weight: 0.0,
            bias: 0.0,
            margin_noise: 0.05,
        }
    }

    #[test]
    fn balanced_when_unbiased() {
        let task = TabularTask::new(base_spec(), 1);
        let mut rng = Pcg64::new(2);
        let d = task.sample(4000, "t", &mut rng);
        let h = d.label_histogram();
        let frac = h[1] as f64 / d.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "class-1 fraction {frac}");
    }

    #[test]
    fn positive_bias_makes_class0_majority() {
        let spec = TabularTaskSpec {
            bias: 0.7,
            ..base_spec()
        };
        let task = TabularTask::new(spec, 3);
        let mut rng = Pcg64::new(4);
        let d = task.sample(4000, "t", &mut rng);
        let frac0 = d.label_histogram()[0] as f64 / d.len() as f64;
        assert!(frac0 > 0.65, "class-0 fraction {frac0}");
    }

    #[test]
    fn sparsity_zeroes_features() {
        let spec = TabularTaskSpec {
            sparsity: 0.9,
            ..base_spec()
        };
        let task = TabularTask::new(spec, 5);
        let mut rng = Pcg64::new(6);
        let d = task.sample(200, "sparse", &mut rng);
        let zeros = d.features.as_slice().iter().filter(|&&v| v == 0.0).count() as f64;
        let frac = zeros / d.features.numel() as f64;
        assert!((frac - 0.9).abs() < 0.03, "zero fraction {frac}");
    }

    #[test]
    fn linear_task_is_learnable_by_teacher_weights() {
        // The teacher's own linear weights must classify well (low margin
        // noise) — guarantees the dataset encodes its labels.
        let task = TabularTask::new(base_spec(), 7);
        let mut rng = Pcg64::new(8);
        let d = task.sample(1000, "lin", &mut rng);
        let mut correct = 0usize;
        for i in 0..d.len() {
            let s = task.score(d.features.row(i));
            if usize::from(s > 0.0) == d.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(acc > 0.9, "teacher accuracy {acc}");
    }

    #[test]
    fn interactions_defeat_linear_teacher() {
        // A fully interaction-driven task should NOT be explained by the
        // linear score alone — this is the covtype difficulty knob.
        let spec = TabularTaskSpec {
            interactions: 60,
            interaction_weight: 1.0,
            ..base_spec()
        };
        let task = TabularTask::new(spec, 9);
        let mut rng = Pcg64::new(10);
        let d = task.sample(1500, "nonlin", &mut rng);
        let mut correct = 0usize;
        for i in 0..d.len() {
            let x = d.features.row(i);
            let linear: f32 = task.weights.iter().zip(x).map(|(w, v)| w * v).sum();
            if usize::from(linear > 0.0) == d.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(
            acc < 0.62,
            "linear probe should fail on interaction task, got {acc}"
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let t1 = TabularTask::new(base_spec(), 42);
        let t2 = TabularTask::new(base_spec(), 42);
        let a = t1.sample(50, "a", &mut Pcg64::new(1));
        let b = t2.sample(50, "b", &mut Pcg64::new(1));
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        assert_eq!(a.labels, b.labels);
    }
}
