//! Synthetic image-classification tasks.
//!
//! Each class is a mixture of `modes` smooth prototype images; a sample is
//! one of its class's prototypes plus smooth within-class deformation and
//! i.i.d. pixel noise. Prototypes are built from low-resolution Gaussian
//! grids bilinearly upsampled to the target side, so a convolutional model
//! has genuine local structure to exploit (plain pixel-noise classes would
//! make conv layers pointless).
//!
//! Difficulty is controlled by [`ImageTaskSpec`]: more modes, lower class
//! separation and higher noise make the task harder (the CIFAR-10 profile),
//! fewer modes and clean prototypes make it easy (the MNIST profile). This
//! preserves the paper's cross-dataset difficulty ordering.

use crate::dataset::Dataset;
use crate::rows::{fill_rows, RowGen};
use niid_stats::{sample_standard_normal, Pcg64, STANDARD_NORMAL_DRAWS};
use niid_tensor::Tensor;

/// Coarse grid side of the smooth per-sample deformation field.
const DEFORM_GRID: usize = 3;

/// Difficulty/shape profile of a synthetic image task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageTaskSpec {
    /// Image channels (1 = grayscale, 3 = color).
    pub channels: usize,
    /// Image side length.
    pub side: usize,
    /// Number of classes.
    pub classes: usize,
    /// Prototype modes per class (within-class multi-modality).
    pub modes: usize,
    /// Fraction of prototype energy that is class-specific (0..=1);
    /// the rest is shared across classes (lower = harder).
    pub class_separation: f32,
    /// Std of i.i.d. pixel noise added to each sample.
    pub pixel_noise: f32,
    /// Std of the smooth per-sample deformation field.
    pub deformation: f32,
    /// Probability a sample's label is replaced by a uniform random class.
    /// Sets the task's Bayes-error ceiling: best achievable accuracy is
    /// `(1 - p) + p/classes`, which is how the generator pins each
    /// dataset's centralized-accuracy profile (e.g. CIFAR-10's ~70%).
    pub label_noise: f32,
}

impl ImageTaskSpec {
    /// Flattened feature dimension.
    pub fn dim(&self) -> usize {
        self.channels * self.side * self.side
    }
}

/// A frozen generator for one image task: prototypes are sampled once from
/// the dataset seed, then train and test sets are drawn from the same
/// distribution.
pub struct ImageTask {
    spec: ImageTaskSpec,
    /// `[classes * modes]` prototype images, each `dim` long.
    prototypes: Vec<Vec<f32>>,
}

/// Generate a smooth pattern: a `grid x grid` standard-normal field
/// bilinearly upsampled to `side x side`, one plane per channel.
pub fn smooth_pattern(channels: usize, side: usize, grid: usize, rng: &mut Pcg64) -> Vec<f32> {
    assert!(grid >= 2, "smooth_pattern: grid must be >= 2");
    let mut out = Vec::with_capacity(channels * side * side);
    for _ in 0..channels {
        let coarse: Vec<f32> = (0..grid * grid)
            .map(|_| sample_standard_normal(rng) as f32)
            .collect();
        for y in 0..side {
            // Map pixel to coarse coordinates in [0, grid-1].
            let fy = y as f32 / (side - 1).max(1) as f32 * (grid - 1) as f32;
            let y0 = (fy as usize).min(grid - 2);
            let ty = fy - y0 as f32;
            for x in 0..side {
                let fx = x as f32 / (side - 1).max(1) as f32 * (grid - 1) as f32;
                let x0 = (fx as usize).min(grid - 2);
                let tx = fx - x0 as f32;
                let c00 = coarse[y0 * grid + x0];
                let c01 = coarse[y0 * grid + x0 + 1];
                let c10 = coarse[(y0 + 1) * grid + x0];
                let c11 = coarse[(y0 + 1) * grid + x0 + 1];
                let v = c00 * (1.0 - ty) * (1.0 - tx)
                    + c01 * (1.0 - ty) * tx
                    + c10 * ty * (1.0 - tx)
                    + c11 * ty * tx;
                out.push(v);
            }
        }
    }
    out
}

impl ImageTask {
    /// Freeze the prototypes for a task from `seed`.
    pub fn new(spec: ImageTaskSpec, seed: u64) -> Self {
        assert!(spec.classes >= 2, "ImageTask: need >= 2 classes");
        assert!(spec.modes >= 1, "ImageTask: need >= 1 mode");
        assert!(
            (0.0..=1.0).contains(&spec.class_separation),
            "ImageTask: class_separation outside [0,1]"
        );
        let mut rng = Pcg64::new(seed);
        // Shared component: common to all classes; weight (1 - sep).
        let shared: Vec<Vec<f32>> = (0..spec.modes)
            .map(|_| smooth_pattern(spec.channels, spec.side, 4, &mut rng))
            .collect();
        let sep = spec.class_separation.sqrt();
        let inv_sep = (1.0 - spec.class_separation).sqrt();
        let mut prototypes = Vec::with_capacity(spec.classes * spec.modes);
        for _class in 0..spec.classes {
            for shared_mode in &shared {
                let class_part = smooth_pattern(spec.channels, spec.side, 4, &mut rng);
                let proto: Vec<f32> = class_part
                    .iter()
                    .zip(shared_mode)
                    .map(|(&c, &s)| sep * c + inv_sep * s)
                    .collect();
                prototypes.push(proto);
            }
        }
        Self { spec, prototypes }
    }

    /// The task's spec.
    pub fn spec(&self) -> &ImageTaskSpec {
        &self.spec
    }

    /// Draw `n` samples with (approximately) balanced classes, filled in
    /// chunks on the kernel pool; the bits are those of the sequential row
    /// loop at any thread count.
    pub fn sample(&self, n: usize, name: &str, rng: &mut Pcg64) -> Dataset {
        let spec = &self.spec;
        let mut labels: Vec<usize> = (0..n).map(|i| i % spec.classes).collect();
        rng.shuffle(&mut labels);
        let features = fill_rows(self, &mut labels, rng);
        Dataset::new(
            name,
            Tensor::from_vec(features, &[n, spec.dim()]),
            labels,
            spec.classes,
            vec![spec.channels, spec.side, spec.side],
            None,
        )
    }

    /// The label-noise draws of one row: `label` is replaced by a uniform
    /// class with probability `label_noise`.
    fn corrupt_label(&self, rng: &mut Pcg64, label: &mut usize) {
        if self.spec.label_noise > 0.0 && rng.next_f32() < self.spec.label_noise {
            *label = rng.next_below(self.spec.classes);
        }
    }
}

impl RowGen for ImageTask {
    fn dim(&self) -> usize {
        self.spec.dim()
    }

    /// `label` comes in as the row's true class: features are always
    /// drawn from it, then the label may be corrupted, creating
    /// irreducible error.
    fn fill(&self, rng: &mut Pcg64, row: &mut [f32], label: &mut usize) {
        let spec = &self.spec;
        let mode = rng.next_below(spec.modes);
        let proto = &self.prototypes[*label * spec.modes + mode];
        let deform = smooth_pattern(spec.channels, spec.side, DEFORM_GRID, rng);
        for ((v, &p), &d) in row.iter_mut().zip(proto).zip(&deform) {
            let noise = sample_standard_normal(rng) as f32 * spec.pixel_noise;
            *v = p + spec.deformation * d + noise;
        }
        self.corrupt_label(rng, label);
    }

    /// Evaluates the draws whose count varies (the mode pick and the label
    /// noise) and jumps the deformation grid's and the pixels' normals.
    fn skip(&self, rng: &mut Pcg64, rows: usize) {
        let spec = &self.spec;
        let normals = (spec.channels * DEFORM_GRID * DEFORM_GRID + spec.dim()) as u64;
        let mut label = 0;
        for _ in 0..rows {
            rng.next_below(spec.modes);
            rng.advance(normals * STANDARD_NORMAL_DRAWS);
            self.corrupt_label(rng, &mut label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn easy_spec(side: usize) -> ImageTaskSpec {
        ImageTaskSpec {
            channels: 1,
            side,
            classes: 4,
            modes: 1,
            class_separation: 0.95,
            pixel_noise: 0.2,
            deformation: 0.1,
            label_noise: 0.0,
        }
    }

    #[test]
    fn smooth_pattern_shape_and_smoothness() {
        let mut rng = Pcg64::new(60);
        let p = smooth_pattern(2, 16, 4, &mut rng);
        assert_eq!(p.len(), 2 * 16 * 16);
        // Smoothness: neighbouring pixels correlate — mean |diff| between
        // horizontal neighbours is well below the std of the field.
        let mut diff = 0.0f32;
        let mut count = 0usize;
        for y in 0..16 {
            for x in 0..15 {
                diff += (p[y * 16 + x] - p[y * 16 + x + 1]).abs();
                count += 1;
            }
        }
        let mean_diff = diff / count as f32;
        assert!(
            mean_diff < 0.5,
            "pattern not smooth: mean |diff| {mean_diff}"
        );
    }

    #[test]
    fn sample_shapes_and_balance() {
        let task = ImageTask::new(easy_spec(16), 1);
        let mut rng = Pcg64::new(2);
        let d = task.sample(100, "img", &mut rng);
        assert_eq!(d.len(), 100);
        assert_eq!(d.dim(), 256);
        assert_eq!(d.input_shape, vec![1, 16, 16]);
        let hist = d.label_histogram();
        assert_eq!(hist, vec![25, 25, 25, 25]);
    }

    #[test]
    fn same_seed_same_prototypes_different_draws() {
        let t1 = ImageTask::new(easy_spec(16), 7);
        let t2 = ImageTask::new(easy_spec(16), 7);
        let mut ra = Pcg64::new(1);
        let mut rb = Pcg64::new(1);
        let a = t1.sample(10, "a", &mut ra);
        let b = t2.sample(10, "b", &mut rb);
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        let mut rc = Pcg64::new(2);
        let c = t1.sample(10, "c", &mut rc);
        assert_ne!(a.features.as_slice(), c.features.as_slice());
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // Sanity check that the generative story actually encodes labels:
        // classify test samples by nearest class prototype; on the easy
        // profile this should be nearly perfect.
        let spec = easy_spec(16);
        let task = ImageTask::new(spec, 3);
        let mut rng = Pcg64::new(4);
        let d = task.sample(200, "sep", &mut rng);
        let mut correct = 0usize;
        for i in 0..d.len() {
            let row = d.features.row(i);
            let mut best = (f32::INFINITY, 0usize);
            for k in 0..spec.classes {
                let proto = &task.prototypes[k * spec.modes];
                let dist: f32 = row.iter().zip(proto).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best.0 {
                    best = (dist, k);
                }
            }
            if best.1 == d.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.len() as f64;
        assert!(acc > 0.95, "nearest-prototype accuracy {acc}");
    }

    #[test]
    fn lower_separation_is_harder() {
        let hard_spec = ImageTaskSpec {
            class_separation: 0.05,
            pixel_noise: 1.0,
            modes: 3,
            ..easy_spec(16)
        };
        // Same nearest-prototype probe: accuracy should drop markedly.
        let acc = |spec: ImageTaskSpec| -> f64 {
            let task = ImageTask::new(spec, 5);
            let mut rng = Pcg64::new(6);
            let d = task.sample(200, "probe", &mut rng);
            let mut correct = 0;
            for i in 0..d.len() {
                let row = d.features.row(i);
                let mut best = (f32::INFINITY, 0usize);
                for k in 0..spec.classes {
                    for m in 0..spec.modes {
                        let proto = &task.prototypes[k * spec.modes + m];
                        let dist: f32 = row.iter().zip(proto).map(|(a, b)| (a - b) * (a - b)).sum();
                        if dist < best.0 {
                            best = (dist, k);
                        }
                    }
                }
                if best.1 == d.labels[i] {
                    correct += 1;
                }
            }
            correct as f64 / d.len() as f64
        };
        let easy = acc(easy_spec(16));
        let hard = acc(hard_spec);
        assert!(
            easy > hard + 0.1,
            "difficulty knob inert: easy {easy} vs hard {hard}"
        );
    }
}
