//! Feature-space transforms applied per party.
//!
//! The noise-based feature imbalance strategy (§4.2) adds Gaussian noise of
//! a *party-specific* level to each party's local data:
//! `x̂ ~ Gau(σ · i/N)` for party `Pᵢ`. The partitioner in `niid-core`
//! decides the level; this module performs the deterministic application.

use crate::dataset::Dataset;
use niid_stats::{sample_standard_normal_ziggurat, Pcg64};

/// Add zero-mean Gaussian noise of the given **variance** (the paper
/// parameterizes noise by variance) to every feature of `data`, in place,
/// and hand it back. `variance == 0` returns `data` untouched.
///
/// The draws come from the ziggurat sampler
/// ([`sample_standard_normal_ziggurat`]): the noise on feature `j` is a
/// pure function of `(seed, j)`, so the resident and on-demand party
/// paths, which both call this, stay bit-identical.
pub fn add_gaussian_noise(mut data: Dataset, variance: f64, seed: u64) -> Dataset {
    assert!(
        variance.is_finite() && variance >= 0.0,
        "add_gaussian_noise: bad variance {variance}"
    );
    if variance == 0.0 {
        return data;
    }
    let mut rng = Pcg64::new(seed);
    let sd = variance.sqrt();
    for v in data.features.as_mut_slice() {
        *v += (sd * sample_standard_normal_ziggurat(&mut rng)) as f32;
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_tensor::Tensor;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            Tensor::zeros(&[100, 20]),
            vec![0; 100]
                .iter()
                .enumerate()
                .map(|(i, _)| i % 2)
                .collect(),
            2,
            vec![20],
            None,
        )
    }

    #[test]
    fn zero_variance_is_identity() {
        let d = toy();
        let out = add_gaussian_noise(d.clone(), 0.0, 1);
        assert_eq!(out.features.as_slice(), d.features.as_slice());
    }

    #[test]
    fn noise_has_requested_variance() {
        let d = toy();
        let out = add_gaussian_noise(d.clone(), 0.25, 2);
        let vals = out.features.as_slice();
        let mean: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
        let var: f64 = vals
            .iter()
            .map(|&v| (v as f64 - mean) * (v as f64 - mean))
            .sum::<f64>()
            / vals.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 0.25).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn labels_and_shape_preserved() {
        let d = toy();
        let out = add_gaussian_noise(d.clone(), 0.1, 3);
        assert_eq!(out.labels, d.labels);
        assert_eq!(out.input_shape, d.input_shape);
        assert_eq!(out.features.shape(), d.features.shape());
    }

    #[test]
    fn deterministic_per_seed() {
        let d = toy();
        let a = add_gaussian_noise(d.clone(), 0.1, 4);
        let b = add_gaussian_noise(d.clone(), 0.1, 4);
        let c = add_gaussian_noise(d.clone(), 0.1, 5);
        assert_eq!(a.features.as_slice(), b.features.as_slice());
        assert_ne!(a.features.as_slice(), c.features.as_slice());
    }
}
