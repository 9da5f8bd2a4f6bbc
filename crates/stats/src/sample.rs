//! Samplers for the distributions NIID-Bench depends on.
//!
//! * [`Gaussian`] / [`sample_standard_normal`] — Box–Muller transform;
//!   drives the synthetic dataset generators, [`sample_gamma`] and
//!   `Tensor::randn`.
//! * [`sample_standard_normal_ziggurat`] — 256-layer ziggurat (Marsaglia &
//!   Tsang 2000); drives the noise-based feature-imbalance strategy
//!   (`x̂ ~ Gau(σ·i/N)`), the one caller hot enough to pay for its table.
//!
//!   The split is deliberate: both are exact N(0, 1) samplers, but each
//!   consumes the RNG stream differently, so moving a caller from one to
//!   the other changes every draw after it. The noise transform moved
//!   once, with its golden fixtures re-pinned (DESIGN.md §8); the
//!   generators stay on Box–Muller because moving them would change every
//!   dataset and every golden digest.
//! * [`sample_gamma`] — Marsaglia–Tsang squeeze method (with the Ahrens-Dieter
//!   boost for shape < 1), the building block for Dirichlet sampling.
//! * [`Dirichlet`] / [`sample_dirichlet`] — normalized Gamma draws; drives
//!   the distribution-based label imbalance (`p_k ~ Dir(β)`) and quantity
//!   skew (`q ~ Dir(β)`) strategies.
//! * [`sample_categorical`] — inverse-CDF draw from a weight vector.

use crate::rng::Pcg64;
use std::sync::OnceLock;

/// A Gaussian (normal) distribution with given mean and **variance**.
///
/// The paper specifies noise levels as variances (`Gau(σ·i/N)` is "a Gaussian
/// distribution with mean 0 and variance σ·i/N"), so this type is
/// parameterized by variance rather than standard deviation to match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean of the distribution.
    pub mean: f64,
    /// Variance of the distribution (must be non-negative).
    pub variance: f64,
}

impl Gaussian {
    /// Create a Gaussian with the given mean and variance.
    ///
    /// # Panics
    /// Panics if `variance` is negative or non-finite.
    pub fn new(mean: f64, variance: f64) -> Self {
        assert!(
            variance.is_finite() && variance >= 0.0,
            "Gaussian variance must be finite and non-negative, got {variance}"
        );
        Self { mean, variance }
    }

    /// Draw one sample.
    #[inline]
    pub fn sample(&self, rng: &mut Pcg64) -> f64 {
        self.mean + self.variance.sqrt() * sample_standard_normal(rng)
    }

    /// Fill `out` with independent samples.
    pub fn fill(&self, rng: &mut Pcg64, out: &mut [f64]) {
        for v in out {
            *v = self.sample(rng);
        }
    }
}

/// Raw 32-bit draws one [`sample_standard_normal`] consumes, always:
/// two `next_f64`s of two `next_u32`s each. A generator that skips
/// normals with [`Pcg64::advance`] jumps this many draws per normal.
pub const STANDARD_NORMAL_DRAWS: u64 = 4;

/// One standard-normal draw via the Box–Muller transform.
///
/// The second value of each Box–Muller pair is intentionally discarded,
/// which keeps the sampler stateless. Two `next_u64`s plus libm `ln` and
/// `cos` make this ~6× slower than [`sample_standard_normal_ziggurat`];
/// it stays the sampler of the dataset generators, [`sample_gamma`] and
/// `Tensor::randn` because their draws are bit-locked by every golden
/// digest (see the module docs for the split).
#[inline]
pub fn sample_standard_normal(rng: &mut Pcg64) -> f64 {
    // u1 in (0, 1] so the log is finite.
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Right edge of the 256-layer ziggurat's base layer.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer under the unnormalised density `e^{-x²/2}`:
/// `R·f(R) + ∫_R^∞ f`.
const ZIG_V: f64 = 4.928_673_233_974_658e-3;

/// The ziggurat's layer edges `x[0] > x[1] = R > … > x[256] = 0` and
/// the density at each, `f[i] = e^{-x[i]²/2}`. Layer `i` is the
/// rectangle `[0, x[i]] × [f[i], f[i+1]]`; layer 0's `x[0] = V/f(R)` is
/// the width that gives the base strip (rectangle plus tail) area `V`.
struct ZigTables {
    x: [f64; 257],
    f: [f64; 257],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        // x[256] stays 0: the top layer reaches the mode.
        ZigTables {
            x,
            f: x.map(density),
        }
    })
}

/// One standard-normal draw via a 256-layer ziggurat (Marsaglia & Tsang
/// 2000).
///
/// About 99 % of draws cost one `next_u64` and a compare: the low 8 bits
/// pick a layer and the top 53 bits a symmetric uniform across it. The
/// rest take the `exp` wedge test or, in the base layer, Marsaglia's
/// exponential tail beyond `R ≈ 3.6542`. Plain scalar code, so the bits
/// are the same on every SIMD arm and at any thread count.
///
/// This is the noise-skew transform's sampler (`niid_data::add_gaussian_noise`);
/// everything else draws from [`sample_standard_normal`] — the module
/// docs say why the two coexist.
#[inline]
pub fn sample_standard_normal_ziggurat(rng: &mut Pcg64) -> f64 {
    let t = zig_tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        // Top 53 bits → u in [-1, 1).
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if i == 0 {
            return zig_tail(rng, u < 0.0);
        }
        // Wedge: a uniform height in layer i against the density at x.
        let y = t.f[i] + (t.f[i + 1] - t.f[i]) * rng.next_f64();
        if y < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// Marsaglia's tail draw: `R + X` with `X` exponential, accepted with
/// probability `e^{-X²/2}`.
#[cold]
fn zig_tail(rng: &mut Pcg64, negative: bool) -> f64 {
    loop {
        // 1 − U in (0, 1] so the logs are finite.
        let x = -(1.0 - rng.next_f64()).ln() / ZIG_R;
        let y = -(1.0 - rng.next_f64()).ln();
        if 2.0 * y > x * x {
            return if negative { -(ZIG_R + x) } else { ZIG_R + x };
        }
    }
}

/// Sample from Gamma(shape, scale=1) with the Marsaglia–Tsang method.
///
/// For `shape >= 1` this is the classic squeeze algorithm; for `shape < 1`
/// (the regime that matters for strongly-skewed Dirichlet partitions like
/// `β = 0.1`) we use the boosting identity
/// `Gamma(a) = Gamma(a + 1) * U^(1/a)`.
///
/// # Panics
/// Panics if `shape` is not strictly positive and finite.
pub fn sample_gamma(rng: &mut Pcg64, shape: f64) -> f64 {
    assert!(
        shape.is_finite() && shape > 0.0,
        "Gamma shape must be positive and finite, got {shape}"
    );
    if shape < 1.0 {
        // Boost: draw from Gamma(shape + 1) and scale down.
        let g = sample_gamma(rng, shape + 1.0);
        let u = 1.0 - rng.next_f64(); // (0, 1]
        return g * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u = 1.0 - rng.next_f64(); // (0, 1]
        let x2 = x * x;
        // Squeeze check (cheap acceptance).
        if u < 1.0 - 0.0331 * x2 * x2 {
            return d * v3;
        }
        // Full check.
        if u.ln() < 0.5 * x2 + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// A symmetric or general Dirichlet distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alphas: Vec<f64>,
}

impl Dirichlet {
    /// Symmetric Dirichlet of dimension `dim` with concentration `beta`.
    ///
    /// This is the `Dir_N(β)` of the paper: smaller `β` produces more
    /// unbalanced allocations.
    ///
    /// # Panics
    /// Panics if `dim < 1` or `beta <= 0`.
    pub fn symmetric(dim: usize, beta: f64) -> Self {
        assert!(dim >= 1, "Dirichlet dimension must be at least 1");
        assert!(
            beta.is_finite() && beta > 0.0,
            "Dirichlet concentration must be positive, got {beta}"
        );
        Self {
            alphas: vec![beta; dim],
        }
    }

    /// General Dirichlet with per-component concentrations.
    ///
    /// # Panics
    /// Panics if `alphas` is empty or any entry is non-positive.
    pub fn new(alphas: Vec<f64>) -> Self {
        assert!(!alphas.is_empty(), "Dirichlet needs at least one component");
        assert!(
            alphas.iter().all(|&a| a.is_finite() && a > 0.0),
            "all Dirichlet concentrations must be positive"
        );
        Self { alphas }
    }

    /// Dimension of the simplex.
    pub fn dim(&self) -> usize {
        self.alphas.len()
    }

    /// Draw one probability vector (sums to 1).
    pub fn sample(&self, rng: &mut Pcg64) -> Vec<f64> {
        let mut draws: Vec<f64> = self.alphas.iter().map(|&a| sample_gamma(rng, a)).collect();
        let sum: f64 = draws.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            // All-zero draws are possible only through extreme underflow at
            // tiny beta; fall back to a uniform allocation.
            let uniform = 1.0 / draws.len() as f64;
            draws.iter_mut().for_each(|d| *d = uniform);
        } else {
            draws.iter_mut().for_each(|d| *d /= sum);
        }
        draws
    }
}

/// Convenience: one symmetric Dirichlet draw.
pub fn sample_dirichlet(rng: &mut Pcg64, dim: usize, beta: f64) -> Vec<f64> {
    Dirichlet::symmetric(dim, beta).sample(rng)
}

/// Sample an index from a categorical distribution given (not necessarily
/// normalized) non-negative weights, by inverse CDF.
///
/// # Panics
/// Panics if `weights` is empty, contains a negative weight, or sums to zero.
pub fn sample_categorical(rng: &mut Pcg64, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "categorical over empty support");
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(w >= 0.0 && w.is_finite(), "negative/non-finite weight {w}");
            w
        })
        .sum();
    assert!(total > 0.0, "categorical weights sum to zero");
    let mut target = rng.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        target -= w;
        if target < 0.0 {
            return i;
        }
    }
    // Floating-point slack: return the last index with positive weight.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("at least one positive weight")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Pcg64::new(100);
        let xs: Vec<f64> = (0..200_000)
            .map(|_| sample_standard_normal(&mut rng))
            .collect();
        let (mean, var) = mean_and_var(&xs);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn standard_normal_consumes_its_declared_draws() {
        let mut sampled = Pcg64::new(101);
        let mut jumped = sampled.clone();
        for _ in 0..1000 {
            sample_standard_normal(&mut sampled);
        }
        jumped.advance(1000 * STANDARD_NORMAL_DRAWS);
        assert_eq!(sampled.next_u64(), jumped.next_u64());
    }

    /// Draws enough that each bound below sits ≈ 5 standard errors out.
    const ZIG_DRAWS: usize = 1_000_000;

    fn ziggurat_draws(seed: u64) -> Vec<f64> {
        let mut rng = Pcg64::new(seed);
        (0..ZIG_DRAWS)
            .map(|_| sample_standard_normal_ziggurat(&mut rng))
            .collect()
    }

    /// Standard-normal CDF through the Numerical Recipes `erfc`
    /// Chebyshev fit (fractional error < 1.2e-7, far below every bound
    /// it feeds).
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ];
        let horner = poly.iter().rev().fold(0.0, |acc, &c| acc * t + c);
        let erfc = t * (-z * z + horner).exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn ziggurat_moments_within_standard_errors() {
        let n = ZIG_DRAWS as f64;
        for seed in [42u64, 7, 2024] {
            let xs = ziggurat_draws(seed);
            let (mean, var) = mean_and_var(&xs);
            let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
            let kurtosis = m4 / (var * var);
            // Standard errors under N(0, 1): mean 1/√n, variance √(2/n),
            // kurtosis √(24/n).
            assert!(mean.abs() < 5.0 / n.sqrt(), "seed {seed}: mean {mean}");
            assert!(
                (var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(),
                "seed {seed}: variance {var}"
            );
            assert!(
                (kurtosis - 3.0).abs() < 5.0 * (24.0 / n).sqrt(),
                "seed {seed}: kurtosis {kurtosis}"
            );
        }
    }

    #[test]
    fn ziggurat_passes_kolmogorov_smirnov() {
        let mut xs = ziggurat_draws(43);
        xs.sort_unstable_by(f64::total_cmp);
        let n = xs.len() as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = normal_cdf(x);
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max);
        // 1.95/√n is the α = 0.001 critical value.
        assert!(d < 1.95 / n.sqrt(), "KS statistic {d}");
    }

    #[test]
    fn ziggurat_tail_frequencies_match_binomial() {
        let xs = ziggurat_draws(44);
        let n = ZIG_DRAWS as f64;
        for cut in [3.0, ZIG_R] {
            let p = 2.0 * (1.0 - normal_cdf(cut));
            let hits = xs.iter().filter(|x| x.abs() > cut).count() as f64;
            let sd = (n * p * (1.0 - p)).sqrt();
            assert!(
                (hits - n * p).abs() < 5.0 * sd,
                "|z| > {cut}: {hits} hits, expected {:.1} ± {sd:.1}",
                n * p
            );
        }
        // The tail path is the only way past R; make sure it ran.
        assert!(xs.iter().any(|x| *x > ZIG_R) && xs.iter().any(|x| *x < -ZIG_R));
    }

    #[test]
    fn ziggurat_tables_are_decreasing_with_equal_areas() {
        let t = zig_tables();
        assert_eq!(t.x[1], ZIG_R);
        assert_eq!(t.x[256], 0.0);
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "x not decreasing");
        // Base strip: its pseudo-rectangle is x[0]·f(R).
        let close = |area: f64| ((area - ZIG_V) / ZIG_V).abs() < 1e-9;
        assert!(
            close(t.x[0] * t.f[1]),
            "base layer area {}",
            t.x[0] * t.f[1]
        );
        for i in 1..256 {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!(close(area), "layer {i} area {area}");
        }
    }

    #[test]
    fn ziggurat_digest_is_pinned() {
        // FNV-1a over the bits of the first 10⁴ draws at seed 42. The
        // noise-skew transform's output — and so the fig4/table3 exp
        // fixtures and every noisy party — is a function of these bits.
        let mut rng = Pcg64::new(42);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..10_000 {
            for b in sample_standard_normal_ziggurat(&mut rng)
                .to_bits()
                .to_le_bytes()
            {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x3481_7288_5bc2_44ae, "ziggurat digest {h:#018x}");
    }

    #[test]
    fn gaussian_respects_mean_and_variance() {
        let mut rng = Pcg64::new(101);
        let g = Gaussian::new(3.0, 4.0);
        let xs: Vec<f64> = (0..200_000).map(|_| g.sample(&mut rng)).collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn gaussian_zero_variance_is_constant() {
        let mut rng = Pcg64::new(102);
        let g = Gaussian::new(-1.5, 0.0);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), -1.5);
        }
    }

    #[test]
    #[should_panic(expected = "variance must be finite and non-negative")]
    fn gaussian_rejects_negative_variance() {
        Gaussian::new(0.0, -1.0);
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = Pcg64::new(103);
        let shape = 4.5;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| sample_gamma(&mut rng, shape))
            .collect();
        let (mean, var) = mean_and_var(&xs);
        // Gamma(k, 1): mean k, variance k.
        assert!((mean - shape).abs() < 0.05, "mean {mean}");
        assert!((var - shape).abs() < 0.2, "variance {var}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut rng = Pcg64::new(104);
        let shape = 0.5;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| sample_gamma(&mut rng, shape))
            .collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - shape).abs() < 0.02, "mean {mean}");
        assert!((var - shape).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn gamma_outputs_positive() {
        let mut rng = Pcg64::new(105);
        for &shape in &[0.1, 0.5, 1.0, 2.0, 10.0] {
            for _ in 0..1000 {
                let g = sample_gamma(&mut rng, shape);
                assert!(g >= 0.0 && g.is_finite(), "shape {shape} gave {g}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn gamma_rejects_zero_shape() {
        sample_gamma(&mut Pcg64::new(0), 0.0);
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = Pcg64::new(106);
        for &beta in &[0.05, 0.1, 0.5, 1.0, 10.0] {
            for _ in 0..100 {
                let p = sample_dirichlet(&mut rng, 10, beta);
                assert_eq!(p.len(), 10);
                let sum: f64 = p.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "beta {beta}: sum {sum}");
                assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
            }
        }
    }

    #[test]
    fn dirichlet_mean_is_uniform_for_symmetric() {
        let mut rng = Pcg64::new(107);
        let dim = 5;
        let trials = 20_000;
        let mut acc = vec![0.0; dim];
        for _ in 0..trials {
            let p = sample_dirichlet(&mut rng, dim, 0.5);
            for (a, x) in acc.iter_mut().zip(&p) {
                *a += x;
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let m = a / trials as f64;
            assert!((m - 0.2).abs() < 0.01, "component {i} mean {m}");
        }
    }

    #[test]
    fn smaller_beta_is_more_skewed() {
        // The paper's claim: "if β is set to a smaller value, then the
        // partition is more unbalanced". Measure via mean max-component.
        let mut rng = Pcg64::new(108);
        let trials = 5_000;
        let mean_max = |rng: &mut Pcg64, beta: f64| -> f64 {
            (0..trials)
                .map(|_| {
                    sample_dirichlet(rng, 10, beta)
                        .into_iter()
                        .fold(0.0f64, f64::max)
                })
                .sum::<f64>()
                / trials as f64
        };
        let skew_01 = mean_max(&mut rng, 0.1);
        let skew_05 = mean_max(&mut rng, 0.5);
        let skew_50 = mean_max(&mut rng, 5.0);
        assert!(
            skew_01 > skew_05 && skew_05 > skew_50,
            "expected monotone skew: {skew_01} > {skew_05} > {skew_50}"
        );
    }

    #[test]
    fn dirichlet_general_concentrations_bias_allocation() {
        let mut rng = Pcg64::new(109);
        let d = Dirichlet::new(vec![10.0, 1.0, 1.0]);
        let trials = 10_000;
        let mut acc = [0.0f64; 3];
        for _ in 0..trials {
            let p = d.sample(&mut rng);
            for (a, x) in acc.iter_mut().zip(&p) {
                *a += x;
            }
        }
        // Expected means: 10/12, 1/12, 1/12.
        assert!((acc[0] / trials as f64 - 10.0 / 12.0).abs() < 0.02);
        assert!((acc[1] / trials as f64 - 1.0 / 12.0).abs() < 0.02);
    }

    #[test]
    fn categorical_matches_weights() {
        let mut rng = Pcg64::new(110);
        let weights = [1.0, 2.0, 7.0];
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sample_categorical(&mut rng, &weights)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.7).abs() < 0.01);
    }

    #[test]
    fn categorical_skips_zero_weight() {
        let mut rng = Pcg64::new(111);
        for _ in 0..1000 {
            let i = sample_categorical(&mut rng, &[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn categorical_rejects_all_zero() {
        sample_categorical(&mut Pcg64::new(0), &[0.0, 0.0]);
    }
}
