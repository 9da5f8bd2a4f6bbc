//! Summary statistics used throughout the benchmark reports.
//!
//! Experiment tables in the paper report "mean accuracy and standard
//! derivation" over three trials; [`Summary`] computes exactly those plus
//! the extremes and quantiles used by the skew reports.

/// Summary statistics of a sample of f64 values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation (0 for fewer than two observations).
    pub std_dev: f64,
    /// Minimum observation (NaN for an empty sample).
    pub min: f64,
    /// Maximum observation (NaN for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Compute summary statistics over `xs`.
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: f64::NAN,
                max: f64::NAN,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Self {
            count: xs.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }

    /// Format as the paper's `mean%±std%` accuracy cell (inputs in [0, 1]).
    pub fn accuracy_cell(&self) -> String {
        format!(
            "{:.1}%\u{b1}{:.1}%",
            self.mean * 100.0,
            self.std_dev * 100.0
        )
    }
}

/// The `q`-th quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation.
///
/// # Panics
/// Panics if `xs` is empty or `q` outside [0, 1].
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile q={q} outside [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constants() {
        let s = Summary::of(&[2.0, 2.0, 2.0]);
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std_dev - 1.118_033_988_749_895).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_empty_is_safe() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert!(s.min.is_nan() && s.max.is_nan());
    }

    #[test]
    fn accuracy_cell_matches_paper_format() {
        let s = Summary::of(&[0.981, 0.989, 0.985]);
        assert_eq!(s.accuracy_cell(), "98.5%±0.3%");
    }

    #[test]
    fn quantile_endpoints() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 3.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.25) - 2.5).abs() < 1e-12);
    }
}
