//! Distribution-distance metrics for quantifying partition skew.
//!
//! The paper argues that a key advantage of synthetic partitioning over real
//! federated datasets is that "partitioning strategies can easily quantify
//! and control the imbalance level of the local data". These metrics are how
//! `niid-core::skew` does the quantifying: each party's label histogram is
//! compared against the global histogram (KL / JS / total variation / EMD),
//! and party sizes are summarized with the Gini coefficient for quantity
//! skew.

/// Normalize a non-negative histogram into a probability vector.
///
/// Returns `None` when the histogram is empty or sums to zero.
fn normalize(hist: &[f64]) -> Option<Vec<f64>> {
    let total: f64 = hist.iter().sum();
    if hist.is_empty() || total <= 0.0 {
        return None;
    }
    Some(hist.iter().map(|&h| h / total).collect())
}

/// Kullback–Leibler divergence `KL(p || q)` between two histograms
/// (normalized internally). Components where `p = 0` contribute zero; where
/// `p > 0` but `q = 0`, `q` is floored to a small epsilon so the divergence
/// stays finite (common smoothing convention for empirical label
/// histograms where a party may hold zero samples of some class).
///
/// # Panics
/// Panics if the histograms differ in length, are empty, or sum to zero.
pub fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "KL: length mismatch");
    let p = normalize(p).expect("KL: p must have positive mass");
    let q = normalize(q).expect("KL: q must have positive mass");
    const EPS: f64 = 1e-12;
    p.iter()
        .zip(&q)
        .map(|(&pi, &qi)| {
            if pi <= 0.0 {
                0.0
            } else {
                pi * (pi / qi.max(EPS)).ln()
            }
        })
        .sum()
}

/// Total-variation distance: half the L1 distance between normalized
/// histograms. In [0, 1].
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "TV: length mismatch");
    let p = normalize(p).expect("TV: p must have positive mass");
    let q = normalize(q).expect("TV: q must have positive mass");
    0.5 * p.iter().zip(&q).map(|(&a, &b)| (a - b).abs()).sum::<f64>()
}

/// Earth mover's distance between two 1-D histograms over the same ordered
/// support with unit spacing (the cumulative-difference formula).
pub fn emd_1d(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "EMD: length mismatch");
    let p = normalize(p).expect("EMD: p must have positive mass");
    let q = normalize(q).expect("EMD: q must have positive mass");
    let mut cum = 0.0;
    let mut total = 0.0;
    for (a, b) in p.iter().zip(&q) {
        cum += a - b;
        total += cum.abs();
    }
    total
}

/// Gini coefficient of a non-negative quantity vector (e.g. party dataset
/// sizes). 0 = perfectly equal, approaching 1 = one party holds everything.
///
/// Returns 0 for empty input or all-zero quantities.
pub fn gini(quantities: &[f64]) -> f64 {
    let n = quantities.len();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = quantities.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut sorted = quantities.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN quantity"));
    // Gini = (2 * sum_i i*x_i) / (n * total) - (n + 1) / n  with 1-based i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i + 1) as f64 * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_of_identical_is_zero() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_is_positive_for_different() {
        let p = [0.9, 0.1];
        let q = [0.1, 0.9];
        assert!(kl_divergence(&p, &q) > 0.5);
    }

    #[test]
    fn kl_handles_unnormalized_counts() {
        // Raw counts should behave like their normalized versions.
        let a = kl_divergence(&[90.0, 10.0], &[10.0, 90.0]);
        let b = kl_divergence(&[0.9, 0.1], &[0.1, 0.9]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn kl_survives_zero_in_q() {
        let d = kl_divergence(&[0.5, 0.5], &[1.0, 0.0]);
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn tv_bounds() {
        assert!(total_variation(&[1.0, 0.0], &[0.0, 1.0]) - 1.0 < 1e-12);
        assert!(total_variation(&[0.5, 0.5], &[0.5, 0.5]).abs() < 1e-12);
    }

    #[test]
    fn emd_counts_transport_distance() {
        // Moving all mass by one bucket costs 1; by two buckets costs 2.
        assert!((emd_1d(&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((emd_1d(&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gini_equal_is_zero() {
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12);
    }

    #[test]
    fn gini_concentrated_is_high() {
        let g = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!(
            (g - 0.75).abs() < 1e-12,
            "4-party all-in-one Gini is 1 - 1/n = {g}"
        );
    }

    #[test]
    fn gini_monotone_in_concentration() {
        let g_mild = gini(&[4.0, 5.0, 6.0]);
        let g_strong = gini(&[1.0, 1.0, 13.0]);
        assert!(g_strong > g_mild);
    }

    #[test]
    fn gini_empty_and_zero_are_zero() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }
}
