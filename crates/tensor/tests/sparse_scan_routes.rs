//! On the AVX2 arm a product takes the sparse-A kernels only with a scan
//! its caller kept: the `matmul` / `matmul_at_b` wrappers and the slice
//! entries given `None` never scan, and one kept scan serves both
//! products.
//!
//! The only test in its binary: the counters are process totals, and a
//! concurrently running test's GEMMs would land in the difference.

use niid_stats::Pcg64;
use niid_tensor::{
    matmul, matmul_at_b, matmul_at_b_scanned_slices, matmul_scanned_slices, stats,
    with_forced_kernel, Kernel, SparseRows, Tensor,
};

#[test]
fn only_a_kept_scan_routes_products_to_the_sparse_kernels() {
    if !Kernel::Avx2.available() {
        return;
    }
    let (m, k, n) = (32usize, 2048usize, 16usize);
    let mut rng = Pcg64::new(42);
    let a: Vec<f32> = (0..m * k)
        .map(|_| match rng.next_f32() {
            z if z < 0.9 => 0.0,
            _ => rng.next_f32() * 2.0 - 1.0,
        })
        .collect();
    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
    let dy = Tensor::randn(&[m, n], 1.0, &mut rng);
    let at = Tensor::from_vec(a.clone(), &[m, k]);
    let sparse_counts = |d: &stats::SubstrateStats| {
        (
            d.gemm_sparse_scans,
            d.gemm_ab_sparse_calls,
            d.gemm_atb_sparse_calls,
        )
    };
    with_forced_kernel(Kernel::Avx2, || {
        let before = stats::snapshot();
        let _ = matmul(&at, &b);
        let _ = matmul_at_b(&at, &dy);
        let (mut c, mut g) = (vec![0.0f32; m * n], vec![0.0f32; k * n]);
        matmul_scanned_slices(&a, None, b.as_slice(), &mut c, m, k, n);
        matmul_at_b_scanned_slices(&a, None, dy.as_slice(), &mut g, m, k, n);
        let d = stats::snapshot().since(&before);
        assert_eq!(d.gemm_ab_calls + d.gemm_atb_calls, 4);
        assert_eq!(sparse_counts(&d), (0, 0, 0), "no scan was kept");

        let before = stats::snapshot();
        let kept = SparseRows::scan(&a, m, k);
        assert!(kept.is_some(), "90 % zeros pass the gate");
        matmul_scanned_slices(&a, kept.as_ref(), b.as_slice(), &mut c, m, k, n);
        matmul_at_b_scanned_slices(&a, kept.as_ref(), dy.as_slice(), &mut g, m, k, n);
        let d = stats::snapshot().since(&before);
        assert_eq!(sparse_counts(&d), (1, 1, 1), "one kept scan");
    });
}
