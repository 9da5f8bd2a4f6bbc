//! Cross-kernel contracts of the runtime-dispatched SIMD micro-kernels:
//! every available kernel must agree with the scalar reference within a
//! small tolerance on all three GEMM variants across awkward shapes
//! (below, at and straddling the 8-lane width), and NaN/∞ must propagate
//! through the vectorized paths exactly where the scalar kernel places
//! them. Bit-exactness guarantees (same kernel, any thread count) live in
//! `parallel_determinism.rs`.

use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::{
    matmul_a_bt_slices, matmul_at_b_scanned_slices, matmul_scanned_slices, with_forced_kernel,
    Kernel, Tensor,
};

/// Sweep dimensions: below / at / above the 8-wide SIMD lane count, plus
/// sizes that leave 1- and 7-element masked tails.
const DIMS: [usize; 7] = [1, 3, 7, 8, 9, 17, 33];

fn fill(rng: &mut Pcg64, len: usize) -> Vec<f32> {
    Tensor::randn(&[len.max(1)], 1.0, rng).as_slice()[..len].to_vec()
}

/// Relative-ish tolerance for a length-`k` dot product: each element is
/// O(1), so the accumulated FMA-contraction error grows with `k`.
fn close(a: f32, b: f32, k: usize) -> bool {
    (a - b).abs() <= 1e-5 * (k as f32) * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn gemm_variants_match_scalar_within_tolerance_across_shape_sweep() {
    let kernels = Kernel::available_kernels();
    let mut rng = Pcg64::new(0x51D);
    for &m in &DIMS {
        for &k in &DIMS {
            for &n in &DIMS {
                let a = fill(&mut rng, m * k); // [m, k]
                let b = fill(&mut rng, k * n); // [k, n]
                let a_lead = fill(&mut rng, k * m); // [k, m] for AᵀB
                let b_t = fill(&mut rng, n * k); // [n, k] for ABᵀ
                let run = |kern: Kernel| {
                    with_forced_kernel(kern, || {
                        let mut ab = vec![0.0f32; m * n];
                        matmul_scanned_slices(&a, None, &b, &mut ab, m, k, n);
                        let mut atb = vec![0.0f32; m * n];
                        matmul_at_b_scanned_slices(&a_lead, None, &b, &mut atb, k, m, n);
                        let mut abt = vec![0.0f32; m * n];
                        matmul_a_bt_slices(&a, &b_t, &mut abt, m, k, n);
                        (ab, atb, abt)
                    })
                };
                let scalar = run(Kernel::Scalar);
                for &kern in &kernels {
                    let got = run(kern);
                    for (label, s, g) in [
                        ("a_b", &scalar.0, &got.0),
                        ("at_b", &scalar.1, &got.1),
                        ("a_bt", &scalar.2, &got.2),
                    ] {
                        for (i, (&sv, &gv)) in s.iter().zip(g.iter()).enumerate() {
                            assert!(
                                close(sv, gv, k),
                                "{label} {m}x{k}x{n} [{i}] under {}: {sv} vs {gv}",
                                kern.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn non_finite_values_propagate_identically_under_every_kernel() {
    let kernels = Kernel::available_kernels();
    let mut rng = Pcg64::new(0x51E);
    // 9 columns: one full 8-lane panel plus a 1-wide masked tail, so the
    // poisoned values cross both the vector body and the tail path.
    let (m, k, n) = (5usize, 9, 9);
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        a[0] = poison; // row 0, col 0
        a[k + (k - 1)] = poison; // row 1, last col: the masked tail lane
        let run = |kern: Kernel| {
            with_forced_kernel(kern, || {
                let mut c = vec![0.0f32; m * n];
                matmul_scanned_slices(&a, None, &b, &mut c, m, k, n);
                c
            })
        };
        let scalar = run(Kernel::Scalar);
        // The poisoned rows must actually be contaminated in the reference.
        assert!(
            scalar[..n].iter().all(|v| !v.is_finite()),
            "row 0 should be non-finite under scalar"
        );
        for &kern in &kernels {
            let got = run(kern);
            for (i, (&sv, &gv)) in scalar.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    sv.is_finite(),
                    gv.is_finite(),
                    "finiteness class at [{i}] under {} (poison {poison}): {sv} vs {gv}",
                    kern.name()
                );
                assert_eq!(
                    sv.is_nan(),
                    gv.is_nan(),
                    "NaN class at [{i}] under {} (poison {poison}): {sv} vs {gv}",
                    kern.name()
                );
            }
        }
    }
}
