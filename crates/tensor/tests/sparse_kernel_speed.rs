//! Guard on the sparse-A path's code generation: at rcv1's first-layer
//! shape, one scan plus both products on the sparse kernels must stay
//! well under the dense AVX2 kernels' time. The sparse kernels'
//! `mul_add`s run in closures; an outlined closure is compiled without
//! avx2/fma and calls libm's `fmaf` per lane, which gives the same bits
//! several times slower, so no bit-level test notices. A healthy test
//! build (whose debug checks rebuild the masks once per product) reads
//! about 0.65× the dense time here, one with outlined closures about 4×.
//!
//! The only test in its binary, so no other test competes for the CPU.

use niid_stats::Pcg64;
use niid_tensor::{
    matmul_at_b_scanned_slices, matmul_scanned_slices, with_forced_kernel, with_thread_budget,
    Kernel, SparseRows,
};
use std::time::Instant;

/// Median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn sparse_path_stays_faster_than_the_dense_kernels() {
    if !Kernel::Avx2.available() {
        return;
    }
    const SAMPLES: usize = 9;
    const REPS: usize = 20;
    let (m, k, n) = (32usize, 2048usize, 32usize);
    let mut rng = Pcg64::new(5);
    let a: Vec<f32> = (0..m * k)
        .map(|_| match rng.next_f32() {
            z if z < 0.9 => 0.0,
            _ => rng.next_f32() * 2.0 - 1.0,
        })
        .collect();
    let w: Vec<f32> = (0..k * n).map(|_| rng.next_f32() - 0.5).collect();
    let dy: Vec<f32> = (0..m * n).map(|_| rng.next_f32() - 0.5).collect();
    with_forced_kernel(Kernel::Avx2, || {
        with_thread_budget(1, || {
            assert!(SparseRows::scan(&a, m, k).is_some(), "90 % zeros pass");
            // Seconds for REPS of both products: from one scan of `a` on
            // the sparse kernels, or on the dense kernels.
            let time = |sparse: bool| {
                let (mut y, mut dw) = (vec![0.0f32; m * n], vec![0.0f32; k * n]);
                let t0 = Instant::now();
                for _ in 0..REPS {
                    let scan = SparseRows::scan(&a, m, k).filter(|_| sparse);
                    matmul_scanned_slices(&a, scan.as_ref(), &w, &mut y, m, k, n);
                    matmul_at_b_scanned_slices(&a, scan.as_ref(), &dy, &mut dw, m, k, n);
                }
                std::hint::black_box((&y, &dw));
                t0.elapsed().as_secs_f64()
            };
            time(true);
            time(false);
            // Alternate the two so a change of CPU speed hits both.
            let (mut sparse, mut dense) = (Vec::new(), Vec::new());
            for _ in 0..SAMPLES {
                sparse.push(time(true));
                dense.push(time(false));
            }
            let ratio = median(sparse) / median(dense);
            assert!(
                ratio < 1.5,
                "the sparse path takes {ratio:.2}× the dense time (healthy: about 0.65×)"
            );
        });
    });
}
