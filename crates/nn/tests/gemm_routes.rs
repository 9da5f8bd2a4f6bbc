//! Model-level check of which GEMMs take the AVX2 arm's sparse-A path,
//! as reported by the substrate's process-wide counters. One test in its
//! own binary: nothing else in the process runs a GEMM, so the counter
//! differences are exact.

use niid_nn::{lenet_cnn, mlp, Network, Phase};
use niid_stats::Pcg64;
use niid_tensor::{with_forced_kernel, Kernel, Tensor};

/// `rows × dim` inputs of which a share `zeros` is exactly zero.
fn rows(rows: usize, dim: usize, zeros: f32, rng: &mut Pcg64) -> Tensor {
    let v = (0..rows * dim)
        .map(|_| {
            if rng.next_f32() < zeros {
                0.0
            } else {
                rng.next_f32() * 2.0 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(v, &[rows, dim])
}

/// Sparse-path `(A·B, Aᵀ·B)` calls and sparse-A scans of one train step
/// and one 256-row eval forward of `net` on `x`.
fn sparse_calls(net: &mut Network, x: Tensor, eval: Tensor) -> (u64, u64, u64) {
    let labels: Vec<usize> = (0..x.shape()[0]).map(|i| i % 2).collect();
    let before = niid_tensor::stats::snapshot();
    net.zero_grads();
    net.forward_backward(x, &labels);
    net.forward(eval, Phase::Eval);
    let d = niid_tensor::stats::snapshot().since(&before);
    (
        d.gemm_ab_sparse_calls,
        d.gemm_atb_sparse_calls,
        d.gemm_sparse_scans,
    )
}

/// On the AVX2 arm, an rcv1-shaped `Mlp` (2 048 inputs, 90 % zeros)
/// takes the sparse path for its first layer's forward (train and eval)
/// and weight gradient, and nowhere else. The train step scans its batch
/// once for both products, the eval forward once more. Adult-like rows
/// (64 inputs, 30 % zeros), dense Covtype-like rows and LeNet's head
/// never do; the scalar arm never does.
#[test]
fn only_sparse_wide_inputs_take_the_sparse_gemm_path() {
    let mut rng = Pcg64::new(21);
    for kern in Kernel::available_kernels() {
        let simd = kern.is_simd();
        with_forced_kernel(kern, || {
            let mut rcv1 = mlp(2048, 2, 1);
            let (x, eval) = (
                rows(32, 2048, 0.9, &mut rng),
                rows(256, 2048, 0.9, &mut rng),
            );
            let want = if simd { (2, 1, 2) } else { (0, 0, 0) };
            assert_eq!(sparse_calls(&mut rcv1, x, eval), want, "rcv1 on {kern:?}");

            let mut adult = mlp(64, 2, 2);
            let (x, eval) = (rows(32, 64, 0.3, &mut rng), rows(256, 64, 0.3, &mut rng));
            assert_eq!(
                sparse_calls(&mut adult, x, eval),
                (0, 0, 0),
                "adult on {kern:?}"
            );

            let mut covtype = mlp(54, 7, 3);
            let (x, eval) = (rows(32, 54, 0.0, &mut rng), rows(256, 54, 0.0, &mut rng));
            assert_eq!(
                sparse_calls(&mut covtype, x, eval),
                (0, 0, 0),
                "covtype on {kern:?}"
            );

            let mut lenet = lenet_cnn(3, 16, 10, 4);
            let x = Tensor::randn(&[32, 3, 16, 16], 1.0, &mut rng);
            let eval = Tensor::randn(&[256, 3, 16, 16], 1.0, &mut rng);
            assert_eq!(
                sparse_calls(&mut lenet, x, eval),
                (0, 0, 0),
                "lenet on {kern:?}"
            );
        });
    }
}
