//! Tensor-kernel microbenchmarks: GEMM (all three transpose variants),
//! im2col convolution forward/backward, pooling and softmax — the kernels
//! every federated round is made of.
//!
//! Run `cargo bench -p niid-bench --bench tensor_ops -- --json
//! BENCH_tensor_ops.json` to refresh the committed baseline; CNN-sized
//! workloads are additionally swept over kernel thread budgets.

use niid_bench::harness::{black_box, BenchMeta, Harness};
use niid_nn::{mlp, Sgd};
use niid_stats::Pcg64;
use niid_tensor::{
    conv2d_backward_ws, conv2d_forward, conv2d_forward_direct, conv2d_forward_implicit, matmul,
    matmul_a_bt, matmul_at_b, matmul_at_b_scanned_slices, matmul_scanned_slices, maxpool2d,
    softmax_rows, with_forced_kernel, with_thread_budget, Conv2dShape, ConvScratch, Kernel,
    Pool2dShape, SparseRows, Tensor,
};

/// A lowering-specific conv forward ([`conv2d_forward`] dispatches).
type ConvForward = fn(&Tensor, &[f32], Option<&[f32]>, &Conv2dShape, &mut ConvScratch) -> Tensor;

/// One forward and one backward row (single kernel thread) for `s` at
/// `batch`, through `forward` and the backward its scratch pairs with.
/// `op_suffix` keeps a forced lowering's rows apart from the dispatched
/// ones of the same shape (`--compare` keys on op|shape|threads|simd).
#[allow(clippy::too_many_arguments)]
fn conv_rows(
    h: &mut Harness,
    rng: &mut Pcg64,
    prefix: &str,
    op_suffix: &str,
    shape_label: &str,
    s: Conv2dShape,
    batch: usize,
    forward: ConvForward,
) {
    let flops = (batch * 2 * s.output_numel() * s.col_width()) as u64;
    let x = Tensor::randn(&[batch, s.in_channels, s.in_h, s.in_w], 1.0, rng);
    let w = Tensor::randn(&[s.out_channels, s.col_width()], 0.2, rng);
    let b = Tensor::randn(&[s.out_channels], 0.1, rng);
    let mut scratch = ConvScratch::new();
    h.bench_meta(
        &format!("{prefix}_forward_batch{batch}/t1"),
        BenchMeta::op(format!("conv2d/forward{op_suffix}"), shape_label, 1, flops),
        |bench| {
            bench.iter(|| {
                with_thread_budget(1, || {
                    forward(
                        black_box(&x),
                        black_box(w.as_slice()),
                        Some(b.as_slice()),
                        &s,
                        &mut scratch,
                    )
                })
            })
        },
    );
    let gy = Tensor::ones(forward(&x, w.as_slice(), Some(b.as_slice()), &s, &mut scratch).shape());
    h.bench_meta(
        &format!("{prefix}_backward_batch{batch}/t1"),
        BenchMeta::op(
            format!("conv2d/backward{op_suffix}"),
            shape_label,
            1,
            2 * flops,
        ),
        |bench| {
            bench.iter(|| {
                with_thread_budget(1, || {
                    conv2d_backward_ws(&mut scratch, black_box(&w), black_box(&gy), &s)
                })
            })
        },
    );
}

/// Kernel thread budgets swept on the large workloads.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

fn main() {
    let mut h = Harness::from_args("tensor_ops");
    let mut rng = Pcg64::new(1);
    for &n in &[32usize, 128, 256] {
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        let flops = (2 * n * n * n) as u64;
        let shape = format!("{n}x{n}x{n}");
        // The big square size is swept over thread budgets; small ones run
        // under budget 1 (they sit below the parallel threshold anyway).
        let sweep: &[usize] = if n == 256 { &THREAD_SWEEP } else { &[1] };
        for &t in sweep {
            h.bench_meta(
                &format!("matmul/a_b/{n}/t{t}"),
                BenchMeta::op("matmul/a_b", &shape, t, flops),
                |bench| {
                    bench.iter(|| with_thread_budget(t, || matmul(black_box(&a), black_box(&b))))
                },
            );
            h.bench_meta(
                &format!("matmul/at_b/{n}/t{t}"),
                BenchMeta::op("matmul/at_b", &shape, t, flops),
                |bench| {
                    bench.iter(|| {
                        with_thread_budget(t, || matmul_at_b(black_box(&a), black_box(&b)))
                    })
                },
            );
            h.bench_meta(
                &format!("matmul/a_bt/{n}/t{t}"),
                BenchMeta::op("matmul/a_bt", &shape, t, flops),
                |bench| {
                    bench.iter(|| {
                        with_thread_budget(t, || matmul_a_bt(black_box(&a), black_box(&b)))
                    })
                },
            );
        }
        // Forced-scalar rows on the large square: the committed baseline
        // for the SIMD speedup claim (compare against the same shape's
        // default rows above).
        if n == 256 {
            with_forced_kernel(Kernel::Scalar, || {
                h.bench_meta(
                    &format!("matmul/a_b/{n}/t1/scalar"),
                    BenchMeta::op("matmul/a_b", &shape, 1, flops),
                    |bench| {
                        bench
                            .iter(|| with_thread_budget(1, || matmul(black_box(&a), black_box(&b))))
                    },
                );
                h.bench_meta(
                    &format!("matmul/at_b/{n}/t1/scalar"),
                    BenchMeta::op("matmul/at_b", &shape, 1, flops),
                    |bench| {
                        bench.iter(|| {
                            with_thread_budget(1, || matmul_at_b(black_box(&a), black_box(&b)))
                        })
                    },
                );
                h.bench_meta(
                    &format!("matmul/a_bt/{n}/t1/scalar"),
                    BenchMeta::op("matmul/a_bt", &shape, 1, flops),
                    |bench| {
                        bench.iter(|| {
                            with_thread_budget(1, || matmul_a_bt(black_box(&a), black_box(&b)))
                        })
                    },
                );
            });
        }
    }

    // FC-shaped `a · bᵀ` products — the dX GEMM of every Linear backward
    // (`dy [batch, out] · Wᵀ`, weight stored `[in, out]`). Rectangular
    // shapes from the paper's CNN/MLP heads; these run the NT-packed
    // micro-kernel on the AVX2 arm (Bᵀ panels packed contiguously instead
    // of striding row-major B on every FMA).
    for &(m, out_f, in_f) in &[
        (64usize, 120usize, 256usize),
        (64, 84, 120),
        (128, 512, 256),
    ] {
        let a = Tensor::randn(&[m, out_f], 1.0, &mut rng);
        let b = Tensor::randn(&[in_f, out_f], 1.0, &mut rng);
        let flops = (2 * m * in_f * out_f) as u64;
        let shape = format!("{m}x{out_f} x ({in_f}x{out_f})T");
        h.bench_meta(
            &format!("matmul/a_bt_nt/b{m}_{out_f}to{in_f}/t1"),
            BenchMeta::op("matmul/a_bt_nt", &shape, 1, flops),
            |bench| {
                bench.iter(|| with_thread_budget(1, || matmul_a_bt(black_box(&a), black_box(&b))))
            },
        );
    }

    // rcv1's first layer at bench scale (2 048 features, 90 % zeros, batch
    // 32 into 32 hidden units): the forward `X·W` and the weight gradient
    // `Xᵀ·dY`, which take the AVX2 arm's sparse-A kernels, and their twins
    // on a dense `X` of the same shape, which keep the dense kernels.
    let (m, k, n) = (32usize, 2048usize, 32usize);
    let flops = (2 * m * k * n) as u64;
    let w = Tensor::randn(&[k, n], 0.05, &mut rng);
    let dy = Tensor::randn(&[m, n], 0.1, &mut rng);
    let sparse_x = {
        let dense = Tensor::randn(&[m, k], 1.0, &mut rng);
        let v = dense
            .as_slice()
            .iter()
            .map(|&v| if rng.next_f32() < 0.9 { 0.0 } else { v })
            .collect();
        Tensor::from_vec(v, &[m, k])
    };
    let dense_x = Tensor::randn(&[m, k], 1.0, &mut rng);
    // Each row scans its `X` and then runs the one product on that scan:
    // the per-call cost of a product nobody kept a scan for. The dense
    // twin's scan gives up early and keeps the dense kernels.
    let (mut y, mut dw) = (vec![0.0f32; m * n], vec![0.0f32; k * n]);
    for (x, zeros, suffix) in [(&sparse_x, "90% zeros", ""), (&dense_x, "dense", "/dense")] {
        let shape = format!("{m}x{k}x{n} {zeros}");
        h.bench_meta(
            &format!("matmul/rcv1_ab_{m}x{k}x{n}/t1{suffix}"),
            BenchMeta::op("matmul/rcv1_ab", &shape, 1, flops),
            |bench| {
                bench.iter(|| {
                    with_thread_budget(1, || {
                        let x = black_box(x.as_slice());
                        let sparse = SparseRows::scan(x, m, k);
                        y.fill(0.0);
                        matmul_scanned_slices(x, sparse.as_ref(), w.as_slice(), &mut y, m, k, n);
                    })
                })
            },
        );
        h.bench_meta(
            &format!("matmul/rcv1_atb_{m}x{k}x{n}/t1{suffix}"),
            BenchMeta::op("matmul/rcv1_atb", &shape, 1, flops),
            |bench| {
                bench.iter(|| {
                    with_thread_budget(1, || {
                        let x = black_box(x.as_slice());
                        let sparse = SparseRows::scan(x, m, k);
                        dw.fill(0.0);
                        let (dy, sparse) = (dy.as_slice(), sparse.as_ref());
                        matmul_at_b_scanned_slices(x, sparse, dy, &mut dw, m, k, n);
                    })
                })
            },
        );
    }
    // Both products of the first layer's train step the way `Linear` runs
    // them: one scan of the sparse `X`, then `X·W` and `Xᵀ·dY` from its
    // masks.
    h.bench_meta(
        &format!("matmul/rcv1_step_{m}x{k}x{n}/t1"),
        BenchMeta::op(
            "matmul/rcv1_step",
            format!("{m}x{k}x{n} 90% zeros"),
            1,
            2 * flops,
        ),
        |bench| {
            bench.iter(|| {
                with_thread_budget(1, || {
                    let x = black_box(sparse_x.as_slice());
                    let sparse = SparseRows::scan(x, m, k);
                    y.fill(0.0);
                    matmul_scanned_slices(x, sparse.as_ref(), w.as_slice(), &mut y, m, k, n);
                    dw.fill(0.0);
                    let (dy, sparse) = (dy.as_slice(), sparse.as_ref());
                    matmul_at_b_scanned_slices(x, sparse, dy, &mut dw, m, k, n);
                })
            })
        },
    );
    // One SGD step of the rcv1 `Mlp` on those sparse rows; the FLOPs are
    // the step's nominal GEMM work (forward, every dW, every dX but the
    // first layer's). A learning rate far below the weights' ulp keeps
    // them fixed, so every iteration times the same step: descending on
    // one batch thousands of times drives the gradients subnormal, and a
    // subnormal FMA stalls.
    let mut net = mlp(k, 2, 5);
    let mut opt = Sgd::new(net.param_count(), 1e-30, 0.9, 0.0);
    let labels: Vec<usize> = (0..m).map(|i| i % 2).collect();
    let layers = [(k, 32usize), (32, 16), (16, 8), (8, 2)];
    let fwd: usize = layers.iter().map(|&(i, o)| 2 * m * i * o).sum();
    let step_flops = (2 * fwd - 2 * m * k * 32) as u64;
    h.bench_meta(
        "model_step/mlp_rcv1_2048_batch32",
        BenchMeta::op(
            "model_step/mlp_rcv1",
            "batch32 2048-32-16-8-2 90% zeros",
            1,
            step_flops,
        ),
        |bench| {
            bench.iter(|| {
                with_thread_budget(1, || {
                    net.zero_grads();
                    let loss = net.forward_backward(black_box(sparse_x.clone()), &labels);
                    let (params, grads) = net.params_and_grads_mut();
                    opt.step(params, grads);
                    loss
                })
            })
        },
    );

    // LeNet-sized conv layer (6→16 channels, 5x5 kernel) over a batch of 32.
    let s = Conv2dShape {
        in_channels: 6,
        out_channels: 16,
        in_h: 12,
        in_w: 12,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        padding: 0,
    };
    let conv_shape = "n32 6->16 12x12 k5";
    let conv_flops = (32 * 2 * s.output_numel() * s.col_width()) as u64;
    let x = Tensor::randn(&[32, 6, 12, 12], 1.0, &mut rng);
    let w = Tensor::randn(&[16, s.col_width()], 0.2, &mut rng);
    let b = Tensor::randn(&[16], 0.1, &mut rng);
    for &t in &THREAD_SWEEP {
        let mut scratch = ConvScratch::new();
        h.bench_meta(
            &format!("conv2d/forward_batch32/t{t}"),
            BenchMeta::op("conv2d/forward", conv_shape, t, conv_flops),
            |bench| {
                bench.iter(|| {
                    with_thread_budget(t, || {
                        conv2d_forward(
                            black_box(&x),
                            black_box(w.as_slice()),
                            Some(b.as_slice()),
                            &s,
                            &mut scratch,
                        )
                    })
                })
            },
        );
        let y = conv2d_forward(&x, w.as_slice(), Some(b.as_slice()), &s, &mut scratch);
        let gy = Tensor::ones(y.shape());
        h.bench_meta(
            &format!("conv2d/backward_batch32/t{t}"),
            // dX and dW are each ~one forward-sized GEMM.
            BenchMeta::op("conv2d/backward", conv_shape, t, 2 * conv_flops),
            |bench| {
                bench.iter(|| {
                    with_thread_budget(t, || {
                        conv2d_backward_ws(&mut scratch, black_box(&w), black_box(&gy), &s)
                    })
                })
            },
        );
    }
    // The first conv of the paper's CNN at the scale `GenConfig::bench` /
    // `quick` actually train (3→6 channels, 5x5 kernel, 16x16 input).
    let early16 = Conv2dShape {
        in_channels: 3,
        out_channels: 6,
        in_h: 16,
        in_w: 16,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        padding: 0,
    };
    conv_rows(
        &mut h,
        &mut rng,
        "conv2d/early16",
        "",
        "n32 3->6 16x16 k5",
        early16,
        32,
        conv2d_forward,
    );
    // Its second conv at that scale (6→16 channels over the 6×6 pooled
    // map): 2×2 outputs, rows narrower than a vector.
    let late16 = Conv2dShape {
        in_channels: 6,
        out_channels: 16,
        in_h: 6,
        in_w: 6,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        padding: 0,
    };
    conv_rows(
        &mut h,
        &mut rng,
        "conv2d/late16",
        "",
        "n32 6->16 6x6 k5",
        late16,
        32,
        conv2d_forward,
    );
    // A wide body layer (VGG-9 / ResNet: 3x3, padding 1, 288 lowered
    // columns) through the lowering `conv_lowering` picks for it, and — on
    // the AVX2 arm — forced through the direct kernels: the measurement
    // behind keeping wide layers on the implicit path (DESIGN.md).
    let wide16 = Conv2dShape {
        in_channels: 32,
        out_channels: 64,
        in_h: 16,
        in_w: 16,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let wide_shape = "n8 32->64 16x16 k3 p1";
    conv_rows(
        &mut h,
        &mut rng,
        "conv2d/wide16",
        "",
        wide_shape,
        wide16,
        8,
        conv2d_forward,
    );
    if Kernel::Avx2.available() {
        with_forced_kernel(Kernel::Avx2, || {
            conv_rows(
                &mut h,
                &mut rng,
                "conv2d/wide16_direct",
                "_direct",
                wide_shape,
                wide16,
                8,
                conv2d_forward_direct,
            );
        });
    }
    // The fused (implicit-GEMM) forward, benched directly so the lowering
    // shows up as its own tracked op. The kernel is pinned to AVX2 where
    // the CPU supports it — this keeps the row present (and the fused path
    // exercised) even when the smoke run sets `NIID_SIMD=scalar`.
    if Kernel::Avx2.available() {
        with_forced_kernel(Kernel::Avx2, || {
            let mut scratch = ConvScratch::new();
            h.bench_meta(
                "conv2d/implicit_batch32/t1",
                BenchMeta::op("conv2d/implicit", conv_shape, 1, conv_flops),
                |bench| {
                    bench.iter(|| {
                        with_thread_budget(1, || {
                            conv2d_forward_implicit(
                                black_box(&x),
                                black_box(w.as_slice()),
                                Some(b.as_slice()),
                                &s,
                                &mut scratch,
                            )
                        })
                    })
                },
            );
            // First conv of the paper's CNN on CIFAR-10 geometry: 3→6
            // channels, 5x5 kernel, 32x32 input.
            let s_early = Conv2dShape {
                in_channels: 3,
                out_channels: 6,
                in_h: 32,
                in_w: 32,
                kernel_h: 5,
                kernel_w: 5,
                stride: 1,
                padding: 0,
            };
            let early_shape = "n32 3->6 32x32 k5";
            let early_flops = (32 * 2 * s_early.output_numel() * s_early.col_width()) as u64;
            let xe = Tensor::randn(&[32, 3, 32, 32], 1.0, &mut rng);
            let we = Tensor::randn(&[6, s_early.col_width()], 0.2, &mut rng);
            let be = Tensor::randn(&[6], 0.1, &mut rng);
            let mut scratch_e = ConvScratch::new();
            h.bench_meta(
                "conv2d/implicit_early_batch32/t1",
                BenchMeta::op("conv2d/implicit", early_shape, 1, early_flops),
                |bench| {
                    bench.iter(|| {
                        with_thread_budget(1, || {
                            conv2d_forward_implicit(
                                black_box(&xe),
                                black_box(we.as_slice()),
                                Some(be.as_slice()),
                                &s_early,
                                &mut scratch_e,
                            )
                        })
                    })
                },
            );
        });
    }

    let x = Tensor::randn(&[32, 16, 8, 8], 1.0, &mut rng);
    let s = Pool2dShape::square(16, 8, 8, 2);
    h.bench_meta(
        "maxpool2d_batch32",
        BenchMeta::op("maxpool2d", "n32 16ch 8x8 k2", 1, 0),
        |bench| bench.iter(|| maxpool2d(black_box(&x), &s)),
    );
    let logits = Tensor::randn(&[256, 10], 2.0, &mut rng);
    h.bench_meta(
        "softmax_rows_256x10",
        BenchMeta::op("softmax_rows", "256x10", 1, 0),
        |bench| bench.iter(|| softmax_rows(black_box(&logits))),
    );
}
