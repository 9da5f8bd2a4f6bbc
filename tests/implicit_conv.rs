//! The fused-convolution contract, checked from outside the substrate:
//! the implicit lowering (im2col folded into the GEMM panel pack) and
//! the direct kernels (no lowering at all, stride 1) must be
//! **bit-exact** against the materialized im2col pipeline they replaced
//! — across kernel geometries, through non-finite inputs, and inside a
//! full federated run at any thread count.

use niid_bench_rs::data::Dataset;
use niid_bench_rs::fl::engine::{BufferPolicy, FedSim, FlConfig};
use niid_bench_rs::fl::local::LocalConfig;
use niid_bench_rs::fl::party::Party;
use niid_bench_rs::fl::Algorithm;
use niid_bench_rs::nn::ModelSpec;
use niid_bench_rs::stats::Pcg64;
use niid_bench_rs::tensor::{
    active_kernel, conv2d_backward_ws, conv2d_forward, conv2d_forward_direct,
    conv2d_forward_implicit, conv2d_forward_materialized, with_thread_budget, Conv2dShape,
    ConvScratch, Tensor,
};

/// Run both lowerings on the same problem and return
/// `(implicit y, materialized y, implicit grads, materialized grads)`.
/// The materialized path is the scalar arm and the bit-exactness oracle;
/// the backward runs from each forward's own scratch so the fused
/// backward (on-the-fly window regeneration) is exercised too.
#[allow(clippy::type_complexity)]
fn run_both(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    s: &Conv2dShape,
) -> (
    Tensor,
    Tensor,
    (Tensor, Tensor, Tensor),
    (Tensor, Tensor, Tensor),
) {
    let mut sc_i = ConvScratch::new();
    let mut sc_m = ConvScratch::new();
    let yi = conv2d_forward_implicit(x, w.as_slice(), Some(b.as_slice()), s, &mut sc_i);
    let ym = conv2d_forward_materialized(x, w.as_slice(), Some(b.as_slice()), s, &mut sc_m);
    let gy = {
        // A non-uniform upstream gradient so dW/dX actually mix values.
        let mut rng = Pcg64::new(0xBEEF);
        Tensor::randn(yi.shape(), 1.0, &mut rng)
    };
    let gi = conv2d_backward_ws(&mut sc_i, w, &gy, s);
    let gm = conv2d_backward_ws(&mut sc_m, w, &gy, s);
    (yi, ym, gi, gm)
}

/// Fused vs materialized, bit-for-bit, over a sweep of kernel sizes,
/// strides, paddings and awkward (non-square, non-power-of-two) spatial
/// extents. On the AVX2 arm both paths reduce every output element along
/// the same single depth-ascending FMA chain, so equality is exact —
/// `assert_eq!` on the raw f32 slices, no tolerance.
#[test]
fn implicit_matches_materialized_across_shape_sweep() {
    if !active_kernel().is_simd() {
        return; // the fused path only exists on the SIMD arm
    }
    let mut rng = Pcg64::new(0x5EED);
    for &k in &[1usize, 3, 5] {
        for &stride in &[1usize, 2] {
            for &padding in &[0usize, 1, 2] {
                for &(in_h, in_w) in &[(11usize, 9usize), (16, 16), (13, 21)] {
                    if in_h + 2 * padding < k || in_w + 2 * padding < k {
                        continue;
                    }
                    let s = Conv2dShape {
                        in_channels: 3,
                        out_channels: 7,
                        in_h,
                        in_w,
                        kernel_h: k,
                        kernel_w: k,
                        stride,
                        padding,
                    };
                    let x = Tensor::randn(&[2, 3, in_h, in_w], 1.0, &mut rng);
                    let w = Tensor::randn(&[7, s.col_width()], 0.3, &mut rng);
                    let b = Tensor::randn(&[7], 0.1, &mut rng);
                    let (yi, ym, gi, gm) = run_both(&x, &w, &b, &s);
                    let tag = format!("k{k} s{stride} p{padding} {in_h}x{in_w}");
                    assert_eq!(yi.as_slice(), ym.as_slice(), "forward bits differ: {tag}");
                    assert_eq!(gi.0.as_slice(), gm.0.as_slice(), "dX bits differ: {tag}");
                    assert_eq!(gi.1.as_slice(), gm.1.as_slice(), "dW bits differ: {tag}");
                    assert_eq!(gi.2.as_slice(), gm.2.as_slice(), "db bits differ: {tag}");
                    if stride == 1 {
                        // The direct kernels cover every stride-1 geometry.
                        let mut sc_d = ConvScratch::new();
                        let yd = conv2d_forward_direct(
                            &x,
                            w.as_slice(),
                            Some(b.as_slice()),
                            &s,
                            &mut sc_d,
                        );
                        assert_eq!(yd.as_slice(), ym.as_slice(), "direct forward: {tag}");
                        let gy = Tensor::randn(yd.shape(), 1.0, &mut Pcg64::new(0xBEEF));
                        let gd = conv2d_backward_ws(&mut sc_d, &w, &gy, &s);
                        assert_eq!(gd.0.as_slice(), gm.0.as_slice(), "direct dX: {tag}");
                        assert_eq!(gd.1.as_slice(), gm.1.as_slice(), "direct dW: {tag}");
                        assert_eq!(gd.2.as_slice(), gm.2.as_slice(), "direct db: {tag}");
                    }
                }
            }
        }
    }
}

/// Non-finite inputs must propagate through the fused pack exactly like
/// the materialized oracle: the same elements end up NaN, +∞, -∞ or
/// finite. (Bitwise NaN payloads can legitimately differ between FMA
/// orders, so the assertion is on the IEEE class per element, plus exact
/// bit equality for everything finite.)
#[test]
fn non_finite_values_propagate_class_identically() {
    if !active_kernel().is_simd() {
        return;
    }
    let s = Conv2dShape {
        in_channels: 2,
        out_channels: 4,
        in_h: 10,
        in_w: 12,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let mut rng = Pcg64::new(0xF00D);
    let mut x = Tensor::randn(&[2, 2, 10, 12], 1.0, &mut rng);
    {
        let xs = x.as_mut_slice();
        xs[5] = f32::NAN;
        xs[37] = f32::INFINITY;
        xs[120] = f32::NEG_INFINITY;
        xs[200] = f32::NAN;
    }
    let w = Tensor::randn(&[4, s.col_width()], 0.3, &mut rng);
    let b = Tensor::randn(&[4], 0.1, &mut rng);
    let (yi, ym, gi, gm) = run_both(&x, &w, &b, &s);
    let class = |v: f32| -> u8 {
        if v.is_nan() {
            0
        } else if v == f32::INFINITY {
            1
        } else if v == f32::NEG_INFINITY {
            2
        } else {
            3
        }
    };
    let assert_class_eq = |a: &Tensor, b: &Tensor, what: &str| {
        for (i, (&va, &vb)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(class(va), class(vb), "{what}[{i}]: {va} vs {vb}");
            if class(va) == 3 {
                assert_eq!(va.to_bits(), vb.to_bits(), "{what}[{i}] finite bits");
            }
        }
    };
    assert_class_eq(&yi, &ym, "forward");
    assert_class_eq(&gi.0, &gm.0, "dX");
    assert_class_eq(&gi.1, &gm.1, "dW");
    assert_class_eq(&gi.2, &gm.2, "db");
    // The poison must actually have reached the outputs.
    assert!(
        yi.as_slice().iter().any(|v| !v.is_finite()),
        "test inputs never hit the output"
    );
}

/// The public entry point must agree with whichever lowering it picked.
#[test]
fn dispatching_forward_matches_explicit_paths() {
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
    let mut rng = Pcg64::new(0xABCD);
    let x = Tensor::randn(&[4, 6, 12, 12], 1.0, &mut rng);
    let w = Tensor::randn(&[16, s.col_width()], 0.2, &mut rng);
    let b = Tensor::randn(&[16], 0.1, &mut rng);
    let mut scratch = ConvScratch::new();
    let y = conv2d_forward(&x, w.as_slice(), Some(b.as_slice()), &s, &mut scratch);
    let mut oracle = ConvScratch::new();
    let ym = conv2d_forward_materialized(&x, w.as_slice(), Some(b.as_slice()), &s, &mut oracle);
    assert_eq!(y.as_slice(), ym.as_slice());
}

fn cnn_setup(n_per_party: usize, seed: u64) -> (Vec<Party>, Dataset) {
    let mut rng = Pcg64::new(seed);
    let make = |n: usize, rng: &mut Pcg64, name: &str| -> Dataset {
        let x = Tensor::rand_uniform(&[n, 256], -1.0, 1.0, rng);
        let labels = (0..n)
            .map(|i| usize::from(x.at2(i, 0) + 0.5 * x.at2(i, 1) > 0.0))
            .collect();
        Dataset::new(name, x, labels, 2, vec![1, 16, 16], None)
    };
    let parties = (0..4)
        .map(|id| Party::new(id, make(n_per_party, &mut rng, "local")))
        .collect();
    let test = make(64, &mut rng, "test");
    (parties, test)
}

/// A full federated run of the paper's CNN — every local step routed
/// through the fused conv forward/backward on the AVX2 arm — must stay
/// bit-identical at 1, 2 and 7 kernel threads.
#[test]
fn fedsim_cnn_bit_identical_across_thread_counts() {
    let (parties, test) = cnn_setup(24, 77);
    let run = |threads: usize| {
        with_thread_budget(threads, || {
            FedSim::new(
                ModelSpec::LenetCnn {
                    in_channels: 1,
                    side: 16,
                },
                parties.clone(),
                test.clone(),
                FlConfig {
                    algorithm: Algorithm::FedAvg,
                    rounds: 2,
                    local: LocalConfig {
                        epochs: 1,
                        batch_size: 8,
                        lr: 0.05,
                        momentum: 0.9,
                        weight_decay: 0.0,
                    },
                    sample_fraction: 1.0,
                    buffer_policy: BufferPolicy::Average,
                    eval_batch_size: 32,
                    eval_every: 1,
                    server_lr: 1.0,
                    seed: 78,
                    threads,
                    min_quorum: 0.5,
                    fault_plan: None,
                    checkpoint: None,
                    codec: niid_fl::UpdateCodec::DenseF32,
                },
            )
            .unwrap()
            .run()
            .unwrap()
        })
    };
    let base = run(1);
    for t in [2usize, 7] {
        let got = run(t);
        assert_eq!(got.final_accuracy, base.final_accuracy, "@{t} threads");
        for (a, b) in base.rounds.iter().zip(&got.rounds) {
            assert_eq!(a.test_accuracy, b.test_accuracy, "@{t} threads");
            assert_eq!(a.avg_local_loss, b.avg_local_loss, "@{t} threads");
        }
    }
}
