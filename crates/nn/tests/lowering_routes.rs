//! Layer-level check that the substrate's conv dispatch is wired through,
//! as reported by the substrate's process-wide counters. One test in its
//! own binary: nothing else in the process runs a convolution, so the
//! counter differences are exact.

use niid_nn::{Arena, Conv2d, Layer, Phase};
use niid_stats::Pcg64;
use niid_tensor::{Conv2dShape, Tensor};

/// On the SIMD arm a Train forward + backward of a narrow stride-1 layer
/// runs the direct kernels, while a strided one and a wide stride-1 one
/// (a patch of more than 256 lowered columns) keep the implicit (fused
/// pack) path; the scalar arm materializes all three.
#[test]
fn train_step_routes_through_expected_lowering() {
    let narrow = Conv2dShape {
        in_channels: 2,
        out_channels: 3,
        in_h: 6,
        in_w: 6,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        padding: 1,
    };
    let strided = Conv2dShape {
        stride: 2,
        ..narrow
    };
    // 29 · 3 · 3 = 261 lowered columns.
    let wide = Conv2dShape {
        in_channels: 29,
        out_channels: 8,
        ..narrow
    };
    for (s, direct) in [(narrow, true), (strided, false), (wide, false)] {
        let mut rng = Pcg64::new(14);
        let mut c = Conv2d::new(s, &mut rng);
        let mut arena = Arena::bind(&mut c);
        let x = Tensor::randn(&[4, s.in_channels, s.in_h, s.in_w], 1.0, &mut rng);
        let before = niid_tensor::stats::snapshot();
        let y = c.forward(x, Phase::Train, &mut arena.state());
        c.backward(Tensor::ones(y.shape()), &mut arena.state());
        let d = niid_tensor::stats::snapshot().since(&before);
        let (fused, other) = if direct {
            (d.conv_direct_calls, d.conv_implicit_calls)
        } else {
            (d.conv_implicit_calls, d.conv_direct_calls)
        };
        if niid_tensor::active_kernel().is_simd() {
            assert_eq!(fused, 2, "expected fused forward+backward, got {d:?}");
            assert_eq!(other, 0, "wrong fused path for {s:?}: {d:?}");
            assert_eq!(d.conv_materialized_calls, 0, "unexpected materialization");
        } else {
            assert_eq!(
                d.conv_materialized_calls, 1,
                "scalar arm materializes: {d:?}"
            );
            assert_eq!(fused + other, 0, "fused path on scalar arm");
        }
    }
}
