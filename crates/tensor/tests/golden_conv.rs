//! Golden convolution bits: one pinned FNV-1a digest per lowering ×
//! kernel × output (forward `y`, `dX`, `dW`, `db`) over a seeded geometry
//! sweep.
//!
//! The oracle tests in `conv.rs` and `tests/implicit_conv.rs` compare the
//! fused lowerings against the materialized one, so a refactor that moves
//! all three together would pass them. These constants were generated
//! before the lowerings were rebuilt on one padded source and one
//! coordinate map; a change that moves one of them has changed the
//! arithmetic of that lowering.
//!
//! The sweep covers paddings 0–2, strides 1–2, non-square planes, output
//! rows narrower than a vector (`ow < 8`), batches whose lowered rows
//! straddle the `ATB_BLOCK_M = 1024` partial-sum boundary, and NaN/±∞
//! inputs. A NaN's payload is picked by FMA operand order, which the
//! compiler owns, so every NaN hashes as one canonical pattern.

use niid_stats::Pcg64;
use niid_tensor::{
    conv2d_backward_ws, conv2d_forward_direct, conv2d_forward_implicit,
    conv2d_forward_materialized, with_forced_kernel, Conv2dShape, ConvScratch, Kernel, Tensor,
};

/// `ATB_BLOCK_M` of `niid_tensor::matmul` (crate-private there).
const ATB_BLOCK_M: usize = 1024;

/// `[y, dX, dW, db]` of the materialized lowering on the scalar arm.
const SCALAR: [u64; 4] = [
    0x97dc7bcc357c5653,
    0xaa5445716f4282cc,
    0x0ad3d0dad219d5be,
    0x3d10236bbb6b9f94,
];
/// `[y, dX, dW, db]` on the AVX2 arm, shared by the materialized and the
/// implicit lowering (bit-identical by contract).
const AVX2: [u64; 4] = [
    0x43fe97dcb77ce099,
    0x7aa36561f8a29441,
    0xd98afd3fd705d223,
    0x58536c1f6834057c,
];
/// `[y, dX, dW, db]` of the direct lowering over the stride-1 cases.
const DIRECT: [u64; 4] = [
    0x195a939cc1eb033a,
    0xcb1bd83068635d12,
    0x252686499d6d4976,
    0x993581c676283355,
];

type Forward = fn(&Tensor, &[f32], Option<&[f32]>, &Conv2dShape, &mut ConvScratch) -> Tensor;

struct Case {
    s: Conv2dShape,
    x: Tensor,
    w: Tensor,
    b: Tensor,
    gy: Tensor,
}

/// The seeded sweep: 72 geometries, every fourth one poisoned.
fn cases() -> Vec<Case> {
    let mut rng = Pcg64::new(0x601D_C0DE);
    let mut out = Vec::new();
    let mut straddled = 0;
    for case in 0..72 {
        let k = [1usize, 2, 3, 5, 7][rng.next_below(5)];
        let kernel_h = if rng.next_below(4) == 0 {
            1 + rng.next_below(5)
        } else {
            k
        };
        let s = Conv2dShape {
            in_channels: 1 + rng.next_below(12),
            out_channels: 1 + rng.next_below(17),
            in_h: kernel_h.max(2) + rng.next_below(14),
            in_w: k.max(2) + rng.next_below(20),
            kernel_h,
            kernel_w: k,
            stride: 1 + rng.next_below(2),
            padding: rng.next_below(3),
        };
        let positions = s.out_positions();
        let n = match case % 3 {
            0 => 1,
            1 => 2 + rng.next_below(4),
            _ => (ATB_BLOCK_M / positions + 2).min(40),
        };
        if n * positions > ATB_BLOCK_M && !ATB_BLOCK_M.is_multiple_of(s.out_w()) {
            straddled += 1;
        }
        let mut x = Tensor::randn(&[n, s.in_channels, s.in_h, s.in_w], 1.0, &mut rng);
        let mut w = Tensor::randn(&[s.out_channels, s.col_width()], 0.3, &mut rng);
        let b = Tensor::randn(&[s.out_channels], 0.1, &mut rng);
        let mut gy = Tensor::randn(&[n, s.out_channels, s.out_h(), s.out_w()], 1.0, &mut rng);
        if case % 4 == 3 {
            let mut poison = |t: &mut Tensor, v: f32| {
                let at = rng.next_below(t.numel());
                t.as_mut_slice()[at] = v;
            };
            poison(&mut x, f32::NAN);
            poison(&mut x, f32::INFINITY);
            poison(&mut w, f32::NEG_INFINITY);
            poison(&mut gy, f32::INFINITY);
        }
        out.push(Case { s, x, w, b, gy });
    }
    let narrow = out.iter().filter(|c| c.s.out_w() < 8).count();
    let strided = out.iter().filter(|c| c.s.stride == 2).count();
    assert!(straddled >= 5, "only {straddled} cases straddle a block");
    assert!(narrow >= 10 && strided >= 10, "sweep lost its edge cases");
    out
}

/// FNV-1a over the f32 bit patterns, NaN canonicalized.
fn fnv1a(h: &mut u64, values: &[f32]) {
    for v in values {
        let bits = if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() };
        for byte in bits.to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `[y, dX, dW, db]` digests of `forward` under `kernel` and its paired
/// backward under `backward_kernel`, over every case `keep` admits.
fn digests(
    kernel: Kernel,
    forward: Forward,
    backward_kernel: Kernel,
    keep: fn(&Conv2dShape) -> bool,
) -> [u64; 4] {
    let mut h = [0xcbf2_9ce4_8422_2325u64; 4];
    for c in cases().iter().filter(|c| keep(&c.s)) {
        let mut scratch = ConvScratch::new();
        let (w, b) = (c.w.as_slice(), Some(c.b.as_slice()));
        let y = with_forced_kernel(kernel, || forward(&c.x, w, b, &c.s, &mut scratch));
        let (gx, gw, gb) = with_forced_kernel(backward_kernel, || {
            conv2d_backward_ws(&mut scratch, &c.w, &c.gy, &c.s)
        });
        for (h, t) in h.iter_mut().zip([&y, &gx, &gw, &gb]) {
            fnv1a(h, t.as_slice());
        }
    }
    h
}

fn all(_: &Conv2dShape) -> bool {
    true
}

fn direct_reach(s: &Conv2dShape) -> bool {
    s.stride == 1 && s.kernel_w <= 8
}

fn assert_pinned(leg: &str, got: [u64; 4], want: [u64; 4]) {
    assert_eq!(
        got, want,
        "{leg}: conv bits moved; got [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2], got[3]
    );
}

/// The scalar arm: `NIID_SIMD=scalar` replays history through this path.
#[test]
fn materialized_scalar_bits_are_pinned() {
    let got = digests(
        Kernel::Scalar,
        conv2d_forward_materialized,
        Kernel::Scalar,
        all,
    );
    assert_pinned("materialized/scalar", got, SCALAR);
}

#[test]
fn materialized_avx2_bits_are_pinned() {
    if !Kernel::Avx2.available() {
        return;
    }
    let got = digests(Kernel::Avx2, conv2d_forward_materialized, Kernel::Avx2, all);
    assert_pinned("materialized/avx2", got, AVX2);
}

#[test]
fn implicit_bits_are_pinned() {
    if !Kernel::Avx2.available() {
        return;
    }
    let got = digests(Kernel::Avx2, conv2d_forward_implicit, Kernel::Avx2, all);
    assert_pinned("implicit/avx2", got, AVX2);
}

#[test]
fn direct_bits_are_pinned() {
    if !Kernel::Avx2.available() {
        return;
    }
    let got = digests(
        Kernel::Avx2,
        conv2d_forward_direct,
        Kernel::Avx2,
        direct_reach,
    );
    assert_pinned("direct/avx2", got, DIRECT);
}

/// A fused forward followed by a scalar backward re-materializes the
/// lowering from the cached input, so the gradients are the scalar arm's.
#[test]
fn rematerialized_scalar_backward_bits_are_pinned() {
    if !Kernel::Avx2.available() {
        return;
    }
    let implicit = digests(Kernel::Avx2, conv2d_forward_implicit, Kernel::Scalar, all);
    assert_pinned(
        "implicit->scalar",
        implicit,
        [AVX2[0], SCALAR[1], SCALAR[2], SCALAR[3]],
    );
    let got = digests(
        Kernel::Avx2,
        conv2d_forward_direct,
        Kernel::Scalar,
        direct_reach,
    );
    let want = digests(
        Kernel::Scalar,
        conv2d_forward_materialized,
        Kernel::Scalar,
        direct_reach,
    );
    assert_pinned(
        "direct->scalar",
        got,
        [DIRECT[0], want[1], want[2], want[3]],
    );
}
