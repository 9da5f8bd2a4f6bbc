//! Direct (lowering-free) stride-1 convolution kernels for the AVX2 arm.
//!
//! The implicit lowering still *moves* every operand once per use: the
//! forward packs `[depth, positions]` tiles, the weight gradient
//! regenerates im2col row windows, the data gradient scatters lowered
//! strips. For the paper CNN's narrow shapes that data movement costs
//! more than the FMAs it feeds. The kernels here read the NCHW planes
//! themselves with unaligned row-segment loads:
//!
//! * **forward** — lanes along `ox`: eight neighbouring outputs of one
//!   row share a broadcast weight, the input vector is the row segment
//!   `x[c][oy+ky][ox+kx ..]`;
//! * **dW** — lanes along `kx`: the `kernel_w` taps of one `(c, ky)` row
//!   share a broadcast `grad_out` value, the input vector is the segment
//!   `x[c][oy+ky][ox ..]` (lanes past `kernel_w` compute garbage that is
//!   never stored);
//! * **dX** — lanes along `kx` again: the lowered-gradient row segment
//!   `dcols[p][c, ky, ..]` is computed in registers and added onto the
//!   input-gradient row it scatters to.
//!
//! All three run on the zero-padded, `padding = 0` view of the geometry
//! ([`Conv2dShape::padded_view`]) over the batch the forward padded once
//! into the conv scratch, so a padded tap multiplies a stored `0.0`
//! exactly as the materialized lowering does. Every base offset into the
//! planes comes from the same [`Im2colMap`] the lowerings gather through.
//!
//! ## Why the bits match the materialized oracle
//!
//! Per element each kernel runs the oracle's own chain: the forward
//! starts at `0.0` and FMAs depth-ascending `(c, ky, kx)`; dW FMAs
//! lowered-row-ascending from whatever the output buffer holds (the
//! caller runs it inside `matmul_at_b_slices`' own task split, partial
//! sums included); dX computes each lowered value as one out-channel-ascending
//! chain from `0.0` and adds it to its input element in ascending
//! position order — the full col2im scatter's order, because for a fixed
//! element every position contributes at most once. Lanes never interact,
//! tile sizes only choose which elements share registers, and the stray
//! `+0.0` a full-width add puts on neighbouring dX elements is the
//! identity on every value a sum started at `+0.0` can hold (it is never
//! `-0.0`).

use crate::conv::{Conv2dShape, Im2colMap, SLACK};
use std::arch::x86_64::*;

/// f32 lanes per vector; also the widest `kernel_w` the `kx`-lane
/// kernels cover.
pub(crate) const LANES: usize = 8;

// Segment loads read (and the dX add rewrites) a full vector.
const _: () = assert!(SLACK >= LANES);

/// Re-lay the flat `[out_c, C·kh·kw]` weights for the dX kernel:
/// `out[(q·out_c + oc)·LANES + kx] = w[oc][q·kw + kx]` with
/// `q = c·kh + ky`, lanes past `kernel_w` zero.
pub(crate) fn pack_weights_kx(w: &[f32], v: &Conv2dShape, out: &mut [f32]) {
    let (outc, cw, kw) = (v.out_channels, v.col_width(), v.kernel_w);
    let nq = v.in_channels * v.kernel_h;
    assert!(kw <= LANES, "pack_weights_kx: kernel_w {kw} > {LANES}");
    assert_eq!(w.len(), outc * cw, "pack_weights_kx: bad weight length");
    assert_eq!(out.len(), nq * outc * LANES, "pack_weights_kx: bad pack");
    for (i, lanes) in out.chunks_exact_mut(LANES).enumerate() {
        let (q, oc) = (i / outc, i % outc);
        lanes[..kw].copy_from_slice(&w[oc * cw + q * kw..oc * cw + (q + 1) * kw]);
        lanes[kw..].fill(0.0);
    }
}

/// The preconditions every kernel entry shares: the CPU runs the
/// instructions, and the geometry is the stride-1 padded view (the map
/// rejects any other). Returns the view's coordinate map.
fn check_view(v: &Conv2dShape) -> Im2colMap {
    assert!(
        crate::simd::Kernel::Avx2.available(),
        "direct conv kernels need avx2+fma"
    );
    assert!(
        v.stride == 1 && v.kernel_w <= LANES,
        "direct conv kernels need stride 1 and kernel_w <= {LANES}, got {v:?}"
    );
    Im2colMap::new(v)
}

/// Forward pass of one sample: `out[oc][oy][ox]` (plus `bias[oc]`) from
/// the padded planes at the head of `x`, which must extend [`SLACK`]
/// floats past the sample.
pub(crate) fn forward_sample(
    x: &[f32],
    v: &Conv2dShape,
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let map = check_view(v);
    let (oh, ow) = (v.out_h(), v.out_w());
    assert!(
        x.len() >= v.input_numel() + SLACK,
        "forward_sample: x short"
    );
    assert_eq!(w.len(), v.out_channels * v.col_width(), "forward_sample: w");
    assert_eq!(out.len(), v.output_numel(), "forward_sample: out");
    if let Some(b) = bias {
        assert_eq!(b.len(), v.out_channels, "forward_sample: bias");
    }
    let mut oc = 0;
    while oc < v.out_channels {
        let r = [6usize, 4, 2, 1]
            .into_iter()
            .find(|&r| oc + r <= v.out_channels)
            .expect("1 always fits");
        let mut oy = 0;
        while oy < oh {
            let rows = (oh - oy).min(2);
            // Vector starts along the row: full vectors, then one more
            // that overlaps its predecessor (recomputing identical
            // values) or, on rows narrower than a vector, a masked one.
            let mut ox = 0;
            loop {
                let (ox0, lanes) = if ox + LANES <= ow {
                    (ox, LANES)
                } else if ow >= LANES {
                    (ow - LANES, LANES)
                } else {
                    (0, ow)
                };
                // SAFETY: bounds asserted above — full vectors load inside
                // their input row and a masked one ends before
                // `input_numel + SLACK`; stores cover `lanes` outputs of
                // rows `oy..oy + rows`, channels `oc..oc + r`. `check_view`
                // established AVX2+FMA.
                unsafe {
                    fwd_tile_dispatch(r, rows, x, v, &map, w, bias, out, oc, oy, ox0, lanes);
                }
                ox += LANES;
                if ox >= ow {
                    break;
                }
            }
            oy += rows;
        }
        oc += r;
    }
}

/// # Safety
///
/// [`fwd_tile`]'s contract with `R = r`, `V = rows`; [`forward_sample`]
/// asserts it.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn fwd_tile_dispatch(
    r: usize,
    rows: usize,
    x: &[f32],
    v: &Conv2dShape,
    map: &Im2colMap,
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    oc: usize,
    oy: usize,
    ox0: usize,
    lanes: usize,
) {
    macro_rules! go {
        ($r:literal, $v:literal) => {
            fwd_tile::<$r, $v>(x, v, map, w, bias, out, oc, oy, ox0, lanes)
        };
    }
    match (r, rows) {
        (6, 2) => go!(6, 2),
        (6, 1) => go!(6, 1),
        (4, 2) => go!(4, 2),
        (4, 1) => go!(4, 1),
        (2, 2) => go!(2, 2),
        (2, 1) => go!(2, 1),
        (1, 2) => go!(1, 2),
        (1, 1) => go!(1, 1),
        _ => unreachable!("fwd tile {r}x{rows}"),
    }
}

/// `R` output channels × `V` output rows × one `ox` vector, held in
/// `R·V` accumulators across the whole depth-ascending `(c, ky, kx)`
/// chain.
///
/// # Safety
///
/// The CPU must support avx2 and fma. `v` must be the stride-1 padded
/// view with `kernel_w <= LANES` and `map` its [`Im2colMap`] (what
/// `check_view` returns); `x.len() >= v.input_numel() + SLACK`,
/// `w.len() == out_channels · col_width`, `out.len() == output_numel`,
/// `bias` (if any) holds `out_channels` values; the tile lies inside the
/// output: `oc + R <= out_channels`, `oy + V <= out_h` and
/// `ox0 + lanes <= out_w` with `lanes <= LANES`.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[target_feature(enable = "avx2,fma")]
unsafe fn fwd_tile<const R: usize, const V: usize>(
    x: &[f32],
    v: &Conv2dShape,
    map: &Im2colMap,
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    oc: usize,
    oy: usize,
    ox0: usize,
    lanes: usize,
) {
    let iw = v.in_w;
    let (ow, positions, cw) = (v.out_w(), v.out_positions(), v.col_width());
    let xp = x.as_ptr().add(map.at(oy, ox0));
    let wp = w.as_ptr().add(oc * cw);
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    let mut d = 0;
    for tap in map.taps() {
        let row = xp.add(tap);
        for kx in 0..v.kernel_w {
            let mut xv = [_mm256_setzero_ps(); V];
            for j in 0..V {
                xv[j] = _mm256_loadu_ps(row.add(j * iw + kx));
            }
            for r in 0..R {
                let wv = _mm256_broadcast_ss(&*wp.add(r * cw + d));
                for j in 0..V {
                    acc[r][j] = _mm256_fmadd_ps(wv, xv[j], acc[r][j]);
                }
            }
            d += 1;
        }
    }
    let mask = lane_mask(lanes);
    let op = out.as_mut_ptr().add(oc * positions + oy * ow + ox0);
    for r in 0..R {
        for j in 0..V {
            let mut y = acc[r][j];
            if let Some(b) = bias {
                y = _mm256_add_ps(y, _mm256_broadcast_ss(&b[oc + r]));
            }
            _mm256_maskstore_ps(op.add(r * positions + j * ow), mask, y);
        }
    }
}

/// Accumulate dW rows `kk0..kk1` (`c_rows` holds exactly those rows of
/// the flat `[out_c, C·kh·kw]` gradient) over lowered rows `r0..r1`
/// (global: `sample · positions + position`). `xs` is the padded batch
/// plus [`SLACK`]; `go` is the whole `[N, out_c, oh, ow]` gradient.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dw_rows(
    xs: &[f32],
    go: &[f32],
    c_rows: &mut [f32],
    v: &Conv2dShape,
    kk0: usize,
    kk1: usize,
    r0: usize,
    r1: usize,
) {
    let map = check_view(v);
    if r0 >= r1 {
        return;
    }
    let samples = r1.div_ceil(v.out_positions());
    assert!(kk0 <= kk1 && kk1 <= v.out_channels, "dw_rows: bad channels");
    assert!(
        xs.len() >= samples * v.input_numel() + SLACK,
        "dw_rows: x short"
    );
    assert!(go.len() >= samples * v.output_numel(), "dw_rows: go short");
    assert_eq!(c_rows.len(), (kk1 - kk0) * v.col_width(), "dw_rows: c");
    let nq = v.in_channels * v.kernel_h;
    let mut kk = kk0;
    while kk < kk1 {
        // 3x3 accumulators + 3 segment vectors + 1 broadcast: 13 of the
        // 16 registers, and three FMAs per (often line-splitting)
        // unaligned segment load keep the load ports off the critical
        // path.
        let r = (kk1 - kk).min(3);
        let mut q = 0;
        while q < nq {
            let t = (nq - q).min(3);
            // SAFETY: bounds asserted above — loads end at most
            // `LANES - 1` floats past the last sample the row range
            // touches, accumulators stay inside `c_rows`; `check_view`
            // established AVX2+FMA.
            unsafe { dw_tile_dispatch(r, t, xs, go, c_rows, v, &map, kk, kk - kk0, q, r0, r1) };
            q += t;
        }
        kk += r;
    }
}

/// # Safety
///
/// [`dw_tile`]'s contract with `R = r`, `T = t`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn dw_tile_dispatch(
    r: usize,
    t: usize,
    xs: &[f32],
    go: &[f32],
    c_rows: &mut [f32],
    v: &Conv2dShape,
    map: &Im2colMap,
    oc: usize,
    c_row: usize,
    q: usize,
    r0: usize,
    r1: usize,
) {
    macro_rules! go {
        ($r:literal, $t:literal) => {
            dw_tile::<$r, $t>(xs, go, c_rows, v, map, oc, c_row, q, r0, r1)
        };
    }
    match (r, t) {
        (3, 3) => go!(3, 3),
        (3, 2) => go!(3, 2),
        (3, 1) => go!(3, 1),
        (2, 3) => go!(2, 3),
        (2, 2) => go!(2, 2),
        (2, 1) => go!(2, 1),
        (1, 3) => go!(1, 3),
        (1, 2) => go!(1, 2),
        (1, 1) => go!(1, 1),
        _ => unreachable!("dw tile {r}x{t}"),
    }
}

/// `R` output channels × `T` consecutive `(c, ky)` rows, `kx` along the
/// lanes: `R·T` accumulators stay in registers across the whole lowered
/// row range, each running its element's row-ascending FMA chain.
///
/// # Safety
///
/// The CPU must support avx2 and fma. `v` must be the stride-1 padded
/// view with `kernel_w <= LANES` and `map` its [`Im2colMap`];
/// `oc + R <= out_channels`, `q + T <= in_channels · kernel_h` and
/// `c_rows.len() >= (c_row + R) · col_width`; `r0 <= r1`, and with
/// `n = ⌈r1 / out_positions⌉` samples, `xs.len() >= n · input_numel +
/// SLACK` and `go.len() >= n · output_numel` ([`dw_rows`] asserts
/// these).
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[target_feature(enable = "avx2,fma")]
unsafe fn dw_tile<const R: usize, const T: usize>(
    xs: &[f32],
    go: &[f32],
    c_rows: &mut [f32],
    v: &Conv2dShape,
    map: &Im2colMap,
    oc: usize,
    c_row: usize,
    q: usize,
    r0: usize,
    r1: usize,
) {
    let (kw, oh, ow, cw) = (v.kernel_w, v.out_h(), v.out_w(), v.col_width());
    let (positions, in_numel, out_numel) = (oh * ow, v.input_numel(), v.output_numel());
    let mask = lane_mask(kw);
    let cp = c_rows.as_mut_ptr().add(c_row * cw + q * kw);
    let mut xoff = [0usize; T];
    for t in 0..T {
        xoff[t] = map.tap(q + t);
    }
    let mut acc = [[_mm256_setzero_ps(); T]; R];
    for r in 0..R {
        for t in 0..T {
            acc[r][t] = _mm256_maskload_ps(cp.add(r * cw + t * kw), mask);
        }
    }
    let (mut i, mut oy, mut ox) = (r0 / positions, r0 % positions / ow, r0 % ow);
    let mut row = r0;
    while row < r1 {
        let len = (ow - ox).min(r1 - row);
        let xp = xs.as_ptr().add(i * in_numel + map.at(oy, ox));
        let gp = go
            .as_ptr()
            .add(i * out_numel + oc * positions + oy * ow + ox);
        for j in 0..len {
            let mut xv = [_mm256_setzero_ps(); T];
            for t in 0..T {
                xv[t] = _mm256_loadu_ps(xp.add(xoff[t] + j));
            }
            for r in 0..R {
                let g = _mm256_broadcast_ss(&*gp.add(r * positions + j));
                for t in 0..T {
                    acc[r][t] = _mm256_fmadd_ps(g, xv[t], acc[r][t]);
                }
            }
        }
        row += len;
        ox = 0;
        oy += 1;
        if oy == oh {
            oy = 0;
            i += 1;
        }
    }
    for r in 0..R {
        for t in 0..T {
            _mm256_maskstore_ps(cp.add(r * cw + t * kw), mask, acc[r][t]);
        }
    }
}

/// Data gradient of one sample, accumulated onto the **zeroed** padded
/// planes at the head of `plane` (which must extend [`SLACK`] floats past
/// them). `go_i` is the sample's `[out_c, oh, ow]` gradient, `wpack` the
/// [`pack_weights_kx`] layout.
pub(crate) fn dx_sample(go_i: &[f32], wpack: &[f32], v: &Conv2dShape, plane: &mut [f32]) {
    let map = check_view(v);
    let nq = v.in_channels * v.kernel_h;
    assert_eq!(go_i.len(), v.output_numel(), "dx_sample: go");
    assert_eq!(wpack.len(), nq * v.out_channels * LANES, "dx_sample: w");
    assert!(
        plane.len() >= v.input_numel() + SLACK,
        "dx_sample: plane short"
    );
    // Output rows outermost: an input element hears from a given output
    // row through exactly one `(c, ky)`, so whichever tile owns that row
    // adds its positions in ascending `ox`, and rows ascend — the global
    // order is ascending position no matter how `(c, ky)` is tiled.
    for oy in 0..v.out_h() {
        let mut q = 0;
        while q < nq {
            let t = (nq - q).min(8);
            // SAFETY: bounds asserted above — the last add rewrites at
            // most `LANES - 1` floats past the planes; `check_view`
            // established AVX2+FMA.
            unsafe {
                macro_rules! go {
                    ($t:literal) => {
                        dx_tile::<$t>(go_i, wpack, v, &map, plane, q, oy)
                    };
                }
                match t {
                    8 => go!(8),
                    7 => go!(7),
                    6 => go!(6),
                    5 => go!(5),
                    4 => go!(4),
                    3 => go!(3),
                    2 => go!(2),
                    1 => go!(1),
                    _ => unreachable!("dx tile {t}"),
                }
            }
            q += t;
        }
    }
}

/// `T` consecutive `(c, ky)` rows of the lowered gradient at every
/// position of output row `oy`, `kx` along the lanes: each is one
/// out-channel-ascending FMA chain from `0.0`, masked to its `kernel_w`
/// live lanes and added onto the input-gradient row segment it scatters
/// to.
///
/// # Safety
///
/// The CPU must support avx2 and fma. `v` must be the stride-1 padded
/// view with `kernel_w <= LANES` and `map` its [`Im2colMap`];
/// `go_i.len() == output_numel`, `wpack.len() == in_channels · kernel_h ·
/// out_channels · LANES`, `plane.len() >= input_numel + SLACK`,
/// `q + T <= in_channels · kernel_h` and `oy < out_h` ([`dx_sample`]
/// asserts these).
#[allow(clippy::needless_range_loop)]
#[target_feature(enable = "avx2,fma")]
unsafe fn dx_tile<const T: usize>(
    go_i: &[f32],
    wpack: &[f32],
    v: &Conv2dShape,
    map: &Im2colMap,
    plane: &mut [f32],
    q: usize,
    oy: usize,
) {
    let (outc, ow, positions) = (v.out_channels, v.out_w(), v.out_positions());
    let live = _mm256_castsi256_ps(lane_mask(v.kernel_w));
    let wp = wpack.as_ptr().add(q * outc * LANES);
    let mut poff = [0usize; T];
    for t in 0..T {
        poff[t] = map.at(oy, 0) + map.tap(q + t);
    }
    let pp = plane.as_mut_ptr();
    for ox in 0..ow {
        let gp = go_i.as_ptr().add(oy * ow + ox);
        let mut acc = [_mm256_setzero_ps(); T];
        for oc in 0..outc {
            let g = _mm256_broadcast_ss(&*gp.add(oc * positions));
            for t in 0..T {
                let wv = _mm256_loadu_ps(wp.add((t * outc + oc) * LANES));
                acc[t] = _mm256_fmadd_ps(g, wv, acc[t]);
            }
        }
        for t in 0..T {
            let dst = pp.add(poff[t] + ox);
            let sum = _mm256_add_ps(_mm256_loadu_ps(dst), _mm256_and_ps(acc[t], live));
            _mm256_storeu_ps(dst, sum);
        }
    }
}

/// Mask enabling the first `n ≤ LANES` lanes (sign bit set).
///
/// # Safety
///
/// The CPU must support avx2. No memory is read.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lane_mask(n: usize) -> __m256i {
    debug_assert!(n <= LANES);
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}
