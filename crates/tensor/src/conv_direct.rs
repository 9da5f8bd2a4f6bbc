//! Direct (lowering-free) stride-1 convolution kernels for the AVX2 arm.
//!
//! The implicit lowering still *moves* every operand once per use: the
//! forward packs `[depth, positions]` tiles, the weight gradient
//! regenerates im2col row windows, the data gradient scatters lowered
//! strips. For the paper CNN's narrow shapes that data movement costs
//! more than the FMAs it feeds. The kernels here read the NCHW planes
//! themselves, and put the vector lanes on whichever axis is wide.
//! [`narrow_rows`] is the one predicate that picks the orientation, and
//! only this module reads it: the caller asks [`forward_prep`],
//! [`dx_weights`], [`dx_strip_len`] and [`dw_grad`] for the operands and
//! buffers an orientation needs and hands them to the kernel entries
//! unopened.
//!
//! Output rows at least a vector wide (`out_w >= LANES`):
//!
//! * **forward** — lanes along `ox`: eight neighbouring outputs of one
//!   row share a broadcast weight, the input vector is the row segment
//!   `x[c][oy+ky][ox+kx ..]`;
//! * **dW** — lanes along `kx`: the `kernel_w` taps of one `(c, ky)` row
//!   share a broadcast `grad_out` value, the input vector is the segment
//!   `x[c][oy+ky][ox ..]` (lanes past `kernel_w` compute garbage that is
//!   never stored);
//! * **dX** — lanes along `kx`: the lowered-gradient row segment
//!   `dcols[p][c, ky, ..]` is computed in registers and added onto the
//!   input-gradient row it scatters to.
//!
//! Output rows narrower than a vector (the paper CNN's second conv at
//! 16×16 input has 2×2 outputs, so `ox` lanes would idle 6 of 8 and `kx`
//! lanes 3 of 8 on its 5-wide kernel):
//!
//! * **forward** — lanes along `oc`: six lowered rows (positions, across
//!   sample boundaries) share each load of a `[col_width][out_c]` weight
//!   pack, and each row broadcasts one input value per depth;
//! * **dW** — lanes along `oc` too, the same kernel ([`oc_tile`]) with
//!   rows and depths swapped: six depths share each load of one lowered
//!   row's gradient (the output gradient, transposed once per pass to
//!   `[rows][out_c]`), and each depth broadcasts one input value per row;
//! * **dX** — lanes along the lowered column: a sample's whole lowered
//!   gradient is computed from W's own rows into a small buffer, then
//!   every input-gradient row is written once, gathered in registers from
//!   the lowered rows that reach it — no read-modify-write of a plane row
//!   whose neighbour was just stored.
//!
//! All kernels run on the zero-padded, `padding = 0` view of the geometry
//! ([`Conv2dShape::padded_view`]) over the batch the forward padded once
//! into the conv scratch, so a padded tap multiplies a stored `0.0`
//! exactly as the materialized lowering does. Every base offset into the
//! planes comes from the same [`Im2colMap`] the lowerings gather through.
//!
//! ## Why the bits match the materialized oracle
//!
//! Per element each kernel runs the oracle's own chain: the forward
//! starts at `0.0`, FMAs depth-ascending `(c, ky, kx)` and then adds the
//! bias; dW FMAs lowered-row-ascending from whatever the output buffer
//! holds (the caller runs it inside `atb_split`, the `Aᵀ·B` task split,
//! partial sums included); dX computes each lowered value as one
//! out-channel-ascending chain from `0.0` and adds it to its input element
//! in ascending position order — the full col2im scatter's order, because
//! for a fixed element every position contributes at most once. Lanes
//! never interact, tile sizes only choose which elements share registers
//! (a tile past the last row recomputes that row and stores the same
//! values again), and the stray `+0.0` a masked or full-width dX add puts
//! on an element is the identity on every value a sum started at `+0.0`
//! can hold (it is never `-0.0`).

use crate::conv::{Conv2dShape, ConvScratch, Im2colMap, SLACK};
use std::arch::x86_64::*;

/// f32 lanes per vector; also the widest `kernel_w` the `kx`-lane
/// kernels cover.
pub(crate) const LANES: usize = 8;

// Segment loads read (and the dX stores write) a full vector.
const _: () = assert!(SLACK >= LANES);

/// Lowered rows a narrow-row forward tile holds in registers.
const FWD_ROWS: usize = 6;
/// Lowered rows one task of the narrow-row forward covers (eight tiles).
const FWD_TASK_ROWS: usize = 48;
/// Depths a narrow-row dW tile holds in registers.
const DW_DEPTHS: usize = 6;
/// Positions a narrow-row dX tile holds in registers.
const DX_POSITIONS: usize = 4;

/// The orientation predicate: whether the padded view `v` has output
/// rows narrower than a vector, so its forward and dW put output
/// channels on the lanes (instead of `ox` and `kx`) and its dX lowered
/// columns (instead of `kx`). Measured in DESIGN.md on every narrow
/// shape the models train (output rows 2 and 4 wide) and at the
/// boundary (5–7 wide).
fn narrow_rows(v: &Conv2dShape) -> bool {
    v.out_w() < LANES
}

/// Lay the weights out for one [`forward`] call in `pack` and return how
/// many samples a forward task takes. Narrow rows re-lay weights and
/// bias once ([`pack_weights_oc`]), and their tiles of lowered rows cross
/// sample boundaries, so a task takes enough samples to fill several;
/// wide rows read `w` in place, one sample a task, and leave `pack` be.
pub(crate) fn forward_prep(
    w: &[f32],
    bias: Option<&[f32]>,
    v: &Conv2dShape,
    pack: &mut Vec<f32>,
) -> usize {
    if !narrow_rows(v) {
        return 1;
    }
    let len = oc_pack_len(v);
    ConvScratch::ensure(pack, len);
    pack_weights_oc(w, bias, v, &mut pack[..len]);
    FWD_TASK_ROWS.div_ceil(v.out_positions())
}

/// The weight operand [`dx_sample`] reads: on rows narrower than a vector
/// W's own `[out_c, C·kh·kw]` rows, on wider rows their
/// [`pack_weights_kx`] layout, built in `pack`.
pub(crate) fn dx_weights<'a>(w: &'a [f32], v: &Conv2dShape, pack: &'a mut Vec<f32>) -> &'a [f32] {
    if narrow_rows(v) {
        return w;
    }
    let len = v.in_channels * v.kernel_h * v.out_channels * LANES;
    ConvScratch::ensure(pack, len);
    pack_weights_kx(w, v, &mut pack[..len]);
    &pack[..len]
}

/// Floats of per-sample staging [`dx_sample`] needs: on rows narrower
/// than a vector the lowered gradient's buffer, a vector of slack either
/// side of `out_positions` rows of [`cw_stride`]; none on wider rows.
pub(crate) fn dx_strip_len(v: &Conv2dShape) -> usize {
    if narrow_rows(v) {
        v.out_positions() * cw_stride(v) + 2 * LANES
    } else {
        0
    }
}

/// The output-gradient operand [`dw_rows`] reads for the whole
/// `[N, out_c, oh, ow]` gradient `go`: on wider rows `go` itself, on rows
/// narrower than a vector its [`transpose_grad`] layout, built in `buf`.
pub(crate) fn dw_grad<'a>(go: &'a [f32], v: &Conv2dShape, buf: &'a mut Vec<f32>) -> &'a [f32] {
    if !narrow_rows(v) {
        return go;
    }
    let len = go.len() / v.output_numel() * v.out_positions() * oc_stride(v);
    ConvScratch::ensure(buf, len);
    transpose_grad(go, v, &mut buf[..len]);
    &buf[..len]
}

/// `out_channels` rounded up to whole vectors: the row stride of
/// [`pack_weights_oc`].
fn oc_stride(v: &Conv2dShape) -> usize {
    v.out_channels.next_multiple_of(LANES)
}

/// `col_width` rounded up to whole vectors: the row stride of the
/// narrow-row dX's lowered-gradient buffer.
fn cw_stride(v: &Conv2dShape) -> usize {
    v.col_width().next_multiple_of(LANES)
}

/// Floats of the [`pack_weights_oc`] layout.
fn oc_pack_len(v: &Conv2dShape) -> usize {
    (v.col_width() + 1) * oc_stride(v)
}

/// Re-lay the flat `[out_c, C·kh·kw]` weights for the narrow-row forward:
/// `out[d·ocp + oc] = w[oc][d]`, then one row holding the bias (zeros
/// without one), with `ocp` = [`oc_stride`] and lanes past `out_c` zero.
fn pack_weights_oc(w: &[f32], bias: Option<&[f32]>, v: &Conv2dShape, out: &mut [f32]) {
    let (outc, cw, ocp) = (v.out_channels, v.col_width(), oc_stride(v));
    assert_eq!(w.len(), outc * cw, "pack_weights_oc: bad weight length");
    assert_eq!(out.len(), oc_pack_len(v), "pack_weights_oc: bad pack");
    out.fill(0.0);
    for (oc, row) in w.chunks_exact(cw).enumerate() {
        for (d, &x) in row.iter().enumerate() {
            out[d * ocp + oc] = x;
        }
    }
    if let Some(b) = bias {
        out[cw * ocp..cw * ocp + outc].copy_from_slice(b);
    }
}

/// Re-lay the flat `[out_c, C·kh·kw]` weights for the wide-row dX kernel:
/// `out[(q·out_c + oc)·LANES + kx] = w[oc][q·kw + kx]` with
/// `q = c·kh + ky`, lanes past `kernel_w` zero.
fn pack_weights_kx(w: &[f32], v: &Conv2dShape, out: &mut [f32]) {
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

/// Forward pass of the samples `out` holds (`out.len() / output_numel`
/// of them, their padded planes at the head of `xs`, which must extend
/// [`SLACK`] floats past them): `out[i][oc][oy][ox]` plus `bias[oc]`.
/// `pack` is the buffer [`forward_prep`] laid this call's weights into
/// (on rows narrower than a vector the kernel reads weights and bias
/// there, on wider rows `w` and `bias`).
pub(crate) fn forward(
    xs: &[f32],
    v: &Conv2dShape,
    w: &[f32],
    bias: Option<&[f32]>,
    pack: &[f32],
    out: &mut [f32],
) {
    let map = check_view(v);
    let (in_numel, out_numel) = (v.input_numel(), v.output_numel());
    let (oh, ow, outc) = (v.out_h(), v.out_w(), v.out_channels);
    assert!(
        !out.is_empty() && out.len().is_multiple_of(out_numel),
        "forward: out"
    );
    let n = out.len() / out_numel;
    assert!(xs.len() >= n * in_numel + SLACK, "forward: x short");
    assert_eq!(w.len(), outc * v.col_width(), "forward: w");
    if let Some(b) = bias {
        assert_eq!(b.len(), outc, "forward: bias");
    }
    let narrow = narrow_rows(v);
    if narrow {
        assert!(pack.len() >= oc_pack_len(v), "forward: pack short");
    }
    let pack = &pack[..if narrow { oc_pack_len(v) } else { 0 }];
    let positions = v.out_positions();
    let (rows, vectors) = (n * positions, oc_stride(v) / LANES);
    // SAFETY: the lengths were asserted above. Narrow rows: every target
    // is a lowered row below `rows`, whose window ends inside `xs`, and
    // channel vectors `vec0..vec0 + nv` lie inside the pack's `ocp` lanes
    // (its bias row included) — `oc_tile`'s contract. Wide rows: every
    // tile has `oc + r <= out_channels`, `oy + rows <= out_h` and `ox0 +
    // LANES <= out_w` — `fwd_tile`'s. `check_view` established AVX2+FMA.
    unsafe {
        if narrow {
            let (cw, ocp, kw) = (v.col_width(), oc_stride(v), v.kernel_w);
            let mut xrows = [0usize; FWD_ROWS];
            let mut outs = [0usize; FWD_ROWS];
            for r0 in (0..rows).step_by(FWD_ROWS) {
                // Rows past the last recompute (and store) the last.
                for (j, (x, o)) in xrows.iter_mut().zip(&mut outs).enumerate() {
                    let r = (r0 + j).min(rows - 1);
                    let (i, p) = (r / positions, r % positions);
                    (*x, *o) = (i * in_numel + map.pos(p), i * out_numel + p);
                }
                let mut vec0 = 0;
                while vec0 < vectors {
                    let nv = (vectors - vec0).min(2);
                    let oc0 = vec0 * LANES;
                    let (wrows, brow) = (&pack[oc0..], bias.map(|_| &pack[cw * ocp + oc0..]));
                    let taps = map.taps().map(|tap| (tap, kw));
                    let (live, outs) = (outc - oc0, outs.map(|o| o + oc0 * positions));
                    macro_rules! go {
                        ($v:literal) => {
                            oc_tile::<FWD_ROWS, $v>(
                                xs, &xrows, taps, wrows, ocp, brow, out, &outs, positions, live,
                                false,
                            )
                        };
                    }
                    match nv {
                        2 => go!(2),
                        _ => go!(1),
                    }
                    vec0 += nv;
                }
            }
            return;
        }
        for (i, out_i) in out.chunks_exact_mut(out_numel).enumerate() {
            // The tiles' slack lanes may look into the next sample.
            let x = &xs[i * in_numel..];
            let mut oc = 0;
            while oc < outc {
                let r = [6usize, 4, 2, 1]
                    .into_iter()
                    .find(|&r| oc + r <= outc)
                    .expect("1 always fits");
                let mut oy = 0;
                while oy < oh {
                    let rows = (oh - oy).min(2);
                    // Vector starts along the row: full vectors, then one
                    // more that overlaps its predecessor (recomputing
                    // identical values).
                    let mut ox = 0;
                    loop {
                        let ox0 = ox.min(ow - LANES);
                        macro_rules! go {
                            ($r:literal, $v:literal) => {
                                fwd_tile::<$r, $v>(x, v, &map, w, bias, out_i, oc, oy, ox0)
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
/// `ox0 + LANES <= out_w`.
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
) {
    let iw = v.in_w;
    let (ow, positions, cw) = (v.out_w(), v.out_positions(), v.col_width());
    let (x0, o0) = (map.at(oy, ox0), oc * positions + oy * ow + ox0);
    // The last load: the last tap row's vector at the tile's last row.
    let last_tap = map.tap(v.in_channels * v.kernel_h - 1) + v.kernel_w - 1;
    debug_assert!(x0 + (V - 1) * iw + last_tap + LANES <= x.len());
    debug_assert!((oc + R) * cw <= w.len());
    debug_assert!(o0 + (R - 1) * positions + (V - 1) * ow + LANES <= out.len());
    let xp = x.as_ptr().add(x0);
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
    let op = out.as_mut_ptr().add(o0);
    for r in 0..R {
        for j in 0..V {
            let mut y = acc[r][j];
            if let Some(b) = bias {
                y = _mm256_add_ps(y, _mm256_broadcast_ss(&b[oc + r]));
            }
            _mm256_storeu_ps(op.add(r * positions + j * ow), y);
        }
    }
}

/// An outer-product tile with output channels on the lanes: `R` targets
/// × `V` channel vectors, each lane one FMA chain
/// `acc += vecs[t·vstride + oc] · src[rows[j] + o(t)]` over the chain
/// steps `t = 0, 1, …` that `runs` spell out — a run `(off, len)` is
/// `len` steps whose source offsets `o(t)` ascend from `off` by one. The
/// chain starts at `0.0`, or with `accumulate` at the output element's
/// own value; `bias` (a vector row like those of `vecs`) is added after
/// it, and channel `oc < live` of target `j` is stored at
/// `out[outs[j] + oc·ostride]`. The forward runs it with lowered rows as
/// targets and depth as the chain, dW with depths as targets and lowered
/// rows as the chain; either way one vector load feeds `R` targets.
///
/// # Safety
///
/// The CPU must support avx2 and fma. Every `rows[j] + off + len` of a
/// run is at most `src.len()`; `vecs` holds `(steps − 1)·vstride + V·LANES`
/// floats. (`bias` and the output are indexed with bounds checks; `live`
/// must exceed `(V − 1)·LANES`.)
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[target_feature(enable = "avx2,fma")]
unsafe fn oc_tile<const R: usize, const V: usize>(
    src: &[f32],
    rows: &[usize; R],
    runs: impl Iterator<Item = (usize, usize)>,
    vecs: &[f32],
    vstride: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    outs: &[usize; R],
    ostride: usize,
    live: usize,
    accumulate: bool,
) {
    debug_assert!(live > (V - 1) * LANES, "a channel vector with no live lane");
    // Live lanes of vector `u`, and where channel `c` of target `j` is.
    let lanes_of = |u: usize| (live - u * LANES).min(LANES);
    let at = |j: usize, c: usize| outs[j] + c * ostride;
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    if accumulate {
        for j in 0..R {
            for u in 0..V {
                let mut lanes = [0.0f32; LANES];
                for l in 0..lanes_of(u) {
                    lanes[l] = out[at(j, u * LANES + l)];
                }
                acc[j][u] = _mm256_loadu_ps(lanes.as_ptr());
            }
        }
    }
    let sp = src.as_ptr();
    let mut t = 0;
    for (off, len) in runs {
        debug_assert!(rows.iter().all(|&r| r + off + len <= src.len()));
        debug_assert!(len == 0 || (t + len - 1) * vstride + V * LANES <= vecs.len());
        for o in off..off + len {
            let vp = vecs.as_ptr().add(t * vstride);
            let mut wv = [_mm256_setzero_ps(); V];
            for u in 0..V {
                wv[u] = _mm256_loadu_ps(vp.add(u * LANES));
            }
            for j in 0..R {
                let xb = _mm256_broadcast_ss(&*sp.add(rows[j] + o));
                for u in 0..V {
                    acc[j][u] = _mm256_fmadd_ps(wv[u], xb, acc[j][u]);
                }
            }
            t += 1;
        }
    }
    for u in 0..V {
        let b = bias.map(|b| _mm256_loadu_ps(b[..V * LANES].as_ptr().add(u * LANES)));
        for j in 0..R {
            let y = b.map_or(acc[j][u], |b| _mm256_add_ps(acc[j][u], b));
            let mut lanes = [0.0f32; LANES];
            _mm256_storeu_ps(lanes.as_mut_ptr(), y);
            for l in 0..lanes_of(u) {
                out[at(j, u * LANES + l)] = lanes[l];
            }
        }
    }
}

/// Accumulate dW rows `kk0..kk1` (`c_rows` holds exactly those rows of
/// the flat `[out_c, C·kh·kw]` gradient) over lowered rows `r0..r1`
/// (global: `sample · positions + position`). `xs` is the padded batch
/// plus [`SLACK`]; `go` is what [`dw_grad`] made of the whole
/// `[N, out_c, oh, ow]` gradient.
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
    let (positions, cw, kw) = (v.out_positions(), v.col_width(), v.kernel_w);
    let samples = r1.div_ceil(positions);
    assert!(kk0 <= kk1 && kk1 <= v.out_channels, "dw_rows: bad channels");
    assert!(
        xs.len() >= samples * v.input_numel() + SLACK,
        "dw_rows: x short"
    );
    let narrow = narrow_rows(v);
    let go_len = if narrow {
        assert!(
            kk0.is_multiple_of(LANES),
            "dw_rows: kk0 {kk0} splits a vector"
        );
        r1 * oc_stride(v)
    } else {
        samples * v.output_numel()
    };
    assert!(go.len() >= go_len, "dw_rows: go short");
    assert_eq!(c_rows.len(), (kk1 - kk0) * cw, "dw_rows: c");
    let nq = v.in_channels * v.kernel_h;
    // SAFETY: the lengths were asserted above. Narrow rows: every target
    // is a depth below `col_width`, every run a stretch of one output row
    // inside `r0..r1`, and channel vectors `vec0..vec0 + nv` from `kk0` (a
    // whole vector in) stay inside a transposed row, which pads the
    // channels to whole vectors — `oc_tile`'s contract. Wide rows: every tile has `kk + r <= kk1` and
    // `q + t <= nq` — `dw_tile`'s: its loads end at most `LANES - 1`
    // floats past the last sample the row range touches, its accumulators
    // stay inside `c_rows`. `check_view` established AVX2+FMA.
    unsafe {
        if narrow {
            let ocp = oc_stride(v);
            let vectors = (kk1 - kk0).div_ceil(LANES);
            let mut taps = [0usize; DW_DEPTHS];
            let mut outs = [0usize; DW_DEPTHS];
            for d0 in (0..cw).step_by(DW_DEPTHS) {
                // Depths past the last recompute (and store) the last.
                for (k, (tap, o)) in taps.iter_mut().zip(&mut outs).enumerate() {
                    let d = (d0 + k).min(cw - 1);
                    (*tap, *o) = (map.tap(d / kw) + d % kw, d);
                }
                let mut vec0 = 0;
                while vec0 < vectors {
                    let nv = (vectors - vec0).min(2);
                    let oc0 = vec0 * LANES;
                    let g = &go[r0 * ocp + kk0 + oc0..];
                    let (live, outs) = (kk1 - kk0 - oc0, outs.map(|o| o + oc0 * cw));
                    let runs = row_runs(v, map, r0, r1);
                    macro_rules! go {
                        ($v:literal) => {
                            oc_tile::<DW_DEPTHS, $v>(
                                xs, &taps, runs, g, ocp, None, c_rows, &outs, cw, live, true,
                            )
                        };
                    }
                    match nv {
                        2 => go!(2),
                        _ => go!(1),
                    }
                    vec0 += nv;
                }
            }
            return;
        }
        let mut kk = kk0;
        while kk < kk1 {
            // 3x3 accumulators + 3 segment vectors + 1 broadcast: 13 of
            // the 16 registers, and three FMAs per (often line-splitting)
            // unaligned segment load keep the load ports off the critical
            // path.
            let r = (kk1 - kk).min(3);
            let mut q = 0;
            while q < nq {
                let t = (nq - q).min(3);
                macro_rules! go {
                    ($r:literal, $t:literal) => {
                        dw_tile::<$r, $t>(xs, go, c_rows, v, &map, kk, kk - kk0, q, r0, r1)
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
                q += t;
            }
            kk += r;
        }
    }
}

/// The lowered rows `r0..r1` as runs of consecutive window origins, one
/// per stretch of an output row: `(plane offset of the first, length)`.
fn row_runs(
    v: &Conv2dShape,
    map: Im2colMap,
    r0: usize,
    r1: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let (oh, ow, in_numel) = (v.out_h(), v.out_w(), v.input_numel());
    let (mut i, mut oy, mut ox) = (r0 / (oh * ow), r0 % (oh * ow) / ow, r0 % ow);
    let mut r = r0;
    std::iter::from_fn(move || {
        (r < r1).then(|| {
            let len = (ow - ox).min(r1 - r);
            let run = (i * in_numel + map.at(oy, ox), len);
            r += len;
            ox = 0;
            oy += 1;
            if oy == oh {
                oy = 0;
                i += 1;
            }
            run
        })
    })
}

/// Lay the `[N, out_c, oh, ow]` output gradient out the way the narrow-row
/// dW reads it: `out[r·ocp + oc] = go[i][oc][p]` for lowered row `r = i ·
/// out_positions + p`, with `ocp` = `out_c` rounded up to whole vectors
/// and lanes past `out_c` zero.
fn transpose_grad(go: &[f32], v: &Conv2dShape, out: &mut [f32]) {
    let (positions, outc, ocp) = (v.out_positions(), v.out_channels, oc_stride(v));
    let n = go.len() / v.output_numel();
    assert_eq!(go.len(), n * v.output_numel(), "transpose_grad: go");
    assert_eq!(out.len(), n * positions * ocp, "transpose_grad: out");
    for (go_i, out_i) in go
        .chunks_exact(v.output_numel())
        .zip(out.chunks_exact_mut(positions * ocp))
    {
        for (p, row) in out_i.chunks_exact_mut(ocp).enumerate() {
            for (oc, x) in row[..outc].iter_mut().enumerate() {
                *x = go_i[oc * positions + p];
            }
            row[outc..].fill(0.0);
        }
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
    let c0 = c_row * cw + q * kw;
    debug_assert!(c0 + (R - 1) * cw + T * kw <= c_rows.len());
    let cp = c_rows.as_mut_ptr().add(c0);
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
        let (x0, g0) = (
            i * in_numel + map.at(oy, ox),
            i * out_numel + oc * positions + oy * ow + ox,
        );
        debug_assert!(x0 + xoff[T - 1] + len - 1 + LANES <= xs.len());
        debug_assert!(g0 + (R - 1) * positions + len <= go.len());
        let xp = xs.as_ptr().add(x0);
        let gp = go.as_ptr().add(g0);
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

/// Data gradient of one sample onto the **zeroed** padded planes at the
/// head of `plane` (which must extend [`SLACK`] floats past them). `go_i`
/// is the sample's `[out_c, oh, ow]` gradient, `w` the operand
/// [`dx_weights`] returned, and `dcols` a [`dx_strip_len`] buffer whose
/// contents are ignored.
pub(crate) fn dx_sample(
    go_i: &[f32],
    w: &[f32],
    v: &Conv2dShape,
    dcols: &mut [f32],
    plane: &mut [f32],
) {
    let map = check_view(v);
    let (positions, cw, nq) = (v.out_positions(), v.col_width(), v.in_channels * v.kernel_h);
    assert_eq!(go_i.len(), v.output_numel(), "dx_sample: go");
    assert!(
        plane.len() >= v.input_numel() + SLACK,
        "dx_sample: plane short"
    );
    let narrow = narrow_rows(v);
    assert_eq!(dcols.len(), dx_strip_len(v), "dx_sample: dcols");
    if narrow {
        assert_eq!(w.len(), v.out_channels * cw, "dx_sample: w");
    } else {
        assert_eq!(w.len(), nq * v.out_channels * LANES, "dx_sample: wpack");
    }
    let (full, tail) = (cw / LANES, cw % LANES);
    // SAFETY: the lengths were asserted above; every `dcols_tile` starts
    // at `p0 < positions` and covers vectors `j..j + t` with `j + t <=
    // full` (or the one `tail` vector at `full`), every `dx_tile` has
    // `q + t <= nq` and `oy < out_h` — the kernels' contracts, as is
    // `dx_gather`'s; `check_view` established AVX2+FMA.
    unsafe {
        if narrow {
            for p0 in (0..positions).step_by(DX_POSITIONS) {
                let mut j = 0;
                while j < full {
                    let t = (full - j).min(3);
                    match t {
                        3 => dcols_tile::<DX_POSITIONS, 3, false>(go_i, w, v, dcols, p0, j),
                        2 => dcols_tile::<DX_POSITIONS, 2, false>(go_i, w, v, dcols, p0, j),
                        _ => dcols_tile::<DX_POSITIONS, 1, false>(go_i, w, v, dcols, p0, j),
                    }
                    j += t;
                }
                if tail > 0 {
                    dcols_tile::<DX_POSITIONS, 1, true>(go_i, w, v, dcols, p0, full);
                }
            }
            dx_gather(dcols, v, plane);
            return;
        }
        // Output rows outermost: an input element hears from a given
        // output row through exactly one `(c, ky)`, so whichever tile owns
        // that row adds its positions in ascending `ox`, and rows ascend —
        // the global order is ascending position no matter how `(c, ky)`
        // is tiled.
        for oy in 0..v.out_h() {
            let mut q = 0;
            while q < nq {
                let t = (nq - q).min(8);
                macro_rules! go {
                    ($t:literal) => {
                        dx_tile::<$t>(go_i, w, v, &map, plane, q, oy)
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
                q += t;
            }
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
    debug_assert!((q + T) * outc * LANES <= wpack.len());
    debug_assert!((outc - 1) * positions + (oy + 1) * ow <= go_i.len());
    let wp = wpack.as_ptr().add(q * outc * LANES);
    let mut poff = [0usize; T];
    for t in 0..T {
        poff[t] = map.at(oy, 0) + map.tap(q + t);
    }
    debug_assert!(poff[T - 1] + ow - 1 + LANES <= plane.len());
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

/// Lowered-gradient values `dcols[p][d]` for `P` positions from `p0`
/// (positions past the last are clamped onto it) × `D` column vectors
/// from vector `j`: each lane one out-channel-ascending FMA chain from
/// `0.0` over `go_i[oc][p] · w[oc][d]`, stored at
/// `dcols[LANES + p · cw_stride + d]`. With `TAIL` the one vector is the
/// partial last one, loaded masked so no load passes the end of `w`; its
/// lanes past `col_width` hold values nobody reads.
///
/// # Safety
///
/// The CPU must support avx2 and fma. `go_i.len() == output_numel`,
/// `w.len() == out_channels · col_width`, `dcols.len() ==
/// dx_strip_len(v)`, `p0 < out_positions`, and `(j + D) · LANES <=
/// col_width` (or, with `TAIL`, `D == 1` and `j · LANES` the last
/// partial vector's start) — [`dx_sample`] asserts these.
#[allow(clippy::needless_range_loop)]
#[target_feature(enable = "avx2,fma")]
unsafe fn dcols_tile<const P: usize, const D: usize, const TAIL: bool>(
    go_i: &[f32],
    w: &[f32],
    v: &Conv2dShape,
    dcols: &mut [f32],
    p0: usize,
    j: usize,
) {
    let (outc, positions, cw, cwp) = (
        v.out_channels,
        v.out_positions(),
        v.col_width(),
        cw_stride(v),
    );
    let d0 = j * LANES;
    let mask = lane_mask(if TAIL { cw - d0 } else { LANES });
    debug_assert!(if TAIL {
        D == 1 && d0 < cw && cw < d0 + LANES
    } else {
        d0 + D * LANES <= cw
    });
    debug_assert!(go_i.len() == outc * positions && w.len() == outc * cw);
    let mut pr = [0usize; P];
    for k in 0..P {
        pr[k] = (p0 + k).min(positions - 1);
    }
    debug_assert!(LANES + pr[P - 1] * cwp + d0 + D * LANES <= dcols.len());
    let (wp, gp) = (w.as_ptr().add(d0), go_i.as_ptr());
    let mut acc = [[_mm256_setzero_ps(); D]; P];
    for oc in 0..outc {
        let mut wv = [_mm256_setzero_ps(); D];
        for u in 0..D {
            let at = wp.add(oc * cw + u * LANES);
            wv[u] = if TAIL {
                _mm256_maskload_ps(at, mask)
            } else {
                _mm256_loadu_ps(at)
            };
        }
        for k in 0..P {
            let g = _mm256_broadcast_ss(&*gp.add(oc * positions + pr[k]));
            for u in 0..D {
                acc[k][u] = _mm256_fmadd_ps(g, wv[u], acc[k][u]);
            }
        }
    }
    let dp = dcols.as_mut_ptr().add(LANES + d0);
    for k in 0..P {
        for u in 0..D {
            _mm256_storeu_ps(dp.add(pr[k] * cwp + u * LANES), acc[k][u]);
        }
    }
}

/// Write every row of the padded planes from the lowered gradient
/// `dcols` ([`dcols_tile`]'s layout), one vector of the row at a time:
/// the vector starts at `0.0` and adds, position-ascending, each
/// position's `kernel_w` run that lands in it — one unaligned load of
/// the run's row, shifted so the run sits on its input columns, with the
/// other lanes masked to `+0.0`. Lanes past the row end add nothing, so
/// the full-vector store puts `+0.0` into the next row (written later) or
/// into the planes' slack.
///
/// # Safety
///
/// The CPU must support avx2 (and, as called, fma). `v` is the stride-1
/// padded view with `kernel_w <= LANES`, `dcols.len() == dx_strip_len(v)`
/// and `plane.len() >= input_numel + SLACK` ([`dx_sample`] asserts
/// these).
#[target_feature(enable = "avx2")]
unsafe fn dx_gather(dcols: &[f32], v: &Conv2dShape, plane: &mut [f32]) {
    let (ih, iw, kh, kw) = (v.in_h, v.in_w, v.kernel_h, v.kernel_w);
    let (oh, ow, cwp) = (v.out_h(), v.out_w(), cw_stride(v));
    // runs[s + LANES - 1] keeps lanes `s..s + kw` (the run of a position
    // `s` columns right of the vector start), for s in -(kw-1)..LANES.
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut runs = [_mm256_setzero_ps(); 2 * LANES - 1];
    for (at, run) in runs.iter_mut().enumerate() {
        let t = _mm256_sub_epi32(iota, _mm256_set1_epi32(at as i32 - (LANES as i32 - 1)));
        let keep = _mm256_andnot_si256(
            _mm256_cmpgt_epi32(_mm256_setzero_si256(), t),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(kw as i32), t),
        );
        *run = _mm256_castsi256_ps(keep);
    }
    let (dp, pp) = (dcols.as_ptr(), plane.as_mut_ptr());
    for row in 0..v.in_channels * ih {
        let (c, y) = (row / ih, row % ih);
        // Output rows whose windows cover plane row `y`, through tap row
        // `ky = y - oy`.
        let (oy0, oy1) = ((y + 1).saturating_sub(kh), y.min(oh - 1));
        for x0 in (0..iw).step_by(LANES) {
            let (ox0, ox1) = ((x0 + 1).saturating_sub(kw), ow.min(x0 + LANES));
            let mut acc = _mm256_setzero_ps();
            for oy in oy0..=oy1 {
                let q = c * kh + y - oy;
                for ox in ox0..ox1 {
                    // dcols[p][q·kw + (x0 + l) - ox] for lane l, shifted
                    // past the buffer's leading slack vector.
                    let at = (oy * ow + ox) * cwp + q * kw + x0 + LANES - ox;
                    debug_assert!(at + LANES <= dcols.len());
                    let run = _mm256_and_ps(_mm256_loadu_ps(dp.add(at)), runs[ox + LANES - 1 - x0]);
                    acc = _mm256_add_ps(acc, run);
                }
            }
            debug_assert!(row * iw + x0 + LANES <= plane.len());
            _mm256_storeu_ps(pp.add(row * iw + x0), acc);
        }
    }
}

/// Mask enabling the first `n ≤ LANES` lanes (sign bit set). Reads no
/// memory, so the only requirement is the CPU feature its callers share.
#[inline]
#[target_feature(enable = "avx2")]
fn lane_mask(n: usize) -> __m256i {
    debug_assert!(n <= LANES);
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}
