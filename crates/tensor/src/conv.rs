//! 2-D convolution — **direct** or **implicit-GEMM** on the AVX2 arm,
//! materialized im2col on the scalar arm and as the bit-exactness oracle.
//!
//! Layout conventions:
//!
//! * activations are NCHW: `[batch, channels, height, width]`,
//! * convolution weights are pre-flattened to
//!   `[out_channels, in_channels * kernel_h * kernel_w]`,
//! * the im2col buffer for one sample is
//!   `[out_h * out_w, in_channels * kernel_h * kernel_w]`, so the forward
//!   pass for a sample is a single GEMM `W · colsᵀ`.
//!
//! Padding is zero-padding; stride is symmetric. Dilation and grouped
//! convolution are not implemented — no model in the paper needs them.
//!
//! ## One padded source, one coordinate map, three lowerings
//!
//! Every forward pads its batch exactly once into [`ConvScratch`] (a plain
//! copy at `padding = 0`), and every lowering then runs on
//! [`Conv2dShape::padded_view`]: a padded tap reads a stored `0.0`, so no
//! lowering has a padding branch. `Im2colMap` is the only place a lowered
//! coordinate meets a plane offset; the three lowerings differ only in
//! what they do with the operand it addresses:
//!
//! * the **materialized** path ([`conv2d_forward_materialized`]) gathers
//!   the full im2col matrix into [`ConvScratch`] and hands it to the GEMM
//!   — the historical pipeline, kept as the scalar arm (part of the
//!   `NIID_SIMD=scalar` bit-exact replay contract) and as the oracle the
//!   other two are validated against;
//! * the **implicit** path ([`conv2d_forward_implicit`]) gathers
//!   transposed `[depth, width]` tiles *inside the GEMM panel pack*
//!   ([`pack_cols_t_tile`]) into a thread-local arena
//!   ([`crate::parallel::with_scratch`]) that
//!   [`crate::simd::gemm_panel_nt_avx2`] consumes; its weight gradient
//!   regenerates im2col row windows on the fly ([`im2col_rows`]) and its
//!   data gradient scatters each position strip of
//!   [`crate::matmul::atb_rows`] at once ([`col2im_scatter_rows`]) — no
//!   `[batch·positions, C·kh·kw]` buffer ever exists;
//! * the **direct** path ([`conv2d_forward_direct`], kernels in
//!   [`crate::conv_direct`]) lowers nothing: forward, dW and dX read row
//!   segments of the padded planes, at the map's offsets, with unaligned
//!   vector loads. It serves the stride-1 shapes of the paper CNN, where
//!   packing and regenerating the lowered operand cost more than the FMAs
//!   they feed; [`crate::dispatch::conv_lowering`] picks the path from
//!   the geometry alone.
//!
//! One forward driver (`forward_samples`) and one data-gradient driver
//! (`backward_input`) run the per-sample bodies of all three. The dX
//! driver accumulates each sample's gradient onto a zeroed padded plane —
//! padding taps land in its border — and copies the interior out.
//!
//! Per output element all three run the same depth-ascending FMA chain
//! over the same operand values — tile splits are bits-neutral (see
//! [`crate::dispatch`]), and both fused weight gradients replicate
//! `matmul_at_b_slices`' branch and `ATB_BLOCK_M` partial-sum split — so
//! under the same SIMD kernel they are **bit-identical**; tests assert
//! exactly this, and `tests/golden_conv.rs` pins the bits themselves.
//!
//! ## Workspace reuse
//!
//! The hot path is [`conv2d_forward`] / [`conv2d_backward_accum`], which
//! operate on a caller-owned [`ConvScratch`]: buffers persist across
//! batches, so a training step performs no per-sample allocation. The
//! forward pass records which lowering ran and leaves the padded batch
//! behind for the backward weight pass; only the materialized path also
//! fills `cols`. Samples are processed in parallel (each owns disjoint
//! regions of every buffer), which keeps results bit-identical at any
//! thread count. The allocating [`conv2d`] / [`conv2d_backward`] wrappers
//! route through a reused **thread-local** scratch, so one-off callers no
//! longer pay a fresh lowering allocation per call. Bias broadcast and
//! the bias-gradient reduction dispatch through [`crate::simd`].

#[cfg(target_arch = "x86_64")]
use crate::conv_direct as direct;
use crate::dispatch::ConvLowering;
use crate::matmul::{matmul_a_bt_slices, matmul_at_b_slices};
use crate::parallel::{parallel_for_threshold, with_scratch, SharedMut};
use crate::simd::{self, Kernel};
use crate::stats::{self, Counter};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Floats the padded batch and the dX plane extend past their last
/// sample: the direct kernels' segment loads read (and their dX add
/// rewrites) a full vector where as few as one float is meaningful.
pub(crate) const SLACK: usize = 8;

/// Static geometry of a conv layer applied to a fixed input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dShape {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding)
            .checked_sub(self.kernel_h)
            .expect("conv kernel taller than padded input")
            / self.stride
            + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding)
            .checked_sub(self.kernel_w)
            .expect("conv kernel wider than padded input")
            / self.stride
            + 1
    }

    /// Width of one im2col row: `in_channels * kernel_h * kernel_w`.
    pub fn col_width(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Number of spatial positions in the output: `out_h * out_w`.
    pub fn out_positions(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Elements in one input sample.
    pub fn input_numel(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Elements in one output sample.
    pub fn output_numel(&self) -> usize {
        self.out_channels * self.out_positions()
    }

    /// The same convolution seen from its zero-padded input: planes of
    /// `[in_h + 2·padding, in_w + 2·padding]` and `padding = 0`. Lowering
    /// the padded planes through this view yields the identical im2col
    /// matrix, which is what lets every lowering ignore padding.
    pub fn padded_view(&self) -> Conv2dShape {
        Conv2dShape {
            in_h: self.in_h + 2 * self.padding,
            in_w: self.in_w + 2 * self.padding,
            padding: 0,
            ..*self
        }
    }

    fn validate(&self) {
        assert!(self.stride > 0, "conv stride must be positive");
        assert!(
            self.kernel_h > 0 && self.kernel_w > 0,
            "conv kernel must be non-empty"
        );
        assert!(
            self.in_h + 2 * self.padding >= self.kernel_h
                && self.in_w + 2 * self.padding >= self.kernel_w,
            "conv kernel {}x{} larger than padded input {}x{} (padding {})",
            self.kernel_h,
            self.kernel_w,
            self.in_h,
            self.in_w,
            self.padding
        );
    }
}

/// The im2col lowering of a padding-0 view as one coordinate map — the
/// only place `(oy, ox, c, ky, kx)` becomes a plane offset:
///
/// ```text
/// row p -> (oy, ox) = (p / out_w, p % out_w)     pos(p) = (oy·W + ox)·stride
/// col d -> (q, kx)  = (d / kw, d % kw),  q = c·kh + ky
///                                                tap(q) = c·H·W + ky·W
/// lowered[p][d] = planes[pos(p) + tap(d / kw) + d % kw]
/// ```
///
/// For a fixed `(p, q)` the `kernel_w` taps are one contiguous run at any
/// stride, and neighbouring positions of one output row sit `stride`
/// apart. The im2col gather, the col2im scatter, the transposed pack and
/// the direct kernels' base offsets all read through it; callers that
/// already walk output rows use `at(oy, ox)` and the division-free
/// `taps()`, because the direct kernels' tiles are too small to pay for a
/// division per tap or per tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Im2colMap {
    out_w: usize,
    stride: usize,
    in_w: usize,
    plane: usize,
    channels: usize,
    kernel_h: usize,
}

impl Im2colMap {
    pub(crate) fn new(v: &Conv2dShape) -> Self {
        assert_eq!(v.padding, 0, "Im2colMap needs a padded view, got {v:?}");
        Self {
            out_w: v.out_w(),
            stride: v.stride,
            in_w: v.in_w,
            plane: v.in_h * v.in_w,
            channels: v.in_channels,
            kernel_h: v.kernel_h,
        }
    }

    /// Plane offset of output position `p`'s window origin.
    #[inline]
    pub(crate) fn pos(&self, p: usize) -> usize {
        self.at(p / self.out_w, p % self.out_w)
    }

    /// [`Self::pos`] of the position at output row `oy`, column `ox`.
    #[inline]
    pub(crate) fn at(&self, oy: usize, ox: usize) -> usize {
        (oy * self.in_w + ox) * self.stride
    }

    /// Offset of tap row `q = c·kernel_h + ky` from a window origin.
    #[inline]
    pub(crate) fn tap(&self, q: usize) -> usize {
        q / self.kernel_h * self.plane + q % self.kernel_h * self.in_w
    }

    /// `tap(q)` for every `q` in ascending order, without a division:
    /// `ky` steps one plane row, the step past the last `ky` lands on the
    /// next channel's plane. A flat walk, because a nested `flat_map`
    /// measured ~25 % slower on the direct forward of the paper CNN's
    /// narrow layers, where each tap feeds only `kernel_w` FMA groups.
    #[inline]
    pub(crate) fn taps(&self) -> impl Iterator<Item = usize> {
        let (kh, in_w) = (self.kernel_h, self.in_w);
        let next_plane = self.plane - (kh - 1) * in_w;
        let (mut tap, mut ky) = (0, 0);
        (0..self.channels * kh).map(move |_| {
            let at = tap;
            ky += 1;
            if ky == kh {
                ky = 0;
                tap += next_plane;
            } else {
                tap += in_w;
            }
            at
        })
    }
}

/// Copy a batch of `[C, H, W]` samples into zero-padded
/// `[C, H+2p, W+2p]` planes (`out` holds exactly `n` padded samples).
pub(crate) fn pad_batch(xs: &[f32], s: &Conv2dShape, n: usize, out: &mut [f32]) {
    let v = s.padded_view();
    assert_eq!(xs.len(), n * s.input_numel(), "pad_batch: bad input length");
    assert_eq!(
        out.len(),
        n * v.input_numel(),
        "pad_batch: bad output length"
    );
    if s.padding == 0 {
        out.copy_from_slice(xs);
        return;
    }
    let p = s.padding;
    let src_planes = xs.chunks_exact(s.in_h * s.in_w);
    let dst_planes = out.chunks_exact_mut(v.in_h * v.in_w);
    for (src, dst) in src_planes.zip(dst_planes) {
        dst[..p * v.in_w].fill(0.0);
        dst[(p + s.in_h) * v.in_w..].fill(0.0);
        for (y, row) in src.chunks_exact(s.in_w).enumerate() {
            let d = &mut dst[(p + y) * v.in_w..(p + y + 1) * v.in_w];
            d[..p].fill(0.0);
            d[p..p + s.in_w].copy_from_slice(row);
            d[p + s.in_w..].fill(0.0);
        }
    }
}

/// Copy the interior of one padded `[C, H+2p, W+2p]` gradient plane set
/// back out to `[C, H, W]`.
pub(crate) fn unpad_sample(plane: &[f32], s: &Conv2dShape, out: &mut [f32]) {
    let v = s.padded_view();
    assert!(plane.len() >= v.input_numel(), "unpad_sample: plane short");
    assert_eq!(out.len(), s.input_numel(), "unpad_sample: bad output");
    let p = s.padding;
    for (i, row) in out.chunks_exact_mut(s.in_w).enumerate() {
        let (c, y) = (i / s.in_h, i % s.in_h);
        let src = (c * v.in_h + p + y) * v.in_w + p;
        row.copy_from_slice(&plane[src..src + s.in_w]);
    }
}

/// Lower rows `p0..p1` of one padded sample's im2col matrix into `rows`
/// (relative: row `p` lands at `(p - p0) * col_width()`), one contiguous
/// `kernel_w` run per `(p, c, ky)`. `v` is a padding-0 view.
///
/// Any row-window chunking of the range concatenates to the full lowering
/// — the backward weight pass relies on this to regenerate windows on the
/// fly. Values are copied, never combined, so NaN/±∞ travel bit-intact.
pub(crate) fn im2col_rows(x: &[f32], v: &Conv2dShape, p0: usize, p1: usize, rows: &mut [f32]) {
    let map = Im2colMap::new(v);
    let (kw, cw) = (v.kernel_w, v.col_width());
    debug_assert!(p1 <= v.out_positions(), "im2col_rows: row range OOB");
    assert_eq!(x.len(), v.input_numel(), "im2col_rows: bad input length");
    assert!(
        rows.len() >= (p1 - p0) * cw,
        "im2col_rows: rows buffer too small"
    );
    for (p, row) in (p0..p1).zip(rows.chunks_exact_mut(cw)) {
        let origin = map.pos(p);
        for (run, tap) in row.chunks_exact_mut(kw).zip(map.taps()) {
            run.copy_from_slice(&x[origin + tap..origin + tap + kw]);
        }
    }
}

/// Scatter-add rows `p0..p1` of a lowered-gradient buffer back onto one
/// sample's padded planes (`v` is a padding-0 view). `cols_rows` is
/// relative like [`im2col_rows`]; `out` is **not** zeroed — callers own
/// the clear.
///
/// The global scatter order (ascending `p`, then ascending column) is the
/// historical `col2im` order regardless of how the position range is
/// chunked, so each input element accumulates its contributions in the
/// identical sequence — strip-wise scatter is bit-identical to the full
/// scatter, and a padding tap only ever lands in the dropped border.
pub(crate) fn col2im_scatter_rows(
    cols_rows: &[f32],
    v: &Conv2dShape,
    p0: usize,
    p1: usize,
    out: &mut [f32],
) {
    let _sp = niid_prof::span!("conv.col2im");
    let map = Im2colMap::new(v);
    let (kw, cw) = (v.kernel_w, v.col_width());
    debug_assert!(
        p1 <= v.out_positions(),
        "col2im_scatter_rows: row range OOB"
    );
    assert!(
        cols_rows.len() >= (p1 - p0) * cw,
        "col2im_scatter_rows: cols buffer too small"
    );
    assert!(
        out.len() >= v.input_numel(),
        "col2im_scatter_rows: output short"
    );
    for (p, row) in (p0..p1).zip(cols_rows.chunks_exact(cw)) {
        let origin = map.pos(p);
        for (run, tap) in row.chunks_exact(kw).zip(map.taps()) {
            let dst = &mut out[origin + tap..origin + tap + kw];
            for (o, &g) in dst.iter_mut().zip(run) {
                *o += g;
            }
        }
    }
}

/// Reusable convolution workspace: every buffer a forward/backward pass
/// needs, grown on demand and never shrunk, so a layer that holds one
/// across batches performs no allocation in steady state.
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// im2col lowering of the last forward batch: `[batch·positions, cw]`.
    /// Only filled by the materialized path (`cached` tracks this).
    cols: Vec<f32>,
    /// The direct data gradient's `kx`-lane weight pack.
    wpack: Vec<f32>,
    /// Output gradients transposed to `[batch·positions, out_channels]`
    /// so the materialized weight gradient is one tall GEMM.
    gy_t: Vec<f32>,
    /// The last forward batch, zero-padded once:
    /// `[batch, C·(H+2p)·(W+2p)]` plus [`SLACK`] — the one source every
    /// lowering reads.
    input: Vec<f32>,
    /// Samples lowered by the last forward pass.
    batch: usize,
    /// The lowering the last forward ran, which the backward pairs with
    /// (`Materialized` also means `cols` holds the lowering).
    cached: ConvLowering,
}

impl ConvScratch {
    /// An empty workspace; buffers are sized lazily by the first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Batch size of the last lowered forward pass.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The im2col lowering of the last forward pass, as a flat slice of
    /// `[batch·positions, col_width]`.
    ///
    /// # Panics
    /// Panics if the last forward pass ran a fused lowering (nothing was
    /// materialized); callers that need the buffer should run
    /// [`conv2d_forward_materialized`].
    pub fn cols(&self, s: &Conv2dShape) -> &[f32] {
        assert!(
            self.cached == ConvLowering::Materialized,
            "conv scratch holds no materialized lowering ({:?} forward)",
            self.cached
        );
        &self.cols[..self.batch * s.out_positions() * s.col_width()]
    }

    /// Pad a forward batch into `input` and leave behind what the
    /// backward of `lowering` reads (the materialized one also `cols`).
    fn prime(&mut self, xs: &[f32], n: usize, s: &Conv2dShape, lowering: ConvLowering) {
        let padded = n * s.padded_view().input_numel();
        Self::ensure(&mut self.input, padded + SLACK);
        pad_batch(xs, s, n, &mut self.input[..padded]);
        self.batch = n;
        self.cached = lowering;
        if lowering == ConvLowering::Materialized {
            materialize_cols(self, s);
        }
    }

    fn ensure(buf: &mut Vec<f32>, len: usize) {
        if buf.len() < len {
            stats::bump(Counter::ConvScratchAllocs, 1);
            stats::scratch_grew(((len - buf.len()) * std::mem::size_of::<f32>()) as u64);
            buf.resize(len, 0.0);
        } else if len > 0 {
            stats::bump(Counter::ConvScratchReuses, 1);
        }
    }
}

impl Drop for ConvScratch {
    fn drop(&mut self) {
        let resident = self.cols.len() + self.wpack.len() + self.gy_t.len() + self.input.len();
        if resident > 0 {
            stats::scratch_freed((resident * std::mem::size_of::<f32>()) as u64);
        }
    }
}

fn check_forward_args(
    input: &Tensor,
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &Conv2dShape,
) -> usize {
    s.validate();
    assert_eq!(input.ndim(), 4, "conv2d: input must be NCHW");
    let n = input.shape()[0];
    assert_eq!(
        &input.shape()[1..],
        &[s.in_channels, s.in_h, s.in_w],
        "conv2d: input shape {:?} does not match geometry {:?}",
        input.shape(),
        s
    );
    assert_eq!(
        weight.len(),
        s.out_channels * s.col_width(),
        "conv2d: weight length {} vs expected [{}, {}]",
        weight.len(),
        s.out_channels,
        s.col_width()
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), s.out_channels, "conv2d: bias length mismatch");
    }
    n
}

/// The call counter of `lowering` (forward and fused dW each count one).
fn calls(lowering: ConvLowering) -> Counter {
    match lowering {
        ConvLowering::Materialized => Counter::ConvMaterializedCalls,
        ConvLowering::Implicit => Counter::ConvImplicitCalls,
        ConvLowering::Direct => Counter::ConvDirectCalls,
    }
}

/// The one forward skeleton every lowering runs: check the arguments,
/// count the call, pad the batch into `scratch` once, then run
/// `sample(scratch, i, out_i)` for every sample over its own region of
/// the output — samples in parallel over disjoint regions, so results are
/// bit-identical at any thread count.
fn forward_samples(
    input: &Tensor,
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &Conv2dShape,
    scratch: &mut ConvScratch,
    lowering: ConvLowering,
    sample: &(dyn Fn(&ConvScratch, usize, &mut [f32]) + Sync),
) -> Tensor {
    let n = check_forward_args(input, weight, bias, s);
    let out_numel = s.output_numel();
    let flops = n * 2 * out_numel * s.col_width();
    stats::bump(calls(lowering), 1);
    if lowering != ConvLowering::Materialized {
        // The fused GEMM work bypasses `matmul_a_bt_slices`, so account
        // for its flops here (the materialized path counts them there).
        stats::bump(Counter::GemmFlops, flops as u64);
    }
    scratch.prime(input.as_slice(), n, s, lowering);
    let scratch = &*scratch;
    let mut out = vec![0.0f32; n * out_numel];
    let out_ptr = SharedMut(out.as_mut_ptr());
    parallel_for_threshold(n, flops, &|i| {
        // SAFETY: sample `i` exclusively owns its region of out.
        let out_i = unsafe { out_ptr.slice(i * out_numel, out_numel) };
        sample(scratch, i, out_i);
    });
    Tensor::from_vec(out, &[n, s.out_channels, s.out_h(), s.out_w()])
}

/// `out_i[c][..] += bias[c]` over one sample's `[out_c, positions]`.
fn add_bias(kern: Kernel, bias: Option<&[f32]>, out_i: &mut [f32], positions: usize) {
    for (row, &b_c) in out_i.chunks_exact_mut(positions).zip(bias.unwrap_or(&[])) {
        simd::add_scalar_assign(kern, row, b_c);
    }
}

/// Forward convolution over a batch, caching what the backward pass needs
/// in `scratch` for reuse by [`conv2d_backward_ws`].
///
/// * `input`: `[N, C, H, W]`
/// * `weight`: flat `[out_channels · C*kh*kw]`
/// * `bias`: optional `[out_channels]`
///
/// Returns the output `[N, out_c, oh, ow]`. On the AVX2 arm
/// [`crate::dispatch::conv_lowering`] picks the direct kernels or the
/// implicit (fused-pack) lowering from the geometry; the scalar arm runs
/// the materialized im2col lowering. All three process samples in
/// parallel over disjoint buffer regions, so results are bit-identical at
/// any thread count.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &Conv2dShape,
    scratch: &mut ConvScratch,
) -> Tensor {
    match active_lowering(s) {
        ConvLowering::Direct => conv2d_forward_direct(input, weight, bias, s, scratch),
        ConvLowering::Implicit => conv2d_forward_implicit(input, weight, bias, s, scratch),
        ConvLowering::Materialized => conv2d_forward_materialized(input, weight, bias, s, scratch),
    }
}

/// The lowering [`conv2d_forward`] runs for `s` under the active kernel.
fn active_lowering(s: &Conv2dShape) -> ConvLowering {
    if simd::active_kernel().is_simd() {
        crate::dispatch::conv_lowering(s)
    } else {
        ConvLowering::Materialized
    }
}

/// Forward convolution through the materialized im2col lowering — the
/// historical pipeline: the scalar arm of the `NIID_SIMD=scalar` replay
/// contract and the bit-exactness oracle for the fused lowerings.
pub fn conv2d_forward_materialized(
    input: &Tensor,
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &Conv2dShape,
    scratch: &mut ConvScratch,
) -> Tensor {
    // Resolved on the calling thread so per-thread kernel forcing covers
    // every sample regardless of which pool worker runs it.
    let kern = simd::active_kernel();
    let cw = s.col_width();
    let lowering = ConvLowering::Materialized;
    let sample = |sc: &ConvScratch, i: usize, out_i: &mut [f32]| {
        let positions = s.out_positions();
        let cols_i = &sc.cols[i * positions * cw..(i + 1) * positions * cw];
        // W [outc, cw] · colsᵀ [cw, positions] = [outc, positions]. The
        // nested GEMM may execute on a pool worker, so re-pin the kernel
        // resolved at entry for its dispatch.
        simd::with_forced_kernel(kern, || {
            matmul_a_bt_slices(weight, cols_i, out_i, s.out_channels, cw, positions);
        });
        add_bias(kern, bias, out_i, positions);
    };
    forward_samples(input, weight, bias, s, scratch, lowering, &sample)
}

/// Pack the transposed tile `cols[j0..j1, d0..d1]ᵀ` of one padded
/// sample's im2col matrix straight from its planes — the heart of the
/// implicit lowering. `out[..(d1-d0)*(j1-j0)]` receives
/// [`crate::simd::pack_bt_panel`] layout: `out[t·width + j] = cols[j0+j][d0+t]`.
///
/// For a fixed lowered column `d` the positions `j0..j1` decompose into
/// per-output-row runs that sit `stride` apart in the plane: one
/// `copy_from_slice` at stride 1, a strided per-element loop otherwise.
/// Values are copied, never combined, so NaN/±∞ payloads travel through
/// bit-intact exactly as in the materialized lowering.
#[cfg(target_arch = "x86_64")]
fn pack_cols_t_tile(
    x: &[f32],
    v: &Conv2dShape,
    j0: usize,
    j1: usize,
    d0: usize,
    d1: usize,
    out: &mut [f32],
) {
    let map = Im2colMap::new(v);
    let (ow, kw, stride) = (v.out_w(), v.kernel_w, v.stride);
    let width = j1 - j0;
    debug_assert!(out.len() >= (d1 - d0) * width);
    for (d, drow) in (d0..d1).zip(out.chunks_exact_mut(width)) {
        let tap = map.tap(d / kw) + d % kw;
        let mut p = j0;
        while p < j1 {
            let (oy, ox) = (p / ow, p % ow);
            let len = (ow - ox).min(j1 - p);
            let (seg, src) = (&mut drow[p - j0..p - j0 + len], map.at(oy, ox) + tap);
            if stride == 1 {
                seg.copy_from_slice(&x[src..src + len]);
            } else {
                for (o, slot) in seg.iter_mut().enumerate() {
                    *slot = x[src + o * stride];
                }
            }
            p += len;
        }
    }
}

/// Forward convolution with the im2col mapping fused into the GEMM panel
/// pack — the lowered matrix is never materialized. AVX2-arm only.
///
/// Bit-identical to [`conv2d_forward_materialized`] under the same SIMD
/// kernel: per output element both run the identical `t`-ascending
/// broadcast-FMA chain over identical values (depth chunking and tile
/// sizes are bits-neutral; see [`crate::dispatch`]).
///
/// # Panics
/// Panics when the active kernel is scalar — the scalar arm must keep its
/// historical accumulation order, which the materialized path provides.
pub fn conv2d_forward_implicit(
    input: &Tensor,
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &Conv2dShape,
    scratch: &mut ConvScratch,
) -> Tensor {
    let kern = simd::active_kernel();
    assert!(
        kern.is_simd(),
        "conv2d_forward_implicit: requires a SIMD kernel (scalar arm uses the materialized path)"
    );
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("SIMD kernel selected on non-x86_64");
    #[cfg(target_arch = "x86_64")]
    {
        let (v, cw) = (s.padded_view(), s.col_width());
        let tiles = crate::dispatch::tiles_for(crate::dispatch::classify_conv(s.in_channels, cw));
        let lowering = ConvLowering::Implicit;
        let sample = |sc: &ConvScratch, i: usize, out_i: &mut [f32]| {
            let (positions, vin) = (s.out_positions(), v.input_numel());
            let x_i = &sc.input[i * vin..(i + 1) * vin];
            with_scratch(tiles.nc * tiles.kc, |pack| {
                let mut j0 = 0;
                while j0 < positions {
                    let j1 = (j0 + tiles.nc).min(positions);
                    let wj = j1 - j0;
                    let mut d0 = 0;
                    while d0 < cw {
                        let d1 = (d0 + tiles.kc).min(cw);
                        let depth = d1 - d0;
                        {
                            let _sp = niid_prof::span!("conv.pack_cols");
                            pack_cols_t_tile(x_i, &v, j0, j1, d0, d1, &mut pack[..depth * wj]);
                        }
                        let _sp = niid_prof::span!("conv.kernel_nt");
                        let mut oc = 0;
                        while oc < s.out_channels {
                            let rows = (s.out_channels - oc).min(tiles.mr);
                            simd::gemm_panel_nt_avx2(
                                &weight[oc * cw + d0..],
                                cw,
                                1,
                                rows,
                                depth,
                                &pack[..depth * wj],
                                &mut out_i[oc * positions + j0..],
                                positions,
                                wj,
                            );
                            oc += rows;
                        }
                        d0 = d1;
                    }
                    j0 = j1;
                }
            });
            add_bias(kern, bias, out_i, positions);
        };
        forward_samples(input, weight, bias, s, scratch, lowering, &sample)
    }
}

/// Forward convolution straight from the padded planes — nothing is
/// lowered, packed or regenerated (kernels and the bit-identity argument
/// live in [`crate::conv_direct`]). AVX2-arm only; needs `stride == 1`
/// and `kernel_w <= 8`.
///
/// Bit-identical to [`conv2d_forward_materialized`] under the same SIMD
/// kernel: every output element runs the oracle's depth-ascending FMA
/// chain from `0.0` over the same values, then adds its bias.
///
/// # Panics
/// Panics when the active kernel is scalar or the geometry is outside
/// the kernels' reach.
pub fn conv2d_forward_direct(
    input: &Tensor,
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &Conv2dShape,
    scratch: &mut ConvScratch,
) -> Tensor {
    assert!(
        simd::active_kernel().is_simd(),
        "conv2d_forward_direct: requires a SIMD kernel (scalar arm uses the materialized path)"
    );
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("SIMD kernel selected on non-x86_64");
    #[cfg(target_arch = "x86_64")]
    {
        let v = s.padded_view();
        let lowering = ConvLowering::Direct;
        let sample = |sc: &ConvScratch, i: usize, out_i: &mut [f32]| {
            let _sp = niid_prof::span!("conv.direct_fwd");
            // The kernels' slack lanes may look into the next sample.
            let x_i = &sc.input[i * v.input_numel()..];
            direct::forward_sample(x_i, &v, weight, bias, out_i);
        };
        forward_samples(input, weight, bias, s, scratch, lowering, &sample)
    }
}

/// Lower the padded batch cached in `scratch` into `cols`. im2col is a
/// pure function of the input, so this is both the materialized
/// forward's lowering and how a forced-scalar backward after a fused
/// forward returns to the scalar arm's historical accumulation order.
fn materialize_cols(scratch: &mut ConvScratch, s: &Conv2dShape) {
    let (n, v) = (scratch.batch, s.padded_view());
    let (positions, vin) = (s.out_positions(), v.input_numel());
    let len = positions * s.col_width();
    let ConvScratch { cols, input, .. } = scratch;
    ConvScratch::ensure(cols, n * len);
    let cols_ptr = SharedMut(cols.as_mut_ptr());
    parallel_for_threshold(n, n * len, &|i| {
        let _sp = niid_prof::span!("conv.im2col");
        // SAFETY: sample `i` exclusively owns its cols region.
        let cols_i = unsafe { cols_ptr.slice(i * len, len) };
        im2col_rows(&input[i * vin..(i + 1) * vin], &v, 0, positions, cols_i);
    });
    scratch.cached = ConvLowering::Materialized;
}

/// Backward convolution against the state cached in `scratch`,
/// **accumulating** the weight and bias gradients directly into
/// caller-owned buffers (the layer's persistent `grad_weight` /
/// `grad_bias` slices) — no intermediate gradient tensors, no extra
/// add pass.
///
/// * `weight`: flat `[out_c · C*kh*kw]`
/// * `grad_out`: `[N, out_c, oh, ow]`
/// * `grad_weight`: flat `[out_c · C·kh·kw]`, accumulated (`+=`)
/// * `grad_bias`: flat `[out_c]`, accumulated (`+=`)
///
/// Returns `grad_input [N,C,H,W]`. If the forward pass ran a fused
/// lowering and the active kernel is still SIMD, the matching fused
/// backward runs (no lowered matrices materialized); otherwise the
/// lowering is (re)materialized and the historical body runs verbatim.
/// All variants are bit-identical under the same kernel, and accumulating
/// into zeroed buffers produces the same bits as the allocating path. All
/// per-sample work writes disjoint regions, so results are bit-identical
/// at any thread count.
pub fn conv2d_backward_accum(
    scratch: &mut ConvScratch,
    weight: &[f32],
    grad_out: &Tensor,
    s: &Conv2dShape,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) -> Tensor {
    conv2d_backward_params_accum(scratch, grad_out, s, grad_weight, grad_bias);
    backward_input(scratch, weight, grad_out, s)
}

/// The parameter half of [`conv2d_backward_accum`]: accumulates dW and db
/// and skips the data gradient entirely — for a layer whose input
/// gradient nobody reads (the first layer of a model). Identical bits in
/// `grad_weight` / `grad_bias`, since skipping an unread output changes
/// no accumulation.
pub fn conv2d_backward_params_accum(
    scratch: &mut ConvScratch,
    grad_out: &Tensor,
    s: &Conv2dShape,
    grad_weight: &mut [f32],
    grad_bias: &mut [f32],
) {
    let n = grad_out.shape()[0];
    assert_eq!(
        grad_out.shape(),
        &[n, s.out_channels, s.out_h(), s.out_w()],
        "conv2d_backward: grad_out shape mismatch"
    );
    assert_eq!(
        scratch.batch, n,
        "conv2d_backward: scratch holds {} lowered samples, grad_out has {}",
        scratch.batch, n
    );
    assert_eq!(
        grad_weight.len(),
        s.out_channels * s.col_width(),
        "conv2d_backward: bad grad_weight length"
    );
    assert_eq!(
        grad_bias.len(),
        s.out_channels,
        "conv2d_backward: bad grad_bias length"
    );

    // A fused cache pairs with its own fused backward as long as a SIMD
    // kernel is still active and the per-sample dX GEMM would take
    // `matmul_at_b_slices`' row-split branch, which both fused data
    // gradients replicate; anything else (re)materializes, after which
    // `scratch.cached` names the backward both halves run.
    let fused_ok = simd::active_kernel().is_simd() && crate::dispatch::fused_backward_eligible(s);
    if scratch.cached != ConvLowering::Materialized && !fused_ok {
        materialize_cols(scratch, s);
    }

    let _sp = niid_prof::span!("conv.dw");
    match scratch.cached {
        ConvLowering::Materialized => dw_materialized(scratch, grad_out, s, grad_weight),
        #[cfg(target_arch = "x86_64")]
        _ => dw_fused(scratch, grad_out, s, grad_weight),
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("fused conv lowering on non-x86_64"),
    }

    // db: per-channel sums of grad_out, samples in ascending order.
    let kern = simd::active_kernel();
    let positions = s.out_positions();
    for go_i in grad_out.as_slice().chunks_exact(s.output_numel()) {
        for (c, gb) in grad_bias.iter_mut().enumerate() {
            *gb += simd::sum(kern, &go_i[c * positions..(c + 1) * positions]);
        }
    }
}

/// The data-gradient half of [`conv2d_backward_accum`], one skeleton for
/// whichever lowering the parameter half settled on (`scratch.cached`):
/// per sample, the lowering accumulates its gradient onto a zeroed padded
/// plane through the padded view, and the interior is copied out. The
/// plane and the lowering's strip (if any) are one thread-local region.
fn backward_input(
    scratch: &mut ConvScratch,
    weight: &[f32],
    grad_out: &Tensor,
    s: &Conv2dShape,
) -> Tensor {
    let _sp = niid_prof::span!("conv.dx");
    let (n, v, lowering) = (scratch.batch, s.padded_view(), scratch.cached);
    let (positions, cw) = (s.out_positions(), s.col_width());
    let (in_numel, out_numel) = (s.input_numel(), s.output_numel());
    let plane_len = v.input_numel() + SLACK;
    let flops = n * 2 * out_numel * cw;
    // Resolved on the calling thread; re-pinned inside pool tasks below.
    let kern = simd::active_kernel();
    let strip_rows = match lowering {
        ConvLowering::Materialized => positions,
        ConvLowering::Implicit => {
            let class = crate::dispatch::classify_conv(s.in_channels, cw);
            crate::dispatch::tiles_for(class).nc.min(positions)
        }
        ConvLowering::Direct => 0,
    };
    if lowering != ConvLowering::Materialized {
        // The dX GEMM flops, normally counted inside matmul_at_b_slices.
        stats::bump(Counter::GemmFlops, flops as u64);
    }
    #[cfg(target_arch = "x86_64")]
    let wpack: &[f32] = if lowering == ConvLowering::Direct {
        let len = v.in_channels * v.kernel_h * v.out_channels * direct::LANES;
        ConvScratch::ensure(&mut scratch.wpack, len);
        direct::pack_weights_kx(weight, &v, &mut scratch.wpack[..len]);
        &scratch.wpack[..len]
    } else {
        &[]
    };
    let go = grad_out.as_slice();
    let mut grad_input = vec![0.0f32; n * in_numel];
    let gx_ptr = SharedMut(grad_input.as_mut_ptr());
    parallel_for_threshold(n, flops, &|i| {
        let go_i = &go[i * out_numel..(i + 1) * out_numel];
        with_scratch(plane_len + strip_rows * cw, |buf| {
            let (plane, strip) = buf.split_at_mut(plane_len);
            plane.fill(0.0);
            match lowering {
                ConvLowering::Materialized => dx_materialized(kern, go_i, weight, &v, strip, plane),
                ConvLowering::Implicit => dx_implicit(kern, go_i, weight, &v, strip, plane),
                #[cfg(target_arch = "x86_64")]
                ConvLowering::Direct => {
                    let _sp = niid_prof::span!("conv.direct_dx");
                    direct::dx_sample(go_i, wpack, &v, plane);
                }
                #[cfg(not(target_arch = "x86_64"))]
                ConvLowering::Direct => unreachable!("direct conv on non-x86_64"),
            }
            // SAFETY: sample `i` exclusively owns its grad_input region.
            unpad_sample(plane, s, unsafe { gx_ptr.slice(i * in_numel, in_numel) });
        });
    });
    Tensor::from_vec(grad_input, &[n, s.in_channels, s.in_h, s.in_w])
}

/// The historical materialized weight-gradient body, verbatim — scalar
/// arm and bit-exactness oracle for [`dw_fused`].
fn dw_materialized(
    scratch: &mut ConvScratch,
    grad_out: &Tensor,
    s: &Conv2dShape,
    grad_weight: &mut [f32],
) {
    let n = scratch.batch;
    let positions = s.out_positions();
    let cw = s.col_width();
    let out_numel = s.output_numel();
    let ConvScratch { cols, gy_t, .. } = scratch;
    let cols = &cols[..n * positions * cw];
    ConvScratch::ensure(gy_t, n * positions * s.out_channels);
    let go = grad_out.as_slice();

    // Transpose each sample's [outc, positions] gradient to
    // [positions, outc] so dW becomes one tall Aᵀ·B GEMM below.
    {
        let gy_t_ptr = SharedMut(gy_t.as_mut_ptr());
        parallel_for_threshold(n, n * out_numel, &|i| {
            let go_i = &go[i * out_numel..(i + 1) * out_numel];
            // SAFETY: sample `i` exclusively owns its gy_t region.
            let gy_t_i = unsafe {
                gy_t_ptr.slice(i * positions * s.out_channels, positions * s.out_channels)
            };
            for c in 0..s.out_channels {
                for (p, &g) in go_i[c * positions..(c + 1) * positions].iter().enumerate() {
                    gy_t_i[p * s.out_channels + c] = g;
                }
            }
        });
    }

    // dW[outc, cw] += gy_tᵀ [outc, N·pos] · cols [N·pos, cw]: one GEMM
    // over the whole batch, accumulating input rows in ascending order
    // straight into the caller's gradient buffer.
    matmul_at_b_slices(
        &gy_t[..n * positions * s.out_channels],
        cols,
        grad_weight,
        n * positions,
        s.out_channels,
        cw,
    );
}

/// The historical materialized data-gradient body: one sample's
/// `dcols = gyᵀ · W` into the full-height `dcols` strip, then scatter-add
/// onto the padded `plane`.
fn dx_materialized(
    kern: Kernel,
    go_i: &[f32],
    weight: &[f32],
    v: &Conv2dShape,
    dcols: &mut [f32],
    plane: &mut [f32],
) {
    let (positions, cw) = (v.out_positions(), v.col_width());
    // dcols [pos, cw] = gy_iᵀ [pos, outc] · W [outc, cw]; the GEMM
    // accumulates, so clear the reused strip first. The nested GEMM may
    // run on a pool worker — re-pin the kernel.
    dcols.fill(0.0);
    simd::with_forced_kernel(kern, || {
        matmul_at_b_slices(go_i, weight, dcols, v.out_channels, positions, cw);
    });
    col2im_scatter_rows(dcols, v, 0, positions, plane);
}

/// Implicit data gradient of one sample: strips of positions through
/// [`crate::matmul::atb_rows`] (the identical kernel the materialized
/// path runs on full dcols), scattered onto the padded `plane` at once.
/// Strip length is bits-free: every strip element is computed in one
/// full-depth (outc) chain, and the global scatter order matches the
/// full scatter.
fn dx_implicit(
    kern: Kernel,
    go_i: &[f32],
    weight: &[f32],
    v: &Conv2dShape,
    strip: &mut [f32],
    plane: &mut [f32],
) {
    let (positions, cw) = (v.out_positions(), v.col_width());
    let sp = strip.len() / cw;
    let mut p0 = 0;
    while p0 < positions {
        let p1 = (p0 + sp).min(positions);
        let st = &mut strip[..(p1 - p0) * cw];
        st.fill(0.0);
        crate::matmul::atb_rows(
            kern,
            go_i,
            weight,
            st,
            0,
            v.out_channels,
            p0,
            p1,
            positions,
            cw,
        );
        col2im_scatter_rows(st, v, p0, p1, plane);
        p0 = p1;
    }
}

/// Fused weight gradient, shared by the implicit and direct lowerings:
/// `matmul_at_b_slices`' branch and task split replicated exactly over
/// (`k = out_channels`, `m = batch·positions`), with the lowered operand
/// supplied per row range from the padded batch by [`dw_rows_implicit`]
/// (im2col windows regenerated on the fly) or [`direct::dw_rows`] (read
/// in place). Bit-identical to [`dw_materialized`] under the same SIMD
/// kernel: every per-element FMA chain visits the same values in the
/// same order, with the same `ATB_BLOCK_M` partial-sum boundaries.
#[cfg(target_arch = "x86_64")]
fn dw_fused(scratch: &ConvScratch, grad_out: &Tensor, s: &Conv2dShape, grad_weight: &mut [f32]) {
    use crate::matmul::{ATB_BLOCK_M, KB};
    let (n, v) = (scratch.batch, s.padded_view());
    let cw = s.col_width();
    let outc = s.out_channels;
    let m = n * s.out_positions();
    let flops = 2 * m * outc * cw;
    let direct = scratch.cached == ConvLowering::Direct;
    stats::bump(calls(scratch.cached), 1);
    // The dW GEMM flops, normally counted inside matmul_at_b_slices.
    stats::bump(Counter::GemmFlops, flops as u64);
    let tiles = crate::dispatch::tiles_for(crate::dispatch::classify_conv(s.in_channels, cw));
    let go = grad_out.as_slice();
    let xs = &scratch.input[..n * v.input_numel() + SLACK];
    // dW rows `kk0..kk1` accumulated over lowered rows `r0..r1`.
    let rows = |c_rows: &mut [f32], kk0: usize, kk1: usize, r0: usize, r1: usize| {
        if direct {
            let _sp = niid_prof::span!("conv.direct_dw");
            direct::dw_rows(xs, go, c_rows, &v, kk0, kk1, r0, r1);
        } else {
            dw_rows_implicit(xs, go, c_rows, &v, kk0, kk1, r0, r1, tiles.kc, tiles.mr);
        }
    };

    if outc >= 2 * KB || m < ATB_BLOCK_M {
        // Row-split path: each task owns KB output rows of dW and sweeps
        // every lowered row.
        let tasks = outc.div_ceil(KB);
        let gw_ptr = SharedMut(grad_weight.as_mut_ptr());
        parallel_for_threshold(tasks, flops, &|t| {
            let kk0 = t * KB;
            let kk1 = (kk0 + KB).min(outc);
            // SAFETY: task `t` exclusively owns dW rows kk0..kk1.
            let gw_rows = unsafe { gw_ptr.slice(kk0 * cw, (kk1 - kk0) * cw) };
            rows(gw_rows, kk0, kk1, 0, m);
        });
        return;
    }
    // Partial-sum path: fixed ATB_BLOCK_M-row partial products reduced
    // in ascending block order, exactly like matmul_at_b_slices.
    let blocks = m.div_ceil(ATB_BLOCK_M);
    let mut partials = vec![0.0f32; blocks * outc * cw];
    {
        let pptr = SharedMut(partials.as_mut_ptr());
        parallel_for_threshold(blocks, flops, &|blk| {
            let r0 = blk * ATB_BLOCK_M;
            let r1 = (r0 + ATB_BLOCK_M).min(m);
            // SAFETY: block `blk` exclusively owns its partial buffer.
            let part = unsafe { pptr.slice(blk * outc * cw, outc * cw) };
            rows(part, 0, outc, r0, r1);
        });
    }
    let kern = simd::active_kernel();
    for part in partials.chunks_exact(outc * cw) {
        simd::add_assign(kern, grad_weight, part);
    }
}

/// Accumulate dW output rows `kk0..kk1` over lowered rows `r0..r1` of the
/// padded batch `xs` (`v` is the padded view) without a materialized cols
/// buffer: im2col row windows (`rw` rows at a time, clipped to sample
/// boundaries) are regenerated into a thread-local tile and fed to the
/// same `gemm_panel` chain `matmul_at_b_slices` runs, with alphas read
/// **directly from `grad_out`** (`rs = positions, ts = 1` walks a channel
/// row) instead of the materialized path's transposed `gy_t` copy. Depth
/// order (lowered row ascending) and per-element chains are therefore
/// identical — bit for bit — while skipping both the transpose pass and
/// the lowering.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn dw_rows_implicit(
    xs: &[f32],
    go: &[f32],
    c_rows: &mut [f32],
    v: &Conv2dShape,
    kk0: usize,
    kk1: usize,
    r0: usize,
    r1: usize,
    rw: usize,
    mr: usize,
) {
    let positions = v.out_positions();
    let cw = v.col_width();
    let in_numel = v.input_numel();
    let out_numel = v.output_numel();
    with_scratch(rw * cw, |buf| {
        let mut r = r0;
        while r < r1 {
            let i = r / positions;
            let p0 = r % positions;
            let p1 = positions.min(p0 + (r1 - r)).min(p0 + rw);
            let rows_here = p1 - p0;
            im2col_rows(
                &xs[i * in_numel..(i + 1) * in_numel],
                v,
                p0,
                p1,
                &mut buf[..rows_here * cw],
            );
            let go_i = &go[i * out_numel..(i + 1) * out_numel];
            let mut kk = kk0;
            while kk < kk1 {
                let rows = (kk1 - kk).min(mr);
                simd::gemm_panel_avx2(
                    &go_i[kk * positions + p0..],
                    positions,
                    1,
                    rows,
                    rows_here,
                    &buf[..rows_here * cw],
                    cw,
                    &mut c_rows[(kk - kk0) * cw..],
                    cw,
                    cw,
                );
                kk += rows;
            }
            r += rows_here;
        }
    });
}

/// Backward convolution against the state cached in `scratch` by the
/// preceding [`conv2d_forward`] call.
///
/// Allocating wrapper over [`conv2d_backward_accum`]: returns
/// `(grad_input [N,C,H,W], grad_weight, grad_bias)` as fresh tensors.
pub fn conv2d_backward_ws(
    scratch: &mut ConvScratch,
    weight: &Tensor,
    grad_out: &Tensor,
    s: &Conv2dShape,
) -> (Tensor, Tensor, Tensor) {
    let cw = s.col_width();
    let mut grad_weight = vec![0.0f32; s.out_channels * cw];
    let mut grad_bias = vec![0.0f32; s.out_channels];
    let grad_input = conv2d_backward_accum(
        scratch,
        weight.as_slice(),
        grad_out,
        s,
        &mut grad_weight,
        &mut grad_bias,
    );
    (
        grad_input,
        Tensor::from_vec(grad_weight, &[s.out_channels, cw]),
        Tensor::from_vec(grad_bias, &[s.out_channels]),
    )
}

thread_local! {
    /// Workspace reused by the allocating wrappers below, so one-off
    /// callers stop paying a fresh lowering allocation per call.
    static WRAPPER_SCRATCH: RefCell<ConvScratch> = RefCell::new(ConvScratch::new());
}

fn with_wrapper_scratch<R>(f: impl FnOnce(&mut ConvScratch) -> R) -> R {
    WRAPPER_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant call (wrapper inside wrapper): fall back to a fresh
        // scratch rather than aliasing the borrowed one.
        Err(_) => f(&mut ConvScratch::new()),
    })
}

/// Allocating forward convolution (tests and one-off callers), routed
/// through a reused thread-local [`ConvScratch`].
///
/// Returns the output `[N, out_c, oh, ow]`. Training loops should hold
/// their own [`ConvScratch`] and call [`conv2d_forward`] instead; pair
/// this with [`conv2d_backward`], which recomputes the lowering state
/// from the input.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&Tensor>, s: &Conv2dShape) -> Tensor {
    with_wrapper_scratch(|scratch| {
        let bias = bias.map(Tensor::as_slice);
        conv2d_forward(input, weight.as_slice(), bias, s, scratch)
    })
}

/// Allocating backward convolution from the forward `input` (one-off
/// callers; training loops use [`conv2d_backward_accum`]).
///
/// Primes the thread-local scratch from `input` exactly as
/// [`conv2d_forward`] would — the lowering is a pure function of the
/// input, so the gradients are bit-identical to a forward-primed scratch
/// — and returns `(grad_input [N,C,H,W], grad_weight, grad_bias)`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    s: &Conv2dShape,
) -> (Tensor, Tensor, Tensor) {
    s.validate();
    assert_eq!(input.ndim(), 4, "conv2d_backward: input must be NCHW");
    let n = input.shape()[0];
    assert_eq!(
        &input.shape()[1..],
        &[s.in_channels, s.in_h, s.in_w],
        "conv2d_backward: input shape {:?} does not match geometry {:?}",
        input.shape(),
        s
    );
    with_wrapper_scratch(|scratch| {
        scratch.prime(input.as_slice(), n, s, active_lowering(s));
        conv2d_backward_ws(scratch, weight, grad_out, s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_thread_budget;
    use niid_stats::Pcg64;

    /// One sample's full im2col matrix `[oh*ow, C*kh*kw]`: pad, then
    /// lower through the padded view, as every lowering does.
    fn im2col(input: &[f32], s: &Conv2dShape) -> Tensor {
        let (positions, v) = (s.out_positions(), s.padded_view());
        let mut padded = vec![0.0f32; v.input_numel()];
        pad_batch(input, s, 1, &mut padded);
        let mut cols = vec![0.0f32; positions * s.col_width()];
        im2col_rows(&padded, &v, 0, positions, &mut cols);
        Tensor::from_vec(cols, &[positions, s.col_width()])
    }

    /// Inverse of [`im2col`] for gradients: scatter-add a full lowered
    /// buffer onto zeroed padded planes and return their interior.
    fn col2im(cols: &[f32], s: &Conv2dShape) -> Vec<f32> {
        let v = s.padded_view();
        let mut plane = vec![0.0f32; v.input_numel()];
        col2im_scatter_rows(cols, &v, 0, s.out_positions(), &mut plane);
        let mut out = vec![0.0f32; s.input_numel()];
        unpad_sample(&plane, s, &mut out);
        out
    }

    fn shape_3x3() -> Conv2dShape {
        Conv2dShape {
            in_channels: 1,
            out_channels: 1,
            in_h: 3,
            in_w: 3,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
            padding: 0,
        }
    }

    #[test]
    fn out_dims() {
        let s = Conv2dShape {
            in_channels: 3,
            out_channels: 6,
            in_h: 28,
            in_w: 28,
            kernel_h: 5,
            kernel_w: 5,
            stride: 1,
            padding: 0,
        };
        assert_eq!(s.out_h(), 24);
        assert_eq!(s.out_w(), 24);
        assert_eq!(s.col_width(), 75);
        let padded = Conv2dShape { padding: 2, ..s };
        assert_eq!(padded.out_h(), 28);
        let strided = Conv2dShape { stride: 2, ..s };
        assert_eq!(strided.out_h(), 12);
    }

    #[test]
    fn im2col_known_values() {
        let s = shape_3x3();
        let input: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let cols = im2col(&input, &s);
        assert_eq!(cols.shape(), &[4, 4]);
        // Top-left 2x2 patch = [1,2,4,5].
        assert_eq!(cols.row(0), &[1.0, 2.0, 4.0, 5.0]);
        // Bottom-right patch = [5,6,8,9].
        assert_eq!(cols.row(3), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_fills_zeros() {
        let s = Conv2dShape {
            padding: 1,
            ..shape_3x3()
        };
        let input: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let cols = im2col(&input, &s);
        assert_eq!(cols.shape(), &[16, 4]);
        // First patch is entirely in the top-left corner: covers padded
        // positions (-1,-1),(-1,0),(0,-1),(0,0) -> [0,0,0,1].
        assert_eq!(cols.row(0), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn im2col_rows_chunks_match_full_lowering() {
        let s = Conv2dShape {
            in_channels: 2,
            out_channels: 1,
            in_h: 5,
            in_w: 5,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
        };
        let mut rng = Pcg64::new(31);
        let x = Tensor::randn(&[1, 2, 5, 5], 1.0, &mut rng);
        let full = im2col(x.as_slice(), &s);
        let positions = s.out_positions();
        let cw = s.col_width();
        let v = s.padded_view();
        let mut padded = vec![0.0f32; v.input_numel()];
        pad_batch(x.as_slice(), &s, 1, &mut padded);
        for chunk in [1usize, 2, 3, positions] {
            let mut p0 = 0;
            while p0 < positions {
                let p1 = (p0 + chunk).min(positions);
                // Poisoned buffer: every cell must be overwritten.
                let mut rows = vec![7.0f32; (p1 - p0) * cw];
                im2col_rows(&padded, &v, p0, p1, &mut rows);
                assert_eq!(&rows[..], &full.as_slice()[p0 * cw..p1 * cw]);
                p0 = p1;
            }
        }
    }

    #[test]
    fn col2im_scatter_rows_chunks_match_full() {
        let s = Conv2dShape {
            in_channels: 2,
            out_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let positions = s.out_positions();
        let cw = s.col_width();
        let cols: Vec<f32> = (0..positions * cw).map(|v| (v as f32).sin()).collect();
        let full = col2im(&cols, &s);
        let v = s.padded_view();
        for chunk in [1usize, 3, 5, positions] {
            let mut plane = vec![0.0f32; v.input_numel()];
            let mut p0 = 0;
            while p0 < positions {
                let p1 = (p0 + chunk).min(positions);
                col2im_scatter_rows(&cols[p0 * cw..p1 * cw], &v, p0, p1, &mut plane);
                p0 = p1;
            }
            let mut out = vec![0.0f32; s.input_numel()];
            unpad_sample(&plane, &s, &mut out);
            assert_eq!(out, full);
        }
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let s = Conv2dShape {
            in_channels: 1,
            out_channels: 1,
            in_h: 4,
            in_w: 4,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            padding: 0,
        };
        let mut rng = Pcg64::new(5);
        let x = Tensor::randn(&[2, 1, 4, 4], 1.0, &mut rng);
        let w = Tensor::ones(&[1, 1]);
        let y = conv2d(&x, &w, None, &s);
        assert_eq!(y.shape(), x.shape());
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn conv_known_sum_kernel() {
        // All-ones 2x2 kernel computes patch sums.
        let s = shape_3x3();
        let input: Vec<f32> = (1..=9).map(|x| x as f32).collect();
        let x = Tensor::from_vec(input, &[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 4]);
        let y = conv2d(&x, &w, None, &s);
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_bias_is_added() {
        let s = shape_3x3();
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let w = Tensor::ones(&[1, 4]);
        let b = Tensor::from_vec(vec![0.5], &[1]);
        let y = conv2d(&x, &w, Some(&b), &s);
        assert!(y.as_slice().iter().all(|&v| v == 0.5));
    }

    /// Reference direct convolution for cross-checking.
    fn naive_conv(x: &Tensor, w: &Tensor, s: &Conv2dShape) -> Tensor {
        let n = x.shape()[0];
        let (oh, ow) = (s.out_h(), s.out_w());
        let mut out = Tensor::zeros(&[n, s.out_channels, oh, ow]);
        let xs = x.as_slice();
        for i in 0..n {
            for oc in 0..s.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ic in 0..s.in_channels {
                            for ky in 0..s.kernel_h {
                                for kx in 0..s.kernel_w {
                                    let y = (oy * s.stride + ky) as isize - s.padding as isize;
                                    let xpos = (ox * s.stride + kx) as isize - s.padding as isize;
                                    if y < 0
                                        || y >= s.in_h as isize
                                        || xpos < 0
                                        || xpos >= s.in_w as isize
                                    {
                                        continue;
                                    }
                                    let xi = ((i * s.in_channels + ic) * s.in_h + y as usize)
                                        * s.in_w
                                        + xpos as usize;
                                    let wi = (oc * s.in_channels + ic) * s.kernel_h * s.kernel_w
                                        + ky * s.kernel_w
                                        + kx;
                                    acc += xs[xi] * w.as_slice()[wi];
                                }
                            }
                        }
                        let oi = ((i * s.out_channels + oc) * oh + oy) * ow + ox;
                        out.as_mut_slice()[oi] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv_matches_naive_multichannel() {
        let s = Conv2dShape {
            in_channels: 3,
            out_channels: 4,
            in_h: 7,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 2,
            padding: 1,
        };
        let mut rng = Pcg64::new(6);
        let x = Tensor::randn(&[2, 3, 7, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[4, s.col_width()], 0.5, &mut rng);
        let fast = conv2d(&x, &w, None, &s);
        let slow = naive_conv(&x, &w, &s);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    type Forward = fn(&Tensor, &[f32], Option<&[f32]>, &Conv2dShape, &mut ConvScratch) -> Tensor;

    /// Forward through `forward`, then the backward its scratch pairs
    /// with: `[y, gx, gw, gb]`.
    fn run_lowering(
        forward: Forward,
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        gy: &Tensor,
        s: &Conv2dShape,
    ) -> [Tensor; 4] {
        let mut scratch = ConvScratch::new();
        let y = forward(x, w.as_slice(), Some(b.as_slice()), s, &mut scratch);
        let (gx, gw, gb) = conv2d_backward_ws(&mut scratch, w, gy, s);
        [y, gx, gw, gb]
    }

    /// Bit equality; a NaN may differ from its counterpart only in
    /// payload (FMA operand order picks it, the compiler picks that).
    fn assert_bits_eq(got: &[Tensor; 4], want: &[Tensor; 4], tag: &str) {
        for (name, (g, w)) in ["y", "gx", "gw", "gb"].iter().zip(got.iter().zip(want)) {
            assert_eq!(g.shape(), w.shape(), "{name} shape: {tag}");
            for (i, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{name}[{i}]: {a} vs {b}: {tag}"
                );
            }
        }
    }

    #[test]
    fn implicit_matches_materialized_bitwise() {
        if !simd::active_kernel().is_simd() {
            return; // implicit path exists only on the SIMD arm
        }
        // Paper's second conv shape (6→16, k5) plus awkward stride/padding
        // variants; full sweep lives in tests/implicit_conv.rs.
        for s in [
            Conv2dShape {
                in_channels: 6,
                out_channels: 16,
                in_h: 12,
                in_w: 12,
                kernel_h: 5,
                kernel_w: 5,
                stride: 1,
                padding: 0,
            },
            Conv2dShape {
                in_channels: 3,
                out_channels: 5,
                in_h: 11,
                in_w: 9,
                kernel_h: 3,
                kernel_w: 3,
                stride: 2,
                padding: 1,
            },
        ] {
            let mut rng = Pcg64::new(77);
            let n = 3;
            let x = Tensor::randn(&[n, s.in_channels, s.in_h, s.in_w], 1.0, &mut rng);
            let w = Tensor::randn(&[s.out_channels, s.col_width()], 0.3, &mut rng);
            let b = Tensor::randn(&[s.out_channels], 0.1, &mut rng);
            let gy = Tensor::randn(&[n, s.out_channels, s.out_h(), s.out_w()], 1.0, &mut rng);
            let imp = run_lowering(conv2d_forward_implicit, &x, &w, &b, &gy, &s);
            let mat = run_lowering(conv2d_forward_materialized, &x, &w, &b, &gy, &s);
            assert_bits_eq(&imp, &mat, &format!("{s:?}"));
        }
    }

    /// The direct kernels against the materialized oracle over randomised
    /// stride-1 geometries — non-square planes, output rows that are no
    /// multiple of the vector width (and narrower than it), paddings 0–2,
    /// batch 1, batches whose lowered rows straddle an `ATB_BLOCK_M`
    /// boundary mid-row, non-finite inputs — at thread budgets 1, 2, 4.
    #[test]
    fn direct_matches_materialized_bitwise() {
        if !simd::active_kernel().is_simd() {
            return; // direct kernels exist only on the SIMD arm
        }
        let mut rng = Pcg64::new(0xD1EC7);
        let mut straddled = 0;
        for case in 0..60 {
            let k = [1usize, 2, 3, 5, 7][rng.next_below(5)];
            let kernel_h = if rng.next_below(4) == 0 {
                1 + rng.next_below(5)
            } else {
                k
            };
            let padding = rng.next_below(3);
            let s = Conv2dShape {
                in_channels: 1 + rng.next_below(6),
                out_channels: 1 + rng.next_below(17),
                in_h: kernel_h.max(2) + rng.next_below(14),
                in_w: k.max(2) + rng.next_below(20),
                kernel_h,
                kernel_w: k,
                stride: 1,
                padding,
            };
            // Batch 1, a few, or just enough lowered rows to cross the
            // partial-sum block boundary (when the shape takes that branch).
            let positions = s.out_positions();
            let n = match case % 3 {
                0 => 1,
                1 => 2 + rng.next_below(4),
                _ => (crate::matmul::ATB_BLOCK_M / positions + 2).min(40),
            };
            let m = n * positions;
            if m > crate::matmul::ATB_BLOCK_M
                && !crate::matmul::ATB_BLOCK_M.is_multiple_of(s.out_w())
            {
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
            let mat = run_lowering(conv2d_forward_materialized, &x, &w, &b, &gy, &s);
            for budget in [1usize, 2, 4] {
                let dir = with_thread_budget(budget, || {
                    run_lowering(conv2d_forward_direct, &x, &w, &b, &gy, &s)
                });
                assert_bits_eq(&dir, &mat, &format!("case {case} n{n} @{budget} {s:?}"));
            }
        }
        assert!(
            straddled >= 5,
            "only {straddled} cases split a row across blocks"
        );
    }

    #[test]
    fn col2im_inverts_im2col_counts() {
        // For an all-ones cols matrix, col2im counts how many patches touch
        // each input pixel; with 2x2/stride1 on 3x3, the center is hit 4x.
        let s = shape_3x3();
        let cols = Tensor::ones(&[4, 4]);
        let img = col2im(cols.as_slice(), &s);
        assert_eq!(img[4], 4.0, "center pixel covered by all 4 patches");
        assert_eq!(img[0], 1.0, "corner covered once");
        assert_eq!(img[1], 2.0, "edge covered twice");
    }

    #[test]
    fn conv_backward_finite_difference() {
        let s = Conv2dShape {
            in_channels: 2,
            out_channels: 3,
            in_h: 5,
            in_w: 5,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let mut rng = Pcg64::new(7);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let w = Tensor::randn(&[3, s.col_width()], 0.3, &mut rng);
        let b = Tensor::randn(&[3], 0.1, &mut rng);

        // Loss = sum(conv(x)) so dY = ones.
        let y = conv2d(&x, &w, Some(&b), &s);
        let gy = Tensor::ones(y.shape());
        let (gx, gw, gb) = conv2d_backward(&x, &w, &gy, &s);

        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f64 { conv2d(x, w, Some(b), &s).sum() };
        let eps = 1e-2f32;

        // Check a scattering of coordinates in each gradient.
        for &idx in &[0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&xp, &w, &b) - loss(&xm, &w, &b)) / (2.0 * eps as f64);
            let ana = gx.as_slice()[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dX[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        for &idx in &[0usize, 5, 17] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps as f64);
            let ana = gw.as_slice()[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dW[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        {
            let mut bp = b.clone();
            bp.as_mut_slice()[1] += eps;
            let mut bm = b.clone();
            bm.as_mut_slice()[1] -= eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &bm)) / (2.0 * eps as f64);
            let ana = gb.as_slice()[1] as f64;
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()));
        }
    }

    #[test]
    fn scratch_reuse_across_batch_sizes_matches_fresh() {
        let s = Conv2dShape {
            in_channels: 2,
            out_channels: 3,
            in_h: 6,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let mut rng = Pcg64::new(21);
        let w = Tensor::randn(&[3, s.col_width()], 0.3, &mut rng);
        let b = Tensor::randn(&[3], 0.1, &mut rng);
        let mut scratch = ConvScratch::new();
        // Big batch, then a smaller one, then bigger again: the reused
        // (never-shrunk) buffers must behave exactly like fresh ones.
        for &batch in &[5usize, 2, 7] {
            let x = Tensor::randn(&[batch, 2, 6, 6], 1.0, &mut rng);
            let y_ws = conv2d_forward(&x, w.as_slice(), Some(b.as_slice()), &s, &mut scratch);
            let gy = Tensor::ones(y_ws.shape());
            let (gx_ws, gw_ws, gb_ws) = conv2d_backward_ws(&mut scratch, &w, &gy, &s);

            let y_fresh = conv2d(&x, &w, Some(&b), &s);
            let (gx, gw, gb) = conv2d_backward(&x, &w, &gy, &s);
            assert_eq!(y_ws.as_slice(), y_fresh.as_slice(), "batch {batch}");
            assert_eq!(gx_ws.as_slice(), gx.as_slice(), "batch {batch}");
            assert_eq!(gw_ws.as_slice(), gw.as_slice(), "batch {batch}");
            assert_eq!(gb_ws.as_slice(), gb.as_slice(), "batch {batch}");
        }
    }

    #[test]
    fn backward_accum_adds_onto_existing_gradients() {
        let s = Conv2dShape {
            in_channels: 2,
            out_channels: 3,
            in_h: 5,
            in_w: 5,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let mut rng = Pcg64::new(41);
        let x = Tensor::randn(&[2, 2, 5, 5], 1.0, &mut rng);
        let w = Tensor::randn(&[3, s.col_width()], 0.3, &mut rng);
        let mut scratch = ConvScratch::new();
        let y = conv2d_forward(&x, w.as_slice(), None, &s, &mut scratch);
        let gy = Tensor::ones(y.shape());
        let (gx_ref, gw_ref, gb_ref) = conv2d_backward_ws(&mut scratch, &w, &gy, &s);

        // Pre-seeded buffers: accum must add the same gradient on top.
        let mut gw = vec![1.0f32; 3 * s.col_width()];
        let mut gb = vec![2.0f32; 3];
        let gx = conv2d_backward_accum(&mut scratch, w.as_slice(), &gy, &s, &mut gw, &mut gb);
        assert_eq!(gx.as_slice(), gx_ref.as_slice());
        for (got, want) in gw.iter().zip(gw_ref.as_slice()) {
            assert!((got - (want + 1.0)).abs() < 1e-5);
        }
        for (got, want) in gb.iter().zip(gb_ref.as_slice()) {
            assert!((got - (want + 2.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_backward_bit_identical_across_thread_budgets() {
        // CNN-sized: 6→16 channels over 12x12, batch 32 — large enough to
        // cross the parallel threshold.
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
        let mut rng = Pcg64::new(22);
        let x = Tensor::randn(&[32, 6, 12, 12], 1.0, &mut rng);
        let w = Tensor::randn(&[16, s.col_width()], 0.2, &mut rng);
        let b = Tensor::randn(&[16], 0.1, &mut rng);
        let run = || {
            let mut scratch = ConvScratch::new();
            let y = conv2d_forward(&x, w.as_slice(), Some(b.as_slice()), &s, &mut scratch);
            let gy = Tensor::ones(y.shape());
            let (gx, gw, gb) = conv2d_backward_ws(&mut scratch, &w, &gy, &s);
            (y, gx, gw, gb)
        };
        let base = run();
        for budget in [1usize, 2, 7] {
            let got = with_thread_budget(budget, run);
            assert_eq!(got.0.as_slice(), base.0.as_slice(), "y @{budget}");
            assert_eq!(got.1.as_slice(), base.1.as_slice(), "gx @{budget}");
            assert_eq!(got.2.as_slice(), base.2.as_slice(), "gw @{budget}");
            assert_eq!(got.3.as_slice(), base.3.as_slice(), "gb @{budget}");
        }
    }

    #[test]
    #[should_panic(expected = "scratch holds")]
    fn backward_with_stale_scratch_batch_panics() {
        let s = shape_3x3();
        let mut rng = Pcg64::new(23);
        let x = Tensor::randn(&[2, 1, 3, 3], 1.0, &mut rng);
        let w = Tensor::randn(&[1, 4], 0.3, &mut rng);
        let mut scratch = ConvScratch::new();
        let _ = conv2d_forward(&x, w.as_slice(), None, &s, &mut scratch);
        // grad_out claims a different batch than the lowering.
        let gy = Tensor::ones(&[3, 1, 2, 2]);
        let _ = conv2d_backward_ws(&mut scratch, &w, &gy, &s);
    }

    #[test]
    #[should_panic(expected = "taller than padded input")]
    fn oversized_kernel_panics() {
        let s = Conv2dShape {
            in_channels: 1,
            out_channels: 1,
            in_h: 2,
            in_w: 2,
            kernel_h: 5,
            kernel_w: 5,
            stride: 1,
            padding: 0,
        };
        let _ = im2col(&[0.0; 4], &s);
    }
}
