//! Cache-blocked, multi-threaded matrix multiplication kernels.
//!
//! Three entry points cover everything backprop needs without
//! materializing transposes:
//!
//! * [`matmul`]      — `C = A · B`       (forward passes, im2col conv)
//! * [`matmul_at_b`] — `C = Aᵀ · B`      (weight gradients)
//! * [`matmul_a_bt`] — `C = A · Bᵀ`      (input gradients)
//!
//! Each has a slice-level sibling (`*_slices`) that writes into a
//! caller-owned buffer, which is what `conv2d` and the workspace-reuse
//! paths call to avoid intermediate `Tensor` allocations.
//!
//! ## Blocking scheme
//!
//! `matmul` tiles over N (`NC`), K (`KC`) and splits M into fixed
//! `MB`-row blocks that are distributed over the worker pool
//! ([`crate::parallel`]). The innermost loop is the `i-k-j` order that
//! walks `B` and `C` contiguously and auto-vectorizes; the `KC × NC`
//! panel of `B` stays hot in cache while every row of a block sweeps it.
//! `matmul_at_b` parallelizes over `KB`-row blocks of the *output* (each
//! output row is owned by exactly one task) and falls back to fixed-size
//! row-block partial sums when the output is too short to split;
//! `matmul_a_bt` packs `Bᵀ` panels into contiguous lanes (the NT path)
//! and runs the same register-tiled panel kernel as `A·B` over `MB`-row
//! blocks of `A`.
//!
//! The innermost panels dispatch through [`crate::simd`]: the
//! micro-kernel (AVX2+FMA or the scalar fallback) is resolved **once per
//! GEMM call on the calling thread** and threaded down into every pool
//! task, so blocking, threading and vector width compose and per-thread
//! kernel forcing governs the whole operation. On the AVX2 arm the two
//! axpy-shaped variants (`A·B`, `Aᵀ·B`) run the register-tiled
//! [`crate::simd::gemm_panel_avx2`] outer-product kernel — groups of ≤4
//! `C` rows held in `ymm` accumulators across a whole panel — and
//! `A·Bᵀ` packs `Bᵀ` tiles via [`crate::simd::pack_bt_panel`] into a
//! per-thread arena and streams them through the dedicated NT kernel
//! [`crate::simd::gemm_panel_nt_avx2`], replacing the horizontal-sum dot
//! kernel that capped `a_bt` at less than half its siblings' throughput
//! (and ~10 GFLOP/s on 32³ blocks). The scalar arm keeps the historical
//! axpy/dot loops verbatim.
//!
//! The AVX2 arms of `A·B` and `A·Bᵀ` resolve their NC/KC/MR blocking
//! per shape class from the committed [`crate::dispatch`] table (tile
//! choices are bits-neutral there — see that module for the argument);
//! the scalar arm and `Aᵀ·B` stay on the historical constants, the
//! former because its zero-skip memoization is part of the bit-exact
//! replay contract, the latter because its only tunable knob
//! (`ATB_BLOCK_M`) is bits-relevant.
//!
//! ## Determinism
//!
//! Every task owns an exclusive region of `C`, and every accumulation
//! order is a function of the shapes alone (never the thread count), so
//! all kernels are **bit-identical for any `NIID_THREADS`** *for a fixed
//! micro-kernel selection* — the property the federated engine's
//! thread-invariance tests pin down. `NIID_SIMD=scalar` reproduces the
//! pre-SIMD trajectories bit-for-bit; AVX2 results differ from scalar
//! only by FMA contraction and lane-reduction rounding (tolerance-tested
//! in `tests/simd_kernels.rs`).
//!
//! ## NaN/inf propagation and the zero-skip
//!
//! Skipping `a == 0.0` terms (profitable for one-hot and post-ReLU
//! inputs) is only exact when the skipped `B` entries are finite (IEEE:
//! `0 · NaN = 0 · inf = NaN`). Instead of the old whole-matrix `O(k·n)`
//! pre-scan on every call, finiteness is now established lazily — only
//! when a zero is actually hit — and per B-tile (resp. per B-row), then
//! memoized for the rest of that tile pass. Dense inputs pay nothing.
//!
//! The zero-skip lives on the **scalar arm only**: the AVX2 register-tiled
//! panels always compute every term (a vector FMA is cheaper than the
//! branch), which is the IEEE-exact result and therefore propagates NaN/∞
//! without needing any finiteness bookkeeping.

use crate::dispatch::{self, GemmOp, TileParams};
use crate::parallel::parallel_chunks_mut_threshold as maybe_parallel;
use crate::simd::{self, Kernel};
use crate::stats::{self, Counter};
use crate::tensor::Tensor;

/// Rows of `C` per parallel task in [`matmul`] / [`matmul_a_bt`].
const MB: usize = 32;
/// Scalar-arm K-tile: rows of `B` kept hot per panel pass. The AVX2 arm
/// takes its tiles from [`crate::dispatch`]; these constants (equal to
/// [`DEFAULT_TILES`], asserted in tests) pin the scalar arm's historical
/// panel bounds, which its finiteness memoization depends on.
const KC: usize = 256;
/// Scalar-arm N-tile: columns of `B`/`C` per panel pass.
const NC: usize = 128;
/// Output rows of `Aᵀ·B` per parallel task. `pub(crate)` so the
/// implicit-conv dW path can replicate this op's task split exactly.
pub(crate) const KB: usize = 32;
/// Fixed row-block length for the partial-sum path of [`matmul_at_b`]
/// (engaged when the output has too few rows to split across tasks).
/// `pub(crate)` for the same branch-replication reason as [`KB`].
pub(crate) const ATB_BLOCK_M: usize = 1024;

/// Resolve the micro-kernel for one GEMM call and record the dispatch.
///
/// Called **once per entry point, on the calling thread**, and the
/// resolved [`Kernel`] is passed down into pool tasks — so a per-thread
/// forced kernel ([`simd::with_forced_kernel`]) governs the whole
/// operation no matter which worker executes a tile, and the dispatch
/// decision never sits in an inner loop.
#[inline]
fn dispatch_kernel(simd_ctr: Counter, scalar_ctr: Counter) -> Kernel {
    let kern = simd::active_kernel();
    stats::bump(if kern.is_simd() { simd_ctr } else { scalar_ctr }, 1);
    kern
}

/// `C[m,n] += A[m,k] · B[k,n]` over flat row-major slices.
///
/// Accumulates into `c` (pass a zeroed buffer for a plain product).
pub fn matmul_slices(av: &[f32], bv: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(av.len(), m * k, "matmul_slices: bad A length");
    assert_eq!(bv.len(), k * n, "matmul_slices: bad B length");
    assert_eq!(c.len(), m * n, "matmul_slices: bad C length");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    stats::bump(Counter::GemmAbCalls, 1);
    stats::bump(Counter::GemmFlops, (2 * m * k * n) as u64);
    let kern = dispatch_kernel(Counter::GemmAbSimdCalls, Counter::GemmAbScalarCalls);
    // Tiles are resolved once per call on the calling thread, like the
    // kernel itself. The scalar arm is pinned to the historical constants
    // — the tuned table must never reach it.
    let tiles = if kern.is_simd() {
        dispatch::tiles_for(dispatch::classify_gemm(GemmOp::Ab, m, n, k))
    } else {
        TileParams {
            nc: NC,
            kc: KC,
            mr: 4,
        }
    };
    maybe_parallel(c, MB * n, 2 * m * k * n, &|t, c_rows| {
        let r0 = t * MB;
        let r1 = (r0 + MB).min(m);
        mm_row_block(kern, av, bv, c_rows, r0, r1, k, n, tiles);
    });
}

/// The single-task body of [`matmul_slices`]: rows `r0..r1` of `C`,
/// tiled `jj → kk → i` so the `B` panel is reused across the block.
#[allow(clippy::too_many_arguments)]
fn mm_row_block(
    kern: Kernel,
    av: &[f32],
    bv: &[f32],
    c_rows: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    tiles: TileParams,
) {
    let _sp = niid_prof::span!("gemm.row_block");
    let mut jj0 = 0;
    while jj0 < n {
        let jj1 = (jj0 + tiles.nc).min(n);
        let mut kk0 = 0;
        while kk0 < k {
            let kk1 = (kk0 + tiles.kc).min(k);
            if kern.is_simd() {
                // Register-tiled always-compute path: groups of ≤mr C rows
                // stay in ymm accumulators across the whole B panel, so C
                // traffic drops up to 4× vs the per-row axpy formulation.
                // The group partition depends on the block bounds alone,
                // and each element's t-ascending FMA chain matches the
                // axpy order — neither threading nor tile choice can
                // change it. Computing zero alphas (instead of skipping)
                // is the IEEE-exact result, so NaN/∞ propagation is
                // preserved by construction.
                #[cfg(target_arch = "x86_64")]
                {
                    let (width, depth) = (jj1 - jj0, kk1 - kk0);
                    let mut i = r0;
                    while i < r1 {
                        let rows = (r1 - i).min(tiles.mr);
                        simd::gemm_panel_avx2(
                            &av[i * k + kk0..],
                            k,
                            1,
                            rows,
                            depth,
                            &bv[kk0 * n + jj0..],
                            n,
                            &mut c_rows[(i - r0) * n + jj0..],
                            n,
                            width,
                        );
                        i += rows;
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("SIMD kernel selected on non-x86_64");
            } else {
                // Lazily established once per B-panel, only if a zero is
                // hit.
                let mut panel_finite: Option<bool> = None;
                for i in r0..r1 {
                    let a_seg = &av[i * k + kk0..i * k + kk1];
                    let c_seg = &mut c_rows[(i - r0) * n + jj0..(i - r0) * n + jj1];
                    for (dk, &a_ik) in a_seg.iter().enumerate() {
                        if a_ik == 0.0 {
                            let finite = *panel_finite.get_or_insert_with(|| {
                                (kk0..kk1).all(|kk| {
                                    bv[kk * n + jj0..kk * n + jj1].iter().all(|v| v.is_finite())
                                })
                            });
                            if finite {
                                continue; // 0 · finite contributes exactly 0
                            }
                        }
                        let b_seg = &bv[(kk0 + dk) * n + jj0..(kk0 + dk) * n + jj1];
                        simd::axpy(kern, c_seg, a_ik, b_seg);
                    }
                }
            }
            kk0 = kk1;
        }
        jj0 = jj1;
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`.
///
/// # Panics
/// Panics if either input is not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul: A must be rank-2, got {:?}", a.shape());
    assert_eq!(b.ndim(), 2, "matmul: B must be rank-2, got {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "matmul: inner dimension mismatch A={:?} B={:?}",
        a.shape(),
        b.shape()
    );
    let mut c = vec![0.0f32; m * n];
    matmul_slices(a.as_slice(), b.as_slice(), &mut c, m, k, n);
    Tensor::from_vec(c, &[m, n])
}

/// `C[k,n] += Aᵀ[k,m] · B[m,n]` over flat slices (`A` is `[m,k]`).
///
/// Accumulates into `c` (pass a zeroed buffer for a plain product).
pub fn matmul_at_b_slices(av: &[f32], bv: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(av.len(), m * k, "matmul_at_b_slices: bad A length");
    assert_eq!(bv.len(), m * n, "matmul_at_b_slices: bad B length");
    assert_eq!(c.len(), k * n, "matmul_at_b_slices: bad C length");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let flops = 2 * m * k * n;
    stats::bump(Counter::GemmAtbCalls, 1);
    stats::bump(Counter::GemmFlops, flops as u64);
    let kern = dispatch_kernel(Counter::GemmAtbSimdCalls, Counter::GemmAtbScalarCalls);
    // Wide outputs: split the k output rows across tasks; each task sweeps
    // all m input rows but touches only its own rows of C, so per-element
    // accumulation order (ascending input row) matches the sequential
    // kernel bit-for-bit.
    if k >= 2 * KB || m < ATB_BLOCK_M {
        maybe_parallel(c, KB * n, flops, &|t, c_rows| {
            let kk0 = t * KB;
            let kk1 = (kk0 + KB).min(k);
            atb_rows(kern, av, bv, c_rows, 0, m, kk0, kk1, k, n);
        });
        return;
    }
    // Short-and-tall outputs (the conv weight gradient: k = out_channels,
    // m = batch · positions): fixed ATB_BLOCK_M-row partial sums reduced
    // in block order. The block structure depends on shape only, so the
    // result is still thread-count invariant.
    let blocks = m.div_ceil(ATB_BLOCK_M);
    let mut partials = vec![0.0f32; blocks * k * n];
    maybe_parallel(&mut partials, k * n, flops, &|blk, part| {
        let r0 = blk * ATB_BLOCK_M;
        let r1 = (r0 + ATB_BLOCK_M).min(m);
        atb_rows(kern, av, bv, part, r0, r1, 0, k, k, n);
    });
    for blk in 0..blocks {
        // `c += 1.0 · part` and `c += part` are the same IEEE operation,
        // so this reduction is bit-identical to the historical axpy.
        simd::add_assign(kern, c, &partials[blk * k * n..(blk + 1) * k * n]);
    }
}

/// Accumulate rows `r0..r1` of the rank-1 updates into output rows
/// `kk0..kk1` (`c` holds exactly those rows). `pub(crate)` so the
/// implicit-conv dX path can run the identical kernel on position strips
/// without materializing the lowered gradient.
#[allow(clippy::too_many_arguments)]
pub(crate) fn atb_rows(
    kern: Kernel,
    av: &[f32],
    bv: &[f32],
    c: &mut [f32],
    r0: usize,
    r1: usize,
    kk0: usize,
    kk1: usize,
    k: usize,
    n: usize,
) {
    let _sp = niid_prof::span!("gemm.atb_rows");
    if kern.is_simd() {
        // Register-tiled always-compute path (see `mm_row_block`): ≤4
        // output rows per ymm group, alphas walking a *column* of A
        // (`rs = 1, ts = k`), B streamed once per 16-column chunk instead
        // of once per (input row × output row) pair.
        #[cfg(target_arch = "x86_64")]
        {
            let depth = r1 - r0;
            let nrows = kk1 - kk0;
            let mut r = 0;
            while r < nrows {
                let rows = (nrows - r).min(4);
                simd::gemm_panel_avx2(
                    &av[r0 * k + kk0 + r..],
                    1,
                    k,
                    rows,
                    depth,
                    &bv[r0 * n..],
                    n,
                    &mut c[r * n..],
                    n,
                    n,
                );
                r += rows;
            }
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("SIMD kernel selected on non-x86_64");
    }
    for row in r0..r1 {
        let a_seg = &av[row * k + kk0..row * k + kk1];
        let b_row = &bv[row * n..(row + 1) * n];
        // Established once per row, only if a zero is hit in this k-range.
        let mut row_finite: Option<bool> = None;
        for (dk, &a_rk) in a_seg.iter().enumerate() {
            if a_rk == 0.0 {
                let finite = *row_finite.get_or_insert_with(|| b_row.iter().all(|v| v.is_finite()));
                if finite {
                    continue;
                }
            }
            simd::axpy(kern, &mut c[dk * n..(dk + 1) * n], a_rk, b_row);
        }
    }
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` for `A[m,k]`, without materializing `Aᵀ`.
///
/// This is the weight-gradient shape: `dW = Xᵀ · dY`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_at_b: A must be rank-2");
    assert_eq!(b.ndim(), 2, "matmul_at_b: B must be rank-2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (m2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        m,
        m2,
        "matmul_at_b: leading dimension mismatch A={:?} B={:?}",
        a.shape(),
        b.shape()
    );
    let mut c = vec![0.0f32; k * n];
    matmul_at_b_slices(a.as_slice(), b.as_slice(), &mut c, m, k, n);
    Tensor::from_vec(c, &[k, n])
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` over flat slices (`B` is `[k,n]`).
///
/// **Assigns** (does not accumulate): each `C` element is a single dot
/// product, so stale contents of `c` are overwritten.
pub fn matmul_a_bt_slices(av: &[f32], bv: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(av.len(), m * n, "matmul_a_bt_slices: bad A length");
    assert_eq!(bv.len(), k * n, "matmul_a_bt_slices: bad B length");
    assert_eq!(c.len(), m * k, "matmul_a_bt_slices: bad C length");
    if m == 0 || k == 0 {
        return;
    }
    if n == 0 {
        c.fill(0.0);
        return;
    }
    stats::bump(Counter::GemmAbtCalls, 1);
    stats::bump(Counter::GemmFlops, (2 * m * k * n) as u64);
    let kern = dispatch_kernel(Counter::GemmAbtSimdCalls, Counter::GemmAbtScalarCalls);
    if kern.is_simd() {
        #[cfg(target_arch = "x86_64")]
        {
            abt_nt(av, bv, c, m, n, k);
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("SIMD kernel selected on non-x86_64");
    }
    // Scalar arm: the historical register-blocked dot kernel, verbatim —
    // part of the `NIID_SIMD=scalar` bit-exact replay contract.
    maybe_parallel(c, MB * k, 2 * m * k * n, &|t, c_rows| {
        let r0 = t * MB;
        let r1 = (r0 + MB).min(m);
        // `j` outer / `i` inner: one load of `b_row` serves the whole
        // row-block, whose `A` rows stay cached.
        for j in 0..k {
            let b_row = &bv[j * n..(j + 1) * n];
            for i in r0..r1 {
                let a_row = &av[i * n..(i + 1) * n];
                c_rows[(i - r0) * k + j] = simd::dot(kern, a_row, b_row);
            }
        }
    });
}

/// The packed-NT path of [`matmul_a_bt_slices`] (AVX2 arm).
///
/// Phase 1 packs `Bᵀ` tile-major into a per-thread arena: the
/// `(j0, kk0)` tile lives at arena offset `j0·n + wj·kk0` (where `wj` is
/// the jj-tile width), a disjoint region per jj-tile so the pack can run
/// on the pool. Phase 2 sweeps `MB`-row blocks of `C` with the dedicated
/// NT panel kernel over the packed tiles — the same broadcast-FMA
/// register tiling as `A·B`, which is what removes the per-element
/// horizontal sums of the old dot formulation.
///
/// Assign semantics are preserved by zeroing each `C` block before
/// accumulating; per-element accumulation is one depth-ascending chain
/// chunked at `kc` boundaries, a function of shapes and tiles alone, so
/// thread-count bit-identity holds. Every term is computed (never
/// skipped), so NaN/±∞ propagate IEEE-exactly.
#[cfg(target_arch = "x86_64")]
fn abt_nt(av: &[f32], bv: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    let tiles = dispatch::tiles_for(dispatch::classify_gemm(GemmOp::ABt, m, k, n));
    let flops = 2 * m * k * n;
    crate::parallel::with_scratch(k * n, |pack| {
        maybe_parallel(pack, tiles.nc * n, flops, &|jt, region| {
            let _sp = niid_prof::span!("gemm.pack_bt");
            let j0 = jt * tiles.nc;
            let wj = (j0 + tiles.nc).min(k) - j0;
            let mut kk0 = 0;
            while kk0 < n {
                let kk1 = (kk0 + tiles.kc).min(n);
                simd::pack_bt_panel(
                    bv,
                    n,
                    j0,
                    kk0,
                    wj,
                    kk1 - kk0,
                    &mut region[wj * kk0..wj * kk1],
                );
                kk0 = kk1;
            }
        });
        let pack: &[f32] = pack;
        maybe_parallel(c, MB * k, flops, &|t, c_rows| {
            let _sp = niid_prof::span!("gemm.kernel_nt");
            let r0 = t * MB;
            let r1 = (r0 + MB).min(m);
            c_rows.fill(0.0);
            let mut j0 = 0;
            while j0 < k {
                let j1 = (j0 + tiles.nc).min(k);
                let wj = j1 - j0;
                let mut kk0 = 0;
                while kk0 < n {
                    let kk1 = (kk0 + tiles.kc).min(n);
                    let depth = kk1 - kk0;
                    let block = &pack[j0 * n + wj * kk0..j0 * n + wj * kk1];
                    let mut i = r0;
                    while i < r1 {
                        let rows = (r1 - i).min(tiles.mr);
                        simd::gemm_panel_nt_avx2(
                            &av[i * n + kk0..],
                            n,
                            1,
                            rows,
                            depth,
                            block,
                            &mut c_rows[(i - r0) * k + j0..],
                            k,
                            wj,
                        );
                        i += rows;
                    }
                    kk0 = kk1;
                }
                j0 = j1;
            }
        });
    });
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` for `B[k,n]`, without materializing `Bᵀ`.
///
/// This is the input-gradient shape: `dX = dY · Wᵀ` for `W[k,n]`... i.e. a
/// row of `C` is the dot products of a row of `A` against rows of `B`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 2, "matmul_a_bt: A must be rank-2");
    assert_eq!(b.ndim(), 2, "matmul_a_bt: B must be rank-2");
    let (m, n) = (a.shape()[0], a.shape()[1]);
    let (k, n2) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        n,
        n2,
        "matmul_a_bt: trailing dimension mismatch A={:?} B={:?}",
        a.shape(),
        b.shape()
    );
    let mut c = vec![0.0f32; m * k];
    matmul_a_bt_slices(a.as_slice(), b.as_slice(), &mut c, m, n, k);
    Tensor::from_vec(c, &[m, k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_thread_budget;
    use niid_stats::Pcg64;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at2(i, kk) * b.at2(kk, j);
                }
                *c.at2_mut(i, j) = acc;
            }
        }
        c
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Pcg64::new(1);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            *eye.at2_mut(i, i) = 1.0;
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_matches_naive_rectangular() {
        let mut rng = Pcg64::new(2);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (16, 33, 9),
            (64, 10, 17),
            // Straddle the MB/KC/NC tile boundaries.
            (33, 257, 129),
            (65, 300, 131),
        ] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-3, "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = Pcg64::new(3);
        let a = Tensor::randn(&[8, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[8, 11], 1.0, &mut rng);
        let fused = matmul_at_b(&a, &b);
        let explicit = matmul(&a.transpose2(), &b);
        assert_eq!(fused.shape(), &[5, 11]);
        assert!(fused.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn at_b_partial_sum_path_matches_transpose() {
        // m ≥ ATB_BLOCK_M with few output rows exercises the fixed
        // row-block partial-sum path.
        let mut rng = Pcg64::new(31);
        let m = ATB_BLOCK_M + 300;
        let a = Tensor::randn(&[m, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[m, 17], 1.0, &mut rng);
        let fused = matmul_at_b(&a, &b);
        let explicit = matmul(&a.transpose2(), &b);
        assert_eq!(fused.shape(), &[6, 17]);
        assert!(fused.max_abs_diff(&explicit) < 1e-2);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = Pcg64::new(4);
        let a = Tensor::randn(&[6, 9], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 9], 1.0, &mut rng);
        let fused = matmul_a_bt(&a, &b);
        let explicit = matmul(&a, &b.transpose2());
        assert_eq!(fused.shape(), &[6, 4]);
        assert!(fused.max_abs_diff(&explicit) < 1e-4);
    }

    #[test]
    fn a_bt_nt_path_straddles_tiles_and_propagates_nan() {
        // Shapes that straddle the NT pack's nc/kc tile boundaries in
        // both the output-column (k) and depth (n) dimensions.
        let mut rng = Pcg64::new(41);
        for &(m, n, k) in &[(1usize, 1usize, 1usize), (33, 300, 131), (65, 129, 257)] {
            let a = Tensor::randn(&[m, n], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fused = matmul_a_bt(&a, &b);
            let explicit = matmul(&a, &b.transpose2());
            assert!(
                fused.max_abs_diff(&explicit) < 1e-2,
                "mismatch at ({m},{n},{k})"
            );
        }
        // A·Bᵀ computes every term on both arms, so a NaN deep inside a
        // later depth tile must contaminate exactly its output column.
        let (m, n, k) = (3usize, 300usize, 5usize);
        let a = Tensor::zeros(&[m, n]);
        let mut b = Tensor::zeros(&[k, n]);
        b.as_mut_slice()[2 * n + 280] = f32::NAN; // B[2][280], second kc tile
        let c = matmul_a_bt(&a, &b);
        for i in 0..m {
            for j in 0..k {
                assert_eq!(c.at2(i, j).is_nan(), j == 2, "({i},{j})");
            }
        }
    }

    #[test]
    fn scalar_arm_default_tiles_match_historical_constants() {
        // The dispatch table's fallback must stay in lockstep with the
        // scalar arm's pinned constants: both encode the pre-tuning
        // blocking, and the scalar replay contract depends on it.
        assert_eq!(crate::dispatch::DEFAULT_TILES.nc, NC);
        assert_eq!(crate::dispatch::DEFAULT_TILES.kc, KC);
        assert_eq!(crate::dispatch::DEFAULT_TILES.mr, 4);
    }

    #[test]
    fn a_bt_assign_overwrites_stale_contents() {
        // The NT path zeroes C blocks before accumulating; stale values
        // (even NaN) must never leak into the product.
        let mut rng = Pcg64::new(43);
        let a = Tensor::randn(&[40, 70], 1.0, &mut rng);
        let b = Tensor::randn(&[50, 70], 1.0, &mut rng);
        let mut stale = vec![f32::NAN; 40 * 50];
        matmul_a_bt_slices(a.as_slice(), b.as_slice(), &mut stale, 40, 70, 50);
        let clean = matmul_a_bt(&a, &b);
        assert_eq!(stale.as_slice(), clean.as_slice());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_checks_dims() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    #[test]
    fn zero_rows_short_circuit_is_correct() {
        // The `a_ik == 0.0` skip must not change results.
        let a = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0], &[2, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[5.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_skip_does_not_mask_nan_or_inf() {
        // IEEE: 0 · NaN = 0 · inf = NaN. A zero in A must not short-circuit
        // past a non-finite entry in B, or diverged training would be
        // silently laundered back into finite activations.
        let a = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0], &[2, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, 4.0, 5.0, f32::INFINITY], &[2, 2]);
        let c = matmul(&a, &b);
        // Row 0: [0·NaN + 1·5, 0·4 + 1·inf] = [NaN, inf]
        assert!(
            c.as_slice()[0].is_nan(),
            "0·NaN must stay NaN, got {}",
            c.as_slice()[0]
        );
        assert!(c.as_slice()[1].is_infinite());
        // Row 1 is all-zero A against a NaN column: NaN contaminates it too.
        assert!(c.as_slice()[2].is_nan());
        assert!(c.as_slice()[3].is_nan());

        let fused = matmul_at_b(&a, &b);
        let naive = naive_matmul(&a.transpose2(), &b);
        for (f, n) in fused.as_slice().iter().zip(naive.as_slice()) {
            assert_eq!(f.is_nan(), n.is_nan(), "NaN pattern diverged: {f} vs {n}");
        }
        // Column 1 of Aᵀ·B multiplies [1, 0] into B's NaN row: NaN everywhere.
        assert!(fused.as_slice()[2].is_nan());
    }

    #[test]
    fn nan_propagates_across_tile_boundaries() {
        // A zero in A aligned against a NaN sitting deep inside a later
        // K-tile of B: the lazy per-panel finiteness check must still
        // refuse the skip there.
        let (m, k, n) = (3, KC + 40, NC + 20);
        let mut rng = Pcg64::new(77);
        let mut a = Tensor::rand_uniform(&[m, k], 0.5, 1.5, &mut rng);
        let mut b = Tensor::rand_uniform(&[k, n], 0.5, 1.5, &mut rng);
        // Zero in A row 1 at the k-position of B's NaN row; NaN in the
        // second K-tile and second N-tile of B.
        let k_nan = KC + 10;
        let n_nan = NC + 5;
        a.as_mut_slice()[k + k_nan] = 0.0; // A[1, k_nan]
        b.as_mut_slice()[k_nan * n + n_nan] = f32::NAN;
        let c = matmul(&a, &b);
        assert!(c.at2(1, n_nan).is_nan(), "NaN masked by the zero-skip");
        assert!(c.at2(0, n_nan).is_nan(), "dense row must also see the NaN");
        // Columns in finite tiles stay finite.
        assert!(c.at2(1, 0).is_finite());
    }

    #[test]
    fn kernels_bit_identical_across_thread_budgets() {
        let mut rng = Pcg64::new(9);
        // Big enough to clear PAR_MIN_FLOPS and span several tiles; ~30%
        // zeros to exercise the lazy finiteness path.
        let (m, k, n) = (130, 140, 150);
        let mut a = Tensor::randn(&[m, k], 1.0, &mut rng);
        for v in a.as_mut_slice().iter_mut() {
            if *v < -0.5 {
                *v = 0.0;
            }
        }
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let b_lead = Tensor::randn(&[m, n], 1.0, &mut rng); // for Aᵀ·B
        let b_t = Tensor::randn(&[n, k], 1.0, &mut rng); // for A·Bᵀ
        let base = (
            matmul(&a, &b),
            matmul_at_b(&a, &b_lead),
            matmul_a_bt(&a, &b_t),
        );
        for budget in [1usize, 2, 7] {
            let got = with_thread_budget(budget, || {
                (
                    matmul(&a, &b),
                    matmul_at_b(&a, &b_lead),
                    matmul_a_bt(&a, &b_t),
                )
            });
            assert_eq!(got.0.as_slice(), base.0.as_slice(), "matmul @{budget}");
            assert_eq!(got.1.as_slice(), base.1.as_slice(), "at_b @{budget}");
            assert_eq!(got.2.as_slice(), base.2.as_slice(), "a_bt @{budget}");
        }
    }
}
