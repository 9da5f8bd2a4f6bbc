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
//! [`crate::simd::gemm_panel_avx2`] outer-product kernel over a whole row
//! block per call — the kernel holds groups of ≤4 `C` rows in `ymm`
//! accumulators across a panel — and `A·Bᵀ` packs `Bᵀ` tiles via
//! [`crate::simd::pack_bt_panel`] into a per-thread arena and streams
//! them through the same kernel, replacing the horizontal-sum dot kernel
//! that capped `a_bt` at less than half its siblings' throughput (and
//! ~10 GFLOP/s on 32³ blocks). The scalar arm keeps the historical
//! axpy/dot loops verbatim.
//!
//! Each micro-kernel has one fixed blocking pair: the axpy panel runs
//! `NC × KC` panels for `A·B` on both arms (and `KC`-row windows for the
//! implicit conv's dW), the packed-NT kernel `NT_NC × NT_KC` tiles for
//! `A·Bᵀ` (and the implicit conv's forward pack and dX strips); the
//! kernel itself picks its register rows. On the AVX2 arms these tiles are
//! **bits-neutral**: every output element is accumulated along one
//! depth-ascending FMA chain, a tile boundary only checkpoints that chain
//! through a load/store of `C`, and the row-group size only decides which
//! elements share a register tile. The scalar arm's zero-skip memoization
//! is panel-bounds-dependent, so `NC`/`KC` are also part of its bit-exact
//! replay contract; `Aᵀ·B`'s one knob (`ATB_BLOCK_M`) is bits-relevant.
//!
//! `Aᵀ·B`'s task split has one owner, `atb_split`: it picks the row split
//! or the partial-sum path and reduces the partials, and its caller
//! supplies the row kernel — [`matmul_at_b_scanned_slices`] the
//! lowered-operand `atb_rows`, the fused conv weight gradients their own
//! lowerings.
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
//! Both arms follow one rule: a term `a · b` with `a == ±0` may be
//! skipped only when `b` is finite, because IEEE makes `0 · NaN` and
//! `0 · ∞` NaN. Each arm applies it its own way.
//!
//! * **Scalar arm** (historical loops, verbatim): every zero alpha is a
//!   candidate. Finiteness is established lazily — only when a zero is
//!   actually hit — per B-tile for `A·B` (per B-row for `Aᵀ·B`), then
//!   memoized for the rest of that tile pass, so dense inputs pay
//!   nothing.
//! * **AVX2 arm**: the register-tiled panels compute every term (for a
//!   dense `A` a vector FMA is cheaper than a branch). `A·B` and `Aᵀ·B`
//!   switch to the sparse-A kernels ([`crate::simd`]'s
//!   `gemm_sparse_ab_avx2` / `gemm_sparse_atb_avx2`) when `A` has been
//!   compacted and `B` is finite. The compaction is the gate:
//!   [`SparseRows::scan`] returns `A`'s masks only when `A` has at least
//!   `SPARSE_MIN_A` entries and at most `SPARSE_MAX_NONZERO_SHARE`
//!   (20 %) of them are nonzero. It counts the nonzeros first and gives
//!   up as soon as the count passes that limit, so a dense `A` costs
//!   about a fifth of one read and builds nothing. Only then does it
//!   build the bit mask of each row's nonzero positions, 256 entries at
//!   a time. The [`SparseRows`] operand owns the masks, so one scan can
//!   serve every product with that `A` on the left. No product scans for
//!   itself: [`matmul_scanned_slices`] and [`matmul_at_b_scanned_slices`]
//!   take the caller's kept scan, or `None` for the dense kernels, which
//!   is what the [`matmul`] / [`matmul_at_b`] wrappers and conv's
//!   materialized lowering pass. `Linear` scans its batch once in the
//!   forward and reuses the masks for the weight gradient. Each product
//!   still checks its own `B` for finiteness. The kernels run every `C`
//!   element's FMA chain over the marked alphas in the panel kernel's
//!   depth order, so against a finite `B` they reproduce the dense AVX2
//!   bits at any thread count.
//!   The one exception is the sign of a zero: where the dense chain adds
//!   a `+0` product to a `−0` running sum it makes `+0`, and the skip
//!   keeps `−0`. `Linear` accumulates into fresh `+0` buffers and a zeroed
//!   gradient, so its sums can turn `−0` only by underflowing; the
//!   rcv1 digests pinned on the dense kernels hold on the sparse path. A
//!   NaN or ±∞ in `A` is not zero, so it is always computed; a
//!   non-finite `B` keeps the dense kernels.
//!   DESIGN.md records the crossover measurement behind the constants.

use crate::parallel::parallel_chunks_mut_threshold as maybe_parallel;
use crate::simd::{self, Kernel};
use crate::stats::{self, Counter};
use crate::tensor::Tensor;

/// Rows of `C` per parallel task in [`matmul`] / [`matmul_a_bt`].
const MB: usize = 32;
/// Axpy-panel K-tile: rows of `B` kept hot per panel pass (also the
/// implicit conv's dW row-window length).
pub(crate) const KC: usize = 256;
/// Axpy-panel N-tile: columns of `B`/`C` per panel pass.
const NC: usize = 128;
/// Packed-NT K-tile: depth per packed `Bᵀ` (or im2col) tile.
pub(crate) const NT_KC: usize = 128;
/// Packed-NT N-tile: output columns (conv positions) per packed tile.
pub(crate) const NT_NC: usize = 64;
/// Output rows of `Aᵀ·B` per parallel task on the dense kernels.
pub(crate) const KB: usize = 32;
/// Fixed row-block length for the partial-sum path of [`matmul_at_b`]
/// (engaged when the output has too few rows to split across tasks).
/// `pub(crate)` only for conv's tests, which size batches to straddle it.
pub(crate) const ATB_BLOCK_M: usize = 1024;
/// Smallest `A` (in entries) that [`SparseRows::scan`] compacts for the
/// sparse-A path: below it the scan costs more than skipping can save.
const SPARSE_MIN_A: usize = 4096;
/// Largest share of nonzero entries in `A` at which the AVX2 arm takes
/// the sparse-A path (a zero share of at least 1 − this); DESIGN.md has
/// the crossover measurement.
const SPARSE_MAX_NONZERO_SHARE: f64 = 0.2;

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

/// The nonzero masks of a mostly-zero left operand `A[m, k]`: what the
/// AVX2 arm's sparse-A kernels read instead of `A`'s zeros. One scan
/// builds them, and every product with `A` on the left can reuse them —
/// `Linear` scans its batch once in the forward `X·W` and keeps the masks
/// for the weight gradient `Xᵀ·dY`.
///
/// [`SparseRows::scan`] is also the gate of the sparse path: it returns
/// `None` unless the kernel is AVX2, `A` has at least [`SPARSE_MIN_A`]
/// entries and at most [`SPARSE_MAX_NONZERO_SHARE`] of them are nonzero.
/// A product takes the sparse kernels only with `Some` masks and a finite
/// `B` (see the module doc). The masks hold no values: a product reads
/// them together with the very `A` they were built from.
#[derive(Debug, PartialEq, Eq)]
pub struct SparseRows {
    masks: Vec<simd::SegMasks>,
    rows: usize,
    cols: usize,
}

impl SparseRows {
    /// Scan `a` (row-major `m × k`) on the active kernel: its masks when
    /// the sparse-A gate passes, else `None`. A function of `a` alone,
    /// never of the thread count; the scalar arm always gets `None`.
    ///
    /// # Panics
    /// Panics if `a.len() != m · k`.
    pub fn scan(a: &[f32], m: usize, k: usize) -> Option<SparseRows> {
        assert_eq!(a.len(), m * k, "sparse scan: bad A length");
        if !simd::active_kernel().is_simd() || a.len() < SPARSE_MIN_A {
            return None;
        }
        let limit = (a.len() as f64 * SPARSE_MAX_NONZERO_SHARE) as usize;
        let sparse = Self::within(a, m, k, limit);
        if sparse.is_some() {
            stats::bump(Counter::GemmSparseScans, 1);
        }
        sparse
    }

    /// The masks of `a` if at most `limit` of its entries are nonzero.
    /// The count runs first and stops as soon as it passes `limit`, so a
    /// dense `a` costs a fifth of one cheap read and builds no masks.
    fn within(a: &[f32], m: usize, k: usize, limit: usize) -> Option<SparseRows> {
        #[cfg(target_arch = "x86_64")]
        {
            let _sp = niid_prof::span!("gemm.sparse_scan");
            simd::nonzeros_at_most_avx2(a, limit).then(|| SparseRows {
                masks: simd::nonzero_masks_avx2(a, m, k),
                rows: m,
                cols: k,
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("SIMD kernel selected on non-x86_64");
    }

    /// Mask sets per row: one per `SPARSE_SEG`-deep segment.
    #[cfg(target_arch = "x86_64")]
    fn segs(&self) -> usize {
        self.cols.div_ceil(simd::SPARSE_SEG)
    }

    /// The masks if a product on kernel `kern` of `a` (`m × k`) with
    /// right operand `b` takes the sparse kernels: `kern` is AVX2 and
    /// `b` is finite, so skipping a `0 · b` term is exact (up to the sign
    /// of a zero). The masks must be `a`'s; debug builds check.
    fn route<'s>(
        sparse: Option<&'s SparseRows>,
        kern: Kernel,
        a: &[f32],
        (m, k): (usize, usize),
        b: &[f32],
    ) -> Option<&'s SparseRows> {
        let sparse = sparse?;
        assert_eq!(
            (sparse.rows, sparse.cols),
            (m, k),
            "sparse masks: bad shape"
        );
        if !kern.is_simd() {
            return None;
        }
        debug_assert!(
            Self::within(a, m, k, usize::MAX).as_ref() == Some(sparse),
            "sparse masks were not built from this A"
        );
        #[cfg(target_arch = "x86_64")]
        {
            let _sp = niid_prof::span!("gemm.sparse_gate");
            simd::all_finite_avx2(b).then_some(sparse)
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("SIMD kernel selected on non-x86_64");
    }
}

/// `c[i] += a * b[i]`, one multiply and one add per element — the
/// scalar arm's panel update (historical bits).
#[inline]
fn axpy(c: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    for (cv, &bv) in c.iter_mut().zip(b) {
        *cv += a * bv;
    }
}

/// Dot product `Σ a[i]·b[i]`, accumulated serially — the scalar arm's
/// `A·Bᵀ` inner loop (historical bits).
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (av, bv) in a.iter().zip(b) {
        acc += av * bv;
    }
    acc
}

/// `C[m,n] += A[m,k] · B[k,n]` over flat row-major slices.
///
/// Accumulates into `c` (pass a zeroed buffer for a plain product).
/// `sparse` is `A`'s [`SparseRows::scan`], kept by a caller that
/// multiplies the same `A` again; it must be the scan of this `av`
/// (debug builds check). `None` runs the dense kernels.
///
/// # Panics
/// Panics on a bad slice length or when `sparse` has another shape.
pub fn matmul_scanned_slices(
    av: &[f32],
    sparse: Option<&SparseRows>,
    bv: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(av.len(), m * k, "matmul_scanned_slices: bad A length");
    assert_eq!(bv.len(), k * n, "matmul_scanned_slices: bad B length");
    assert_eq!(c.len(), m * n, "matmul_scanned_slices: bad C length");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    stats::bump(Counter::GemmAbCalls, 1);
    stats::bump(Counter::GemmFlops, (2 * m * k * n) as u64);
    let kern = dispatch_kernel(Counter::GemmAbSimdCalls, Counter::GemmAbScalarCalls);
    let sparse = SparseRows::route(sparse, kern, av, (m, k), bv);
    if sparse.is_some() {
        stats::bump(Counter::GemmAbSparseCalls, 1);
    }
    ab_tasks(kern, sparse, av, bv, c, m, k, n);
}

/// The task split of [`matmul_scanned_slices`]: `MB`-row blocks of `C`,
/// each one [`mm_row_block`].
#[allow(clippy::too_many_arguments)]
fn ab_tasks(
    kern: Kernel,
    sparse: Option<&SparseRows>,
    av: &[f32],
    bv: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    maybe_parallel(c, MB * n, 2 * m * k * n, &|t, c_rows| {
        let r0 = t * MB;
        let r1 = (r0 + MB).min(m);
        mm_row_block(kern, sparse, av, bv, c_rows, r0, r1, k, n);
    });
}

/// The single-task body of [`matmul_scanned_slices`]: rows `r0..r1` of
/// `C`, tiled `jj → kk → i` so the `B` panel is reused across the block,
/// or, with `sparse` masks (see [`SparseRows`]), the sparse-A kernel over
/// the whole block.
#[allow(clippy::too_many_arguments)]
fn mm_row_block(
    kern: Kernel,
    sparse: Option<&SparseRows>,
    av: &[f32],
    bv: &[f32],
    c_rows: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    let _sp = niid_prof::span!("gemm.row_block");
    if let Some(sp) = sparse {
        #[cfg(target_arch = "x86_64")]
        {
            let (a, segs) = (&av[r0 * k..], sp.segs());
            let masks = &sp.masks[r0 * segs..];
            simd::gemm_sparse_ab_avx2(a, k, masks, segs, r1 - r0, k, bv, n, c_rows, n, n);
            return;
        }
    }
    let mut jj0 = 0;
    while jj0 < n {
        let jj1 = (jj0 + NC).min(n);
        let mut kk0 = 0;
        while kk0 < k {
            let kk1 = (kk0 + KC).min(k);
            if kern.is_simd() {
                // Register-tiled always-compute path: the kernel keeps
                // groups of C rows in ymm accumulators across the whole B
                // panel, so C traffic drops up to 4× vs the per-row axpy
                // formulation. Each element's t-ascending FMA chain
                // matches the axpy order — neither threading nor tile
                // choice can change it. Computing zero alphas (instead of
                // skipping) is the IEEE-exact result, so NaN/∞
                // propagation is preserved by construction.
                #[cfg(target_arch = "x86_64")]
                simd::gemm_panel_avx2(
                    &av[r0 * k + kk0..],
                    k,
                    1,
                    r1 - r0,
                    kk1 - kk0,
                    &bv[kk0 * n + jj0..],
                    n,
                    &mut c_rows[jj0..],
                    n,
                    jj1 - jj0,
                );
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
                        axpy(c_seg, a_ik, b_seg);
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
    matmul_scanned_slices(a.as_slice(), None, b.as_slice(), &mut c, m, k, n);
    Tensor::from_vec(c, &[m, n])
}

/// `C[k,n] += Aᵀ[k,m] · B[m,n]` over flat slices (`A` is `[m,k]`).
///
/// Accumulates into `c` (pass a zeroed buffer for a plain product).
/// `sparse` is `A`'s kept scan or `None`, as for
/// [`matmul_scanned_slices`].
///
/// # Panics
/// Panics on a bad slice length or when `sparse` has another shape.
pub fn matmul_at_b_scanned_slices(
    av: &[f32],
    sparse: Option<&SparseRows>,
    bv: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(av.len(), m * k, "matmul_at_b_scanned_slices: bad A length");
    assert_eq!(bv.len(), m * n, "matmul_at_b_scanned_slices: bad B length");
    assert_eq!(c.len(), k * n, "matmul_at_b_scanned_slices: bad C length");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    stats::bump(Counter::GemmAtbCalls, 1);
    stats::bump(Counter::GemmFlops, (2 * m * k * n) as u64);
    let kern = dispatch_kernel(Counter::GemmAtbSimdCalls, Counter::GemmAtbScalarCalls);
    let sparse = SparseRows::route(sparse, kern, av, (m, k), bv);
    if sparse.is_some() {
        stats::bump(Counter::GemmAtbSparseCalls, 1);
    }
    atb_tasks(kern, sparse, av, bv, c, m, k, n);
}

/// The task split and row kernel of [`matmul_at_b_scanned_slices`]: the
/// dense `atb_rows` over [`KB`]-row output tasks, or, with `sparse` masks
/// (see [`SparseRows`]), the sparse-A kernel over tasks of whole
/// `SPARSE_SEG`-row output segments, so every input row is scanned for
/// nonzeros in full mask words. Both run under [`atb_split`], so they
/// take the same row split or partial-sum path.
#[allow(clippy::too_many_arguments)]
fn atb_tasks(
    kern: Kernel,
    sparse: Option<&SparseRows>,
    av: &[f32],
    bv: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if let Some(sp) = sparse {
        #[cfg(target_arch = "x86_64")]
        {
            let segs = sp.segs();
            atb_split(
                kern,
                c,
                m,
                k,
                n,
                simd::SPARSE_SEG,
                |c_rows, kk0, kk1, r0, r1| {
                    let _sp = niid_prof::span!("gemm.atb_rows");
                    let a = &av[r0 * k + kk0..];
                    let masks = &sp.masks[r0 * segs + kk0 / simd::SPARSE_SEG..];
                    simd::gemm_sparse_atb_avx2(
                        a,
                        k,
                        masks,
                        segs,
                        r1 - r0,
                        kk1 - kk0,
                        &bv[r0 * n..],
                        n,
                        c_rows,
                        n,
                        n,
                    );
                },
            );
            return;
        }
    }
    atb_split(kern, c, m, k, n, KB, |c_rows, kk0, kk1, r0, r1| {
        atb_rows(kern, av, bv, c_rows, r0, r1, kk0, kk1, k, n);
    });
}

/// Whether `Aᵀ·B` with `k` output rows over `m` input rows splits its
/// output rows across tasks (else it sums fixed `ATB_BLOCK_M`-row
/// partial products).
pub(crate) fn atb_splits_rows(k: usize, m: usize) -> bool {
    k >= 2 * KB || m < ATB_BLOCK_M
}

/// The task split of `C[k,n] += Aᵀ·B` over `m` input rows, around a row
/// kernel `rows(c_rows, kk0, kk1, r0, r1)` that accumulates input rows
/// `r0..r1` into output rows `kk0..kk1` (`c_rows` holds exactly those).
///
/// Wide outputs split the `k` output rows across tasks of `task_rows`
/// rows ([`KB`] for the dense kernels); each task sweeps all `m` input
/// rows but touches only its own rows of `C`, so
/// per-element accumulation order (ascending input row) matches the
/// sequential kernel bit-for-bit. Short-and-tall outputs (the conv weight
/// gradient: `k = out_channels`, `m = batch · positions`) take fixed
/// `ATB_BLOCK_M`-row partial sums reduced in block order. Both structures
/// depend on shape only, so the result is thread-count invariant.
pub(crate) fn atb_split(
    kern: Kernel,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    task_rows: usize,
    rows: impl Fn(&mut [f32], usize, usize, usize, usize) + Sync,
) {
    let flops = 2 * m * k * n;
    if atb_splits_rows(k, m) {
        maybe_parallel(c, task_rows * n, flops, &|t, c_rows| {
            let kk0 = t * task_rows;
            rows(c_rows, kk0, (kk0 + task_rows).min(k), 0, m);
        });
        return;
    }
    let mut partials = vec![0.0f32; m.div_ceil(ATB_BLOCK_M) * k * n];
    maybe_parallel(&mut partials, k * n, flops, &|blk, part| {
        let r0 = blk * ATB_BLOCK_M;
        rows(part, 0, k, r0, (r0 + ATB_BLOCK_M).min(m));
    });
    for part in partials.chunks_exact(k * n) {
        // `c += 1.0 · part` and `c += part` are the same IEEE operation,
        // so this reduction is bit-identical to the historical axpy.
        simd::add_assign(kern, c, part);
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
        // Register-tiled always-compute path (see `mm_row_block`):
        // alphas walk a *column* of A (`rs = 1, ts = k`), and B streams
        // once per 16-column chunk and row group instead of once per
        // (input row × output row) pair.
        #[cfg(target_arch = "x86_64")]
        {
            simd::gemm_panel_avx2(
                &av[r0 * k + kk0..],
                1,
                k,
                kk1 - kk0,
                r1 - r0,
                &bv[r0 * n..],
                n,
                c,
                n,
                n,
            );
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
            axpy(&mut c[dk * n..(dk + 1) * n], a_rk, b_row);
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
    matmul_at_b_scanned_slices(a.as_slice(), None, b.as_slice(), &mut c, m, k, n);
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
                c_rows[(i - r0) * k + j] = dot(a_row, b_row);
            }
        }
    });
}

/// The packed-NT path of [`matmul_a_bt_slices`] (AVX2 arm).
///
/// Phase 1 packs `Bᵀ` tile-major into a per-thread arena: the
/// `(j0, kk0)` tile lives at arena offset `j0·n + wj·kk0` (where `wj` is
/// the jj-tile width), a disjoint region per jj-tile so the pack can run
/// on the pool. Phase 2 sweeps `MB`-row blocks of `C` with the panel
/// kernel over the packed tiles (`bs = wj`) — the same broadcast-FMA
/// register tiling as `A·B`, which is what removes the per-element
/// horizontal sums of the old dot formulation.
///
/// Assign semantics are preserved by zeroing each `C` block before
/// accumulating; per-element accumulation is one depth-ascending chain
/// chunked at `NT_KC` boundaries, a function of shapes alone, so
/// thread-count bit-identity holds. Every term is computed (never
/// skipped), so NaN/±∞ propagate IEEE-exactly.
#[cfg(target_arch = "x86_64")]
fn abt_nt(av: &[f32], bv: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    let flops = 2 * m * k * n;
    crate::parallel::with_scratch(k * n, |pack| {
        maybe_parallel(pack, NT_NC * n, flops, &|jt, region| {
            let _sp = niid_prof::span!("gemm.pack_bt");
            let j0 = jt * NT_NC;
            let wj = (j0 + NT_NC).min(k) - j0;
            let mut kk0 = 0;
            while kk0 < n {
                let kk1 = (kk0 + NT_KC).min(n);
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
                let j1 = (j0 + NT_NC).min(k);
                let wj = j1 - j0;
                let mut kk0 = 0;
                while kk0 < n {
                    let kk1 = (kk0 + NT_KC).min(n);
                    simd::gemm_panel_avx2(
                        &av[r0 * n + kk0..],
                        n,
                        1,
                        r1 - r0,
                        kk1 - kk0,
                        &pack[j0 * n + wj * kk0..j0 * n + wj * kk1],
                        wj,
                        &mut c_rows[j0..],
                        k,
                        wj,
                    );
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
    #[cfg(target_arch = "x86_64")]
    use crate::simd::with_forced_kernel;
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
    fn dot_and_axpy_propagate_non_finite() {
        let mut rng = Pcg64::new(31);
        for &n in &[5usize, 9, 33] {
            let mut b: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            b[n - 1] = f32::NAN;
            let mut c = vec![0.0f32; n];
            axpy(&mut c, 1.0, &b);
            assert!(c[n - 1].is_nan(), "axpy NaN lost, len {n}");
            assert!(c[..n - 1].iter().all(|v| v.is_finite()));

            let a = vec![1.0f32; n];
            assert!(dot(&a, &b).is_nan(), "dot NaN lost, len {n}");
            let mut inf: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            inf[0] = f32::INFINITY;
            assert!(dot(&a, &inf).is_infinite(), "dot inf lost, len {n}");
        }
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

    /// `len` values of which a share `density` are nonzero, the rest `+0`
    /// or `−0`.
    fn sparse_values(len: usize, density: f32, rng: &mut Pcg64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if rng.next_f32() < density {
                    rng.next_f32() * 4.0 - 2.0
                } else if i % 3 == 0 {
                    -0.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `a`'s masks whatever its density or size.
    #[cfg(target_arch = "x86_64")]
    fn all_masks(a: &[f32], m: usize, k: usize) -> SparseRows {
        SparseRows::within(a, m, k, usize::MAX).expect("no limit")
    }

    /// Whether `A·B` (or `Aᵀ·B`) of `a` (`m × k`) with right operand `b`
    /// takes the sparse kernels on `kern`.
    fn takes_sparse(kern: Kernel, a: &[f32], (m, k): (usize, usize), b: &[f32]) -> bool {
        let sparse = with_forced_kernel(kern, || SparseRows::scan(a, m, k));
        SparseRows::route(sparse.as_ref(), kern, a, (m, k), b).is_some()
    }

    /// `C += A·B` and `C += Aᵀ·B` on the dense AVX2 kernels and on the
    /// sparse-A kernels, from the same non-zero `C`, at thread budget `t`.
    /// Returns `(dense, sparse)` for both products.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::type_complexity)]
    fn both_paths(
        a: &[f32],
        (m, k, n): (usize, usize, usize),
        t: usize,
        rng: &mut Pcg64,
    ) -> ((Vec<f32>, Vec<f32>), (Vec<f32>, Vec<f32>)) {
        let kern = Kernel::Avx2;
        let masks = all_masks(a, m, k);
        let b = sparse_values(k * n, 1.0, rng);
        let c0 = sparse_values(m * n, 1.0, rng);
        let ab = |sparse| {
            let mut c = c0.clone();
            with_thread_budget(t, || ab_tasks(kern, sparse, a, &b, &mut c, m, k, n));
            c
        };
        let dy = sparse_values(m * n, 1.0, rng);
        let dw0 = sparse_values(k * n, 1.0, rng);
        let atb = |sparse| {
            let mut c = dw0.clone();
            with_thread_budget(t, || atb_tasks(kern, sparse, a, &dy, &mut c, m, k, n));
            c
        };
        ((ab(None), ab(Some(&masks))), (atb(None), atb(Some(&masks))))
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sparse_a_kernels_match_the_dense_avx2_kernels_bit_for_bit() {
        if !Kernel::Avx2.available() {
            return;
        }
        let mut rng = Pcg64::new(61);
        let crossover = SPARSE_MAX_NONZERO_SHARE as f32;
        let densities = [0.0, 0.01, 0.1, crossover - 0.05, crossover + 0.05, 1.0];
        // `m` off the 4-row register groups and `MB`; `k` straddling `KC`
        // and off a multiple of 8; `n` through the 32/8/1 column blocks
        // and past `NC`.
        let mks = [(5usize, 257usize), (33, 300), (1, 7), (70, 255)];
        for (i, &n) in [1usize, 7, 8, 16, 17, 32, 33, 130].iter().enumerate() {
            for &density in &densities {
                let (m, k) = mks[i % mks.len()];
                let a = sparse_values(m * k, density, &mut rng);
                let ((ab_d, ab_s), (atb_d, atb_s)) = both_paths(&a, (m, k, n), 1, &mut rng);
                let case = format!("m={m} k={k} n={n} density={density}");
                assert_eq!(bits(&ab_s), bits(&ab_d), "A·B {case}");
                assert_eq!(bits(&atb_s), bits(&atb_d), "Aᵀ·B {case}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sparse_a_kernels_hold_across_thread_budgets_and_the_partial_sum_path() {
        if !Kernel::Avx2.available() {
            return;
        }
        // (70, 300, 64) clears the parallel threshold; (1100, 40, 17) has
        // `k < 64` and `m ≥ ATB_BLOCK_M`, so Aᵀ·B sums row-block partials.
        for (m, k, n) in [(70usize, 300usize, 64usize), (ATB_BLOCK_M + 76, 40, 17)] {
            assert_eq!(atb_splits_rows(k, m), m < ATB_BLOCK_M);
            let mut rng = Pcg64::new(62);
            let a = sparse_values(m * k, 0.1, &mut rng);
            let base = both_paths(&a, (m, k, n), 1, &mut Pcg64::new(63));
            assert_eq!(bits(&base.0 .1), bits(&base.0 .0), "A·B ({m},{k},{n})");
            assert_eq!(bits(&base.1 .1), bits(&base.1 .0), "Aᵀ·B ({m},{k},{n})");
            for t in [2usize, 4] {
                let got = both_paths(&a, (m, k, n), t, &mut Pcg64::new(63));
                assert_eq!(bits(&got.0 .1), bits(&base.0 .0), "A·B @{t}");
                assert_eq!(bits(&got.1 .1), bits(&base.1 .0), "Aᵀ·B @{t}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sparse_a_kernels_compute_nan_and_inf_alphas() {
        if !Kernel::Avx2.available() {
            return;
        }
        // NaN and ±∞ in A are not zeros: the sparse kernels compute them
        // like any alpha, with the dense kernel's bits.
        let (m, k, n) = (9usize, 130usize, 33usize);
        let mut rng = Pcg64::new(64);
        let mut a = sparse_values(m * k, 0.05, &mut rng);
        a[3] = f32::NAN;
        a[k + 70] = f32::INFINITY;
        a[5 * k + 129] = f32::NEG_INFINITY;
        let ((ab_d, ab_s), (atb_d, atb_s)) = both_paths(&a, (m, k, n), 1, &mut rng);
        assert!(ab_d.iter().any(|v| v.is_nan()) && atb_d.iter().any(|v| v.is_nan()));
        assert_eq!(bits(&ab_s), bits(&ab_d));
        assert_eq!(bits(&atb_s), bits(&atb_d));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sparse_gate_refuses_non_finite_b_so_zero_alphas_still_meet_it() {
        if !Kernel::Avx2.available() {
            return;
        }
        // A is sparse and past the size floor, so only B's NaN/±∞ keep the
        // dense kernel: `0 · NaN` and `0 · ∞` must still reach C.
        let (m, k, n) = (32usize, 256usize, 8usize);
        let mut a = sparse_values(m * k, 0.05, &mut Pcg64::new(65));
        assert!(a.len() >= SPARSE_MIN_A);
        a[..k].fill(0.0); // row 0 of A is all zeros
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut b = sparse_values(k * n, 1.0, &mut Pcg64::new(66));
            let finite = b.clone();
            b[17 * n + 3] = poison; // B[17][3], against A[0][17] = 0
            let kern = Kernel::Avx2;
            assert!(takes_sparse(kern, &a, (m, k), &finite));
            assert!(!takes_sparse(kern, &a, (m, k), &b));
            let mut got = vec![0.0f32; m * n];
            with_forced_kernel(kern, || {
                let sparse = SparseRows::scan(&a, m, k);
                matmul_scanned_slices(&a, sparse.as_ref(), &b, &mut got, m, k, n)
            });
            assert!(got[3].is_nan(), "0·{poison} was skipped: {}", got[3]);
            let mut dense = vec![0.0f32; m * n];
            ab_tasks(kern, None, &a, &b, &mut dense, m, k, n);
            assert_eq!(bits(&got), bits(&dense));
            // Aᵀ·B: B's row 0 poisoned against A's all-zero row 0.
            let mut dy = sparse_values(m * n, 1.0, &mut Pcg64::new(67));
            assert!(takes_sparse(kern, &a, (m, k), &dy));
            dy[2] = poison;
            let mut dw = vec![0.0f32; k * n];
            with_forced_kernel(kern, || {
                let sparse = SparseRows::scan(&a, m, k);
                matmul_at_b_scanned_slices(&a, sparse.as_ref(), &dy, &mut dw, m, k, n)
            });
            assert!((0..k).all(|kk| dw[kk * n + 2].is_nan()));
        }
        // Dense and small operands never take the sparse path.
        let dense_a = sparse_values(m * k, 0.5, &mut Pcg64::new(68));
        let b = sparse_values(k * n, 1.0, &mut Pcg64::new(69));
        assert!(!takes_sparse(Kernel::Avx2, &dense_a, (m, k), &b));
        let small = &a[..SPARSE_MIN_A - 1];
        let scan = with_forced_kernel(Kernel::Avx2, || SparseRows::scan(small, 1, small.len()));
        assert!(scan.is_none());
        assert!(!takes_sparse(Kernel::Scalar, &a, (m, k), &b));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sparse_a_kernels_keep_a_negative_zero_accumulator() {
        if !Kernel::Avx2.available() {
            return;
        }
        // The one IEEE difference from computing `fma(0, b, c)`: against a
        // `−0` accumulator and a `+0` product the dense chain makes `+0`,
        // while the skip leaves `−0`. A `+0` accumulator agrees.
        let (m, k, n) = (1usize, 8usize, 8usize);
        let a = vec![0.0f32; m * k];
        let masks = all_masks(&a, m, k);
        let b = vec![1.5f32; k * n];
        for (c0, dense_bits, sparse_bits) in [(-0.0f32, 0u32, 0x8000_0000u32), (0.0, 0, 0)] {
            let mut dense = vec![c0; m * n];
            ab_tasks(Kernel::Avx2, None, &a, &b, &mut dense, m, k, n);
            let mut sparse = vec![c0; m * n];
            ab_tasks(Kernel::Avx2, Some(&masks), &a, &b, &mut sparse, m, k, n);
            assert!(dense.iter().all(|v| v.to_bits() == dense_bits), "{dense:?}");
            assert!(
                sparse.iter().all(|v| v.to_bits() == sparse_bits),
                "{sparse:?}"
            );
            let mut dense = vec![c0; k * n];
            atb_tasks(Kernel::Avx2, None, &a, &b[..m * n], &mut dense, m, k, n);
            let mut sparse = vec![c0; k * n];
            let masks = Some(&masks);
            atb_tasks(Kernel::Avx2, masks, &a, &b[..m * n], &mut sparse, m, k, n);
            assert!(dense.iter().all(|v| v.to_bits() == dense_bits), "{dense:?}");
            assert!(
                sparse.iter().all(|v| v.to_bits() == sparse_bits),
                "{sparse:?}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn scan_keeps_the_count_gate_and_marks_every_nonzero() {
        if !Kernel::Avx2.available() {
            return;
        }
        // Row widths off the 256-entry segment and the 32-entry word
        // (Covtype's 54, Adult's 64, a 2 050-wide partial last segment).
        with_forced_kernel(Kernel::Avx2, || {
            for (m, k) in [(256usize, 54usize), (256, 64), (7, 2050), (32, 2048)] {
                let limit = (m * k) as f64 * SPARSE_MAX_NONZERO_SHARE;
                let limit = limit as usize;
                let mut a = vec![0.0f32; m * k];
                let mut rng = Pcg64::new(70);
                // Exactly `limit` nonzeros at random places, NaN and ±∞ among
                // them, `−0` elsewhere: the gate passes.
                let mut placed = 0;
                while placed < limit {
                    let i = (rng.next_u64() % (m * k) as u64) as usize;
                    if a[i] == 0.0 {
                        a[i] = [1.0, f32::NAN, f32::INFINITY, -2.5][placed % 4];
                        placed += 1;
                    }
                }
                a.iter_mut()
                    .filter(|v| **v == 0.0)
                    .step_by(3)
                    .for_each(|v| *v = -0.0);
                let sparse = SparseRows::scan(&a, m, k).expect("at the limit");
                assert_eq!(sparse.masks.len(), m * k.div_ceil(simd::SPARSE_SEG));
                for (r, row) in a.chunks_exact(k).enumerate() {
                    for (t, &v) in row.iter().enumerate() {
                        let (s, l) = (t / simd::SPARSE_SEG, t % simd::SPARSE_SEG);
                        let word = sparse.masks[r * sparse.segs() + s][l / 64];
                        assert_eq!(word >> (l % 64) & 1 == 1, v != 0.0, "({m},{k}) [{r}][{t}]");
                    }
                }
                // One more nonzero anywhere and the gate refuses, as the
                // count `nnz ≤ limit` did.
                for at in [0, m * k / 2, m * k - 1] {
                    let mut over = a.clone();
                    let zero = (at..m * k).chain(0..at).find(|&i| over[i] == 0.0).unwrap();
                    over[zero] = 0.5;
                    assert!(SparseRows::scan(&over, m, k).is_none());
                }
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn scanned_products_reuse_one_scan_with_the_per_call_bits() {
        if !Kernel::Avx2.available() {
            return;
        }
        let (m, k, n) = (33usize, 2050usize, 7usize);
        let mut rng = Pcg64::new(71);
        let a = sparse_values(m * k, 0.1, &mut rng);
        let b = sparse_values(k * n, 1.0, &mut rng);
        let dy = sparse_values(m * n, 1.0, &mut rng);
        with_forced_kernel(Kernel::Avx2, || {
            let sparse = SparseRows::scan(&a, m, k);
            assert!(sparse.is_some());
            for t in [1usize, 2, 4] {
                with_thread_budget(t, || {
                    // The per-call oracle: a fresh scan for each product.
                    let (mut c, mut c_kept) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
                    let fresh = SparseRows::scan(&a, m, k);
                    matmul_scanned_slices(&a, fresh.as_ref(), &b, &mut c, m, k, n);
                    matmul_scanned_slices(&a, sparse.as_ref(), &b, &mut c_kept, m, k, n);
                    assert_eq!(bits(&c_kept), bits(&c), "A·B @{t}");
                    let (mut g, mut g_kept) = (vec![0.0f32; k * n], vec![0.0f32; k * n]);
                    let fresh = SparseRows::scan(&a, m, k);
                    matmul_at_b_scanned_slices(&a, fresh.as_ref(), &dy, &mut g, m, k, n);
                    matmul_at_b_scanned_slices(&a, sparse.as_ref(), &dy, &mut g_kept, m, k, n);
                    assert_eq!(bits(&g_kept), bits(&g), "Aᵀ·B @{t}");
                });
            }
        });
        // Kept masks of another shape are refused outright.
        let other = SparseRows::within(&a[..k], 1, k, usize::MAX);
        let mut c = vec![0.0f32; m * n];
        let wrong = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            matmul_scanned_slices(&a, other.as_ref(), &b, &mut c, m, k, n)
        }));
        assert!(wrong.is_err());
    }
}
