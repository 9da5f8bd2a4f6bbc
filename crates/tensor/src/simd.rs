//! Runtime-dispatched SIMD kernels for the training hot path.
//!
//! The elementwise loops the models spend time in — activations, bias
//! adds, reductions, the SGD momentum update and the int8 codec passes —
//! and the register-tiled GEMM panels of the AVX2 arm live in this
//! module. At process start the dispatcher picks a [`Kernel`]:
//!
//! * **`Kernel::Avx2`** — mostly the scalar arm's own loops, compiled a
//!   second time with `avx2,fma` enabled so the compiler vectorizes them
//!   over 8-wide (256-bit) lanes. Hand-written `std::arch` intrinsics
//!   remain only where the compiled loop cannot match them: the GEMM
//!   panels, `sum` and `quantize_stochastic_i8`.
//! * **`Kernel::Scalar`** — the portable fallback. Its loops are kept
//!   **character-for-character identical** to the pre-SIMD kernels
//!   (only `max_abs`'s source changed, not its bits), so
//!   `NIID_SIMD=scalar` reproduces historical training trajectories
//!   bit-for-bit, and it executes no AVX instruction.
//!
//! ## Selection
//!
//! The kernel is chosen once per process, in this order:
//!
//! 1. `NIID_SIMD=off|scalar` forces the scalar fallback; `NIID_SIMD=avx2`
//!    forces AVX2 (falling back with a warning when the CPU lacks it).
//! 2. Otherwise `is_x86_feature_detected!("avx2")` + `("fma")` picks AVX2
//!    on capable x86-64 hosts, scalar everywhere else.
//!
//! Tests pin a kernel per-thread with [`with_forced_kernel`]. Multi-level
//! kernels (GEMM) resolve the kernel **once at their entry point, on the
//! calling thread**, and pass the resolved [`Kernel`] value down into
//! worker-pool tasks — so a forced kernel applies to the whole operation
//! regardless of which pool thread executes a tile.
//!
//! ## One gate into AVX2 code
//!
//! `Kernel` is a public enum, so any caller can pass `Kernel::Avx2`.
//! Every AVX2 arm therefore enters through the private `on_avx2(body)`:
//! it asserts that the CPU has avx2 and fma — panicking with the kernel's
//! name otherwise — and then runs `body` inside one
//! `#[target_feature(enable = "avx2,fma")]` function, into which the
//! body is inlined and compiled for AVX2. `on_kernel(k, body)` runs one
//! body as compiled for either arm. Rust never contracts `a * b + c`
//! into an FMA, so a body compiled twice gives the same bits on both
//! arms; only an explicit `mul_add` fuses.
//!
//! ## Determinism contract
//!
//! For a **fixed kernel**, every primitive's floating-point evaluation
//! order is a function of slice lengths alone, so results compose with the
//! worker-pool blocking in [`crate::matmul`] to stay bit-identical at any
//! `NIID_THREADS`. Across kernels the primitives fall in these classes:
//!
//! | primitive | AVX2 arm | AVX2 vs scalar |
//! |-----------|----------|----------------|
//! | `add_assign`, `broadcast_add_rows`, `accumulate_rows`, `add_scalar_assign`, `scale_assign`, `relu_*`, `sum_sq_f64`, `dequantize_i8` | one source compiled twice | bit-identical (no fusion, no reassociation) |
//! | `max_abs` | one 8-lane source compiled twice | bit-identical (see below) |
//! | `topk_select` | one integer source; the kernel selects nothing | identical |
//! | `sgd_momentum_step` | its own safe body, a `mul_add` chain | tolerance-bounded (FMA contraction) |
//! | `sum` | intrinsics | tolerance-bounded (lane reassociation) |
//! | `quantize_stochastic_i8` | intrinsics | bit-identical for finite inputs only |
//! | `gemm_panel_avx2` | intrinsics, AVX2 arm only | the GEMM tolerance class |
//! | `gemm_sparse_ab_avx2`, `gemm_sparse_atb_avx2` | safe `mul_add` chains over a nonzero mask, AVX2 arm only | bit-identical to `gemm_panel_avx2` against a finite `B`, up to the sign of a zero |
//! | `nonzeros_at_most_avx2`, `nonzero_masks_avx2` | one safe body each, AVX2 arm only: the sparse gate's count and the masks those kernels read | no arithmetic: they test which entries are not `±0` |
//!
//! `max_abs` used to fold with `f32::max`, a serial chain the compiler
//! cannot vectorize; both arms now run an 8-lane `if v > m { v } else
//! { m }` body. Its bits did not change: the max of non-negative
//! magnitudes does not depend on order, and both forms skip NaN.
//!
//! NaN/∞ propagation matches the scalar kernels everywhere: FMA and lane
//! arithmetic propagate non-finite values exactly like their scalar
//! counterparts, and the ReLU bodies map NaN to zero through the scalar
//! `if v > 0.0` branch on both arms.

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable overriding kernel selection
/// (`off` | `scalar` | `avx2`).
pub const ENV_SIMD: &str = "NIID_SIMD";

/// A micro-kernel implementation the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar loops (bit-identical to the pre-SIMD kernels).
    Scalar,
    /// The same loops compiled for AVX2 + FMA, plus intrinsics for the
    /// GEMM panels, `sum` and the quantizer (x86-64 only). Every entry
    /// point checks the CPU first and panics when it lacks avx2 or fma.
    Avx2,
}

impl Kernel {
    /// Stable lowercase name (`scalar` / `avx2`), used in metrics labels
    /// and the bench JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Whether this kernel uses SIMD instructions.
    pub fn is_simd(self) -> bool {
        self != Kernel::Scalar
    }

    /// Whether the running CPU can execute this kernel.
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Avx2 => avx2_available(),
        }
    }

    /// Every kernel the running CPU supports (scalar first).
    pub fn available_kernels() -> Vec<Kernel> {
        let mut out = vec![Kernel::Scalar];
        if Kernel::Avx2.available() {
            out.push(Kernel::Avx2);
        }
        out
    }
}

#[cfg(test)]
thread_local! {
    /// Makes [`avx2_available`] report false on this thread, so a test
    /// can watch the AVX2 arms refuse to run.
    static HIDE_AVX2: Cell<bool> = const { Cell::new(false) };
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    #[cfg(test)]
    if HIDE_AVX2.with(Cell::get) {
        return false;
    }
    // Every AVX2 call checks this: one cached load, not two lookups.
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// CPU vector features the dispatcher recognizes on this host
/// (`"avx2+fma"` or `"none"`), for diagnostics and the bench JSON.
pub fn detected_features() -> &'static str {
    if avx2_available() {
        "avx2+fma"
    } else {
        "none"
    }
}

/// The process-wide kernel: the `NIID_SIMD` override if set, otherwise
/// the best kernel the CPU supports. Resolved once and cached.
pub fn configured_kernel() -> Kernel {
    static CONFIGURED: OnceLock<Kernel> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        if let Ok(v) = std::env::var(ENV_SIMD) {
            match v.trim().to_ascii_lowercase().as_str() {
                "off" | "scalar" => return Kernel::Scalar,
                "avx2" => {
                    if Kernel::Avx2.available() {
                        return Kernel::Avx2;
                    }
                    eprintln!(
                        "warning: {ENV_SIMD}=avx2 requested but CPU lacks avx2+fma; \
                         using scalar kernels"
                    );
                    return Kernel::Scalar;
                }
                "" => {}
                other => eprintln!("warning: ignoring invalid {ENV_SIMD}={other:?}"),
            }
        }
        if Kernel::Avx2.available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        }
    })
}

thread_local! {
    /// Per-thread kernel override installed by [`with_forced_kernel`].
    static FORCED: Cell<Option<Kernel>> = const { Cell::new(None) };
}

/// The kernel in effect on the current thread: a forced override if one
/// is installed, otherwise [`configured_kernel`]. Hot entry points call
/// this **once** and pass the value down, so the thread-local lookup
/// never sits in an inner loop (and forced kernels survive the hop onto
/// worker-pool threads).
pub fn active_kernel() -> Kernel {
    FORCED.with(Cell::get).unwrap_or_else(configured_kernel)
}

/// Run `f` with the current thread's kernel pinned to `k`, restoring the
/// previous state afterwards (even on panic).
///
/// # Panics
/// Panics if `k` is not available on this CPU.
pub fn with_forced_kernel<R>(k: Kernel, f: impl FnOnce() -> R) -> R {
    assert!(
        k.available(),
        "with_forced_kernel: {} not available on this CPU",
        k.name()
    );
    struct Restore(Option<Kernel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(Some(k))));
    f()
}

/// Run `body` compiled for AVX2 + FMA: the one way into AVX2 code.
///
/// # Panics
/// Panics, naming the kernel, when the CPU lacks avx2 or fma.
#[inline]
fn on_avx2<R>(body: impl FnOnce() -> R) -> R {
    assert!(
        avx2_available(),
        "simd: {} not available on this CPU",
        Kernel::Avx2.name()
    );
    #[cfg(target_arch = "x86_64")]
    {
        /// `body` is inlined here and compiled with the features on.
        #[target_feature(enable = "avx2,fma")]
        fn region<R>(body: impl FnOnce() -> R) -> R {
            body()
        }
        // SAFETY: the assert above found avx2 and fma on this CPU, which
        // is all a call into a `target_feature` function requires.
        unsafe { region(body) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = body;
        unreachable!("avx2 is never available off x86-64")
    }
}

/// Run `body` as compiled for kernel `k`: inline for `Scalar`, through
/// [`on_avx2`] for `Avx2`. The kernel picks which compiled copy runs, so
/// the scalar arm executes no AVX instruction. Bodies capture by `move`:
/// a captured `&f32` would be reloaded on every iteration of the loop.
#[inline]
fn on_kernel<R>(k: Kernel, body: impl FnOnce() -> R) -> R {
    match k {
        Kernel::Scalar => body(),
        Kernel::Avx2 => on_avx2(body),
    }
}

// ---------------------------------------------------------------------------
// Dispatched primitives. Every function takes the resolved `Kernel` so the
// dispatch decision is hoisted out of tile/row loops by the caller.
// ---------------------------------------------------------------------------

/// Elementwise `c[i] += b[i]`. Bit-identical across kernels.
#[inline]
pub fn add_assign(k: Kernel, c: &mut [f32], b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    on_kernel(k, move || {
        for (cv, &bv) in c.iter_mut().zip(b) {
            *cv += bv;
        }
    })
}

/// `rows[r·w + i] += bias[i]` for every `w = bias.len()`-wide row — the
/// `Linear` bias broadcast, one gated call per batch. Bit-identical
/// across kernels, and to [`add_assign`] called once per row.
///
/// # Panics
/// Panics when `rows.len()` is not a multiple of `bias.len()`.
#[inline]
pub fn broadcast_add_rows(k: Kernel, rows: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        assert!(rows.is_empty(), "broadcast_add_rows: empty bias");
        return;
    }
    assert_eq!(
        rows.len() % bias.len(),
        0,
        "broadcast_add_rows: ragged rows"
    );
    on_kernel(k, move || {
        for row in rows.chunks_exact_mut(bias.len()) {
            for (cv, &bv) in row.iter_mut().zip(bias) {
                *cv += bv;
            }
        }
    })
}

/// `acc[i] += rows[r·w + i]` for every `w = acc.len()`-wide row, in row
/// order — the `Linear` bias gradient (column sums of `dy`), one gated
/// call per batch. Bit-identical across kernels, and to [`add_assign`]
/// called once per row.
///
/// # Panics
/// Panics when `rows.len()` is not a multiple of `acc.len()`.
#[inline]
pub fn accumulate_rows(k: Kernel, acc: &mut [f32], rows: &[f32]) {
    if acc.is_empty() {
        assert!(rows.is_empty(), "accumulate_rows: empty accumulator");
        return;
    }
    assert_eq!(rows.len() % acc.len(), 0, "accumulate_rows: ragged rows");
    on_kernel(k, move || {
        for row in rows.chunks_exact(acc.len()) {
            for (cv, &bv) in acc.iter_mut().zip(row) {
                *cv += bv;
            }
        }
    })
}

/// `c[i] += a` — the conv bias broadcast. Bit-identical across kernels.
#[inline]
pub fn add_scalar_assign(k: Kernel, c: &mut [f32], a: f32) {
    on_kernel(k, move || {
        for cv in c.iter_mut() {
            *cv += a;
        }
    })
}

/// `c[i] *= a` — softmax normalization, gradient scaling. Bit-identical
/// across kernels.
#[inline]
pub fn scale_assign(k: Kernel, c: &mut [f32], a: f32) {
    on_kernel(k, move || {
        for cv in c.iter_mut() {
            *cv *= a;
        }
    })
}

/// `dst[i] = max(src[i], 0)`, with NaN mapped to `0.0` by the scalar
/// `if v > 0.0 { v } else { 0.0 }`. Bit-identical across kernels.
#[inline]
pub fn relu_into(k: Kernel, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    on_kernel(k, move || {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = if v > 0.0 { v } else { 0.0 };
        }
    })
}

/// In-place ReLU (`x[i] = max(x[i], 0)`, NaN → 0). Bit-identical across
/// kernels.
#[inline]
pub fn relu_assign(k: Kernel, xs: &mut [f32]) {
    on_kernel(k, move || {
        for v in xs.iter_mut() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
    })
}

/// `dst[i] = if input[i] > 0 { grad[i] } else { 0 }` — ReLU backward.
/// Bit-identical across kernels (NaN input gates to 0).
#[inline]
pub fn relu_backward_into(k: Kernel, grad: &[f32], input: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(grad.len(), input.len());
    debug_assert_eq!(grad.len(), dst.len());
    on_kernel(k, move || {
        for ((d, &g), &x) in dst.iter_mut().zip(grad).zip(input) {
            *d = if x > 0.0 { g } else { 0.0 };
        }
    })
}

/// Sum of a slice (f32 accumulation). AVX2 reduces 8 lanes in a fixed
/// order (tolerance-bounded vs scalar's serial sum).
#[inline]
pub fn sum(k: Kernel, xs: &[f32]) -> f32 {
    match k {
        Kernel::Scalar => {
            let mut acc = 0.0f32;
            for &v in xs {
                acc += v;
            }
            acc
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `on_avx2` runs the closure only after finding avx2+fma.
        Kernel::Avx2 => on_avx2(move || unsafe { avx2::sum(xs) }),
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => on_avx2(|| unreachable!()),
    }
}

/// Sum of squares with f64 accumulation — the gradient-norm probe.
///
/// **Bit-identical across kernels**: 4 independent accumulators over
/// `chunks_exact(4)` (lane `j` takes elements `j, j+4, …`), combined as
/// `s0+s1+s2+s3` plus a serial remainder. The compiler may map the 4
/// streams onto 4 f64 lanes, but never reorders an addition.
#[inline]
pub fn sum_sq_f64(k: Kernel, xs: &[f32]) -> f64 {
    on_kernel(k, move || {
        let mut sums = [0.0f64; 4];
        let mut chunks = xs.chunks_exact(4);
        for c in chunks.by_ref() {
            sums[0] += (c[0] as f64) * (c[0] as f64);
            sums[1] += (c[1] as f64) * (c[1] as f64);
            sums[2] += (c[2] as f64) * (c[2] as f64);
            sums[3] += (c[3] as f64) * (c[3] as f64);
        }
        let mut s = sums[0] + sums[1] + sums[2] + sums[3];
        for &v in chunks.remainder() {
            s += (v as f64) * (v as f64);
        }
        s
    })
}

/// Register-tiled GEMM panel update (AVX2 only):
///
/// ```text
/// C[r][j] += Σ_t alpha[r·rs + t·ts] · B[t·bs + j]    r < rows, j < width
/// ```
///
/// The kernel walks `C` in groups of up to 4 rows, starting at row 0,
/// and holds each group in `ymm` accumulators across the whole `t` loop
/// (two 8-lane vectors per row while `width ≥ 16`, one while
/// `width ≥ 8`, a masked vector for the final `width % 8` columns), so C
/// is loaded and stored **once per panel** instead of once per `t` as in
/// the scalar arm's per-row axpy. The `alpha` strides make the one kernel
/// serve every GEMM shape: `A·B` passes `rs = k, ts = 1` (alphas are a
/// row of A), `Aᵀ·B` passes `rs = 1, ts = k` (alphas are a column of A),
/// and `A·Bᵀ` passes a [`pack_bt_panel`] tile as `B` with `bs = width`.
///
/// Per C element the evaluation is one `t`-ascending FMA chain, a
/// function of shapes alone (thread-count bit-identity holds); the row
/// grouping only decides which elements share a register tile. Unlike the
/// scalar path this kernel never skips zero alphas — every term is
/// computed, so NaN/∞ in either operand propagate exactly as IEEE
/// arithmetic demands. Only `matmul.rs` and `conv.rs` call it, from the
/// AVX2 arm of a `dispatch_kernel` choice.
///
/// # Panics
/// Panics when any index reaches outside its slice or the CPU lacks
/// avx2+fma. `rows`, `depth` or `width` of 0 is a no-op.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_panel_avx2(
    alpha: &[f32],
    rs: usize,
    ts: usize,
    rows: usize,
    depth: usize,
    b: &[f32],
    bs: usize,
    c: &mut [f32],
    cs: usize,
    width: usize,
) {
    if rows == 0 || depth == 0 || width == 0 {
        return;
    }
    assert!(
        (rows - 1) * rs + (depth - 1) * ts < alpha.len(),
        "gemm_panel: alpha out of bounds"
    );
    assert!(
        (depth - 1) * bs + width <= b.len(),
        "gemm_panel: b out of bounds"
    );
    assert!(
        (rows - 1) * cs + width <= c.len(),
        "gemm_panel: c out of bounds"
    );
    // SAFETY: bounds asserted above, and `on_avx2` runs the closure only
    // after finding avx2+fma (the crate's callers get here from a
    // `dispatch_kernel` AVX2 arm, so that check never fails for them).
    on_avx2(move || unsafe {
        avx2::gemm_panel(
            alpha.as_ptr(),
            rs,
            ts,
            rows,
            depth,
            b.as_ptr(),
            bs,
            c.as_mut_ptr(),
            cs,
            width,
        )
    })
}

/// Depth of one segment of an `A` row in the sparse-A kernels: a
/// segment's nonzero positions live in `SPARSE_SEG / 64` mask words.
pub(crate) const SPARSE_SEG: usize = 256;

/// The nonzero positions of one `A` segment: bit `l` of word `w` is set
/// where entry `64·w + l` is not `±0` (NaN counts as nonzero).
pub(crate) type SegMasks = [u64; SPARSE_SEG / 64];

/// [`SegMasks`] of `seg` (at most [`SPARSE_SEG`] long). Each 32 entries
/// fold into one `u32` (`bit l = entry l ≠ 0`); building the words in
/// 64-bit lanes instead costs twice as much.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn nonzero_masks(seg: &[f32]) -> SegMasks {
    debug_assert!(seg.len() <= SPARSE_SEG);
    let mut words = [0u32; SPARSE_SEG / 32];
    let mut chunks = seg.chunks_exact(32);
    for (word, chunk) in words.iter_mut().zip(chunks.by_ref()) {
        *word = (0..)
            .zip(chunk)
            .fold(0, |m, (l, &v)| m | u32::from(v != 0.0) << l);
    }
    let tail = seg.len() - chunks.remainder().len();
    for (t, &v) in (tail..).zip(chunks.remainder()) {
        words[t / 32] |= u32::from(v != 0.0) << (t % 32);
    }
    std::array::from_fn(|w| u64::from(words[2 * w]) | u64::from(words[2 * w + 1]) << 32)
}

/// The [`SegMasks`] of every `SPARSE_SEG`-deep segment of every row of
/// the row-major `rows × cols` matrix `a`, row by row (`⌈cols / 256⌉`
/// per row), in one pass (AVX2 only).
#[cfg(target_arch = "x86_64")]
pub(crate) fn nonzero_masks_avx2(a: &[f32], rows: usize, cols: usize) -> Vec<SegMasks> {
    assert_eq!(a.len(), rows * cols, "sparse scan: bad A length");
    on_avx2(move || {
        let mut masks = Vec::with_capacity(rows * cols.div_ceil(SPARSE_SEG));
        for row in a.chunks_exact(cols.max(1)) {
            for seg in row.chunks(SPARSE_SEG) {
                masks.push(nonzero_masks(seg));
            }
        }
        masks
    })
}

/// Call `f(t, seg[t])` for every nonzero entry of `seg`, in ascending
/// `t`, as `masks` (from [`nonzero_masks`]) marks them.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn for_each_nonzero(seg: &[f32], masks: &SegMasks, mut f: impl FnMut(usize, f32)) {
    for (w, &mask) in masks.iter().enumerate() {
        let mut mask = mask;
        while mask != 0 {
            let t = 64 * w + mask.trailing_zeros() as usize;
            f(t, seg[t]);
            mask &= mask - 1;
        }
    }
}

/// `c[j] += Σ a · b[t·bs + j]` over the nonzero `(t, a)` of `seg` in
/// ascending `t`, one `mul_add` per term, for every column `j` of `c`.
/// Columns go in blocks of 32, then 8, then 1, each block held in
/// registers across the whole chain.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gather_nonzeros(seg: &[f32], masks: &SegMasks, b: &[f32], bs: usize, c: &mut [f32]) {
    let mut j = 0;
    while j + 32 <= c.len() {
        gather_block::<32>(seg, masks, b, bs, j, c);
        j += 32;
    }
    while j + 8 <= c.len() {
        gather_block::<8>(seg, masks, b, bs, j, c);
        j += 8;
    }
    while j < c.len() {
        gather_block::<1>(seg, masks, b, bs, j, c);
        j += 1;
    }
}

/// [`gather_nonzeros`] over the `W` columns from `j0`. The `mul_add`
/// closure is forced inline: an outlined copy is compiled without
/// avx2/fma, and each of its `mul_add`s becomes a call to libm's `fmaf`
/// (same bits, about 20× slower).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gather_block<const W: usize>(
    seg: &[f32],
    masks: &SegMasks,
    b: &[f32],
    bs: usize,
    j0: usize,
    c: &mut [f32],
) {
    let c = &mut c[j0..j0 + W];
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(c);
    for_each_nonzero(
        seg,
        masks,
        #[inline(always)]
        |t, a| {
            let row = &b[t * bs + j0..][..W];
            for l in 0..W {
                acc[l] = a.mul_add(row[l], acc[l]);
            }
        },
    );
    c.copy_from_slice(&acc);
}

/// `c[t·cs + j] += a · b_row[j]` for each nonzero `(t, a)` of `seg` in
/// ascending `t`, one `mul_add` per term, for every column `j` of
/// `b_row`. Columns go in blocks of 32, then 8, then 1, with that block
/// of `b_row` held in registers.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn scatter_nonzeros(seg: &[f32], masks: &SegMasks, b_row: &[f32], c: &mut [f32], cs: usize) {
    let mut j = 0;
    while j + 32 <= b_row.len() {
        scatter_block::<32>(seg, masks, b_row, j, c, cs);
        j += 32;
    }
    while j + 8 <= b_row.len() {
        scatter_block::<8>(seg, masks, b_row, j, c, cs);
        j += 8;
    }
    while j < b_row.len() {
        scatter_block::<1>(seg, masks, b_row, j, c, cs);
        j += 1;
    }
}

/// [`scatter_nonzeros`] over the `W` columns from `j0`; its `mul_add`
/// closure is forced inline as in [`gather_block`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn scatter_block<const W: usize>(
    seg: &[f32],
    masks: &SegMasks,
    b_row: &[f32],
    j0: usize,
    c: &mut [f32],
    cs: usize,
) {
    let mut bv = [0.0f32; W];
    bv.copy_from_slice(&b_row[j0..j0 + W]);
    for_each_nonzero(
        seg,
        masks,
        #[inline(always)]
        |t, a| {
            let row = &mut c[t * cs + j0..][..W];
            for l in 0..W {
                row[l] = a.mul_add(bv[l], row[l]);
            }
        },
    );
}

/// Sparse-A GEMM rows, `A·B` form (AVX2 only):
///
/// ```text
/// C[r][j] += Σ_{t : A[r][t] ≠ 0} A[r·lda + t] · B[t·bs + j]
///            r < rows, t < depth, j < width
/// ```
///
/// `masks` holds the [`SegMasks`] of `A`'s rows, `ms` per row: those of
/// row `r`'s segment `s` (entries `256·s..` of the row) are
/// `masks[r·ms + s]`, as [`nonzero_masks_avx2`] lays them out.
/// Depth runs in [`SPARSE_SEG`]-deep segments, and within one segment
/// every row of `A` gathers its marked terms from that segment's rows of
/// `B`, which stay in cache across the rows. Each `C` element so runs
/// one `t`-ascending `mul_add` chain over the marked terms, checkpointed
/// in `C` between segments, with 32, 8 or 1 columns of its row held in
/// registers — the chain [`gemm_panel_avx2`] runs over every `t`, minus
/// the terms whose alpha is `±0`. A skipped term `fma(±0, b, c)` with a
/// finite `b` returns `c`, except that a `−0` sum plus a `+0` product is
/// `+0`. So against a finite `B` the two kernels agree bit for bit up to
/// the sign of a zero: where the dense chain meets a `−0` running sum and
/// a `+0` product it makes `+0`, while the skip keeps `−0`. The caller
/// must run the dense kernel when `B` has a non-finite entry (`0·∞` and
/// `0·NaN` are NaN). NaN or ±∞ in `A` is not zero, so it is computed like
/// any other alpha.
///
/// # Panics
/// Panics when any index reaches outside its slice or the CPU lacks
/// avx2+fma. `rows`, `depth` or `width` of 0 is a no-op.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_sparse_ab_avx2(
    a: &[f32],
    lda: usize,
    masks: &[SegMasks],
    ms: usize,
    rows: usize,
    depth: usize,
    b: &[f32],
    bs: usize,
    c: &mut [f32],
    cs: usize,
    width: usize,
) {
    if rows == 0 || depth == 0 || width == 0 {
        return;
    }
    on_avx2(move || {
        // Depth segments outside rows: the segment's `SPARSE_SEG` rows of
        // `B` stay in cache while every row of `A` gathers from them.
        for (s, t0) in (0..depth).step_by(SPARSE_SEG).enumerate() {
            let t1 = (t0 + SPARSE_SEG).min(depth);
            let b = &b[t0 * bs..];
            for r in 0..rows {
                let seg = &a[r * lda + t0..r * lda + t1];
                let c = &mut c[r * cs..r * cs + width];
                gather_nonzeros(seg, &masks[r * ms + s], b, bs, c);
            }
        }
    })
}

/// Sparse-A GEMM rows, `Aᵀ·B` form (AVX2 only):
///
/// ```text
/// C[t·cs + j] += Σ_{r : A[r][t] ≠ 0} A[r·lda + t] · B[r·bs + j]
///                r < rows, t < depth, j < width
/// ```
///
/// Input rows are taken in ascending order, with `A`'s masks laid out as
/// in [`gemm_sparse_ab_avx2`], and each marked alpha `A[r][t]` scatters
/// `A[r][t] · B[r]` into row `t` of `C`. Every `C` element
/// therefore runs the `r`-ascending `mul_add` chain of
/// [`gemm_panel_avx2`] (`rs = 1, ts = lda`) minus the `±0` terms, with
/// the same exactness rule and the same `−0` exception.
///
/// # Panics
/// Panics when any index reaches outside its slice or the CPU lacks
/// avx2+fma. `rows`, `depth` or `width` of 0 is a no-op.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_sparse_atb_avx2(
    a: &[f32],
    lda: usize,
    masks: &[SegMasks],
    ms: usize,
    rows: usize,
    depth: usize,
    b: &[f32],
    bs: usize,
    c: &mut [f32],
    cs: usize,
    width: usize,
) {
    if rows == 0 || depth == 0 || width == 0 {
        return;
    }
    on_avx2(move || {
        for r in 0..rows {
            let a_row = &a[r * lda..r * lda + depth];
            let b_row = &b[r * bs..r * bs + width];
            for (s, seg) in a_row.chunks(SPARSE_SEG).enumerate() {
                let c = &mut c[s * SPARSE_SEG * cs..];
                scatter_nonzeros(seg, &masks[r * ms + s], b_row, c, cs);
            }
        }
    })
}

/// Whether at most `limit` entries of `xs` are nonzero (NaN counts as
/// nonzero). Counts in blocks and stops at the first block that passes
/// `limit`, so a dense slice is rejected after reading about `limit` of
/// its entries (AVX2 only).
#[cfg(target_arch = "x86_64")]
pub(crate) fn nonzeros_at_most_avx2(xs: &[f32], limit: usize) -> bool {
    on_avx2(move || {
        let mut seen = 0usize;
        for block in xs.chunks(1024) {
            seen += block.iter().map(|&v| u32::from(v != 0.0)).sum::<u32>() as usize;
            if seen > limit {
                return false;
            }
        }
        true
    })
}

/// Whether every entry of `xs` is finite (neither NaN nor ±∞), read as
/// the largest magnitude bit pattern, which vectorizes (AVX2 only).
#[cfg(target_arch = "x86_64")]
pub(crate) fn all_finite_avx2(xs: &[f32]) -> bool {
    on_avx2(move || {
        let max_bits = xs
            .iter()
            .fold(0u32, |m, v| m.max(v.to_bits() & 0x7fff_ffff));
        max_bits < f32::INFINITY.to_bits()
    })
}

/// Pack a `depth × width` panel of `Bᵀ` into contiguous lanes:
///
/// ```text
/// out[t·width + j] = b[(j0 + j)·ldb + d0 + t]    t < depth, j < width
/// ```
///
/// i.e. the transpose of rows `j0..j0+width`, columns `d0..d0+depth` of
/// row-major `B`. [`gemm_panel_avx2`] then streams the packed panel
/// (`bs = width`) with unit row stride exactly like it streams `B` for
/// `A·B` — this is what lets the `A·Bᵀ` product drop the per-element
/// horizontal-sum dot kernel. A pure copy with no arithmetic, so it is
/// kernel-agnostic and cannot affect results: NaN/±∞ travel through
/// untouched.
///
/// # Panics
/// Panics when the source rows or the destination run out of bounds.
pub fn pack_bt_panel(
    b: &[f32],
    ldb: usize,
    j0: usize,
    d0: usize,
    width: usize,
    depth: usize,
    out: &mut [f32],
) {
    if width == 0 || depth == 0 {
        return;
    }
    assert!(
        (j0 + width - 1) * ldb + d0 + depth <= b.len(),
        "pack_bt_panel: b out of bounds"
    );
    let out = &mut out[..depth * width];
    for j in 0..width {
        let row = (j0 + j) * ldb + d0;
        let src = &b[row..row + depth];
        let mut idx = j;
        for &v in src {
            out[idx] = v;
            idx += width;
        }
    }
}

/// Fused single-pass SGD momentum update over the flat parameter vector:
///
/// ```text
/// g' = g + wd·p      (weight decay)
/// v  = m·v + g'      (momentum)
/// p  = p − lr·v      (descent)
/// ```
///
/// One load/store pass over three arrays instead of three scalar
/// read-modify-write chains. The scalar path is the historical
/// `Sgd::step` loop verbatim; the AVX2 path writes each line as one
/// `mul_add`, a single rounding (tolerance-bounded).
#[inline]
pub fn sgd_momentum_step(
    k: Kernel,
    params: &mut [f32],
    grads: &[f32],
    velocity: &mut [f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    assert_eq!(params.len(), grads.len(), "sgd step: grads length");
    assert_eq!(params.len(), velocity.len(), "sgd step: velocity length");
    let (m, wd) = (momentum, weight_decay);
    let steps = params.iter_mut().zip(grads).zip(velocity.iter_mut());
    match k {
        Kernel::Scalar => {
            for ((p, &g), v) in steps {
                let g = g + wd * *p;
                *v = m * *v + g;
                *p -= lr * *v;
            }
        }
        Kernel::Avx2 => on_avx2(move || {
            for ((p, &g), v) in steps {
                let g = wd.mul_add(*p, g);
                *v = m.mul_add(*v, g);
                *p = (-lr).mul_add(*v, *p);
            }
        }),
    }
}

/// Largest absolute value in `xs` (`0` when empty) — the int8 codec's
/// scale pass.
///
/// **Bit-identical across kernels**: one body runs on both arms, keeping
/// 8 running maxima with `if v > m { v } else { m }` (the operand order
/// of `maxps`, so the compiler vectorizes it). The max of non-negative
/// magnitudes does not depend on order, and a NaN element never wins a
/// `>` compare, so it is ignored.
#[inline]
pub fn max_abs(k: Kernel, xs: &[f32]) -> f32 {
    on_kernel(k, move || {
        let max = |m: f32, v: f32| if v > m { v } else { m };
        let mut lanes = [0.0f32; 8];
        let mut chunks = xs.chunks_exact(8);
        for c in chunks.by_ref() {
            for (m, &v) in lanes.iter_mut().zip(c) {
                *m = max(*m, v.abs());
            }
        }
        let tail = chunks.remainder().iter().map(|v| v.abs());
        lanes.into_iter().chain(tail).fold(0.0, max)
    })
}

/// Fold a 64-bit seed into the 32-bit lane-hash domain.
#[inline]
fn fold_seed(seed: u64) -> u32 {
    (seed ^ (seed >> 32)) as u32
}

/// Per-index uniform dither in `[0, 1)`: a murmur3-style integer
/// finalizer over `(seed, index)`. Counter-based (no rng state), so the
/// value for element `i` is the same whatever order — or lane width —
/// elements are visited in.
#[inline]
fn dither_f32(seed: u32, i: u32) -> f32 {
    let mut h = i.wrapping_mul(0x9E37_79B9).wrapping_add(seed);
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^= h >> 16;
    (h >> 8) as f32 * (1.0 / 16_777_216.0)
}

/// Fused max-abs + stochastically-rounded int8 quantization — the QSGD
/// encode pass. Returns the scale `s = max|x|`; each element becomes
///
/// ```text
/// q[i] = sign(x[i]) · floor(|x[i]|·(levels−1)/s + u[i])   q ∈ [−(levels−1), levels−1]
/// ```
///
/// with `u[i] ∈ [0, 1)` the seeded per-index dither, so `E[q] ∝ x`
/// (unbiased). `levels` must be in `2..=128` so magnitudes fit an `i8`.
/// A zero (or non-finite-free all-zero) vector quantizes to all zeros.
///
/// **Bit-identical across kernels for finite inputs only**: both arms
/// share the integer dither hash and the same mul → add → floor → clamp →
/// convert chain, all of which are exact lane-for-lane; the arms' NaN
/// handling in the clamp is not part of the contract.
pub fn quantize_stochastic_i8(
    k: Kernel,
    xs: &[f32],
    levels: u16,
    seed: u64,
    out: &mut [i8],
) -> f32 {
    assert_eq!(xs.len(), out.len(), "quantize: output length");
    assert!(
        (2..=128).contains(&levels),
        "quantize: levels must be in 2..=128, got {levels}"
    );
    let scale = max_abs(k, xs);
    // `max_abs` ignores NaN elements, so the scale is never NaN — only a
    // genuinely all-zero input lands here.
    if scale <= 0.0 {
        out.fill(0);
        return scale;
    }
    let m = (levels - 1) as f32 / scale;
    let qmax = (levels - 1) as f32;
    let s32 = fold_seed(seed);
    match k {
        Kernel::Scalar => {
            for (i, (&x, q)) in xs.iter().zip(out.iter_mut()).enumerate() {
                let u = dither_f32(s32, i as u32);
                let t = (x.abs() * m + u).floor().min(qmax).max(0.0) as i32;
                *q = if x < 0.0 { -t as i8 } else { t as i8 };
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `on_avx2` runs the closure only after finding avx2+fma;
        // lengths asserted above.
        Kernel::Avx2 => on_avx2(|| unsafe { avx2::quantize_stochastic_i8(xs, m, qmax, s32, out) }),
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => on_avx2(|| unreachable!()),
    }
    scale
}

/// Int8 dequantization: `out[i] = q[i] · s/(levels−1)` — the QSGD decode
/// pass. Bit-identical across kernels (one exact convert and one IEEE
/// multiply per element).
pub fn dequantize_i8(k: Kernel, qs: &[i8], scale: f32, levels: u16, out: &mut [f32]) {
    assert_eq!(qs.len(), out.len(), "dequantize: output length");
    assert!(
        (2..=128).contains(&levels),
        "dequantize: levels must be in 2..=128, got {levels}"
    );
    let step = if scale > 0.0 {
        scale / (levels - 1) as f32
    } else {
        0.0
    };
    on_kernel(k, move || {
        for (&q, v) in qs.iter().zip(out.iter_mut()) {
            *v = q as f32 * step;
        }
    })
}

/// Fixed block width for [`topk_select`]'s passes over the input. Like
/// the aggregation's `REDUCE_BLOCK` in `niid-fl` this is a constant of
/// the wire format's determinism story, not a tuning knob: block
/// histograms sum in any order and block candidates concatenate in block
/// order, so the output is a function of the data alone. It also bounds
/// a block's bucket counts, which is what lets them be `u16`.
const SCAN_BLOCK: usize = 8192;

/// The first radix digit is `|x|.to_bits() >> DIGIT_SHIFT`: the exponent
/// byte plus the top three mantissa bits, so even a vector whose
/// magnitudes share one exponent spreads over eight buckets.
const DIGIT_SHIFT: u32 = 20;

/// Number of first-digit buckets (the magnitude key has 31 bits).
const BUCKETS: usize = 1 << (31 - DIGIT_SHIFT);

/// A boundary bucket with more members than this is narrowed by the next
/// mantissa byte before the final `select_nth_unstable`, which costs
/// several times a histogram pass per element.
const REFINE_ABOVE: usize = 48;

/// Indices (ascending) of the `count` largest-magnitude elements of `xs`
/// — the top-k sparsifier's selection pass.
///
/// An exact radix select on the magnitude key `|x|.to_bits()`, which
/// orders like `|x|` with NaN above ∞, reading the input twice: one
/// histogram of the key's top 11 bits (the exponent byte and three
/// mantissa bits) finds the bucket holding the `count`-th largest key,
/// then one branch-free pass collects every element in or above that
/// bucket as a packed `(|x|, index)` key. The rest works on those
/// candidates only: the boundary bucket's members, narrowed by the next
/// mantissa byte when there are more than `REFINE_ABOVE` of them, give
/// the cutoff key through one `select_nth_unstable`, and a branch-free
/// filter keeps the candidates at or above it. Ties go to the lower
/// index. Both passes split into fixed [`SCAN_BLOCK`] blocks (on the
/// pool when there are several), and all of it is integer code shared by
/// both kernel arms (`_k` selects nothing), so the output is identical
/// on either arm and at any thread count.
///
/// # Panics
/// Panics when `xs.len()` does not fit `u32` (the sparse wire format's
/// index type).
pub fn topk_select(_k: Kernel, xs: &[f32], count: usize) -> Vec<u32> {
    assert!(
        u32::try_from(xs.len()).is_ok(),
        "topk_select: length {} exceeds the u32 index space",
        xs.len()
    );
    let n = xs.len();
    if count == 0 || n == 0 {
        return Vec::new();
    }
    if count >= n {
        return (0..n as u32).collect();
    }
    let blocks = n.div_ceil(SCAN_BLOCK);
    let block = |b: usize| {
        (
            b * SCAN_BLOCK,
            &xs[b * SCAN_BLOCK..n.min((b + 1) * SCAN_BLOCK)],
        )
    };
    let hists = in_blocks(blocks, &|b| histogram(block(b).1));
    let (digit, need) = boundary(BUCKETS, count, |lo, hi| {
        hists.iter().map(|h| sum_u16(&h[lo..hi])).sum()
    });
    let floor = (digit as u32) << DIGIT_SHIFT;
    let candidates: Vec<u64> = in_blocks(blocks, &|b| {
        let (base, xs) = block(b);
        let mut out = Vec::with_capacity(sum_u16(&hists[b][digit..]));
        for_each_kept(
            xs,
            |v| magnitude(v) >= floor,
            |j| {
                out.push(pack(xs[j], (base + j) as u32));
            },
        );
        out
    })
    .concat();
    let in_bucket = |p: u64| (p >> (32 + DIGIT_SHIFT)) as usize == digit;
    let mut bucket = Vec::with_capacity(hists.iter().map(|h| usize::from(h[digit])).sum());
    for_each_kept(&candidates, in_bucket, |j| bucket.push(candidates[j]));
    let cutoff = cutoff_key(bucket, need);
    let mut out = Vec::with_capacity(count);
    for_each_kept(
        &candidates,
        |p| p >= cutoff,
        |j| out.push(!(candidates[j] as u32)),
    );
    out
}

/// The magnitude key: `|x|`'s IEEE bits, monotonic in `|x|`.
#[inline]
fn magnitude(v: f32) -> u32 {
    v.to_bits() & 0x7FFF_FFFF
}

/// `(magnitude << 32) | !index`: one `u64` compare orders by (|x| desc,
/// index asc), and the key is unique per index.
#[inline]
fn pack(v: f32, i: u32) -> u64 {
    (u64::from(magnitude(v)) << 32) | u64::from(!i)
}

/// The `need`-th largest of one bucket's packed keys. More than
/// `REFINE_ABOVE` of them are first narrowed to the sub-bucket of the
/// next mantissa byte (magnitude bits 19..12) that holds that rank.
fn cutoff_key(mut bucket: Vec<u64>, mut need: usize) -> u64 {
    if bucket.len() > REFINE_ABOVE {
        let digit = |p: u64| usize::from((p >> (32 + DIGIT_SHIFT - 8)) as u8);
        let mut hist = [0u32; 256];
        for &p in &bucket {
            hist[digit(p)] += 1;
        }
        let (sub, rank) = boundary(256, need, |lo, hi| {
            hist[lo..hi].iter().map(|&c| c as usize).sum()
        });
        bucket.retain(|&p| digit(p) == sub);
        need = rank;
    }
    let at = bucket.len() - need;
    *bucket.select_nth_unstable(at).1
}

/// Run `f(b)` for every `b in 0..blocks`, on the pool when there are
/// several, and return the results in block order.
fn in_blocks<T: Send>(blocks: usize, f: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    if blocks == 1 {
        return vec![f(0)];
    }
    let mut slots: Vec<Option<T>> = (0..blocks).map(|_| None).collect();
    crate::parallel::parallel_chunks_mut(&mut slots, 1, &|b, slot| slot[0] = Some(f(b)));
    slots
        .into_iter()
        .map(|s| s.expect("parallel_chunks_mut visits every block"))
        .collect()
}

/// First-digit counts of one block. Two interleaved tables keep a run of
/// equal digits (exact zeros, say) from serializing on one counter's
/// store-to-load latency.
fn histogram(xs: &[f32]) -> [u16; BUCKETS] {
    debug_assert!(xs.len() <= SCAN_BLOCK);
    let [mut even, mut odd] = [[0u16; BUCKETS]; 2];
    let mut pairs = xs.chunks_exact(2);
    for p in pairs.by_ref() {
        even[(magnitude(p[0]) >> DIGIT_SHIFT) as usize] += 1;
        odd[(magnitude(p[1]) >> DIGIT_SHIFT) as usize] += 1;
    }
    for &x in pairs.remainder() {
        even[(magnitude(x) >> DIGIT_SHIFT) as usize] += 1;
    }
    for (e, &o) in even.iter_mut().zip(&odd) {
        *e += o;
    }
    even
}

fn sum_u16(counts: &[u16]) -> usize {
    counts.iter().map(|&c| usize::from(c)).sum()
}

/// The bucket below `buckets` holding the `need`-th largest key, and that
/// key's rank within it, given `count(lo, hi)` = keys in buckets
/// `lo..hi`. Runs of 64 buckets (mostly the empty top of the range) are
/// skipped whole.
fn boundary(
    buckets: usize,
    mut need: usize,
    count: impl Fn(usize, usize) -> usize,
) -> (usize, usize) {
    let mut hi = buckets;
    loop {
        let c = count(hi - 64, hi);
        if need <= c {
            break;
        }
        need -= c;
        hi -= 64;
    }
    for d in (hi - 64..hi).rev() {
        let c = count(d, d + 1);
        if need <= c {
            return (d, need);
        }
        need -= c;
    }
    unreachable!("topk_select: rank beyond the histogram total")
}

/// Call `hit(j)`, in ascending order, for every `j` with `keep(xs[j])`.
/// The predicate is evaluated for a whole 64-element chunk into byte
/// flags (a loop the compiler vectorizes) that fold into one bitmask, so
/// the per-element work has no data-dependent branch; only set bits are
/// visited.
fn for_each_kept<T: Copy>(xs: &[T], keep: impl Fn(T) -> bool, mut hit: impl FnMut(usize)) {
    for (c, chunk) in xs.chunks(64).enumerate() {
        let mut flags = [0u8; 64];
        // Sixteen at a time, so the flags land as whole 16-byte stores
        // that the 8-byte reads below can forward from; narrower stores
        // stall every read.
        let mut groups = chunk.chunks_exact(16);
        for (fs, xs) in flags.chunks_exact_mut(16).zip(groups.by_ref()) {
            for (f, &x) in fs.iter_mut().zip(xs) {
                *f = u8::from(keep(x));
            }
        }
        let tail = groups.remainder();
        for (f, &x) in flags[chunk.len() - tail.len()..].iter_mut().zip(tail) {
            *f = u8::from(keep(x));
        }
        let mut mask = 0u64;
        for (i, bytes) in flags.chunks_exact(8).enumerate() {
            // Eight 0/1 bytes to eight bits: the product's top byte
            // collects byte b's low bit at bit b, carry-free.
            let v = u64::from_le_bytes(bytes.try_into().expect("eight flags"));
            mask |= (v.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
        }
        while mask != 0 {
            hit(c * 64 + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
    }
}

/// The hand-written AVX2+FMA kernels that stay intrinsics: the GEMM
/// register tiles, `sum` and the quantizer. They stream 256-bit `ymm`
/// registers over contiguous f32 slices, and the GEMM tiles and `sum`
/// `maskload`/`maskstore` the final `len % 8` lanes so a tail never
/// leaves the vector unit or touches memory beyond the slice.
///
/// # Safety
///
/// Every function here requires avx2 and fma on the running CPU, so it
/// is called only inside `on_avx2`. The pointer-taking GEMM tiles also
/// require every index their contract names to be in bounds, which their
/// safe wrappers assert.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `TAIL_MASKS[r]` enables the first `r` of 8 lanes (sign bit set).
    #[rustfmt::skip]
    static TAIL_MASKS: [[i32; 8]; 8] = [
        [ 0,  0,  0,  0,  0,  0,  0,  0],
        [-1,  0,  0,  0,  0,  0,  0,  0],
        [-1, -1,  0,  0,  0,  0,  0,  0],
        [-1, -1, -1,  0,  0,  0,  0,  0],
        [-1, -1, -1, -1,  0,  0,  0,  0],
        [-1, -1, -1, -1, -1,  0,  0,  0],
        [-1, -1, -1, -1, -1, -1,  0,  0],
        [-1, -1, -1, -1, -1, -1, -1,  0],
    ];

    /// Load the lane mask for a tail of `r` elements (`0 < r < 8`).
    ///
    /// # Safety
    ///
    /// The CPU must support avx2. The load reads row `r` of `TAIL_MASKS`,
    /// whose index is checked.
    #[inline]
    unsafe fn tail_mask(r: usize) -> __m256i {
        debug_assert!(r < 8);
        _mm256_loadu_si256(TAIL_MASKS[r].as_ptr() as *const __m256i)
    }

    /// Horizontal sum of 8 lanes in a fixed order:
    /// `(l0+l4)+(l2+l6) + (l1+l5)+(l3+l7)` — deterministic per length.
    ///
    /// # Safety
    ///
    /// The CPU must support avx2. No memory is read.
    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s)); // [02+46, 13+57, ..]
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// Register-tiled panel update; see [`super::gemm_panel_avx2`] for the
    /// contract. Steps through groups of ≤4 rows from row 0 and
    /// monomorphizes each group's row count so the accumulator arrays
    /// stay in `ymm` registers.
    ///
    /// # Safety
    ///
    /// The CPU must support avx2 and fma. For `rows`, `depth` and `width`
    /// all non-zero, `alpha` must be readable at every
    /// `r·rs + t·ts ≤ (rows−1)·rs + (depth−1)·ts`, `b` at every
    /// `t·bs + j < (depth−1)·bs + width`, and `c` readable and writable
    /// at every `r·cs + j < (rows−1)·cs + width`, with `c` overlapping
    /// neither `alpha` nor `b`. [`super::gemm_panel_avx2`] asserts these
    /// bounds on the slices it passes.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_panel(
        alpha: *const f32,
        rs: usize,
        ts: usize,
        rows: usize,
        depth: usize,
        b: *const f32,
        bs: usize,
        c: *mut f32,
        cs: usize,
        width: usize,
    ) {
        let mut r = 0;
        while r < rows {
            let group = (rows - r).min(4);
            let (alpha, c) = (alpha.add(r * rs), c.add(r * cs));
            match group {
                4 => gemm_panel_rows::<4>(alpha, rs, ts, depth, b, bs, c, cs, width),
                3 => gemm_panel_rows::<3>(alpha, rs, ts, depth, b, bs, c, cs, width),
                2 => gemm_panel_rows::<2>(alpha, rs, ts, depth, b, bs, c, cs, width),
                _ => gemm_panel_rows::<1>(alpha, rs, ts, depth, b, bs, c, cs, width),
            }
            r += group;
        }
    }

    // `for r in 0..R` + indexing keeps the accumulator arrays addressed by
    // a const-propagated index, which is what lets LLVM allocate them to
    // ymm registers; iterator chains obscure that.
    /// One group of `R` rows of [`gemm_panel`].
    ///
    /// # Safety
    ///
    /// [`gemm_panel`]'s contract with `rows = R`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    unsafe fn gemm_panel_rows<const R: usize>(
        alpha: *const f32,
        rs: usize,
        ts: usize,
        depth: usize,
        b: *const f32,
        bs: usize,
        c: *mut f32,
        cs: usize,
        width: usize,
    ) {
        let mut j = 0usize;
        // 16-column blocks: R×2 accumulators, one broadcast feeds two FMAs.
        while j + 16 <= width {
            let mut acc0 = [_mm256_setzero_ps(); R];
            let mut acc1 = [_mm256_setzero_ps(); R];
            for r in 0..R {
                acc0[r] = _mm256_loadu_ps(c.add(r * cs + j));
                acc1[r] = _mm256_loadu_ps(c.add(r * cs + j + 8));
            }
            for t in 0..depth {
                let b0 = _mm256_loadu_ps(b.add(t * bs + j));
                let b1 = _mm256_loadu_ps(b.add(t * bs + j + 8));
                for r in 0..R {
                    let av = _mm256_broadcast_ss(&*alpha.add(r * rs + t * ts));
                    acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
                    acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
                }
            }
            for r in 0..R {
                _mm256_storeu_ps(c.add(r * cs + j), acc0[r]);
                _mm256_storeu_ps(c.add(r * cs + j + 8), acc1[r]);
            }
            j += 16;
        }
        while j + 8 <= width {
            let mut acc = [_mm256_setzero_ps(); R];
            for r in 0..R {
                acc[r] = _mm256_loadu_ps(c.add(r * cs + j));
            }
            for t in 0..depth {
                let bv = _mm256_loadu_ps(b.add(t * bs + j));
                for r in 0..R {
                    let av = _mm256_broadcast_ss(&*alpha.add(r * rs + t * ts));
                    acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
                }
            }
            for r in 0..R {
                _mm256_storeu_ps(c.add(r * cs + j), acc[r]);
            }
            j += 8;
        }
        let rem = width - j;
        if rem > 0 {
            // Masked-off B lanes load +0.0; whatever alpha·0 produces in
            // the dead lanes is never stored back.
            let m = tail_mask(rem);
            let mut acc = [_mm256_setzero_ps(); R];
            for r in 0..R {
                acc[r] = _mm256_maskload_ps(c.add(r * cs + j), m);
            }
            for t in 0..depth {
                let bv = _mm256_maskload_ps(b.add(t * bs + j), m);
                for r in 0..R {
                    let av = _mm256_broadcast_ss(&*alpha.add(r * rs + t * ts));
                    acc[r] = _mm256_fmadd_ps(av, bv, acc[r]);
                }
            }
            for r in 0..R {
                _mm256_maskstore_ps(c.add(r * cs + j), m, acc[r]);
            }
        }
    }

    /// Sum of `xs` in 8-lane partial sums, then [`hsum`].
    ///
    /// # Safety
    ///
    /// The CPU must support avx2 and fma. Every load stays inside `xs`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum(xs: &[f32]) -> f32 {
        let n = xs.len();
        let p = xs.as_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            // Masked lanes read as +0.0, the additive identity.
            acc = _mm256_add_ps(acc, _mm256_maskload_ps(p.add(i), tail_mask(rem)));
        }
        hsum(acc)
    }

    /// One 8-lane slice of the murmur3-finalizer dither + quantize chain;
    /// see [`super::quantize_stochastic_i8`]. Returns signed i32 levels.
    ///
    /// # Safety
    ///
    /// The CPU must support avx2 and fma, and `xp` must be readable for
    /// the 8 floats at `xp + i ..= xp + i + 7`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn quant8(
        xp: *const f32,
        i: usize,
        vm: __m256,
        vqmax: __m256,
        vseed: __m256i,
    ) -> __m256i {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let idx = _mm256_add_epi32(_mm256_set1_epi32(i as i32), lane);
        // Integer murmur3 finalizer — identical to the scalar dither hash.
        let mut h = _mm256_add_epi32(
            _mm256_mullo_epi32(idx, _mm256_set1_epi32(0x9E37_79B9u32 as i32)),
            vseed,
        );
        h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
        h = _mm256_mullo_epi32(h, _mm256_set1_epi32(0x85EB_CA6Bu32 as i32));
        h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 13));
        h = _mm256_mullo_epi32(h, _mm256_set1_epi32(0xC2B2_AE35u32 as i32));
        h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
        // (h >> 8) < 2^24 converts to f32 exactly; ·2⁻²⁴ is a pure
        // exponent shift — both match the scalar dither bit-for-bit.
        let u = _mm256_mul_ps(
            _mm256_cvtepi32_ps(_mm256_srli_epi32(h, 8)),
            _mm256_set1_ps(1.0 / 16_777_216.0),
        );
        let x = _mm256_loadu_ps(xp.add(i));
        // mul then add, NOT fmadd: the scalar arm rounds twice.
        let a = _mm256_add_ps(_mm256_mul_ps(_mm256_and_ps(x, absmask), vm), u);
        let f = _mm256_round_ps(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        let c = _mm256_max_ps(_mm256_min_ps(f, vqmax), _mm256_setzero_ps());
        let q = _mm256_cvttps_epi32(c);
        // Two's-complement negate where x < 0 (matches the scalar
        // `x < 0.0` branch for every input, NaN included).
        let neg = _mm256_castps_si256(_mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_LT_OQ));
        _mm256_sub_epi32(_mm256_xor_si256(q, neg), neg)
    }

    /// Stochastic int8 quantization; see [`super::quantize_stochastic_i8`]
    /// for the contract. 32 elements per iteration: four 8-lane quantize
    /// chains saturating-packed (values fit ±127, so packs never clip)
    /// into one 32-byte store, lane order restored by a cross-lane dword
    /// permute.
    ///
    /// # Safety
    ///
    /// The CPU must support avx2 and fma, and `out.len() >= xs.len()`:
    /// each 32-element store writes `out` at the offsets it read from
    /// `xs`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn quantize_stochastic_i8(xs: &[f32], m: f32, qmax: f32, seed: u32, out: &mut [i8]) {
        let n = xs.len();
        let xp = xs.as_ptr();
        let op = out.as_mut_ptr();
        let vm = _mm256_set1_ps(m);
        let vqmax = _mm256_set1_ps(qmax);
        let vseed = _mm256_set1_epi32(seed as i32);
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut i = 0usize;
        while i + 32 <= n {
            let q0 = quant8(xp, i, vm, vqmax, vseed);
            let q1 = quant8(xp, i + 8, vm, vqmax, vseed);
            let q2 = quant8(xp, i + 16, vm, vqmax, vseed);
            let q3 = quant8(xp, i + 24, vm, vqmax, vseed);
            let t0 = _mm256_packs_epi32(q0, q1);
            let t1 = _mm256_packs_epi32(q2, q3);
            let p = _mm256_packs_epi16(t0, t1);
            let fixed = _mm256_permutevar8x32_epi32(p, order);
            _mm256_storeu_si256(op.add(i) as *mut __m256i, fixed);
            i += 32;
        }
        // Scalar epilogue — same dither hash, same op chain, same bits.
        while i < n {
            let x = *xp.add(i);
            let u = super::dither_f32(seed, i as u32);
            let t = (x.abs() * m + u).floor().min(qmax).max(0.0) as i32;
            *op.add(i) = if x < 0.0 { -t as i8 } else { t as i8 };
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_stats::Pcg64;

    /// Lengths straddling the 32-, 8- and 4-element boundaries.
    const LENS: [usize; 10] = [0, 1, 3, 7, 8, 9, 17, 31, 33, 100];

    fn randv(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
    }

    #[test]
    fn scalar_always_available_and_named() {
        assert!(Kernel::Scalar.available());
        assert!(!Kernel::Scalar.is_simd());
        assert_eq!(Kernel::Scalar.name(), "scalar");
        assert_eq!(Kernel::Avx2.name(), "avx2");
        assert_eq!(Kernel::available_kernels()[0], Kernel::Scalar);
    }

    #[test]
    fn forced_kernel_is_scoped_and_restored() {
        let outer = active_kernel();
        with_forced_kernel(Kernel::Scalar, || {
            assert_eq!(active_kernel(), Kernel::Scalar);
        });
        assert_eq!(active_kernel(), outer);
        // Restored even when the closure panics.
        let _ = std::panic::catch_unwind(|| {
            with_forced_kernel(Kernel::Scalar, || panic!("boom"));
        });
        assert_eq!(active_kernel(), outer);
    }

    #[test]
    fn elementwise_primitives_bit_identical_across_kernels() {
        for k in Kernel::available_kernels() {
            for &n in &LENS {
                let b = randv(n, 7 + n as u64);
                let base = randv(n, 90 + n as u64);

                let mut want = base.clone();
                for (c, &bv) in want.iter_mut().zip(&b) {
                    *c += bv;
                }
                let mut got = base.clone();
                add_assign(k, &mut got, &b);
                assert_eq!(got, want, "add_assign {k:?} len {n}");

                let mut want = base.clone();
                for c in want.iter_mut() {
                    *c *= 1.7;
                }
                let mut got = base.clone();
                scale_assign(k, &mut got, 1.7);
                assert_eq!(got, want, "scale_assign {k:?} len {n}");

                let mut want = base.clone();
                for c in want.iter_mut() {
                    *c += -0.3;
                }
                let mut got = base.clone();
                add_scalar_assign(k, &mut got, -0.3);
                assert_eq!(got, want, "add_scalar_assign {k:?} len {n}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_primitives_match_add_assign_per_row() {
        // One gated call over every row gives the bits of one
        // `add_assign` per row, in row order, on every arm.
        for k in Kernel::available_kernels() {
            for (rows, w) in [(0usize, 3usize), (1, 1), (5, 7), (32, 33), (3, 130)] {
                let bias = randv(w, 3 + w as u64);
                let y = randv(rows * w, 5 + rows as u64);
                let mut want = y.clone();
                for row in want.chunks_exact_mut(w) {
                    add_assign(Kernel::Scalar, row, &bias);
                }
                let mut got = y.clone();
                broadcast_add_rows(k, &mut got, &bias);
                assert_eq!(bits(&got), bits(&want), "broadcast {k:?} {rows}x{w}");

                let mut want = bias.clone();
                for row in y.chunks_exact(w) {
                    add_assign(Kernel::Scalar, &mut want, row);
                }
                let mut got = bias.clone();
                accumulate_rows(k, &mut got, &y);
                assert_eq!(bits(&got), bits(&want), "accumulate {k:?} {rows}x{w}");
            }
        }
    }

    #[test]
    fn relu_matches_scalar_semantics_including_nan() {
        for k in Kernel::available_kernels() {
            for &n in &LENS {
                let mut x = randv(n, 11 + n as u64);
                if n > 2 {
                    x[0] = f32::NAN;
                    x[1] = f32::NEG_INFINITY;
                    x[2] = -0.0;
                }
                let want: Vec<f32> = x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
                let mut fwd = vec![9.0f32; n];
                relu_into(k, &x, &mut fwd);
                assert_eq!(fwd, want, "relu_into {k:?} len {n}");
                let mut inplace = x.clone();
                relu_assign(k, &mut inplace);
                assert_eq!(inplace, want, "relu_assign {k:?} len {n}");

                let g = randv(n, 13 + n as u64);
                let want_b: Vec<f32> = g
                    .iter()
                    .zip(&x)
                    .map(|(&g, &x)| if x > 0.0 { g } else { 0.0 })
                    .collect();
                let mut bwd = vec![9.0f32; n];
                relu_backward_into(k, &g, &x, &mut bwd);
                assert_eq!(bwd, want_b, "relu_backward {k:?} len {n}");
            }
        }
    }

    /// The register-tiled panel kernel against a naïve reference, for both
    /// alpha-stride configurations (A·B rows: `rs = stride, ts = 1`;
    /// Aᵀ·B columns: `rs = 1, ts = stride`), row counts within and past
    /// one 4-row group and widths straddling the 16-, 8- and masked-tail
    /// paths.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_panel_matches_reference_and_propagates_nan() {
        if !Kernel::Avx2.available() {
            return;
        }
        // Rows past 4 run several register groups in one call.
        for rows in [1usize, 2, 3, 4, 5, 7, 9] {
            for depth in [1usize, 2, 5, 33] {
                for width in [1usize, 7, 8, 9, 16, 17, 33] {
                    let stride = rows.max(depth) + 3;
                    let alpha = randv(stride * stride, (rows * depth * width) as u64);
                    let b = randv(depth * width, 23 + width as u64);
                    let base = randv(rows * width, 29 + width as u64);
                    for (rs, ts) in [(stride, 1), (1, stride)] {
                        let mut want = base.clone();
                        for r in 0..rows {
                            for t in 0..depth {
                                let a = alpha[r * rs + t * ts];
                                for j in 0..width {
                                    want[r * width + j] += a * b[t * width + j];
                                }
                            }
                        }
                        let mut got = base.clone();
                        gemm_panel_avx2(
                            &alpha, rs, ts, rows, depth, &b, width, &mut got, width, width,
                        );
                        for (g, w) in got.iter().zip(&want) {
                            assert!(
                                (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                                "panel rows={rows} depth={depth} width={width} \
                                 rs={rs} ts={ts}: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
        // Zero alphas are computed, not skipped: 0 · ∞ must surface NaN.
        let alpha = vec![0.0f32; 4];
        let b = vec![f32::INFINITY; 4];
        let mut c = vec![1.0f32; 4];
        gemm_panel_avx2(&alpha, 1, 1, 1, 1, &b, 4, &mut c, 4, 4);
        assert!(
            c.iter().all(|v| v.is_nan()),
            "0·∞ must yield NaN, got {c:?}"
        );
    }

    #[test]
    fn pack_bt_panel_transposes_the_tile() {
        // B is [5 rows, 7 cols] row-major; pack rows 1..4, cols 2..6.
        let b: Vec<f32> = (0..35).map(|v| v as f32).collect();
        let (j0, d0, width, depth) = (1usize, 2usize, 3usize, 4usize);
        let mut out = vec![-1.0f32; depth * width + 2];
        pack_bt_panel(&b, 7, j0, d0, width, depth, &mut out);
        for t in 0..depth {
            for j in 0..width {
                assert_eq!(out[t * width + j], b[(j0 + j) * 7 + d0 + t], "t={t} j={j}");
            }
        }
        // Slack past depth*width is untouched.
        assert_eq!(out[depth * width], -1.0);
        // NaN/∞ pass through the copy untouched (sign-of-NaN included).
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let mut packed = vec![0.0f32; 4];
        pack_bt_panel(&specials, 1, 0, 0, 4, 1, &mut packed);
        assert_eq!(
            packed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            specials.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn nt_kernel_bit_matches_gemm_panel_on_equivalent_operand() {
        if !Kernel::Avx2.available() {
            return;
        }
        // C[r][j] += Σ_t A[r][t] · B[j][t] with B row-major [n, k]: pack
        // Bᵀ with pack_bt_panel and run the panel kernel on it at
        // bs = width, against the same kernel fed an explicitly transposed
        // dense operand — bit-for-bit, which pins the pack layout.
        let (k, n) = (37usize, 19usize);
        let b = randv(n * k, 11);
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for t in 0..k {
                bt[t * n + j] = b[j * k + t];
            }
        }
        let mut packed = vec![0.0f32; k * n];
        pack_bt_panel(&b, k, 0, 0, n, k, &mut packed);
        for rows in [1usize, 2, 3, 4, 5, 7, 9] {
            let a = randv(rows * k, 7);
            let mut want = vec![0.5f32; rows * n];
            gemm_panel_avx2(&a, k, 1, rows, k, &bt, n, &mut want, n, n);
            let mut got = vec![0.5f32; rows * n];
            gemm_panel_avx2(&a, k, 1, rows, k, &packed, n, &mut got, n, n);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "rows={rows}"
            );
        }
    }

    #[test]
    fn sums_match_reference() {
        for k in Kernel::available_kernels() {
            for &n in &LENS {
                let x = randv(n, 41 + n as u64);
                let want: f64 = x.iter().map(|&v| v as f64).sum();
                let got = sum(k, &x) as f64;
                assert!(
                    (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                    "sum {k:?} len {n}"
                );
                // f64 sum-of-squares is bit-identical across kernels.
                assert_eq!(
                    sum_sq_f64(k, &x).to_bits(),
                    sum_sq_f64(Kernel::Scalar, &x).to_bits(),
                    "sum_sq_f64 {k:?} len {n}"
                );
            }
        }
    }

    #[test]
    fn sgd_step_matches_scalar_within_tolerance() {
        for k in Kernel::available_kernels() {
            for &n in &LENS {
                let g = randv(n, 43 + n as u64);
                let p0 = randv(n, 47 + n as u64);
                let (lr, m, wd) = (0.1f32, 0.9f32, 1e-4f32);

                let mut p_ref = p0.clone();
                let mut v_ref = vec![0.0f32; n];
                let mut p = p0.clone();
                let mut v = vec![0.0f32; n];
                for _ in 0..3 {
                    sgd_momentum_step(Kernel::Scalar, &mut p_ref, &g, &mut v_ref, lr, m, wd);
                    sgd_momentum_step(k, &mut p, &g, &mut v, lr, m, wd);
                }
                for (a, b) in p.iter().zip(&p_ref) {
                    assert!(
                        (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                        "sgd {k:?} len {n}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn forcing_unavailable_kernel_panics() {
        configured_kernel();
        HIDE_AVX2.with(|h| h.set(true));
        with_forced_kernel(Kernel::Avx2, || {});
    }

    /// `Kernel` is public, so a caller can pass `Kernel::Avx2` on a CPU
    /// without it: the arm must refuse before running any AVX2 code.
    #[test]
    fn avx2_arms_panic_without_the_cpu_features() {
        // Resolve the process-wide kernel before hiding AVX2 from this
        // thread, so the hidden state cannot leak into the cached choice.
        configured_kernel();
        HIDE_AVX2.with(|h| h.set(true));
        let relu = std::panic::catch_unwind(|| relu_into(Kernel::Avx2, &[1.0], &mut [0.0]));
        let sgd = std::panic::catch_unwind(|| {
            sgd_momentum_step(Kernel::Avx2, &mut [1.0], &[1.0], &mut [0.0], 0.1, 0.9, 0.0)
        });
        HIDE_AVX2.with(|h| h.set(false));
        for (name, result) in [("relu_into", relu), ("sgd_momentum_step", sgd)] {
            let payload = result.expect_err(name);
            let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                msg.contains("avx2 not available on this CPU"),
                "{name}: {msg:?}"
            );
        }
    }

    #[test]
    fn max_abs_bit_identical_across_kernels() {
        for k in Kernel::available_kernels() {
            for &n in &LENS {
                let mut x = randv(n, 61 + n as u64);
                if n > 3 {
                    x[1] = -3.75;
                    x[3] = f32::NAN; // ignored on both arms
                }
                let want = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                assert_eq!(max_abs(k, &x), want, "max_abs {k:?} len {n}");
            }
        }
        assert_eq!(max_abs(Kernel::Scalar, &[]), 0.0);
    }

    #[test]
    fn quantize_dequantize_bit_identical_and_bounded() {
        for &n in &[0usize, 1, 7, 31, 32, 33, 100, 1000] {
            let x = randv(n, 71 + n as u64);
            let mut q_ref = vec![0i8; n];
            let scale_ref = quantize_stochastic_i8(Kernel::Scalar, &x, 128, 9, &mut q_ref);
            for k in Kernel::available_kernels() {
                let mut q = vec![0i8; n];
                let scale = quantize_stochastic_i8(k, &x, 128, 9, &mut q);
                assert_eq!(scale.to_bits(), scale_ref.to_bits(), "scale {k:?} len {n}");
                assert_eq!(q, q_ref, "quantized bytes {k:?} len {n}");
                let mut back = vec![0.0f32; n];
                dequantize_i8(k, &q, scale, 128, &mut back);
                let step = if scale > 0.0 { scale / 127.0 } else { 0.0 };
                for (i, (&v, &b)) in x.iter().zip(&back).enumerate() {
                    assert!(
                        (v - b).abs() <= step + 1e-7,
                        "dequant error at {i} ({k:?} len {n}): {v} vs {b}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantization_is_seeded_and_zero_safe() {
        let x = randv(200, 5);
        let mut a = vec![0i8; 200];
        let mut b = vec![0i8; 200];
        let k = Kernel::Scalar;
        quantize_stochastic_i8(k, &x, 16, 42, &mut a);
        quantize_stochastic_i8(k, &x, 16, 42, &mut b);
        assert_eq!(a, b, "same seed, same bytes");
        quantize_stochastic_i8(k, &x, 16, 43, &mut b);
        assert_ne!(a, b, "different seed must dither differently");
        // All-zero input quantizes to zeros with scale 0.
        let z = vec![0.0f32; 50];
        let mut q = vec![1i8; 50];
        assert_eq!(quantize_stochastic_i8(k, &z, 128, 1, &mut q), 0.0);
        assert!(q.iter().all(|&v| v == 0));
        let mut back = vec![9.0f32; 50];
        dequantize_i8(k, &q, 0.0, 128, &mut back);
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quantization_is_unbiased_in_expectation() {
        // Average many seeds: the stochastic rounding error should shrink
        // well below one quantization step.
        let x = [0.31f32, -0.77, 0.05, 1.0, -0.003];
        let scale = 1.0f32;
        let step = scale / 127.0;
        let mut acc = vec![0.0f64; x.len()];
        let trials = 2000u64;
        for seed in 0..trials {
            let mut q = vec![0i8; x.len()];
            quantize_stochastic_i8(Kernel::Scalar, &x, 128, seed, &mut q);
            let mut back = vec![0.0f32; x.len()];
            dequantize_i8(Kernel::Scalar, &q, scale, 128, &mut back);
            for (a, &b) in acc.iter_mut().zip(&back) {
                *a += b as f64;
            }
        }
        for (&v, &mean) in x.iter().zip(&acc) {
            let mean = mean / trials as f64;
            assert!(
                (mean - v as f64).abs() < 0.1 * step as f64,
                "biased at {v}: mean {mean}"
            );
        }
    }

    #[test]
    fn topk_select_matches_sort_reference() {
        for k in Kernel::available_kernels() {
            for &n in &[0usize, 1, 5, 100, 9000, 20000] {
                let mut x = randv(n, 83 + n as u64);
                if n > 10 {
                    x[7] = 0.0; // exact ties at zero magnitude
                    x[9] = -0.0;
                }
                for &count in &[0usize, 1, 3, n / 10, n / 2, n, n + 5] {
                    let got = topk_select(k, &x, count);
                    assert_eq!(
                        got,
                        topk_oracle(&x, count),
                        "topk {k:?} n {n} count {count}"
                    );
                }
            }
        }
    }

    /// Brute-force top-k: full sort by (|x| desc, index asc), keep
    /// `count`, return ascending.
    fn topk_oracle(x: &[f32], count: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..x.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let ka = x[a as usize].to_bits() & 0x7FFF_FFFF;
            let kb = x[b as usize].to_bits() & 0x7FFF_FFFF;
            kb.cmp(&ka).then(a.cmp(&b))
        });
        order.truncate(count);
        order.sort_unstable();
        order
    }

    #[test]
    fn topk_select_matches_brute_force_oracle() {
        // Differential test of the radix select: random, tie-heavy and
        // NaN/±∞ inputs, magnitudes crowded into one exponent, an
        // update-shaped spread over sixteen octaves with exact zeros, and
        // subnormals; `count` at both ends, `n` from 1 to past two
        // SCAN_BLOCKs.
        let specials = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
        ];
        let sizes = [
            1,
            2,
            3,
            9,
            64,
            513,
            2442,
            SCAN_BLOCK - 1,
            SCAN_BLOCK,
            SCAN_BLOCK + 1,
            2 * SCAN_BLOCK + 1,
        ];
        let mut rng = Pcg64::new(2442);
        for case in 0..3000usize {
            // Six consecutive cases per fixed size: every input shape.
            let n = if case % 50 < 6 {
                sizes[case / 50 % sizes.len()]
            } else {
                2 + rng.next_below(600)
            };
            let x: Vec<f32> = (0..n)
                .map(|_| {
                    let sign = if rng.next_below(2) == 0 { 1.0 } else { -1.0 };
                    match case % 6 {
                        0 => rng.next_f32() * 2.0 - 1.0,
                        // Tie-heavy: eight distinct magnitudes, both signs.
                        1 => (rng.next_below(8) as f32 - 4.0) * 0.25,
                        2 if rng.next_below(8) == 0 => specials[rng.next_below(specials.len())],
                        2 => rng.next_f32() * 4.0 - 2.0,
                        // One exponent: |x| in [0.5, 1).
                        3 => sign * (0.5 + 0.5 * rng.next_f32()),
                        // Update-shaped: |x| = 2^-u, u in [4, 20], and zeros.
                        4 if rng.next_below(10) == 0 => 0.0,
                        4 => sign * (-(4.0 + 16.0 * rng.next_f32())).exp2(),
                        // Subnormals, with the smallest normals above them.
                        _ => sign * f32::from_bits(rng.next_below(1 << 24) as u32),
                    }
                })
                .collect();
            let count = match case % 4 {
                0 => 1,
                1 => n - 1,
                _ => 1 + rng.next_below(n),
            };
            for k in Kernel::available_kernels() {
                assert_eq!(
                    topk_select(k, &x, count),
                    topk_oracle(&x, count),
                    "case {case}: {k:?} n {n} count {count}"
                );
            }
        }
    }

    #[test]
    fn topk_select_thread_count_invariant() {
        let x = randv(50_000, 97);
        let count = 500;
        let base =
            crate::parallel::with_thread_budget(1, || topk_select(Kernel::Scalar, &x, count));
        for threads in [2, 4, 7] {
            let got = crate::parallel::with_thread_budget(threads, || {
                topk_select(Kernel::Scalar, &x, count)
            });
            assert_eq!(got, base, "topk at {threads} threads");
        }
        for k in Kernel::available_kernels() {
            assert_eq!(topk_select(k, &x, count), base, "topk {k:?}");
        }
    }

    #[test]
    fn topk_select_survives_adversarial_distributions() {
        // A constant vector defeats any sampled threshold: every key ties,
        // so the fix-up must cut purely by index.
        let x = vec![0.5f32; 10_000];
        let got = topk_select(Kernel::Scalar, &x, 12);
        let want: Vec<u32> = (0..12).collect();
        assert_eq!(got, want);
        // One huge block of zeros with the signal at the very end forces
        // the undershoot-retry path (the sample sees almost only zeros).
        let mut x = vec![0.0f32; 9_000];
        for (i, v) in x.iter_mut().enumerate().skip(8_990) {
            *v = 1.0 + i as f32;
        }
        let got = topk_select(Kernel::Scalar, &x, 10);
        let want: Vec<u32> = (8_990..9_000).collect();
        assert_eq!(got, want);
    }
}
