//! Runtime-dispatched SIMD micro-kernels for the training hot path.
//!
//! Every inner loop the models spend time in — the GEMM axpy/dot panels,
//! elementwise activations, bias adds, reductions and the SGD momentum
//! update — funnels through this module. At process start the dispatcher
//! picks a [`Kernel`]:
//!
//! * **`Kernel::Avx2`** — explicit `std::arch` AVX2+FMA kernels: 8-wide
//!   (256-bit) f32 lanes, fused multiply-add, 4× unrolled main loops and
//!   masked tail handling (`_mm256_maskload_ps`/`_mm256_maskstore_ps`)
//!   so odd lengths never fall off the vector path.
//! * **`Kernel::Scalar`** — the portable fallback. Its loops are kept
//!   **character-for-character identical** to the pre-SIMD kernels, so
//!   `NIID_SIMD=scalar` reproduces historical training trajectories
//!   bit-for-bit.
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
//! ## Determinism contract
//!
//! For a **fixed kernel**, every primitive's floating-point evaluation
//! order is a function of slice lengths alone, so results compose with the
//! worker-pool blocking in [`crate::matmul`] to stay bit-identical at any
//! `NIID_THREADS`. Across kernels the primitives fall in three classes:
//!
//! | primitive                         | AVX2 vs scalar |
//! |-----------------------------------|----------------|
//! | `add_assign`, `add_scalar_assign`, `scale_assign`, `relu_*` | bit-identical (lane ops have scalar IEEE semantics) |
//! | `sum_sq_f64`                      | bit-identical (4 f64 lanes mirror the scalar 4-accumulator loop) |
//! | `max_abs`, `quantize_stochastic_i8`, `dequantize_i8` | bit-identical (max/compare/convert are exact; the dither hash is integer) |
//! | `topk_select`                     | identical (one integer radix select serves both arms) |
//! | `axpy`, `dot`, `sum`, `sgd_momentum_step` | tolerance-bounded (FMA contraction and/or lane-reduction reassociation) |
//!
//! NaN/∞ propagation matches the scalar kernels everywhere: FMA and lane
//! arithmetic propagate non-finite values exactly like their scalar
//! counterparts, and the ReLU kernels use compare/max forms whose
//! NaN-maps-to-zero behaviour equals the scalar `if v > 0.0` branch.

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
    /// AVX2 + FMA `std::arch` kernels (x86-64 only).
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

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
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

// ---------------------------------------------------------------------------
// Dispatched primitives. Every function takes the resolved `Kernel` so the
// dispatch decision is hoisted out of tile/row loops by the caller.
// ---------------------------------------------------------------------------

/// `c[i] += a * b[i]` — the GEMM panel update.
///
/// AVX2 uses 8-wide FMA (single rounding per element); scalar is the
/// historical mul+add loop.
#[inline]
pub fn axpy(k: Kernel, c: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    match k {
        Kernel::Scalar => {
            for (cv, &bv) in c.iter_mut().zip(b) {
                *cv += a * bv;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::axpy(c, a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// Dot product `Σ a[i]·b[i]` — the A·Bᵀ inner loop.
///
/// AVX2 accumulates in 4×8 lanes reduced in a fixed order; scalar is the
/// historical serial accumulation.
#[inline]
pub fn dot(k: Kernel, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match k {
        Kernel::Scalar => {
            let mut acc = 0.0f32;
            for (av, bv) in a.iter().zip(b) {
                acc += av * bv;
            }
            acc
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::dot(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// Elementwise `c[i] += b[i]`. Bit-identical across kernels.
#[inline]
pub fn add_assign(k: Kernel, c: &mut [f32], b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    match k {
        Kernel::Scalar => {
            for (cv, &bv) in c.iter_mut().zip(b) {
                *cv += bv;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::add_assign(c, b) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// `c[i] += a` — the conv bias broadcast. Bit-identical across kernels.
#[inline]
pub fn add_scalar_assign(k: Kernel, c: &mut [f32], a: f32) {
    match k {
        Kernel::Scalar => {
            for cv in c.iter_mut() {
                *cv += a;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::add_scalar_assign(c, a) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// `c[i] *= a` — softmax normalization, gradient scaling. Bit-identical
/// across kernels.
#[inline]
pub fn scale_assign(k: Kernel, c: &mut [f32], a: f32) {
    match k {
        Kernel::Scalar => {
            for cv in c.iter_mut() {
                *cv *= a;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::scale_assign(c, a) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// `dst[i] = max(src[i], 0)`, with NaN mapped to `0.0` exactly like the
/// scalar `if v > 0.0 { v } else { 0.0 }`. Bit-identical across kernels.
#[inline]
pub fn relu_into(k: Kernel, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    match k {
        Kernel::Scalar => {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = if v > 0.0 { v } else { 0.0 };
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::relu_into(src, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// In-place ReLU (`x[i] = max(x[i], 0)`, NaN → 0). Bit-identical across
/// kernels.
#[inline]
pub fn relu_assign(k: Kernel, xs: &mut [f32]) {
    match k {
        Kernel::Scalar => {
            for v in xs.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::relu_assign(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// `dst[i] = if input[i] > 0 { grad[i] } else { 0 }` — ReLU backward.
/// Bit-identical across kernels (NaN input gates to 0, like scalar).
#[inline]
pub fn relu_backward_into(k: Kernel, grad: &[f32], input: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(grad.len(), input.len());
    debug_assert_eq!(grad.len(), dst.len());
    match k {
        Kernel::Scalar => {
            for ((d, &g), &x) in dst.iter_mut().zip(grad).zip(input) {
                *d = if x > 0.0 { g } else { 0.0 };
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::relu_backward_into(grad, input, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
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
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::sum(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// Sum of squares with f64 accumulation — the gradient-norm probe.
///
/// **Bit-identical across kernels**: the scalar path uses 4 independent
/// accumulators over `chunks_exact(4)` (lane `j` takes elements
/// `j, j+4, …`), combined as `s0+s1+s2+s3` plus a serial remainder; the
/// AVX2 path maps the same 4 streams onto 4 f64 lanes with plain
/// convert/multiply/add (no FMA), so every partial sum rounds identically.
#[inline]
pub fn sum_sq_f64(k: Kernel, xs: &[f32]) -> f64 {
    match k {
        Kernel::Scalar => {
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
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::sum_sq_f64(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// Register-tiled GEMM panel update (AVX2 only):
///
/// ```text
/// C[r][j] += Σ_t alpha[r·rs + t·ts] · B[t·bs + j]    r < rows, j < width
/// ```
///
/// Up to 4 C rows are held in `ymm` accumulators across the whole `t`
/// loop (two 8-lane vectors per row while `width ≥ 16`, one while
/// `width ≥ 8`, a masked vector for the final `width % 8` columns), so C
/// is loaded and stored **once per panel** instead of once per `t` as in
/// the [`axpy`] formulation. The `alpha` strides make the one kernel
/// serve both axpy-shaped GEMMs: `A·B` passes `rs = k, ts = 1` (alphas
/// are a row of A), `Aᵀ·B` passes `rs = 1, ts = k` (alphas are a column
/// of A).
///
/// Per C element the evaluation is the same `t`-ascending FMA chain as
/// the AVX2 [`axpy`] panel loop, so swapping the formulations does not
/// change the cross-kernel tolerance class, and the order is a function
/// of shapes alone (thread-count bit-identity holds). Unlike the scalar
/// path this kernel never skips zero alphas — every term is computed, so
/// NaN/∞ in either operand propagate exactly as IEEE arithmetic demands.
///
/// # Panics
/// Panics when `rows ∉ 1..=4` or any index reaches outside its slice.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub fn gemm_panel_avx2(
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
    if depth == 0 || width == 0 {
        return;
    }
    assert!((1..=4).contains(&rows), "gemm_panel: rows = {rows}");
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
    // SAFETY: bounds asserted above; callers only select this kernel when
    // avx2+fma are detected (enforced by `Kernel::Avx2.available()` at
    // dispatch time).
    unsafe {
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
    }
}

/// Pack a `depth × width` panel of `Bᵀ` into contiguous lanes:
///
/// ```text
/// out[t·width + j] = b[(j0 + j)·ldb + d0 + t]    t < depth, j < width
/// ```
///
/// i.e. the transpose of rows `j0..j0+width`, columns `d0..d0+depth` of
/// row-major `B`. [`gemm_panel_nt_avx2`] then streams the packed panel
/// with unit row stride exactly like the `A·B` kernel streams `B` itself
/// — this is what lets the `A·Bᵀ` product drop the per-element
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

/// Dedicated NT micro-kernel (AVX2 only): multiply up to 4 rows of
/// alphas against a **pre-packed** `Bᵀ` panel in [`pack_bt_panel`]
/// layout:
///
/// ```text
/// C[r][j] += Σ_t alpha[r·rs + t·ts] · packed[t·width + j]
/// ```
///
/// The pack gives the `t` loop unit-stride panel rows, so the NT product
/// runs the same register-tiled broadcast-FMA inner loop as
/// [`gemm_panel_avx2`] — whose per-element `t`-ascending chain it shares,
/// so bits depend only on depth chunking, never on pack width or row
/// grouping.
///
/// # Panics
/// Panics when `rows ∉ 1..=4` or any index reaches outside its slice.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub fn gemm_panel_nt_avx2(
    alpha: &[f32],
    rs: usize,
    ts: usize,
    rows: usize,
    depth: usize,
    packed: &[f32],
    c: &mut [f32],
    cs: usize,
    width: usize,
) {
    if depth == 0 || width == 0 {
        return;
    }
    assert!((1..=4).contains(&rows), "gemm_panel_nt: rows = {rows}");
    assert!(
        (rows - 1) * rs + (depth - 1) * ts < alpha.len(),
        "gemm_panel_nt: alpha out of bounds"
    );
    assert!(
        depth * width <= packed.len(),
        "gemm_panel_nt: packed panel out of bounds"
    );
    assert!(
        (rows - 1) * cs + width <= c.len(),
        "gemm_panel_nt: c out of bounds"
    );
    // SAFETY: bounds asserted above; callers only select this kernel when
    // avx2+fma are detected.
    unsafe {
        avx2::gemm_panel_nt(
            alpha.as_ptr(),
            rs,
            ts,
            rows,
            depth,
            packed.as_ptr(),
            c.as_mut_ptr(),
            cs,
            width,
        )
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
/// [`Sgd::step`] loop verbatim; AVX2 contracts each line into an FMA
/// (tolerance-bounded).
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
    match k {
        Kernel::Scalar => {
            let (m, wd) = (momentum, weight_decay);
            for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity.iter_mut()) {
                let g = g + wd * *p;
                *v = m * *v + g;
                *p -= lr * *v;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected;
        // lengths checked above.
        Kernel::Avx2 => unsafe {
            avx2::sgd_momentum_step(params, grads, velocity, lr, momentum, weight_decay)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
}

/// Largest absolute value in `xs` (`0` when empty) — the int8 codec's
/// scale pass.
///
/// **Bit-identical across kernels**: max over non-negative magnitudes is
/// order-insensitive, so the AVX2 lane reduction cannot reassociate its
/// way to a different answer. NaN elements are ignored on both arms
/// (the accumulator operand order maps `max(acc, NaN)` to `acc`).
#[inline]
pub fn max_abs(k: Kernel, xs: &[f32]) -> f32 {
    match k {
        Kernel::Scalar => {
            let mut m = 0.0f32;
            for &v in xs {
                m = m.max(v.abs());
            }
            m
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected.
        Kernel::Avx2 => unsafe { avx2::max_abs(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
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
/// **Bit-identical across kernels** for finite inputs: both arms share
/// the integer dither hash and the same mul → add → floor → clamp →
/// convert chain, all of which are exact lane-for-lane.
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
    // `max_abs` folds through f32::max, which ignores NaN lanes, so the
    // scale is never NaN — only a genuinely all-zero input lands here.
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
        // SAFETY: Avx2 is only selectable when avx2+fma are detected;
        // lengths checked above.
        Kernel::Avx2 => unsafe { avx2::quantize_stochastic_i8(xs, m, qmax, s32, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
    scale
}

/// Int8 dequantization: `out[i] = q[i] · s/(levels−1)` — the QSGD decode
/// pass. Bit-identical across kernels (one exact convert and one IEEE
/// multiply per lane).
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
    match k {
        Kernel::Scalar => {
            for (&q, v) in qs.iter().zip(out.iter_mut()) {
                *v = q as f32 * step;
            }
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only selectable when avx2+fma are detected;
        // lengths checked above.
        Kernel::Avx2 => unsafe { avx2::dequantize_i8(qs, step, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Avx2 => unreachable!("avx2 kernel on non-x86_64"),
    }
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

/// The AVX2+FMA micro-kernels.
///
/// ## Register layout
///
/// All kernels stream 256-bit `ymm` registers over contiguous f32 slices:
/// a 4× unrolled main loop (32 f32 per iteration, enough independent FMA
/// chains to cover the 4-cycle FMA latency at 2 issues/cycle), an 8-wide
/// cleanup loop, and a masked epilogue that `maskload`s/`maskstore`s the
/// final `len % 8` lanes so tails never leave the vector unit or touch
/// memory beyond the slice.
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
    #[inline]
    unsafe fn tail_mask(r: usize) -> __m256i {
        debug_assert!(r < 8);
        _mm256_loadu_si256(TAIL_MASKS[r].as_ptr() as *const __m256i)
    }

    /// Horizontal sum of 8 lanes in a fixed order:
    /// `(l0+l4)+(l2+l6) + (l1+l5)+(l3+l7)` — deterministic per length.
    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s)); // [02+46, 13+57, ..]
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(c: &mut [f32], a: f32, b: &[f32]) {
        let n = c.len();
        let (cp, bp) = (c.as_mut_ptr(), b.as_ptr());
        let va = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 32 <= n {
            let c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp.add(i)), _mm256_loadu_ps(cp.add(i)));
            let c1 = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(bp.add(i + 8)),
                _mm256_loadu_ps(cp.add(i + 8)),
            );
            let c2 = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(bp.add(i + 16)),
                _mm256_loadu_ps(cp.add(i + 16)),
            );
            let c3 = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(bp.add(i + 24)),
                _mm256_loadu_ps(cp.add(i + 24)),
            );
            _mm256_storeu_ps(cp.add(i), c0);
            _mm256_storeu_ps(cp.add(i + 8), c1);
            _mm256_storeu_ps(cp.add(i + 16), c2);
            _mm256_storeu_ps(cp.add(i + 24), c3);
            i += 32;
        }
        while i + 8 <= n {
            let cv = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp.add(i)), _mm256_loadu_ps(cp.add(i)));
            _mm256_storeu_ps(cp.add(i), cv);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let bv = _mm256_maskload_ps(bp.add(i), m);
            let cv = _mm256_maskload_ps(cp.add(i), m);
            _mm256_maskstore_ps(cp.add(i), m, _mm256_fmadd_ps(va, bv, cv));
        }
    }

    /// Register-tiled panel update; see [`super::gemm_panel_avx2`] for the
    /// contract. Monomorphizes the row count so the accumulator arrays
    /// stay in `ymm` registers.
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
        match rows {
            4 => gemm_panel_rows::<4>(alpha, rs, ts, depth, b, bs, c, cs, width),
            3 => gemm_panel_rows::<3>(alpha, rs, ts, depth, b, bs, c, cs, width),
            2 => gemm_panel_rows::<2>(alpha, rs, ts, depth, b, bs, c, cs, width),
            1 => gemm_panel_rows::<1>(alpha, rs, ts, depth, b, bs, c, cs, width),
            _ => unreachable!("gemm_panel: rows must be 1..=4"),
        }
    }

    /// NT panel update on a packed `Bᵀ` panel; see
    /// [`super::gemm_panel_nt_avx2`] for the contract. The pack layout
    /// makes the panel a dense `depth × width` row-major matrix, i.e.
    /// [`gemm_panel`] with `bs = width` — same register tiling, same
    /// per-element FMA chain.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_panel_nt(
        alpha: *const f32,
        rs: usize,
        ts: usize,
        rows: usize,
        depth: usize,
        packed: *const f32,
        c: *mut f32,
        cs: usize,
        width: usize,
    ) {
        gemm_panel(alpha, rs, ts, rows, depth, packed, width, c, cs, width)
    }

    // `for r in 0..R` + indexing keeps the accumulator arrays addressed by
    // a const-propagated index, which is what lets LLVM allocate them to
    // ymm registers; iterator chains obscure that.
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

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 16)),
                _mm256_loadu_ps(bp.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 24)),
                _mm256_loadu_ps(bp.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            // Masked lanes load as +0.0 on both sides: 0·0 contributes
            // exactly 0 and cannot manufacture or swallow a NaN.
            let m = tail_mask(rem);
            acc1 = _mm256_fmadd_ps(
                _mm256_maskload_ps(ap.add(i), m),
                _mm256_maskload_ps(bp.add(i), m),
                acc1,
            );
        }
        let acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        hsum(acc)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_assign(c: &mut [f32], b: &[f32]) {
        let n = c.len();
        let (cp, bp) = (c.as_mut_ptr(), b.as_ptr());
        let mut i = 0usize;
        while i + 8 <= n {
            let cv = _mm256_add_ps(_mm256_loadu_ps(cp.add(i)), _mm256_loadu_ps(bp.add(i)));
            _mm256_storeu_ps(cp.add(i), cv);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let cv = _mm256_add_ps(
                _mm256_maskload_ps(cp.add(i), m),
                _mm256_maskload_ps(bp.add(i), m),
            );
            _mm256_maskstore_ps(cp.add(i), m, cv);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_scalar_assign(c: &mut [f32], a: f32) {
        let n = c.len();
        let cp = c.as_mut_ptr();
        let va = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(cp.add(i), _mm256_add_ps(_mm256_loadu_ps(cp.add(i)), va));
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let cv = _mm256_add_ps(_mm256_maskload_ps(cp.add(i), m), va);
            _mm256_maskstore_ps(cp.add(i), m, cv);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_assign(c: &mut [f32], a: f32) {
        let n = c.len();
        let cp = c.as_mut_ptr();
        let va = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(cp.add(i), _mm256_mul_ps(_mm256_loadu_ps(cp.add(i)), va));
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let cv = _mm256_mul_ps(_mm256_maskload_ps(cp.add(i), m), va);
            _mm256_maskstore_ps(cp.add(i), m, cv);
        }
    }

    /// `max(x, 0)` with the NaN→0 convention: `MAXPS` returns the second
    /// operand when either input is NaN, and zero is the second operand.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn relu_into(src: &[f32], dst: &mut [f32]) {
        let n = src.len();
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        let zero = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(dp.add(i), _mm256_max_ps(_mm256_loadu_ps(sp.add(i)), zero));
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let v = _mm256_max_ps(_mm256_maskload_ps(sp.add(i), m), zero);
            _mm256_maskstore_ps(dp.add(i), m, v);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn relu_assign(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let zero = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), _mm256_max_ps(_mm256_loadu_ps(p.add(i)), zero));
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let v = _mm256_max_ps(_mm256_maskload_ps(p.add(i), m), zero);
            _mm256_maskstore_ps(p.add(i), m, v);
        }
    }

    /// Gradient gated by `input > 0` via `CMP_GT_OQ` + bitwise AND; a NaN
    /// input compares false (ordered, quiet) and gates the lane to 0,
    /// matching the scalar branch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn relu_backward_into(grad: &[f32], input: &[f32], dst: &mut [f32]) {
        let n = grad.len();
        let (gp, xp, dp) = (grad.as_ptr(), input.as_ptr(), dst.as_mut_ptr());
        let zero = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let mask = _mm256_cmp_ps(_mm256_loadu_ps(xp.add(i)), zero, _CMP_GT_OQ);
            let v = _mm256_and_ps(mask, _mm256_loadu_ps(gp.add(i)));
            _mm256_storeu_ps(dp.add(i), v);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let mask = _mm256_cmp_ps(_mm256_maskload_ps(xp.add(i), m), zero, _CMP_GT_OQ);
            let v = _mm256_and_ps(mask, _mm256_maskload_ps(gp.add(i), m));
            _mm256_maskstore_ps(dp.add(i), m, v);
        }
    }

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

    /// 4 f64 lanes mirror the scalar path's 4 accumulators exactly:
    /// convert (exact), multiply and add (no FMA) round identically to the
    /// scalar f64 ops, and lanes are combined in index order — so this is
    /// bit-identical to the scalar kernel.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum_sq_f64(xs: &[f32]) -> f64 {
        let n = xs.len();
        let p = xs.as_ptr();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_cvtps_pd(_mm_loadu_ps(p.add(i)));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
            i += 4;
        }
        let lanes: [f64; 4] = std::mem::transmute(acc);
        let mut s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        while i < n {
            let v = *p.add(i) as f64;
            s += v * v;
            i += 1;
        }
        s
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sgd_momentum_step(
        params: &mut [f32],
        grads: &[f32],
        velocity: &mut [f32],
        lr: f32,
        momentum: f32,
        weight_decay: f32,
    ) {
        let n = params.len();
        let (pp, gp, vp) = (params.as_mut_ptr(), grads.as_ptr(), velocity.as_mut_ptr());
        let vlr = _mm256_set1_ps(lr);
        let vm = _mm256_set1_ps(momentum);
        let vwd = _mm256_set1_ps(weight_decay);
        let mut i = 0usize;
        while i + 8 <= n {
            let p = _mm256_loadu_ps(pp.add(i));
            let g = _mm256_fmadd_ps(vwd, p, _mm256_loadu_ps(gp.add(i))); // g + wd·p
            let v = _mm256_fmadd_ps(vm, _mm256_loadu_ps(vp.add(i)), g); // m·v + g
            let p = _mm256_fnmadd_ps(vlr, v, p); // p − lr·v
            _mm256_storeu_ps(vp.add(i), v);
            _mm256_storeu_ps(pp.add(i), p);
            i += 8;
        }
        let rem = n - i;
        if rem > 0 {
            let m = tail_mask(rem);
            let p = _mm256_maskload_ps(pp.add(i), m);
            let g = _mm256_fmadd_ps(vwd, p, _mm256_maskload_ps(gp.add(i), m));
            let v = _mm256_fmadd_ps(vm, _mm256_maskload_ps(vp.add(i), m), g);
            let p = _mm256_fnmadd_ps(vlr, v, p);
            _mm256_maskstore_ps(vp.add(i), m, v);
            _mm256_maskstore_ps(pp.add(i), m, p);
        }
    }

    /// Max of |x| over 8 lanes at a time. The accumulator is the second
    /// `maxps` operand, so NaN lanes map to the running max (scalar
    /// `f32::max` semantics). Masked tails are unnecessary: the scalar
    /// epilogue is bit-equivalent because max is order-insensitive.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_abs(xs: &[f32]) -> f32 {
        let n = xs.len();
        let xp = xs.as_ptr();
        let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
        let mut acc = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let a = _mm256_and_ps(_mm256_loadu_ps(xp.add(i)), absmask);
            acc = _mm256_max_ps(a, acc);
            i += 8;
        }
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps(acc, 1);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1));
        let mut m = _mm_cvtss_f32(m1);
        while i < n {
            m = m.max((*xp.add(i)).abs());
            i += 1;
        }
        m
    }

    /// One 8-lane slice of the murmur3-finalizer dither + quantize chain;
    /// see [`super::quantize_stochastic_i8`]. Returns signed i32 levels.
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

    /// Int8 dequantize; see [`super::dequantize_i8`]. Sign-extend 8
    /// bytes, convert, one multiply — all exact lane ops.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dequantize_i8(qs: &[i8], step: f32, out: &mut [f32]) {
        let n = qs.len();
        let qp = qs.as_ptr();
        let op = out.as_mut_ptr();
        let vstep = _mm256_set1_ps(step);
        let mut i = 0usize;
        while i + 8 <= n {
            let b = _mm_loadl_epi64(qp.add(i) as *const __m128i);
            let w = _mm256_cvtepi8_epi32(b);
            let v = _mm256_mul_ps(_mm256_cvtepi32_ps(w), vstep);
            _mm256_storeu_ps(op.add(i), v);
            i += 8;
        }
        while i < n {
            *op.add(i) = *qp.add(i) as f32 * step;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_stats::Pcg64;

    /// Lengths straddling the unroll (32), vector (8) and tail boundaries.
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
    /// Aᵀ·B columns: `rs = 1, ts = stride`), every row count and widths
    /// straddling the 16-, 8- and masked-tail paths.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gemm_panel_matches_reference_and_propagates_nan() {
        if !Kernel::Avx2.available() {
            return;
        }
        for rows in 1..=4usize {
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
        // Bᵀ tiles and check the NT kernel against gemm_panel_avx2 fed a
        // pre-transposed dense operand — they must agree bit-for-bit,
        // since the NT kernel IS gemm_panel at bs = width.
        let (k, n) = (37usize, 19usize);
        for rows in 1..=4usize {
            let a = randv(rows * k, 7);
            let b = randv(n * k, 11);
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for t in 0..k {
                    bt[t * n + j] = b[j * k + t];
                }
            }
            let mut want = vec![0.5f32; rows * n];
            gemm_panel_avx2(&a, k, 1, rows, k, &bt, n, &mut want, n, n);
            let mut packed = vec![0.0f32; k * n];
            pack_bt_panel(&b, k, 0, 0, n, k, &mut packed);
            let mut got = vec![0.5f32; rows * n];
            gemm_panel_nt_avx2(&a, k, 1, rows, k, &packed, &mut got, n, n);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "rows={rows}"
            );
        }
    }

    #[test]
    fn axpy_and_dot_within_tolerance_of_scalar() {
        for k in Kernel::available_kernels() {
            for &n in &LENS {
                let a = 0.37f32;
                let b = randv(n, 17 + n as u64);
                let base = randv(n, 19 + n as u64);
                let mut want = base.clone();
                axpy(Kernel::Scalar, &mut want, a, &b);
                let mut got = base.clone();
                axpy(k, &mut got, a, &b);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-5 * (1.0 + w.abs()),
                        "axpy {k:?} len {n}"
                    );
                }

                let x = randv(n, 23 + n as u64);
                let y = randv(n, 29 + n as u64);
                let want = dot(Kernel::Scalar, &x, &y);
                let got = dot(k, &x, &y);
                assert!(
                    (got - want).abs() <= 1e-4 * (1.0 + want.abs()) * (n.max(1) as f32).sqrt(),
                    "dot {k:?} len {n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn dot_and_axpy_propagate_non_finite() {
        for k in Kernel::available_kernels() {
            for &n in &[5usize, 9, 33] {
                let mut b = randv(n, 31 + n as u64);
                b[n - 1] = f32::NAN; // in the tail lanes
                let mut c = vec![0.0f32; n];
                axpy(k, &mut c, 1.0, &b);
                assert!(c[n - 1].is_nan(), "axpy NaN lost {k:?} len {n}");
                assert!(c[..n - 1].iter().all(|v| v.is_finite()));

                let a = vec![1.0f32; n];
                assert!(dot(k, &a, &b).is_nan(), "dot NaN lost {k:?} len {n}");
                let mut inf = randv(n, 37 + n as u64);
                inf[0] = f32::INFINITY;
                assert!(dot(k, &a, &inf).is_infinite(), "dot inf lost {k:?}");
            }
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
        if Kernel::Avx2.available() {
            // Can't demonstrate on AVX2 hardware; satisfy the expectation.
            panic!("not available (simulated: all kernels available here)");
        }
        with_forced_kernel(Kernel::Avx2, || {});
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
