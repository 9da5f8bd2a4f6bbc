//! Shape-class → tile-parameter dispatch for the GEMM/conv hot paths.
//!
//! The SIMD arms of [`crate::matmul`] and [`crate::conv`] consult a small
//! committed lookup table — generated offline by the `tune_tiles` bench
//! binary and checked in as [`crate::dispatch_table`] — to pick their
//! cache-blocking parameters per *shape class*, instead of hard-coding
//! one compromise for every problem from a 32³ linear-layer block to a
//! wide VGG convolution.
//!
//! ## Why tuning cannot change results
//!
//! On the SIMD arms every output element is accumulated along a single
//! depth-ascending FMA chain (see [`crate::simd::gemm_panel_avx2`]); a
//! tile boundary merely checkpoints that chain through a load/store of
//! `C`, and the row-group size (`mr`) only changes which elements share a
//! register tile, never any element's own chain. Tile choices are
//! therefore **bits-neutral**: the tuner can change speed, not results,
//! and the thread-invariance contract is untouched because tiles are
//! resolved once per kernel entry from process-global state. The scalar
//! arm never consults the table — its zero-skip memoization is
//! panel-bounds-dependent, and its historical constants are part of the
//! `NIID_SIMD=scalar` bit-exact replay contract.

use crate::conv::Conv2dShape;
use crate::matmul::{ATB_BLOCK_M, KB};
use std::cell::Cell;

/// Which GEMM formulation a shape belongs to. `Aᵀ·B` is absent on
/// purpose: its SIMD arm streams full `B` rows (nothing to re-tile), and
/// its only remaining knob — the partial-sum block length — is
/// bits-relevant, so it stays pinned to its historical constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmOp {
    /// `C = A · B` (forward activations).
    Ab,
    /// `C = A · Bᵀ` (input gradients; the NT-packed path).
    ABt,
}

/// The shape classes the committed dispatch table covers: the three GEMM
/// size buckets per tunable op, plus the convolution geometries of the
/// paper's models (lowered through the implicit-GEMM path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// `A·B`, all dims < 64 (MLP hidden blocks, LeNet head).
    AbSmall,
    /// `A·B`, all dims < 192 (FC layers at training batch sizes).
    AbMedium,
    /// `A·B`, any dim ≥ 192.
    AbLarge,
    /// `A·Bᵀ`, all dims < 64.
    AbtSmall,
    /// `A·Bᵀ`, all dims < 192.
    AbtMedium,
    /// `A·Bᵀ`, any dim ≥ 192.
    AbtLarge,
    /// Conv with ≤ 3 input channels (the paper's 1→6 / 3→6 k5 stem).
    ConvEarly,
    /// Conv with a narrow patch (col_width ≤ 256; the 6→16 k5 layer).
    ConvMid,
    /// Every wider convolution (VGG-9 / ResNet bodies).
    ConvWide,
}

impl ShapeClass {
    /// Every class, in table order. `tune_tiles --check` validates that
    /// the committed table covers each one.
    pub const ALL: [ShapeClass; 9] = [
        ShapeClass::AbSmall,
        ShapeClass::AbMedium,
        ShapeClass::AbLarge,
        ShapeClass::AbtSmall,
        ShapeClass::AbtMedium,
        ShapeClass::AbtLarge,
        ShapeClass::ConvEarly,
        ShapeClass::ConvMid,
        ShapeClass::ConvWide,
    ];

    /// Stable identifier used in the generated table and tuner reports.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::AbSmall => "AbSmall",
            ShapeClass::AbMedium => "AbMedium",
            ShapeClass::AbLarge => "AbLarge",
            ShapeClass::AbtSmall => "AbtSmall",
            ShapeClass::AbtMedium => "AbtMedium",
            ShapeClass::AbtLarge => "AbtLarge",
            ShapeClass::ConvEarly => "ConvEarly",
            ShapeClass::ConvMid => "ConvMid",
            ShapeClass::ConvWide => "ConvWide",
        }
    }
}

/// Cache-blocking parameters for one shape class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileParams {
    /// Columns of the `B`/pack panel per pass (the N-tile; for the
    /// implicit conv, output positions per packed tile).
    pub nc: usize,
    /// Depth per panel pass (the K-tile; for the implicit conv, im2col
    /// columns per packed tile and the dX strip/dW regeneration chunk).
    pub kc: usize,
    /// `C` rows per register tile, `1..=4` (the micro-kernel row count).
    pub mr: usize,
}

/// The pre-tuning constants (`KC·NC` f32 ≈ 128 KiB, full-height register
/// tiles): the fallback when a class is missing from the table.
pub const DEFAULT_TILES: TileParams = TileParams {
    nc: 128,
    kc: 256,
    mr: 4,
};

/// Largest legal `nc·kc` product: packed panels stay ≤ 1 MiB of f32 so a
/// tuned entry can never balloon a worker's scratch arena.
pub const MAX_PANEL_ELEMS: usize = 1 << 18;

/// Sanity-check one tile-parameter set (used by `tune_tiles --check` on
/// every committed entry, and asserted by [`with_forced_tiles`]).
pub fn validate_tiles(t: &TileParams) -> Result<(), String> {
    if t.nc < 16 || t.kc < 16 {
        return Err(format!("tiles {t:?}: nc/kc must be at least 16"));
    }
    if t.nc * t.kc > MAX_PANEL_ELEMS {
        return Err(format!(
            "tiles {t:?}: panel {} exceeds {MAX_PANEL_ELEMS} f32",
            t.nc * t.kc
        ));
    }
    if !(1..=4).contains(&t.mr) {
        return Err(format!("tiles {t:?}: mr must be 1..=4"));
    }
    Ok(())
}

/// Bucket a GEMM by its largest dimension (`rows_c`, `cols_c`, `depth`
/// are the output rows/columns and the reduction length).
pub fn classify_gemm(op: GemmOp, rows_c: usize, cols_c: usize, depth: usize) -> ShapeClass {
    let dim = rows_c.max(cols_c).max(depth);
    match (op, dim) {
        (GemmOp::Ab, d) if d < 64 => ShapeClass::AbSmall,
        (GemmOp::Ab, d) if d < 192 => ShapeClass::AbMedium,
        (GemmOp::Ab, _) => ShapeClass::AbLarge,
        (GemmOp::ABt, d) if d < 64 => ShapeClass::AbtSmall,
        (GemmOp::ABt, d) if d < 192 => ShapeClass::AbtMedium,
        (GemmOp::ABt, _) => ShapeClass::AbtLarge,
    }
}

/// Bucket a convolution geometry by its lowered-GEMM shape.
pub fn classify_conv(in_channels: usize, col_width: usize) -> ShapeClass {
    if in_channels <= 3 {
        ShapeClass::ConvEarly
    } else if col_width <= 256 {
        ShapeClass::ConvMid
    } else {
        ShapeClass::ConvWide
    }
}

/// How a convolution is lowered onto the FMA kernels (see
/// [`crate::conv`] for the three paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvLowering {
    /// Nothing is lowered: the kernels read NCHW row segments in place.
    Direct,
    /// im2col fused into the GEMM panel pack.
    Implicit,
    /// Full im2col matrix in [`crate::ConvScratch`]: the scalar arm, the
    /// oracle, and the fallback for shapes neither fused path covers.
    #[default]
    Materialized,
}

/// Whether the fused backward passes cover `s`: both compute every
/// lowered dX value as one out-channel-ascending chain, i.e. they
/// replicate the row-split branch of the per-sample
/// `matmul_at_b_slices(k = positions, m = out_channels)` the
/// materialized path runs, so the shape must satisfy that branch's
/// predicate.
pub fn fused_backward_eligible(s: &Conv2dShape) -> bool {
    s.out_positions() >= 2 * KB || s.out_channels < ATB_BLOCK_M
}

/// The lowering a geometry takes on the AVX2 arm — a function of the
/// shape alone. The paper CNN's narrow stride-1 layers (`ConvEarly`,
/// `ConvMid`) run the direct kernels, where packing and regenerating the
/// lowered operand cost more than the FMAs they feed; wide bodies
/// (`ConvWide`: `kx`-lane vectors would idle most lanes on a 3-wide
/// kernel, measured in DESIGN.md) and strided layers keep the implicit
/// pack.
pub fn conv_lowering(s: &Conv2dShape) -> ConvLowering {
    if !fused_backward_eligible(s) {
        return ConvLowering::Materialized;
    }
    let narrow = classify_conv(s.in_channels, s.col_width()) != ShapeClass::ConvWide;
    if narrow && s.stride == 1 && s.kernel_w <= 8 {
        ConvLowering::Direct
    } else {
        ConvLowering::Implicit
    }
}

thread_local! {
    /// Per-thread tile override installed by [`with_forced_tiles`] (the
    /// tuner's sweep mechanism). Resolved once per kernel entry on the
    /// calling thread, like the kernel selection itself.
    static FORCED_TILES: Cell<Option<TileParams>> = const { Cell::new(None) };
}

/// Resolve the tile parameters for one kernel invocation: the per-thread
/// forced override if present, else the committed table entry for
/// `class`, else [`DEFAULT_TILES`].
pub fn tiles_for(class: ShapeClass) -> TileParams {
    if let Some(t) = FORCED_TILES.with(Cell::get) {
        return t;
    }
    tuned_entries()
        .iter()
        .find(|(c, _)| *c == class)
        .map(|&(_, t)| t)
        .unwrap_or(DEFAULT_TILES)
}

/// The committed table, for `tune_tiles --check` and reporting.
pub fn tuned_entries() -> &'static [(ShapeClass, TileParams)] {
    crate::dispatch_table::TUNED
}

/// Run `f` with every tile lookup on this thread pinned to `t`,
/// restoring the previous state afterwards (even on panic). Because tile
/// choices are bits-neutral on the SIMD arms (module docs), forcing them
/// changes timing only — which is exactly what the tuner measures.
///
/// # Panics
/// Panics when `t` fails [`validate_tiles`].
pub fn with_forced_tiles<R>(t: TileParams, f: impl FnOnce() -> R) -> R {
    if let Err(e) = validate_tiles(&t) {
        panic!("with_forced_tiles: {e}");
    }
    struct Restore(Option<TileParams>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_TILES.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED_TILES.with(|c| c.replace(Some(t))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_table_covers_every_class_with_legal_tiles() {
        for class in ShapeClass::ALL {
            let hits = tuned_entries().iter().filter(|(c, _)| *c == class).count();
            assert_eq!(hits, 1, "class {} must appear exactly once", class.name());
            validate_tiles(&tiles_for(class)).expect("committed tiles legal");
        }
        validate_tiles(&DEFAULT_TILES).expect("defaults legal");
    }

    #[test]
    fn classification_buckets() {
        assert_eq!(classify_gemm(GemmOp::Ab, 32, 32, 32), ShapeClass::AbSmall);
        assert_eq!(classify_gemm(GemmOp::Ab, 16, 190, 10), ShapeClass::AbMedium);
        assert_eq!(classify_gemm(GemmOp::ABt, 256, 8, 8), ShapeClass::AbtLarge);
        assert_eq!(classify_conv(1, 25), ShapeClass::ConvEarly);
        assert_eq!(classify_conv(6, 150), ShapeClass::ConvMid);
        assert_eq!(classify_conv(64, 576), ShapeClass::ConvWide);
    }

    #[test]
    fn forced_tiles_override_and_restore() {
        let forced = TileParams {
            nc: 64,
            kc: 64,
            mr: 2,
        };
        let before = tiles_for(ShapeClass::AbLarge);
        with_forced_tiles(forced, || {
            assert_eq!(tiles_for(ShapeClass::AbLarge), forced);
            assert_eq!(tiles_for(ShapeClass::ConvMid), forced);
        });
        assert_eq!(tiles_for(ShapeClass::AbLarge), before);
    }

    #[test]
    fn illegal_forced_tiles_panic() {
        let r = std::panic::catch_unwind(|| {
            with_forced_tiles(
                TileParams {
                    nc: 8,
                    kc: 8,
                    mr: 9,
                },
                || {},
            )
        });
        assert!(r.is_err());
    }
}
