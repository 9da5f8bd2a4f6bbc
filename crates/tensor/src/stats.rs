//! Process-wide substrate counters: worker-pool activity, GEMM kernel
//! dispatch and FLOP totals, and conv-scratch reuse.
//!
//! `niid-tensor` sits at the bottom of the workspace and stays
//! dependency-free, so instead of talking to the metrics registry
//! directly it exposes these plain relaxed atomics; `niid-fl` mirrors a
//! [`snapshot`] into `niid-metrics` gauges via a registry collector.
//! Counters are cumulative for the process — consumers that need rates
//! should difference successive snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) static POOL_REGIONS: AtomicU64 = AtomicU64::new(0);
pub(crate) static POOL_INLINE_REGIONS: AtomicU64 = AtomicU64::new(0);
pub(crate) static POOL_TASKS: AtomicU64 = AtomicU64::new(0);
pub(crate) static POOL_STOLEN_TASKS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_AB_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_ATB_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_ABT_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_FLOPS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_AB_SIMD_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_AB_SCALAR_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_ATB_SIMD_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_ATB_SCALAR_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_ABT_SIMD_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static GEMM_ABT_SCALAR_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_SCRATCH_ALLOCS: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_SCRATCH_REUSES: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_SCRATCH_BYTES: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_SCRATCH_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_IMPLICIT_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_MATERIALIZED_CALLS: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_DIRECT_CALLS: AtomicU64 = AtomicU64::new(0);

#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Account `delta` bytes of freshly grown conv scratch and advance the
/// process-wide peak watermark.
pub(crate) fn scratch_grew(delta: u64) {
    let now = CONV_SCRATCH_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    CONV_SCRATCH_PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

/// Release `delta` bytes of conv scratch (workspace dropped). Saturates
/// at zero so a stray double-release cannot wrap the gauge.
pub(crate) fn scratch_freed(delta: u64) {
    let _ = CONV_SCRATCH_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(delta))
    });
}

/// Point-in-time copy of every substrate counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Fork-join regions dispatched through the worker pool.
    pub pool_regions: u64,
    /// Regions that ran inline (budget 1, single task, nested, or below
    /// the FLOP threshold).
    pub pool_inline_regions: u64,
    /// Total tasks issued across all regions (pooled and inline).
    pub pool_tasks: u64,
    /// Tasks claimed by pool workers rather than the issuing thread —
    /// the "stolen" share of the self-scheduling counter.
    pub pool_stolen_tasks: u64,
    /// `matmul` (A·B) kernel invocations.
    pub gemm_ab_calls: u64,
    /// `matmul_at_b` (Aᵀ·B) kernel invocations.
    pub gemm_atb_calls: u64,
    /// `matmul_a_bt` (A·Bᵀ) kernel invocations.
    pub gemm_abt_calls: u64,
    /// Cumulative GEMM floating-point operations (2·m·k·n per call).
    pub gemm_flops: u64,
    /// A·B calls dispatched to a SIMD micro-kernel (see [`crate::simd`]).
    pub gemm_ab_simd_calls: u64,
    /// A·B calls dispatched to the scalar fallback kernel.
    pub gemm_ab_scalar_calls: u64,
    /// Aᵀ·B calls dispatched to a SIMD micro-kernel.
    pub gemm_atb_simd_calls: u64,
    /// Aᵀ·B calls dispatched to the scalar fallback kernel.
    pub gemm_atb_scalar_calls: u64,
    /// A·Bᵀ calls dispatched to a SIMD micro-kernel.
    pub gemm_abt_simd_calls: u64,
    /// A·Bᵀ calls dispatched to the scalar fallback kernel.
    pub gemm_abt_scalar_calls: u64,
    /// Conv scratch buffers that had to grow (fresh allocation).
    pub conv_scratch_allocs: u64,
    /// Conv scratch requests served from an already-large-enough buffer.
    pub conv_scratch_reuses: u64,
    /// Bytes currently resident across live conv scratch workspaces
    /// (point-in-time gauge, not a cumulative counter).
    pub conv_scratch_bytes: u64,
    /// High-water mark of [`Self::conv_scratch_bytes`] over the process
    /// lifetime (point-in-time gauge).
    pub conv_scratch_peak_bytes: u64,
    /// Conv passes that ran the implicit (fused-pack) lowering.
    pub conv_implicit_calls: u64,
    /// Conv passes that ran the materialized im2col lowering.
    pub conv_materialized_calls: u64,
    /// Conv passes that ran the direct (lowering-free) kernels.
    pub conv_direct_calls: u64,
}

impl SubstrateStats {
    /// Fraction of issued tasks executed by pool workers (0 when no
    /// tasks ran). A healthy parallel run sits well above zero; 0 with a
    /// large `pool_tasks` means everything ran inline.
    pub fn pool_utilization(&self) -> f64 {
        if self.pool_tasks == 0 {
            0.0
        } else {
            self.pool_stolen_tasks as f64 / self.pool_tasks as f64
        }
    }

    /// Fraction of conv scratch requests served without reallocating.
    pub fn scratch_reuse_rate(&self) -> f64 {
        let total = self.conv_scratch_allocs + self.conv_scratch_reuses;
        if total == 0 {
            0.0
        } else {
            self.conv_scratch_reuses as f64 / total as f64
        }
    }

    /// Fraction of GEMM calls that ran on a SIMD micro-kernel (0 when no
    /// GEMM ran). 1.0 on AVX2 hosts with default dispatch, 0.0 under
    /// `NIID_SIMD=off` — anything in between means the kernel selection
    /// changed mid-process (e.g. per-thread forcing in tests).
    pub fn simd_dispatch_rate(&self) -> f64 {
        let simd = self.gemm_ab_simd_calls + self.gemm_atb_simd_calls + self.gemm_abt_simd_calls;
        let scalar =
            self.gemm_ab_scalar_calls + self.gemm_atb_scalar_calls + self.gemm_abt_scalar_calls;
        if simd + scalar == 0 {
            0.0
        } else {
            simd as f64 / (simd + scalar) as f64
        }
    }

    /// Counter-wise difference `self - earlier` (saturating), for
    /// per-round rates from two cumulative snapshots.
    pub fn since(&self, earlier: &SubstrateStats) -> SubstrateStats {
        SubstrateStats {
            pool_regions: self.pool_regions.saturating_sub(earlier.pool_regions),
            pool_inline_regions: self
                .pool_inline_regions
                .saturating_sub(earlier.pool_inline_regions),
            pool_tasks: self.pool_tasks.saturating_sub(earlier.pool_tasks),
            pool_stolen_tasks: self
                .pool_stolen_tasks
                .saturating_sub(earlier.pool_stolen_tasks),
            gemm_ab_calls: self.gemm_ab_calls.saturating_sub(earlier.gemm_ab_calls),
            gemm_atb_calls: self.gemm_atb_calls.saturating_sub(earlier.gemm_atb_calls),
            gemm_abt_calls: self.gemm_abt_calls.saturating_sub(earlier.gemm_abt_calls),
            gemm_flops: self.gemm_flops.saturating_sub(earlier.gemm_flops),
            gemm_ab_simd_calls: self
                .gemm_ab_simd_calls
                .saturating_sub(earlier.gemm_ab_simd_calls),
            gemm_ab_scalar_calls: self
                .gemm_ab_scalar_calls
                .saturating_sub(earlier.gemm_ab_scalar_calls),
            gemm_atb_simd_calls: self
                .gemm_atb_simd_calls
                .saturating_sub(earlier.gemm_atb_simd_calls),
            gemm_atb_scalar_calls: self
                .gemm_atb_scalar_calls
                .saturating_sub(earlier.gemm_atb_scalar_calls),
            gemm_abt_simd_calls: self
                .gemm_abt_simd_calls
                .saturating_sub(earlier.gemm_abt_simd_calls),
            gemm_abt_scalar_calls: self
                .gemm_abt_scalar_calls
                .saturating_sub(earlier.gemm_abt_scalar_calls),
            conv_scratch_allocs: self
                .conv_scratch_allocs
                .saturating_sub(earlier.conv_scratch_allocs),
            conv_scratch_reuses: self
                .conv_scratch_reuses
                .saturating_sub(earlier.conv_scratch_reuses),
            // Byte gauges are point-in-time levels, not cumulative
            // counters: a diff carries the later snapshot through.
            conv_scratch_bytes: self.conv_scratch_bytes,
            conv_scratch_peak_bytes: self.conv_scratch_peak_bytes,
            conv_implicit_calls: self
                .conv_implicit_calls
                .saturating_sub(earlier.conv_implicit_calls),
            conv_materialized_calls: self
                .conv_materialized_calls
                .saturating_sub(earlier.conv_materialized_calls),
            conv_direct_calls: self
                .conv_direct_calls
                .saturating_sub(earlier.conv_direct_calls),
        }
    }
}

/// Read every counter. Cheap (a handful of relaxed loads) and safe to
/// call from any thread at any time.
pub fn snapshot() -> SubstrateStats {
    SubstrateStats {
        pool_regions: POOL_REGIONS.load(Ordering::Relaxed),
        pool_inline_regions: POOL_INLINE_REGIONS.load(Ordering::Relaxed),
        pool_tasks: POOL_TASKS.load(Ordering::Relaxed),
        pool_stolen_tasks: POOL_STOLEN_TASKS.load(Ordering::Relaxed),
        gemm_ab_calls: GEMM_AB_CALLS.load(Ordering::Relaxed),
        gemm_atb_calls: GEMM_ATB_CALLS.load(Ordering::Relaxed),
        gemm_abt_calls: GEMM_ABT_CALLS.load(Ordering::Relaxed),
        gemm_flops: GEMM_FLOPS.load(Ordering::Relaxed),
        gemm_ab_simd_calls: GEMM_AB_SIMD_CALLS.load(Ordering::Relaxed),
        gemm_ab_scalar_calls: GEMM_AB_SCALAR_CALLS.load(Ordering::Relaxed),
        gemm_atb_simd_calls: GEMM_ATB_SIMD_CALLS.load(Ordering::Relaxed),
        gemm_atb_scalar_calls: GEMM_ATB_SCALAR_CALLS.load(Ordering::Relaxed),
        gemm_abt_simd_calls: GEMM_ABT_SIMD_CALLS.load(Ordering::Relaxed),
        gemm_abt_scalar_calls: GEMM_ABT_SCALAR_CALLS.load(Ordering::Relaxed),
        conv_scratch_allocs: CONV_SCRATCH_ALLOCS.load(Ordering::Relaxed),
        conv_scratch_reuses: CONV_SCRATCH_REUSES.load(Ordering::Relaxed),
        conv_scratch_bytes: CONV_SCRATCH_BYTES.load(Ordering::Relaxed),
        conv_scratch_peak_bytes: CONV_SCRATCH_PEAK_BYTES.load(Ordering::Relaxed),
        conv_implicit_calls: CONV_IMPLICIT_CALLS.load(Ordering::Relaxed),
        conv_materialized_calls: CONV_MATERIALIZED_CALLS.load(Ordering::Relaxed),
        conv_direct_calls: CONV_DIRECT_CALLS.load(Ordering::Relaxed),
    }
}

/// Zero every cumulative counter. Intended for process start-up or
/// benchmark prologues; concurrent updates from other threads may land
/// before or after the reset, so tests should difference snapshots via
/// [`SubstrateStats::since`] instead. The scratch byte gauges track live
/// allocations and are deliberately left untouched.
pub fn reset() {
    for c in [
        &POOL_REGIONS,
        &POOL_INLINE_REGIONS,
        &POOL_TASKS,
        &POOL_STOLEN_TASKS,
        &GEMM_AB_CALLS,
        &GEMM_ATB_CALLS,
        &GEMM_ABT_CALLS,
        &GEMM_FLOPS,
        &GEMM_AB_SIMD_CALLS,
        &GEMM_AB_SCALAR_CALLS,
        &GEMM_ATB_SIMD_CALLS,
        &GEMM_ATB_SCALAR_CALLS,
        &GEMM_ABT_SIMD_CALLS,
        &GEMM_ABT_SCALAR_CALLS,
        &CONV_SCRATCH_ALLOCS,
        &CONV_SCRATCH_REUSES,
        &CONV_IMPLICIT_CALLS,
        &CONV_MATERIALIZED_CALLS,
        &CONV_DIRECT_CALLS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn gemm_counters_advance_with_exact_flops() {
        let before = snapshot();
        let a = Tensor::zeros(&[4, 8]);
        let b = Tensor::zeros(&[8, 3]);
        let _ = crate::matmul::matmul(&a, &b);
        let d = snapshot().since(&before);
        assert!(d.gemm_ab_calls >= 1);
        assert!(d.gemm_flops >= 2 * 4 * 8 * 3);
    }

    #[test]
    fn pool_counters_advance_on_parallel_for() {
        let before = snapshot();
        crate::parallel::parallel_for(5, &|_| {});
        let d = snapshot().since(&before);
        assert!(d.pool_regions + d.pool_inline_regions >= 1);
        assert!(d.pool_tasks >= 5);
    }

    #[test]
    fn dispatch_counters_track_forced_kernel() {
        use crate::simd::{with_forced_kernel, Kernel};
        let a = Tensor::zeros(&[4, 8]);
        let b = Tensor::zeros(&[8, 3]);
        let before = snapshot();
        with_forced_kernel(Kernel::Scalar, || {
            let _ = crate::matmul::matmul(&a, &b);
        });
        let d = snapshot().since(&before);
        assert!(d.gemm_ab_scalar_calls >= 1);
        if let Some(&simd) = Kernel::available_kernels().iter().find(|k| k.is_simd()) {
            let before = snapshot();
            with_forced_kernel(simd, || {
                let _ = crate::matmul::matmul(&a, &b);
            });
            let d = snapshot().since(&before);
            assert!(d.gemm_ab_simd_calls >= 1);
            assert!(d.simd_dispatch_rate() > 0.0);
        }
    }

    #[test]
    fn utilization_and_reuse_rates() {
        let s = SubstrateStats {
            pool_tasks: 10,
            pool_stolen_tasks: 4,
            conv_scratch_allocs: 1,
            conv_scratch_reuses: 3,
            ..Default::default()
        };
        assert!((s.pool_utilization() - 0.4).abs() < 1e-12);
        assert!((s.scratch_reuse_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SubstrateStats::default().pool_utilization(), 0.0);
        assert_eq!(SubstrateStats::default().scratch_reuse_rate(), 0.0);
    }
}
