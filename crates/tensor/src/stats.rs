//! Substrate counters: worker-pool activity, GEMM kernel dispatch and
//! FLOP totals, and conv-scratch reuse.
//!
//! `niid-tensor` sits at the bottom of the workspace and stays
//! dependency-free, so instead of talking to the metrics registry
//! directly it keeps these plain counters; `niid-fl` mirrors a
//! [`snapshot`] into `niid-metrics` gauges via a registry collector.
//! Counters are cumulative for the process — consumers that need rates
//! should difference successive snapshots.
//!
//! Counting is per thread: a thread bumps only its own cache-line-aligned
//! shard, so two party tasks running GEMMs at once never write the same
//! cache line. [`snapshot`] sums the live shards plus the totals of
//! threads that have exited, which fold their shard in as they go. The
//! two conv-scratch byte gauges are levels, not counts, and stay
//! process-wide atomics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One cumulative counter; its discriminant indexes a [`Shard`].
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    PoolRegions,
    PoolInlineRegions,
    PoolTasks,
    PoolStolenTasks,
    GemmAbCalls,
    GemmAtbCalls,
    GemmAbtCalls,
    GemmFlops,
    GemmAbSimdCalls,
    GemmAbScalarCalls,
    GemmAtbSimdCalls,
    GemmAtbScalarCalls,
    GemmAbtSimdCalls,
    GemmAbtScalarCalls,
    ConvScratchAllocs,
    ConvScratchReuses,
    ConvImplicitCalls,
    ConvMaterializedCalls,
    ConvDirectCalls,
}

const COUNTERS: usize = Counter::ConvDirectCalls as usize + 1;

/// One thread's counters, on cache lines of their own.
#[repr(align(64))]
#[derive(Default)]
struct Shard([AtomicU64; COUNTERS]);

/// The live shards, what exited threads folded in, and the totals
/// [`reset`] subtracts from every later snapshot.
struct Registry {
    live: Vec<Arc<Shard>>,
    retired: [u64; COUNTERS],
    baseline: [u64; COUNTERS],
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    retired: [0; COUNTERS],
    baseline: [0; COUNTERS],
});

fn registry() -> MutexGuard<'static, Registry> {
    // Every update under the lock leaves whole counts behind, so a guard
    // poisoned by a panicking holder is still consistent.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The current thread's shard; dropping it at thread exit folds the
/// counts into the registry's retired totals.
struct Local(Arc<Shard>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut reg = registry();
        for (r, c) in reg.retired.iter_mut().zip(&self.0 .0) {
            *r = r.wrapping_add(c.load(Ordering::Relaxed));
        }
        reg.live.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static LOCAL: Local = {
        let shard = Arc::new(Shard::default());
        registry().live.push(Arc::clone(&shard));
        Local(shard)
    };
}

pub(crate) static CONV_SCRATCH_BYTES: AtomicU64 = AtomicU64::new(0);
pub(crate) static CONV_SCRATCH_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Add `n` to `counter` on the current thread's shard.
#[inline]
pub(crate) fn bump(counter: Counter, n: u64) {
    // Only the owning thread writes a shard, so load + store is an exact
    // increment without a locked read-modify-write; readers see some
    // recent value.
    let owned = LOCAL.try_with(|local| {
        let c = &local.0 .0[counter as usize];
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    });
    if owned.is_err() {
        // This thread's storage is already torn down (a destructor
        // running at thread exit): count straight into the totals.
        registry().retired[counter as usize] += n;
    }
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

/// Every cumulative counter's process total: live shards plus retired
/// threads, read under the registry lock so an exiting thread is counted
/// exactly once.
fn totals(reg: &Registry) -> [u64; COUNTERS] {
    let mut sum = reg.retired;
    for shard in &reg.live {
        for (s, c) in sum.iter_mut().zip(&shard.0) {
            *s = s.wrapping_add(c.load(Ordering::Relaxed));
        }
    }
    sum
}

/// Read every counter. Cheap (one lock and a pass over the live threads'
/// shards) and safe to call from any thread at any time.
pub fn snapshot() -> SubstrateStats {
    let reg = registry();
    let t = totals(&reg);
    let c = |counter: Counter| t[counter as usize].saturating_sub(reg.baseline[counter as usize]);
    SubstrateStats {
        pool_regions: c(Counter::PoolRegions),
        pool_inline_regions: c(Counter::PoolInlineRegions),
        pool_tasks: c(Counter::PoolTasks),
        pool_stolen_tasks: c(Counter::PoolStolenTasks),
        gemm_ab_calls: c(Counter::GemmAbCalls),
        gemm_atb_calls: c(Counter::GemmAtbCalls),
        gemm_abt_calls: c(Counter::GemmAbtCalls),
        gemm_flops: c(Counter::GemmFlops),
        gemm_ab_simd_calls: c(Counter::GemmAbSimdCalls),
        gemm_ab_scalar_calls: c(Counter::GemmAbScalarCalls),
        gemm_atb_simd_calls: c(Counter::GemmAtbSimdCalls),
        gemm_atb_scalar_calls: c(Counter::GemmAtbScalarCalls),
        gemm_abt_simd_calls: c(Counter::GemmAbtSimdCalls),
        gemm_abt_scalar_calls: c(Counter::GemmAbtScalarCalls),
        conv_scratch_allocs: c(Counter::ConvScratchAllocs),
        conv_scratch_reuses: c(Counter::ConvScratchReuses),
        conv_scratch_bytes: CONV_SCRATCH_BYTES.load(Ordering::Relaxed),
        conv_scratch_peak_bytes: CONV_SCRATCH_PEAK_BYTES.load(Ordering::Relaxed),
        conv_implicit_calls: c(Counter::ConvImplicitCalls),
        conv_materialized_calls: c(Counter::ConvMaterializedCalls),
        conv_direct_calls: c(Counter::ConvDirectCalls),
    }
}

/// Zero every cumulative counter. Intended for process start-up or
/// benchmark prologues; concurrent updates from other threads may land
/// before or after the reset, so tests should difference snapshots via
/// [`SubstrateStats::since`] instead. The scratch byte gauges track live
/// allocations and are deliberately left untouched. Shards stay
/// owner-written: the reset records the current totals, which later
/// snapshots subtract.
pub fn reset() {
    let mut reg = registry();
    reg.baseline = totals(&reg);
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
