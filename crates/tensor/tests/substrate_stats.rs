//! Per-thread substrate counters sum exactly across threads, while the
//! threads live and after they exit.
//!
//! The only test in its binary: the counters are process totals, and a
//! concurrently running test's GEMMs would land in the difference.

use niid_tensor::{matmul, stats, Tensor};
use std::sync::Barrier;

#[test]
fn counts_from_exited_threads_are_exact() {
    const THREADS: usize = 3;
    const GEMMS: u64 = 40;
    let (a, b) = (Tensor::zeros(&[4, 8]), Tensor::zeros(&[8, 3]));
    let flops = 2 * 4 * 8 * 3;

    let before = stats::snapshot();
    let done = Barrier::new(THREADS + 1);
    let exit = Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..GEMMS {
                    let _ = matmul(&a, &b);
                }
                done.wait();
                exit.wait();
            });
        }
        // Every worker has finished its GEMMs and still holds its shard.
        done.wait();
        let live = stats::snapshot().since(&before);
        assert_eq!(live.gemm_ab_calls, THREADS as u64 * GEMMS);
        exit.wait();
    });
    // The workers have exited and folded their shards into the totals.
    let d = stats::snapshot().since(&before);
    let total = THREADS as u64 * GEMMS;
    assert_eq!(d.gemm_ab_calls, total);
    assert_eq!(d.gemm_flops, total * flops);
    assert_eq!(d.gemm_ab_simd_calls + d.gemm_ab_scalar_calls, total);
    assert_eq!(d.gemm_atb_calls + d.gemm_abt_calls, 0);

    // A reset zeroes what snapshots report; counting resumes from there.
    stats::reset();
    assert_eq!(stats::snapshot().gemm_ab_calls, 0);
    let _ = matmul(&a, &b);
    assert_eq!(stats::snapshot().gemm_ab_calls, 1);
}
