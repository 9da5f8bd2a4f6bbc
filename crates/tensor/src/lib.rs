//! Dense f32 tensor substrate for the NIID-Bench reproduction.
//!
//! Every model in the paper — the LeNet-style CNN, the MLP, VGG-9 and the
//! ResNet — trains on top of this crate. The design goals, in order:
//!
//! 1. **Correctness**: shapes are checked on every operation; kernels are
//!    validated against naive reference implementations and finite
//!    differences in `niid-nn`.
//! 2. **Determinism**: no fast-math, and every kernel's floating-point
//!    accumulation order is a function of shapes alone — the same inputs
//!    always produce the same bits, *at any thread count*. Multi-threaded
//!    kernels assign each output region to exactly one task (see
//!    [`parallel`]).
//! 3. **Speed**: GEMM is cache-blocked (tiled over M/N/K per shape class
//!    via the committed [`dispatch`] table) and splits row-blocks across
//!    a persistent worker pool sized by `NIID_THREADS`; on the AVX2 arm
//!    the paper CNN's narrow stride-1 convolutions run *direct* kernels
//!    over the NCHW planes and the rest lower to GEMM *implicitly* — the
//!    im2col mapping is fused into the panel pack — so no
//!    `[batch·positions, C·kh·kw]` buffer is materialized either way,
//!    with the [`ConvScratch`]-backed materialized path kept as the
//!    scalar arm and bit-exactness oracle.
//!
//! The tensor is row-major over a `Vec<f32>` with an explicit shape; there
//! are no strides or views. That costs some copies but removes an entire
//! class of aliasing bugs from hand-written backward passes.
//!
//! Every `unsafe` block and `unsafe impl` states the invariant it relies
//! on in a `// SAFETY:` comment; the lint below keeps it that way.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod conv;
#[cfg(target_arch = "x86_64")]
mod conv_direct;
pub mod dispatch;
mod dispatch_table;
pub mod matmul;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod simd;
pub mod stats;
pub mod tensor;

pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_accum, conv2d_backward_params_accum,
    conv2d_backward_ws, conv2d_forward, conv2d_forward_direct, conv2d_forward_implicit,
    conv2d_forward_materialized, Conv2dShape, ConvScratch,
};
pub use dispatch::{
    classify_conv, classify_gemm, tiles_for, tuned_entries, validate_tiles, with_forced_tiles,
    ConvLowering, GemmOp, ShapeClass, TileParams, DEFAULT_TILES,
};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_slices, matmul_at_b, matmul_at_b_slices, matmul_slices,
};
pub use ops::{argmax_rows, log_softmax_rows, relu, relu_assign, relu_backward, softmax_rows};
pub use parallel::{
    configured_threads, parallel_for, set_thread_budget, thread_budget, with_thread_budget,
    ENV_THREADS,
};
pub use pool::{maxpool2d, maxpool2d_backward, Pool2dShape};
pub use simd::{
    active_kernel, configured_kernel, detected_features, with_forced_kernel, Kernel, ENV_SIMD,
};
pub use stats::SubstrateStats;
pub use tensor::Tensor;
