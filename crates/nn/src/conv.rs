//! Convolution layer over `niid-tensor`'s convolution kernels.
//!
//! On the AVX2 arm the substrate runs a fused lowering — direct kernels
//! that read the NCHW planes in place for the paper CNN's narrow
//! stride-1 shapes, the im2col mapping fused into the GEMM panel pack for
//! the rest — so no `[batch·positions, C·kh·kw]` buffer is materialized;
//! the scalar arm keeps the historical materialized im2col pipeline, a
//! GEMM over the lowered matrix (see `niid_tensor::conv`). The layer is agnostic: it hands the same
//! [`ConvScratch`] to whichever path and the results are bit-identical
//! under a fixed kernel.

use crate::arena::{Arena, State, WeightBias};
use crate::layer::{Layer, Phase};
use niid_stats::Pcg64;
use niid_tensor::{
    conv2d_backward_accum, conv2d_backward_params_accum, conv2d_forward, Conv2dShape, ConvScratch,
    Tensor,
};

/// 2-D convolution over NCHW activations with a fixed input geometry; the
/// arena holds `[W [out_c, in_c*kh*kw] | b [out_c]]`.
pub struct Conv2d {
    shape: Conv2dShape,
    wb: WeightBias,
    /// Reusable lowering/backward workspace, held across batches so the
    /// hot path performs no per-batch allocation. The substrate records
    /// in it which lowering the forward ran.
    scratch: ConvScratch,
    /// Whether `scratch` holds the state of a training-phase forward.
    cols_cached: bool,
}

impl Conv2d {
    /// Kaiming-normal initialized convolution (`std = sqrt(2 / fan_in)`).
    pub fn new(shape: Conv2dShape, rng: &mut Pcg64) -> Self {
        let cw = shape.col_width();
        let std = (2.0 / cw as f32).sqrt();
        let weight = Tensor::randn(&[shape.out_channels, cw], std, rng);
        Self {
            shape,
            wb: WeightBias::new(weight.into_vec(), shape.out_channels),
            scratch: ConvScratch::new(),
            cols_cached: false,
        }
    }

    /// The layer's geometry.
    pub fn geometry(&self) -> &Conv2dShape {
        &self.shape
    }

    /// Consume the training-phase forward state a backward pass needs.
    fn take_cached_forward(&mut self) {
        assert!(
            std::mem::take(&mut self.cols_cached),
            "Conv2d::backward without cached forward"
        );
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: Tensor, phase: Phase, state: &mut State<'_>) -> Tensor {
        let (w, b) = self.wb.split(state.params);
        let y = conv2d_forward(&x, w, Some(b), &self.shape, &mut self.scratch);
        self.cols_cached = phase == Phase::Train;
        y
    }

    fn backward(&mut self, grad_out: Tensor, state: &mut State<'_>) -> Tensor {
        self.take_cached_forward();
        // dW and db accumulate straight into the arena's gradient span —
        // no weight-sized temporaries per batch.
        let (gw, gb) = self.wb.split_mut(state.grads);
        let (w, _) = self.wb.split(state.params);
        conv2d_backward_accum(&mut self.scratch, w, &grad_out, &self.shape, gw, gb)
    }

    fn backward_params_only(&mut self, grad_out: Tensor, state: &mut State<'_>) {
        self.take_cached_forward();
        let (gw, gb) = self.wb.split_mut(state.grads);
        conv2d_backward_params_accum(&mut self.scratch, &grad_out, &self.shape, gw, gb);
    }

    fn bind(&mut self, prefix: &str, arena: &mut Arena) {
        self.wb.bind(format!("{prefix}{}", self.name()), arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_shape() -> Conv2dShape {
        Conv2dShape {
            in_channels: 2,
            out_channels: 3,
            in_h: 6,
            in_w: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        }
    }

    fn bound(seed: u64) -> (Conv2d, Arena, Pcg64) {
        let mut rng = Pcg64::new(seed);
        let mut c = Conv2d::new(small_shape(), &mut rng);
        let arena = Arena::bind(&mut c);
        (c, arena, rng)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let (mut c, mut arena, mut rng) = bound(10);
        let x = Tensor::randn(&[4, 2, 6, 6], 1.0, &mut rng);
        let y1 = c.forward(x.clone(), Phase::Eval, &mut arena.state());
        let y2 = c.forward(x, Phase::Eval, &mut arena.state());
        assert_eq!(y1.shape(), &[4, 3, 6, 6]);
        assert_eq!(y1, y2);
    }

    #[test]
    fn weight_grad_matches_finite_difference() {
        let (mut c, mut arena, mut rng) = bound(11);
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);

        let y = c.forward(x.clone(), Phase::Train, &mut arena.state());
        c.backward(Tensor::ones(y.shape()), &mut arena.state());
        let params = arena.params.clone();

        let eps = 1e-2f32;
        for idx in [0usize, 13, 41, params.len() - 1] {
            let mut eval = |delta: f32| -> f64 {
                arena.params[idx] = params[idx] + delta;
                let y = c.forward(x.clone(), Phase::Eval, &mut arena.state());
                arena.params[idx] = params[idx];
                y.sum()
            };
            let num = (eval(eps) - eval(-eps)) / (2.0 * eps as f64);
            let ana = arena.grads[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "param {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let (mut c, mut arena, mut rng) = bound(13);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let mut step = |arena: &mut Arena| {
            let y = c.forward(x.clone(), Phase::Train, &mut arena.state());
            c.backward(Tensor::ones(y.shape()), &mut arena.state());
        };
        step(&mut arena);
        let once = arena.grads.clone();
        step(&mut arena);
        for (twice, once) in arena.grads.iter().zip(&once) {
            assert!((twice - 2.0 * once).abs() < 1e-4 * (1.0 + once.abs()));
        }
    }

    #[test]
    fn same_params_same_output_across_instances() {
        let (mut a, mut arena_a, mut rng) = bound(12);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let ya = a.forward(x.clone(), Phase::Eval, &mut arena_a.state());

        let (mut b, mut arena_b, _) = bound(999);
        arena_b.params.copy_from_slice(&arena_a.params);
        let yb = b.forward(x, Phase::Eval, &mut arena_b.state());
        assert!(ya.max_abs_diff(&yb) < 1e-7);
    }
}
