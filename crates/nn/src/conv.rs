//! Convolution layer over `niid-tensor`'s GEMM-lowered kernels.
//!
//! On the AVX2 arm the substrate runs a fused lowering — direct kernels
//! over the NCHW planes for the paper CNN's narrow stride-1 shapes, the
//! im2col mapping fused into the GEMM panel pack for the rest — so no
//! `[batch·positions, C·kh·kw]` buffer is materialized; the scalar arm
//! keeps the historical materialized im2col pipeline (see
//! `niid_tensor::conv`). The layer is agnostic: it hands the same
//! [`ConvScratch`] to whichever path and the results are bit-identical
//! under a fixed kernel.

use crate::layer::{Layer, Phase};
use crate::param::ParamReader;
use niid_stats::Pcg64;
use niid_tensor::{
    conv2d_backward_accum, conv2d_backward_params_accum, conv2d_forward, Conv2dShape, ConvScratch,
    Tensor,
};

/// 2-D convolution over NCHW activations with a fixed input geometry.
pub struct Conv2d {
    shape: Conv2dShape,
    weight: Tensor, // [out_c, in_c*kh*kw]
    bias: Tensor,   // [out_c]
    grad_weight: Tensor,
    grad_bias: Tensor,
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
        Self {
            shape,
            weight: Tensor::randn(&[shape.out_channels, cw], std, rng),
            bias: Tensor::zeros(&[shape.out_channels]),
            grad_weight: Tensor::zeros(&[shape.out_channels, cw]),
            grad_bias: Tensor::zeros(&[shape.out_channels]),
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

    fn forward(&mut self, x: Tensor, phase: Phase) -> Tensor {
        let y = conv2d_forward(
            &x,
            &self.weight,
            Some(&self.bias),
            &self.shape,
            &mut self.scratch,
        );
        self.cols_cached = phase == Phase::Train;
        y
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.take_cached_forward();
        // dW and db accumulate straight into the layer's gradient buffers
        // — no weight-sized temporaries per batch.
        conv2d_backward_accum(
            &mut self.scratch,
            &self.weight,
            &grad_out,
            &self.shape,
            self.grad_weight.as_mut_slice(),
            self.grad_bias.as_mut_slice(),
        )
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.take_cached_forward();
        conv2d_backward_params_accum(
            &mut self.scratch,
            &grad_out,
            &self.shape,
            self.grad_weight.as_mut_slice(),
            self.grad_bias.as_mut_slice(),
        );
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weight.as_slice());
        out.extend_from_slice(self.bias.as_slice());
    }

    fn read_params(&mut self, src: &mut ParamReader<'_>) {
        let wn = self.weight.numel();
        let bn = self.bias.numel();
        self.weight.as_mut_slice().copy_from_slice(src.take(wn));
        self.bias.as_mut_slice().copy_from_slice(src.take(bn));
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.grad_weight.as_slice());
        out.extend_from_slice(self.grad_bias.as_slice());
    }

    fn zero_grads(&mut self) {
        self.grad_weight.zero_();
        self.grad_bias.zero_();
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

    #[test]
    fn forward_shape_and_determinism() {
        let s = small_shape();
        let mut rng = Pcg64::new(10);
        let mut c = Conv2d::new(s, &mut rng);
        let x = Tensor::randn(&[4, 2, 6, 6], 1.0, &mut rng);
        let y1 = c.forward(x.clone(), Phase::Eval);
        let y2 = c.forward(x, Phase::Eval);
        assert_eq!(y1.shape(), &[4, 3, 6, 6]);
        assert_eq!(y1, y2);
    }

    #[test]
    fn weight_grad_matches_finite_difference() {
        let s = small_shape();
        let mut rng = Pcg64::new(11);
        let mut c = Conv2d::new(s, &mut rng);
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);

        let y = c.forward(x.clone(), Phase::Train);
        c.backward(Tensor::ones(y.shape()));
        let mut grads = Vec::new();
        c.write_grads(&mut grads);
        let mut params = Vec::new();
        c.write_params(&mut params);

        let eval = |p: &[f32]| -> f64 {
            let mut c2 = Conv2d::new(s, &mut Pcg64::new(11));
            c2.read_params(&mut ParamReader::new(p));
            c2.forward(x.clone(), Phase::Eval).sum()
        };
        let eps = 1e-2f32;
        for idx in [0usize, 13, 41, params.len() - 1] {
            let mut pp = params.clone();
            pp[idx] += eps;
            let mut pm = params.clone();
            pm[idx] -= eps;
            let num = (eval(&pp) - eval(&pm)) / (2.0 * eps as f64);
            let ana = grads[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "param {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn param_round_trip_preserves_output() {
        let s = small_shape();
        let mut rng = Pcg64::new(12);
        let mut a = Conv2d::new(s, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let ya = a.forward(x.clone(), Phase::Eval);

        let mut flat = Vec::new();
        a.write_params(&mut flat);
        let mut b = Conv2d::new(s, &mut Pcg64::new(999));
        b.read_params(&mut ParamReader::new(&flat));
        let yb = b.forward(x, Phase::Eval);
        assert!(ya.max_abs_diff(&yb) < 1e-7);
    }

    #[test]
    fn zero_grads_resets() {
        let s = small_shape();
        let mut rng = Pcg64::new(13);
        let mut c = Conv2d::new(s, &mut rng);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        let y = c.forward(x, Phase::Train);
        c.backward(Tensor::ones(y.shape()));
        c.zero_grads();
        let mut g = Vec::new();
        c.write_grads(&mut g);
        assert!(g.iter().all(|&v| v == 0.0));
    }
}
