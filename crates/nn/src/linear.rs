//! Fully-connected layer.

use crate::layer::{Layer, Phase};
use crate::param::ParamReader;
use niid_stats::Pcg64;
use niid_tensor::{matmul, matmul_a_bt, matmul_at_b_slices, simd, Tensor};

/// `y = x · W + b` over a batch: `x [N, in]`, `W [in, out]`, `b [out]`.
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Kaiming-uniform initialized linear layer (`±sqrt(6 / fan_in)`), the
    /// PyTorch default that the paper's reference implementation relies on.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Pcg64) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "Linear: zero-sized layer"
        );
        let bound = (6.0 / in_features as f32).sqrt();
        Self {
            weight: Tensor::rand_uniform(&[in_features, out_features], -bound, bound, rng),
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Direct access to the weight matrix (tests, inspection).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// `dW += xᵀ · dy`, `db += column sums of dy`: the GEMM and the bias
    /// reduction accumulate straight into the gradient buffers — no
    /// `[in, out]`-sized temporary per batch.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .take()
            .expect("Linear::backward without cached forward");
        let batch = grad_out.shape()[0];
        matmul_at_b_slices(
            x.as_slice(),
            grad_out.as_slice(),
            self.grad_weight.as_mut_slice(),
            batch,
            self.in_features,
            self.out_features,
        );
        let kern = simd::active_kernel();
        let gb = self.grad_bias.as_mut_slice();
        for r in 0..batch {
            simd::add_assign(kern, gb, grad_out.row(r));
        }
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, x: Tensor, phase: Phase) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear: input must be [batch, features]");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "Linear: input width {} vs layer in_features {}",
            x.shape()[1],
            self.in_features
        );
        let mut y = matmul(&x, &self.weight);
        y.add_row_broadcast(&self.bias);
        if phase == Phase::Train {
            self.cached_input = Some(x);
        }
        y
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.accumulate_param_grads(&grad_out);
        // dx = dy · Wᵀ. On the AVX2 arm this runs `matmul_a_bt`'s NT
        // micro-kernel: Wᵀ panels are packed contiguously once per tile
        // instead of striding the row-major weight matrix on every FMA.
        matmul_a_bt(&grad_out, &self.weight)
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.accumulate_param_grads(&grad_out);
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weight.as_slice());
        out.extend_from_slice(self.bias.as_slice());
    }

    fn read_params(&mut self, src: &mut ParamReader<'_>) {
        self.weight
            .as_mut_slice()
            .copy_from_slice(src.take(self.in_features * self.out_features));
        self.bias
            .as_mut_slice()
            .copy_from_slice(src.take(self.out_features));
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

    #[test]
    fn forward_known_values() {
        let mut rng = Pcg64::new(0);
        let mut l = Linear::new(2, 3, &mut rng);
        let mut src_vals = vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5, 0.1, 0.2, 0.3];
        let mut r = ParamReader::new(&src_vals);
        l.read_params(&mut r);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(x, Phase::Eval);
        // w = [[1,0,-1],[2,1,0.5]], b = [0.1,0.2,0.3]
        let expected = [3.1f32, 1.2, -0.2];
        for (got, want) in y.as_slice().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        src_vals.clear();
    }

    #[test]
    fn grads_match_finite_difference() {
        let mut rng = Pcg64::new(1);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);

        // Loss: sum of outputs -> dY = ones.
        let y = l.forward(x.clone(), Phase::Train);
        let gx = l.backward(Tensor::ones(y.shape()));

        let mut grads = Vec::new();
        l.write_grads(&mut grads);
        let mut params = Vec::new();
        l.write_params(&mut params);

        let eps = 1e-3f32;
        for idx in [0usize, 5, 11, 13] {
            let mut p_plus = params.clone();
            p_plus[idx] += eps;
            let mut p_minus = params.clone();
            p_minus[idx] -= eps;
            let eval = |p: &[f32]| -> f64 {
                let mut l2 = Linear::new(4, 3, &mut Pcg64::new(1));
                l2.read_params(&mut ParamReader::new(p));
                l2.forward(x.clone(), Phase::Eval).sum()
            };
            let num = (eval(&p_plus) - eval(&p_minus)) / (2.0 * eps as f64);
            let ana = grads[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "param {idx}: numeric {num} vs analytic {ana}"
            );
        }

        // Input gradient: each input element's gradient is the row sum of W.
        let row_sums: Vec<f32> = (0..4)
            .map(|i| (0..3).map(|j| l.weight().at2(i, j)).sum())
            .collect();
        for r in 0..5 {
            for (c, &expected) in row_sums.iter().enumerate() {
                assert!((gx.at2(r, c) - expected).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = Pcg64::new(2);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..2 {
            let y = l.forward(x.clone(), Phase::Train);
            l.backward(Tensor::ones(y.shape()));
        }
        let mut g2 = Vec::new();
        l.write_grads(&mut g2);

        l.zero_grads();
        let y = l.forward(x.clone(), Phase::Train);
        l.backward(Tensor::ones(y.shape()));
        let mut g1 = Vec::new();
        l.write_grads(&mut g1);

        for (a, b) in g2.iter().zip(&g1) {
            assert!(
                (a - 2.0 * b).abs() < 1e-6,
                "accumulation broken: {a} vs 2*{b}"
            );
        }
    }

    #[test]
    fn param_round_trip() {
        let mut rng = Pcg64::new(3);
        let l = Linear::new(7, 5, &mut rng);
        let mut flat = Vec::new();
        l.write_params(&mut flat);
        assert_eq!(flat.len(), l.param_count());

        let mut l2 = Linear::new(7, 5, &mut Pcg64::new(99));
        l2.read_params(&mut ParamReader::new(&flat));
        let mut flat2 = Vec::new();
        l2.write_params(&mut flat2);
        assert_eq!(flat, flat2);
    }

    #[test]
    fn backward_bits_invariant_across_thread_budgets() {
        // dx = dy · Wᵀ runs the NT-packed GEMM on the AVX2 arm; the layer
        // must still honor the substrate's thread-invariance contract —
        // identical bits at every thread budget for both dx and the
        // accumulated parameter gradients.
        let run = |threads: usize| -> (Vec<f32>, Vec<f32>) {
            niid_tensor::with_thread_budget(threads, || {
                let mut rng = Pcg64::new(42);
                let mut l = Linear::new(96, 64, &mut rng);
                let x = Tensor::randn(&[48, 96], 1.0, &mut rng);
                let y = l.forward(x, Phase::Train);
                let gx = l.backward(Tensor::ones(y.shape()));
                let mut grads = Vec::new();
                l.write_grads(&mut grads);
                (gx.as_slice().to_vec(), grads)
            })
        };
        let (gx1, g1) = run(1);
        for t in [2usize, 7] {
            let (gxt, gt) = run(t);
            assert_eq!(gx1, gxt, "dx bits drifted at {t} threads");
            assert_eq!(g1, gt, "param-grad bits drifted at {t} threads");
        }
    }

    #[test]
    #[should_panic(expected = "without cached forward")]
    fn backward_without_forward_panics() {
        let mut l = Linear::new(2, 2, &mut Pcg64::new(0));
        l.backward(Tensor::ones(&[1, 2]));
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let mut l = Linear::new(2, 2, &mut Pcg64::new(0));
        let _ = l.forward(Tensor::ones(&[1, 2]), Phase::Eval);
        assert!(l.cached_input.is_none());
    }
}
