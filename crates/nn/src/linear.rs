//! Fully-connected layer.

use crate::arena::{Arena, State, WeightBias};
use crate::layer::{Layer, Phase};
use niid_stats::Pcg64;
use niid_tensor::{matmul_a_bt_slices, matmul_at_b_slices, matmul_slices, simd, Tensor};

/// `y = x · W + b` over a batch: `x [N, in]`, `W [in, out]`, `b [out]`;
/// the arena holds `[W | b]`.
pub struct Linear {
    wb: WeightBias,
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
        let weight = Tensor::rand_uniform(&[in_features, out_features], -bound, bound, rng);
        Self {
            wb: WeightBias::new(weight.into_vec(), out_features),
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

    /// `dW += xᵀ · dy`, `db += column sums of dy`: the GEMM and the bias
    /// reduction accumulate straight into the arena's gradient span — no
    /// `[in, out]`-sized temporary per batch.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor, grads: &mut [f32]) {
        let x = self
            .cached_input
            .take()
            .expect("Linear::backward without cached forward");
        let batch = grad_out.shape()[0];
        let (gw, gb) = self.wb.split_mut(grads);
        matmul_at_b_slices(
            x.as_slice(),
            grad_out.as_slice(),
            gw,
            batch,
            self.in_features,
            self.out_features,
        );
        let kern = simd::active_kernel();
        for r in 0..batch {
            simd::add_assign(kern, gb, grad_out.row(r));
        }
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, x: Tensor, phase: Phase, state: &mut State<'_>) -> Tensor {
        assert_eq!(x.ndim(), 2, "Linear: input must be [batch, features]");
        assert_eq!(
            x.shape()[1],
            self.in_features,
            "Linear: input width {} vs layer in_features {}",
            x.shape()[1],
            self.in_features
        );
        let (w, b) = self.wb.split(state.params);
        let (batch, out) = (x.shape()[0], self.out_features);
        let mut y = vec![0.0f32; batch * out];
        matmul_slices(x.as_slice(), w, &mut y, batch, self.in_features, out);
        let kern = simd::active_kernel();
        for row in y.chunks_exact_mut(out) {
            simd::add_assign(kern, row, b);
        }
        if phase == Phase::Train {
            self.cached_input = Some(x);
        }
        Tensor::from_vec(y, &[batch, out])
    }

    fn backward(&mut self, grad_out: Tensor, state: &mut State<'_>) -> Tensor {
        self.accumulate_param_grads(&grad_out, state.grads);
        // dx = dy · Wᵀ. On the AVX2 arm this runs the NT micro-kernel: Wᵀ
        // panels are packed contiguously once per tile instead of striding
        // the row-major weight matrix on every FMA.
        let (w, _) = self.wb.split(state.params);
        let (batch, inp, out) = (grad_out.shape()[0], self.in_features, self.out_features);
        let mut gx = vec![0.0f32; batch * inp];
        matmul_a_bt_slices(grad_out.as_slice(), w, &mut gx, batch, out, inp);
        Tensor::from_vec(gx, &[batch, inp])
    }

    fn backward_params_only(&mut self, grad_out: Tensor, state: &mut State<'_>) {
        self.accumulate_param_grads(&grad_out, state.grads);
    }

    fn bind(&mut self, prefix: &str, arena: &mut Arena) {
        self.wb.bind(format!("{prefix}{}", self.name()), arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(mut l: Linear) -> (Linear, Arena) {
        let arena = Arena::bind(&mut l);
        (l, arena)
    }

    #[test]
    fn forward_known_values() {
        let (mut l, mut arena) = bound(Linear::new(2, 3, &mut Pcg64::new(0)));
        // w = [[1,0,-1],[2,1,0.5]], b = [0.1,0.2,0.3]
        arena
            .params
            .copy_from_slice(&[1.0, 0.0, -1.0, 2.0, 1.0, 0.5, 0.1, 0.2, 0.3]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(x, Phase::Eval, &mut arena.state());
        let expected = [3.1f32, 1.2, -0.2];
        for (got, want) in y.as_slice().iter().zip(&expected) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn grads_match_finite_difference() {
        let mut rng = Pcg64::new(1);
        let (mut l, mut arena) = bound(Linear::new(4, 3, &mut rng));
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);

        // Loss: sum of outputs -> dY = ones.
        let y = l.forward(x.clone(), Phase::Train, &mut arena.state());
        let gx = l.backward(Tensor::ones(y.shape()), &mut arena.state());
        let params = arena.params.clone();

        let eps = 1e-3f32;
        for idx in [0usize, 5, 11, 13] {
            let mut eval = |delta: f32| -> f64 {
                arena.params[idx] = params[idx] + delta;
                let y = l.forward(x.clone(), Phase::Eval, &mut arena.state());
                arena.params[idx] = params[idx];
                y.sum()
            };
            let num = (eval(eps) - eval(-eps)) / (2.0 * eps as f64);
            let ana = arena.grads[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "param {idx}: numeric {num} vs analytic {ana}"
            );
        }

        // Input gradient: each input element's gradient is the row sum of W.
        let row_sums: Vec<f32> = params[..12].chunks(3).map(|r| r.iter().sum()).collect();
        for r in 0..5 {
            for (c, &expected) in row_sums.iter().enumerate() {
                assert!((gx.at2(r, c) - expected).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let (mut l, mut arena) = bound(Linear::new(2, 2, &mut Pcg64::new(2)));
        let x = Tensor::ones(&[1, 2]);
        let mut step = |arena: &mut Arena| {
            let y = l.forward(x.clone(), Phase::Train, &mut arena.state());
            l.backward(Tensor::ones(y.shape()), &mut arena.state());
        };
        step(&mut arena);
        step(&mut arena);
        let g2 = arena.grads.clone();
        arena.grads.fill(0.0);
        step(&mut arena);
        for (a, b) in g2.iter().zip(&arena.grads) {
            assert!(
                (a - 2.0 * b).abs() < 1e-6,
                "accumulation broken: {a} vs 2*{b}"
            );
        }
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
                let (mut l, mut arena) = bound(Linear::new(96, 64, &mut rng));
                let x = Tensor::randn(&[48, 96], 1.0, &mut rng);
                let y = l.forward(x, Phase::Train, &mut arena.state());
                let gx = l.backward(Tensor::ones(y.shape()), &mut arena.state());
                (gx.into_vec(), arena.grads)
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
        let (mut l, mut arena) = bound(Linear::new(2, 2, &mut Pcg64::new(0)));
        l.backward(Tensor::ones(&[1, 2]), &mut arena.state());
    }

    #[test]
    fn eval_forward_does_not_cache() {
        let (mut l, mut arena) = bound(Linear::new(2, 2, &mut Pcg64::new(0)));
        let _ = l.forward(Tensor::ones(&[1, 2]), Phase::Eval, &mut arena.state());
        assert!(l.cached_input.is_none());
    }
}
