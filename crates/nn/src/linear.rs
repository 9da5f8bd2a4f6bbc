//! Fully-connected layer.

use crate::arena::{Arena, State, WeightBias};
use crate::layer::{Layer, Phase};
use niid_stats::Pcg64;
use niid_tensor::{
    matmul_a_bt_slices, matmul_at_b_scanned_slices, matmul_scanned_slices, simd, SparseRows, Tensor,
};

/// `y = x · W + b` over a batch: `x [N, in]`, `W [in, out]`, `b [out]`;
/// the arena holds `[W | b]`.
pub struct Linear {
    wb: WeightBias,
    /// A train forward's input and its sparse-A scan: one scan of a
    /// mostly-zero batch serves both `x · W` and the weight gradient
    /// `xᵀ · dy`.
    cached_input: Option<(Tensor, Option<SparseRows>)>,
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
    /// `[in, out]`-sized temporary per batch. The GEMM reuses the forward's
    /// scan of `x`.
    fn accumulate_param_grads(&mut self, grad_out: &Tensor, grads: &mut [f32]) {
        let (x, sparse) = self
            .cached_input
            .take()
            .expect("Linear::backward without cached forward");
        let batch = grad_out.shape()[0];
        let (gw, gb) = self.wb.split_mut(grads);
        matmul_at_b_scanned_slices(
            x.as_slice(),
            sparse.as_ref(),
            grad_out.as_slice(),
            gw,
            batch,
            self.in_features,
            self.out_features,
        );
        simd::accumulate_rows(simd::active_kernel(), gb, grad_out.as_slice());
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
        let (xs, inp) = (x.as_slice(), self.in_features);
        let sparse = SparseRows::scan(xs, batch, inp);
        matmul_scanned_slices(xs, sparse.as_ref(), w, &mut y, batch, inp, out);
        simd::broadcast_add_rows(simd::active_kernel(), &mut y, b);
        if phase == Phase::Train {
            self.cached_input = Some((x, sparse));
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

    /// `rows × dim` inputs, 90 % of them `±0`, the rest in `[-1, 1)`.
    fn sparse_rows(rows: usize, dim: usize, rng: &mut Pcg64) -> Tensor {
        let v = (0..rows * dim)
            .map(|i| match rng.next_f32() {
                z if z < 0.9 && i % 5 == 0 => -0.0,
                z if z < 0.9 => 0.0,
                _ => rng.next_f32() * 2.0 - 1.0,
            })
            .collect();
        Tensor::from_vec(v, &[rows, dim])
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `y = x·W + b`, `dW = xᵀ·dy` and `db` the per-call way: every
    /// product scans `x` afresh.
    fn per_call(params: &[f32], x: &Tensor, dy: &Tensor) -> [Vec<f32>; 3] {
        let (batch, inp) = (x.shape()[0], x.shape()[1]);
        let out = dy.shape()[1];
        let (w, b) = params.split_at(inp * out);
        let (kern, xs) = (simd::active_kernel(), x.as_slice());
        let mut y = vec![0.0f32; batch * out];
        let scan = SparseRows::scan(xs, batch, inp);
        matmul_scanned_slices(xs, scan.as_ref(), w, &mut y, batch, inp, out);
        simd::broadcast_add_rows(kern, &mut y, b);
        let mut dw = vec![0.0f32; inp * out];
        let (scan, dy) = (SparseRows::scan(xs, batch, inp), dy.as_slice());
        matmul_at_b_scanned_slices(xs, scan.as_ref(), dy, &mut dw, batch, inp, out);
        let mut db = vec![0.0f32; out];
        simd::accumulate_rows(kern, &mut db, dy);
        [y, dw, db]
    }

    /// One layer step: a train forward of `x`, then `between` (more
    /// forwards), then a backward of `dy`, from zeroed gradients. Returns
    /// the first forward's `y`, `dW` and `db`.
    fn layer_step(
        l: &mut Linear,
        arena: &mut Arena,
        x: &Tensor,
        between: impl FnOnce(&mut Linear, &mut Arena),
        dy: &Tensor,
    ) -> [Vec<f32>; 3] {
        arena.grads.fill(0.0);
        let y = l.forward(x.clone(), Phase::Train, &mut arena.state());
        between(l, arena);
        l.backward_params_only(dy.clone(), &mut arena.state());
        let (dw, db) = arena.grads.split_at(l.in_features * l.out_features);
        [y.into_vec(), dw.to_vec(), db.to_vec()]
    }

    fn assert_bits_eq(got: &[Vec<f32>; 3], want: &[Vec<f32>; 3], case: &str) {
        for (name, (g, w)) in ["y", "dW", "db"].iter().zip(got.iter().zip(want)) {
            assert_eq!(bits(g), bits(w), "{name}: {case}");
        }
    }

    #[test]
    fn kept_scan_gives_the_per_call_bits() {
        let mut rng = Pcg64::new(7);
        for kern in niid_tensor::Kernel::available_kernels() {
            for (i, &batch) in [1usize, 7, 32, 33, 256].iter().enumerate() {
                for (j, &out) in [1usize, 7, 8, 32, 33].iter().enumerate() {
                    // `in = 2050` leaves a partial last 256-entry segment.
                    let inp = if (i + j) % 2 == 0 { 2048 } else { 2050 };
                    let (mut l, mut arena) = bound(Linear::new(inp, out, &mut rng));
                    let mut x = sparse_rows(batch, inp, &mut rng);
                    if j == 2 {
                        // NaN and ±∞ are not zeros: computed on both paths.
                        let xs = x.as_mut_slice();
                        let len = xs.len();
                        xs[3] = f32::NAN;
                        xs[len / 2] = f32::INFINITY;
                        xs[len - 1] = f32::NEG_INFINITY;
                    }
                    let dy = Tensor::randn(&[batch, out], 1.0, &mut rng);
                    let want =
                        niid_tensor::with_forced_kernel(kern, || per_call(&arena.params, &x, &dy));
                    for t in [1usize, 2, 4] {
                        let got = niid_tensor::with_forced_kernel(kern, || {
                            niid_tensor::with_thread_budget(t, || {
                                layer_step(&mut l, &mut arena, &x, |_, _| {}, &dy)
                            })
                        });
                        let case = format!("{kern:?} batch {batch} {inp}->{out} @{t}");
                        assert_bits_eq(&got, &want, &case);
                    }
                }
            }
        }
    }

    #[test]
    fn kept_scan_follows_the_last_train_forward() {
        let mut rng = Pcg64::new(8);
        let (batch, inp, out) = (32usize, 2050usize, 8usize);
        let (x1, x2) = (
            sparse_rows(batch, inp, &mut rng),
            sparse_rows(batch, inp, &mut rng),
        );
        let eval = sparse_rows(256, inp, &mut rng);
        let dy = Tensor::randn(&[batch, out], 1.0, &mut rng);
        for kern in niid_tensor::Kernel::available_kernels() {
            niid_tensor::with_forced_kernel(kern, || {
                let (mut l, mut arena) = bound(Linear::new(inp, out, &mut Pcg64::new(9)));
                let params = arena.params.clone();
                // A second train forward replaces the kept input and its
                // scan: the gradient is x2's.
                let got = layer_step(
                    &mut l,
                    &mut arena,
                    &x1,
                    |l, arena| {
                        let _ = l.forward(x2.clone(), Phase::Train, &mut arena.state());
                    },
                    &dy,
                );
                let [_, dw2, db2] = per_call(&params, &x2, &dy);
                assert_eq!(
                    bits(&got[1]),
                    bits(&dw2),
                    "{kern:?}: dW of the second forward"
                );
                assert_eq!(bits(&got[2]), bits(&db2));
                // An eval forward in between scans its own batch and
                // leaves the kept one alone.
                let got = layer_step(
                    &mut l,
                    &mut arena,
                    &x1,
                    |l, arena| {
                        let _ = l.forward(eval.clone(), Phase::Eval, &mut arena.state());
                    },
                    &dy,
                );
                assert_bits_eq(&got, &per_call(&params, &x1, &dy), &format!("{kern:?}"));
            });
        }
    }

    #[test]
    fn nan_in_dy_after_a_sparse_forward_takes_the_dense_gradient() {
        let mut rng = Pcg64::new(10);
        let (batch, inp, out) = (32usize, 2048usize, 7usize);
        let x = sparse_rows(batch, inp, &mut rng);
        let mut dy = Tensor::randn(&[batch, out], 1.0, &mut rng);
        dy.as_mut_slice()[5 * out + 3] = f32::NAN; // dY[5][3]
        for kern in niid_tensor::Kernel::available_kernels() {
            niid_tensor::with_forced_kernel(kern, || {
                let (mut l, mut arena) = bound(Linear::new(inp, out, &mut Pcg64::new(11)));
                let want = per_call(&arena.params, &x, &dy);
                let got = layer_step(&mut l, &mut arena, &x, |_, _| {}, &dy);
                assert_bits_eq(&got, &want, &format!("{kern:?}"));
                // `0 · NaN` is NaN: every row of dW's column 3 is NaN,
                // the zero entries of x[5] included.
                assert!((0..inp).all(|t| got[1][t * out + 3].is_nan()), "{kern:?}");
                assert!(got[1][out].is_finite());
            });
        }
    }
}
