//! 2-D batch normalization.
//!
//! This layer is load-bearing for the paper's Finding 7: "a simple
//! averaging of batch normalization layers introduces instability in
//! non-IID setting". The trainable affine parameters (`gamma`, `beta`)
//! live in the arena's `params` like any layer's, while the running
//! statistics live in its `buffers`, letting the federated server choose
//! whether to average statistics (plain FedAvg of the full state dict) or
//! keep them local (the §6.2 mitigation — average learned parameters,
//! leave statistics alone).

use crate::arena::{pair, pair_mut, Arena, Slot, State};
use crate::layer::{Layer, Phase};
use niid_tensor::Tensor;

/// BatchNorm over the channel dimension of NCHW activations; the arena
/// holds `[gamma | beta]` in `params` and `[running_mean | running_var]`
/// in `buffers`.
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    at: Slot,
    // Training-forward caches.
    cached_xhat: Option<Tensor>,
    cached_inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Standard BatchNorm: `eps = 1e-5`, running-stat momentum `0.1`
    /// (PyTorch convention: `running = (1-m)·running + m·batch`).
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "BatchNorm2d: zero channels");
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            at: Slot::UNBOUND,
            cached_xhat: None,
            cached_inv_std: Vec::new(),
        }
    }

    fn check_input(&self, x: &Tensor) -> (usize, usize) {
        assert_eq!(x.ndim(), 4, "BatchNorm2d: input must be NCHW");
        assert_eq!(
            x.shape()[1],
            self.channels,
            "BatchNorm2d: {} channels expected, got {}",
            self.channels,
            x.shape()[1]
        );
        let n = x.shape()[0];
        let spatial = x.shape()[2] * x.shape()[3];
        (n, spatial)
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn forward(&mut self, x: Tensor, phase: Phase, state: &mut State<'_>) -> Tensor {
        let (n, spatial) = self.check_input(&x);
        let c = self.channels;
        let (gamma, beta) = pair(state.params, self.at.params, c, c);
        let (running_mean, running_var) = pair_mut(state.buffers, self.at.buffers, c, c);
        let mut y = Tensor::zeros(x.shape());

        match phase {
            Phase::Train => {
                let m = (n * spatial) as f32;
                assert!(
                    m >= 2.0,
                    "BatchNorm2d training forward needs at least 2 elements per channel"
                );
                let mut xhat = Tensor::zeros(x.shape());
                self.cached_inv_std = vec![0.0; c];
                for ch in 0..c {
                    // Batch statistics over N and spatial dims for channel ch.
                    let mut sum = 0.0f64;
                    let mut sq = 0.0f64;
                    for i in 0..n {
                        let off = (i * c + ch) * spatial;
                        for &v in &x.as_slice()[off..off + spatial] {
                            sum += v as f64;
                            sq += (v as f64) * (v as f64);
                        }
                    }
                    let mean = (sum / m as f64) as f32;
                    let var = ((sq / m as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                    let inv_std = 1.0 / (var + self.eps).sqrt();
                    self.cached_inv_std[ch] = inv_std;

                    let (g, b) = (gamma[ch], beta[ch]);
                    for i in 0..n {
                        let off = (i * c + ch) * spatial;
                        for j in 0..spatial {
                            let xh = (x.as_slice()[off + j] - mean) * inv_std;
                            xhat.as_mut_slice()[off + j] = xh;
                            y.as_mut_slice()[off + j] = g * xh + b;
                        }
                    }

                    // Update running statistics (unbiased variance, PyTorch).
                    let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
                    let rm = &mut running_mean[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                    let rv = &mut running_var[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * unbiased;
                }
                self.cached_xhat = Some(xhat);
            }
            Phase::Eval => {
                for ch in 0..c {
                    let mean = running_mean[ch];
                    let inv_std = 1.0 / (running_var[ch] + self.eps).sqrt();
                    let (g, b) = (gamma[ch], beta[ch]);
                    for i in 0..n {
                        let off = (i * c + ch) * spatial;
                        for j in 0..spatial {
                            y.as_mut_slice()[off + j] =
                                g * (x.as_slice()[off + j] - mean) * inv_std + b;
                        }
                    }
                }
            }
        }
        y
    }

    fn backward(&mut self, grad_out: Tensor, state: &mut State<'_>) -> Tensor {
        let xhat = self
            .cached_xhat
            .take()
            .expect("BatchNorm2d::backward without cached training forward");
        let (n, spatial) = self.check_input(&grad_out);
        let c = self.channels;
        let gamma = &state.params[self.at.params..][..c];
        let (grad_gamma, grad_beta) = pair_mut(state.grads, self.at.params, c, c);
        let m = (n * spatial) as f32;
        let mut gx = Tensor::zeros(grad_out.shape());

        for ch in 0..c {
            // Channel-wise reductions of dy and dy*xhat.
            let mut sum_dy = 0.0f64;
            let mut sum_dy_xhat = 0.0f64;
            for i in 0..n {
                let off = (i * c + ch) * spatial;
                for j in 0..spatial {
                    let dy = grad_out.as_slice()[off + j] as f64;
                    sum_dy += dy;
                    sum_dy_xhat += dy * xhat.as_slice()[off + j] as f64;
                }
            }
            grad_beta[ch] += sum_dy as f32;
            grad_gamma[ch] += sum_dy_xhat as f32;

            let g = gamma[ch];
            let inv_std = self.cached_inv_std[ch];
            let mean_dy = sum_dy as f32 / m;
            let mean_dy_xhat = sum_dy_xhat as f32 / m;
            for i in 0..n {
                let off = (i * c + ch) * spatial;
                for j in 0..spatial {
                    let dy = grad_out.as_slice()[off + j];
                    let xh = xhat.as_slice()[off + j];
                    gx.as_mut_slice()[off + j] = g * inv_std * (dy - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        gx
    }

    fn bind(&mut self, prefix: &str, arena: &mut Arena) {
        // gamma = 1, beta = 0; running mean = 0, running variance = 1.
        let (zeros, ones) = (vec![0.0; self.channels], vec![1.0; self.channels]);
        self.at = arena.push(
            format!("{prefix}{}", self.name()),
            &[ones.as_slice(), &zeros].concat(),
            &[zeros.as_slice(), &ones].concat(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use niid_stats::Pcg64;

    fn bound(channels: usize) -> (BatchNorm2d, Arena) {
        let mut bn = BatchNorm2d::new(channels);
        let arena = Arena::bind(&mut bn);
        (bn, arena)
    }

    #[test]
    fn train_forward_normalizes_per_channel() {
        let (mut bn, mut arena) = bound(2);
        let mut rng = Pcg64::new(20);
        // Shift channel 1 far from zero; output must be ~N(0,1) per channel.
        let mut x = Tensor::randn(&[8, 2, 4, 4], 2.0, &mut rng);
        for i in 0..8 {
            for j in 0..16 {
                x.as_mut_slice()[(i * 2 + 1) * 16 + j] += 50.0;
            }
        }
        let y = bn.forward(x, Phase::Train, &mut arena.state());
        for ch in 0..2 {
            let mut vals = Vec::new();
            for i in 0..8 {
                let off = (i * 2 + ch) * 16;
                vals.extend_from_slice(&y.as_slice()[off..off + 16]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "channel {ch} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ch} var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        let (mut bn, mut arena) = bound(1);
        let mut rng = Pcg64::new(21);
        // Constant-distribution input; after many updates running stats
        // converge to the batch statistics.
        for _ in 0..200 {
            let x = Tensor::randn(&[16, 1, 2, 2], 1.0, &mut rng).add_scalar(5.0);
            bn.forward(x, Phase::Train, &mut arena.state());
        }
        let (rm, rv) = (arena.buffers[0], arena.buffers[1]);
        assert!((rm - 5.0).abs() < 0.2, "running mean {rm}");
        assert!((rv - 1.0).abs() < 0.2, "running var {rv}");
    }

    #[test]
    fn eval_uses_running_stats() {
        let (mut bn, mut arena) = bound(1);
        // With default running stats (mean 0, var 1), eval is identity
        // modulo eps.
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[1, 1, 2, 2]);
        let y = bn.forward(x.clone(), Phase::Eval, &mut arena.state());
        assert!(y.max_abs_diff(&x) < 1e-4);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Pcg64::new(22);
        let x = Tensor::randn(&[4, 2, 3, 3], 1.5, &mut rng);
        // Random affine so gradients are non-trivial.
        let params = [1.3, 0.7, -0.2, 0.4];

        // Loss: sum over a weighting tensor to avoid the degenerate
        // sum-of-normalized-values (which has zero input gradient).
        let w = Tensor::randn(x.shape(), 1.0, &mut rng);
        let loss = |x: &Tensor, p: &[f32]| -> f64 {
            let (mut bn, mut arena) = bound(2);
            arena.params.copy_from_slice(p);
            let y = bn.forward(x.clone(), Phase::Train, &mut arena.state());
            y.mul(&w).sum()
        };

        let (mut bn, mut arena) = bound(2);
        arena.params.copy_from_slice(&params);
        bn.forward(x.clone(), Phase::Train, &mut arena.state());
        let gx = bn.backward(w.clone(), &mut arena.state());

        let eps = 1e-2f32;
        for idx in [0usize, 17, 40, 71] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (loss(&xp, &params) - loss(&xm, &params)) / (2.0 * eps as f64);
            let ana = gx.as_slice()[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dX[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        for idx in 0..4 {
            let mut pp = params;
            pp[idx] += eps;
            let mut pm = params;
            pm[idx] -= eps;
            let num = (loss(&x, &pp) - loss(&x, &pm)) / (2.0 * eps as f64);
            let ana = arena.grads[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "param {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn training_moves_buffers_not_params() {
        let (mut bn, mut arena) = bound(3);
        assert_eq!(arena.buffers, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let mut rng = Pcg64::new(23);
        let x = Tensor::randn(&[4, 3, 2, 2], 1.0, &mut rng).add_scalar(2.0);
        bn.forward(x, Phase::Train, &mut arena.state());
        assert!(arena.buffers[..3].iter().all(|&m| m > 0.1), "means moved");
        // Params unaffected: gamma still ones, beta still zeros.
        assert_eq!(arena.params, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }
}
