//! SGD with momentum over flat parameter vectors.
//!
//! The paper trains everything with "the SGD optimizer with learning rate
//! 0.1/0.01 and momentum 0.9". We follow the PyTorch momentum formulation
//! the reference implementation uses:
//!
//! ```text
//! v ← m·v + g
//! w ← w − lr·v
//! ```
//!
//! The optimizer works on **flat vectors**, not on layers: the local
//! trainers in `niid-fl` borrow the network's parameter and gradient arena
//! (`Network::params_and_grads_mut`), apply algorithm-specific corrections
//! to the gradients in place (FedProx proximal term), then step the
//! parameters in place here.
//!
//! The update itself is the fused single-pass kernel
//! [`niid_tensor::simd::sgd_momentum_step`]: one load/store sweep over
//! params/grads/velocity instead of three read-modify-write chains, 8-wide
//! FMA on AVX2 (scalar fallback reproduces this loop's bits exactly).

/// Stateful SGD-with-momentum optimizer over a fixed-size parameter vector.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Create an optimizer for `param_len` parameters.
    ///
    /// # Panics
    /// Panics on non-finite or negative hyper-parameters.
    pub fn new(param_len: usize, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(
            lr.is_finite() && lr > 0.0,
            "SGD: lr must be positive, got {lr}"
        );
        assert!(
            (0.0..1.0).contains(&momentum) || momentum == 0.0,
            "SGD: momentum must be in [0,1), got {momentum}"
        );
        assert!(
            weight_decay.is_finite() && weight_decay >= 0.0,
            "SGD: weight decay must be non-negative"
        );
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: vec![0.0; param_len],
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Reset momentum state (each federated round starts local training
    /// fresh, as the reference implementation re-creates the optimizer).
    pub fn reset(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }

    /// One update step: `params -= lr * (m*v + g + wd*params)`.
    ///
    /// # Panics
    /// Panics if the slices disagree with the optimizer's parameter count.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            self.velocity.len(),
            "SGD: params length {} vs optimizer size {}",
            params.len(),
            self.velocity.len()
        );
        assert_eq!(
            params.len(),
            grads.len(),
            "SGD: params/grads length mismatch"
        );
        niid_tensor::simd::sgd_momentum_step(
            niid_tensor::simd::active_kernel(),
            params,
            grads,
            &mut self.velocity,
            self.lr,
            self.momentum,
            self.weight_decay,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(2, 0.1, 0.0, 0.0);
        let mut p = vec![1.0f32, -1.0];
        opt.step(&mut p, &[10.0, -10.0]);
        // Tolerance, not equality: the AVX2 kernel contracts `p - lr*v`
        // into one FMA, so `1 - 0.1*10` is ~1e-8 rather than exactly 0.
        for v in &p {
            assert!(v.abs() < 1e-6, "p = {p:?}");
        }
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(1, 1.0, 0.9, 0.0);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]); // v=1, p=-1
        assert_eq!(p[0], -1.0);
        opt.step(&mut p, &[1.0]); // v=1.9, p=-2.9
        assert!((p[0] + 2.9).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::new(1, 0.1, 0.0, 0.5);
        let mut p = vec![2.0f32];
        opt.step(&mut p, &[0.0]);
        // g_eff = 0 + 0.5*2 = 1; p = 2 - 0.1 = 1.9.
        assert!((p[0] - 1.9).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_momentum() {
        let mut opt = Sgd::new(1, 1.0, 0.9, 0.0);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]);
        opt.reset();
        opt.step(&mut p, &[1.0]);
        // After reset the second step is not amplified: p = -1 - 1 = -2.
        assert!((p[0] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(w) = 0.5*(w-3)^2; gradient w-3.
        let mut opt = Sgd::new(1, 0.1, 0.9, 0.0);
        let mut p = vec![0.0f32];
        for _ in 0..200 {
            let g = p[0] - 3.0;
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 1e-3, "converged to {}", p[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grads_panic() {
        let mut opt = Sgd::new(2, 0.1, 0.0, 0.0);
        let mut p = vec![0.0f32; 2];
        opt.step(&mut p, &[1.0]);
    }
}
