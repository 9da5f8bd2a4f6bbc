//! Parameter-free layers: ReLU and Flatten.

use crate::arena::State;
use crate::layer::{Layer, Phase};
use niid_tensor::{relu, relu_assign, relu_backward, Tensor};

/// Elementwise rectified linear unit.
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// New ReLU layer.
    pub fn new() -> Self {
        Self { cached_input: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, mut x: Tensor, phase: Phase, _state: &mut State<'_>) -> Tensor {
        if phase == Phase::Train {
            // Training needs the pre-activation input for backward, so the
            // output is a fresh tensor.
            let y = relu(&x);
            self.cached_input = Some(x);
            y
        } else {
            // Inference rectifies the owned input in place: no allocation.
            relu_assign(&mut x);
            x
        }
    }

    fn backward(&mut self, grad_out: Tensor, _state: &mut State<'_>) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("Relu::backward without cached forward");
        relu_backward(&grad_out, &x)
    }
}

/// Reshape `[N, ...]` to `[N, prod(...)]`, remembering the original shape
/// for the backward pass.
pub struct Flatten {
    cached_shape: Vec<usize>,
}

impl Flatten {
    /// New Flatten layer.
    pub fn new() -> Self {
        Self {
            cached_shape: Vec::new(),
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, x: Tensor, _phase: Phase, _state: &mut State<'_>) -> Tensor {
        assert!(x.ndim() >= 1, "Flatten: input must have a batch dimension");
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        self.cached_shape = x.shape().to_vec();
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: Tensor, _state: &mut State<'_>) -> Tensor {
        grad_out.reshape(&self.cached_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;

    #[test]
    fn relu_round_trip() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 3.0, 0.0, 1.0], &[2, 2]);
        let y = r.forward(x, Phase::Train, &mut Arena::default().state());
        assert_eq!(y.as_slice(), &[0.0, 3.0, 0.0, 1.0]);
        let gx = r.backward(Tensor::ones(&[2, 2]), &mut Arena::default().state());
        assert_eq!(gx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(x, Phase::Train, &mut Arena::default().state());
        assert_eq!(y.shape(), &[2, 60]);
        let gx = f.backward(Tensor::ones(&[2, 60]), &mut Arena::default().state());
        assert_eq!(gx.shape(), &[2, 3, 4, 5]);
    }
}
