//! Sequential composition of layers.

use crate::arena::{Arena, State};
use crate::layer::{Layer, Phase};
use niid_tensor::Tensor;

/// A chain of layers applied in order; itself a [`Layer`], so blocks can
/// nest (VGG stages, ResNet trunks).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty chain.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Builder-style push.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, x: Tensor, phase: Phase, state: &mut State<'_>) -> Tensor {
        self.layers
            .iter_mut()
            .fold(x, |acc, layer| layer.forward(acc, phase, state))
    }

    fn backward(&mut self, grad_out: Tensor, state: &mut State<'_>) -> Tensor {
        self.layers
            .iter_mut()
            .rev()
            .fold(grad_out, |acc, layer| layer.backward(acc, state))
    }

    fn backward_params_only(&mut self, grad_out: Tensor, state: &mut State<'_>) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let grad = rest
            .iter_mut()
            .rev()
            .fold(grad_out, |acc, layer| layer.backward(acc, state));
        first.backward_params_only(grad, state);
    }

    fn bind(&mut self, prefix: &str, arena: &mut Arena) {
        for (i, l) in self.layers.iter_mut().enumerate() {
            l.bind(&format!("{prefix}{i}."), arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use niid_stats::Pcg64;

    fn two_layer(rng: &mut Pcg64) -> Sequential {
        Sequential::new()
            .push(Linear::new(4, 8, rng))
            .push(Relu::new())
            .push(Linear::new(8, 2, rng))
    }

    #[test]
    fn chains_forward_and_backward() {
        let mut rng = Pcg64::new(30);
        let mut net = two_layer(&mut rng);
        assert_eq!(net.len(), 3);
        let mut arena = Arena::bind(&mut net);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let y = net.forward(x, Phase::Train, &mut arena.state());
        assert_eq!(y.shape(), &[3, 2]);
        let gx = net.backward(Tensor::ones(&[3, 2]), &mut arena.state());
        assert_eq!(gx.shape(), &[3, 4]);
    }

    #[test]
    fn bind_lays_children_out_in_order() {
        let mut net = two_layer(&mut Pcg64::new(31));
        let arena = Arena::bind(&mut net);
        assert_eq!(arena.params.len(), 4 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(arena.grads.len(), arena.params.len());
        let spans: Vec<_> = arena
            .layout
            .iter()
            .map(|s| (s.name.as_str(), s.params))
            .collect();
        assert_eq!(spans, [("0.linear", 40), ("2.linear", 18)]);
    }

    #[test]
    fn same_params_same_function_across_instances() {
        let mut rng = Pcg64::new(32);
        let mut a = two_layer(&mut rng);
        let mut arena_a = Arena::bind(&mut a);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let ya = a.forward(x.clone(), Phase::Eval, &mut arena_a.state());

        let mut b = two_layer(&mut Pcg64::new(777));
        let mut arena_b = Arena::bind(&mut b);
        arena_b.params.copy_from_slice(&arena_a.params);
        let yb = b.forward(x, Phase::Eval, &mut arena_b.state());
        assert!(ya.max_abs_diff(&yb) < 1e-7);
    }
}
