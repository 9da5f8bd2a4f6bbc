//! Sequential composition of layers.

use crate::layer::{Layer, Phase};
use crate::param::ParamReader;
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

    /// Push a boxed layer.
    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
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

    fn forward(&mut self, x: Tensor, phase: Phase) -> Tensor {
        self.layers
            .iter_mut()
            .fold(x, |acc, layer| layer.forward(acc, phase))
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.layers
            .iter_mut()
            .rev()
            .fold(grad_out, |acc, layer| layer.backward(acc))
    }

    fn backward_params_only(&mut self, grad_out: Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let grad = rest
            .iter_mut()
            .rev()
            .fold(grad_out, |acc, layer| layer.backward(acc));
        first.backward_params_only(grad);
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn buffer_count(&self) -> usize {
        self.layers.iter().map(|l| l.buffer_count()).sum()
    }

    fn write_params(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            l.write_params(out);
        }
    }

    fn read_params(&mut self, src: &mut ParamReader<'_>) {
        for l in &mut self.layers {
            l.read_params(src);
        }
    }

    fn write_grads(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            l.write_grads(out);
        }
    }

    fn write_buffers(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            l.write_buffers(out);
        }
    }

    fn read_buffers(&mut self, src: &mut ParamReader<'_>) {
        for l in &mut self.layers {
            l.read_buffers(src);
        }
    }

    fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    fn state_layout(&self, prefix: &str, out: &mut Vec<crate::layer::LayerSpan>) {
        for (i, l) in self.layers.iter().enumerate() {
            l.state_layout(&format!("{prefix}{i}."), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use niid_stats::Pcg64;

    #[test]
    fn chains_forward_and_backward() {
        let mut rng = Pcg64::new(30);
        let mut net = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let x = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let y = net.forward(x, Phase::Train);
        assert_eq!(y.shape(), &[3, 2]);
        let gx = net.backward(Tensor::ones(&[3, 2]));
        assert_eq!(gx.shape(), &[3, 4]);
    }

    #[test]
    fn param_count_aggregates() {
        let mut rng = Pcg64::new(31);
        let net = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut rng));
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
        let mut flat = Vec::new();
        net.write_params(&mut flat);
        assert_eq!(flat.len(), net.param_count());
    }

    #[test]
    fn state_round_trip_preserves_function() {
        let mut rng = Pcg64::new(32);
        let mut a = Sequential::new()
            .push(Linear::new(5, 6, &mut rng))
            .push(Relu::new())
            .push(Linear::new(6, 3, &mut rng));
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let ya = a.forward(x.clone(), Phase::Eval);

        let mut flat = Vec::new();
        a.write_params(&mut flat);
        let mut rng2 = Pcg64::new(777);
        let mut b = Sequential::new()
            .push(Linear::new(5, 6, &mut rng2))
            .push(Relu::new())
            .push(Linear::new(6, 3, &mut rng2));
        let mut reader = ParamReader::new(&flat);
        b.read_params(&mut reader);
        assert!(reader.is_exhausted());
        let yb = b.forward(x, Phase::Eval);
        assert!(ya.max_abs_diff(&yb) < 1e-7);
    }
}
