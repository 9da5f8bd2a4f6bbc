//! The [`Layer`] trait: explicit forward/backward with flat state I/O.

use crate::param::ParamReader;
use niid_tensor::Tensor;

/// Whether a forward pass is part of training or evaluation.
///
/// BatchNorm uses batch statistics and updates running statistics in
/// `Train`; it uses running statistics in `Eval`. Other layers ignore the
/// phase but must still cache activations in `Train` so `backward` works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Training: cache activations, use/update batch statistics.
    Train,
    /// Evaluation: no caching required, use running statistics.
    Eval,
}

/// One leaf layer's contribution to the flat state vectors: how many
/// values it owns in the `params_flat`/`grads_flat` ordering and in the
/// `buffers_flat` ordering. Produced by [`Layer::state_layout`]; offsets
/// follow from a prefix sum over the list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpan {
    /// Dotted path of the layer inside the model tree, e.g.
    /// `"4.conv1/conv2d"`.
    pub name: String,
    /// Trainable parameter count (also the gradient count).
    pub params: usize,
    /// Non-trainable buffer count (BatchNorm running statistics).
    pub buffers: usize,
}

/// A neural-network layer with hand-derived backprop and flat state I/O.
///
/// Contract:
/// * `backward` may only be called after a `forward(.., Phase::Train)` on
///   the same instance, and consumes the cached activations of that call.
/// * Gradients **accumulate** across `backward` calls until `zero_grads`.
/// * `write_params` / `read_params` traverse trainable parameters in a
///   fixed order; `write_grads` matches that order exactly.
/// * `write_buffers` / `read_buffers` traverse non-trainable state
///   (BatchNorm running statistics); most layers have none.
pub trait Layer: Send {
    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Forward pass. Consumes the input (layers chain by value).
    fn forward(&mut self, x: Tensor, phase: Phase) -> Tensor;

    /// Backward pass: gradient w.r.t. output in, gradient w.r.t. input out.
    /// Accumulates parameter gradients internally.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// Backward pass for a layer whose input gradient nobody reads (the
    /// first layer of a model: its input is the training batch).
    /// Accumulates exactly the parameter gradients [`Layer::backward`]
    /// would — skipping an unread output changes no bits. Layers whose
    /// input gradient is a separate product override this to skip it;
    /// containers forward it to their first layer.
    fn backward_params_only(&mut self, grad_out: Tensor) {
        self.backward(grad_out);
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Number of non-trainable buffer values.
    fn buffer_count(&self) -> usize {
        0
    }

    /// Append trainable parameters to `out`.
    fn write_params(&self, _out: &mut Vec<f32>) {}

    /// Load trainable parameters from the reader.
    fn read_params(&mut self, _src: &mut ParamReader<'_>) {}

    /// Append parameter gradients to `out` (same order as `write_params`).
    fn write_grads(&self, _out: &mut Vec<f32>) {}

    /// Append buffers (e.g. BN running stats) to `out`.
    fn write_buffers(&self, _out: &mut Vec<f32>) {}

    /// Load buffers from the reader.
    fn read_buffers(&mut self, _src: &mut ParamReader<'_>) {}

    /// Reset accumulated gradients to zero.
    fn zero_grads(&mut self) {}

    /// Append one [`LayerSpan`] per *leaf* layer that owns state, in
    /// exactly the order `write_params` / `write_buffers` traverse the
    /// tree. Stateless leaves (activations, pooling) are omitted;
    /// containers override this to recurse with a path prefix.
    fn state_layout(&self, prefix: &str, out: &mut Vec<LayerSpan>) {
        let (params, buffers) = (self.param_count(), self.buffer_count());
        if params + buffers > 0 {
            out.push(LayerSpan {
                name: format!("{prefix}{}", self.name()),
                params,
                buffers,
            });
        }
    }
}
