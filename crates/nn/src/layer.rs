//! The [`Layer`] trait: explicit forward/backward over a borrowed arena.

use crate::arena::{Arena, State};
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
/// values it owns in `params` / `grads` and in `buffers`. Recorded by
/// [`Arena::push`] as the tree is bound; offsets follow from a prefix sum
/// over the list.
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

/// A neural-network layer with hand-derived backprop. Layers hold only
/// forward caches and geometry; their weights live in the model's
/// [`Arena`], borrowed into every pass as a [`State`].
///
/// Contract:
/// * `backward` may only be called after a `forward(.., Phase::Train, ..)`
///   on the same instance, and consumes the cached activations of that
///   call.
/// * Gradients **accumulate** into `state.grads` across `backward` calls
///   until the owner of the arena zeroes them.
/// * `bind` is called exactly once, before any pass; containers visit
///   their children in a fixed order, which *is* the flat layout.
pub trait Layer: Send {
    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Forward pass. Consumes the input (layers chain by value).
    fn forward(&mut self, x: Tensor, phase: Phase, state: &mut State<'_>) -> Tensor;

    /// Backward pass: gradient w.r.t. output in, gradient w.r.t. input out.
    /// Accumulates parameter gradients into `state.grads`.
    fn backward(&mut self, grad_out: Tensor, state: &mut State<'_>) -> Tensor;

    /// Backward pass for a layer whose input gradient nobody reads (the
    /// first layer of a model: its input is the training batch).
    /// Accumulates exactly the parameter gradients [`Layer::backward`]
    /// would — skipping an unread output changes no bits. Layers whose
    /// input gradient is a separate product override this to skip it;
    /// containers forward it to their first layer.
    fn backward_params_only(&mut self, grad_out: Tensor, state: &mut State<'_>) {
        self.backward(grad_out, state);
    }

    /// Move this subtree's state into `arena`. A stateful leaf calls
    /// [`Arena::push`] once, named `{prefix}{name}`, and keeps the
    /// returned slot; containers recurse with a longer path prefix;
    /// stateless leaves (activations, pooling) do nothing.
    fn bind(&mut self, _prefix: &str, _arena: &mut Arena) {}
}
