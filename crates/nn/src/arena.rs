//! The flat state arena: one contiguous `params` / `grads` / `buffers`
//! vector per model, laid out in [`crate::Network::state_layout`] order
//! with no padding — the flat vector *is* the wire and checkpoint format.
//!
//! Leaf layers own no weights. [`Arena::bind`] walks the layer tree once;
//! each stateful leaf hands its initial values to [`Arena::push`] and
//! keeps the returned [`Slot`]. From then on a layer sees the arena only
//! as the [`State`] borrowed into `forward` / `backward`.

use crate::layer::{Layer, LayerSpan};

/// Where one leaf layer's state starts in the arena. A leaf knows its own
/// sizes, so the two offsets are its whole view.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Offset into `params` (and `grads`, which share the layout).
    pub params: usize,
    /// Offset into `buffers`.
    pub buffers: usize,
}

impl Slot {
    /// A leaf not yet placed by [`Arena::bind`]; indexing through it panics.
    pub const UNBOUND: Slot = Slot {
        params: usize::MAX,
        buffers: usize::MAX,
    };
}

/// The arena as a layer borrows it for one pass: parameters shared,
/// gradients and buffers mutable.
pub struct State<'a> {
    /// Trainable parameters.
    pub params: &'a [f32],
    /// Accumulated parameter gradients, same layout as `params`.
    pub grads: &'a mut [f32],
    /// Non-trainable state (BatchNorm running statistics).
    pub buffers: &'a mut [f32],
}

/// One model's parameters, gradients and buffers.
#[derive(Default)]
pub struct Arena {
    pub(crate) params: Vec<f32>,
    pub(crate) grads: Vec<f32>,
    pub(crate) buffers: Vec<f32>,
    pub(crate) layout: Vec<LayerSpan>,
}

impl Arena {
    /// Place every stateful leaf under `root`, in tree-walk order.
    pub fn bind(root: &mut dyn Layer) -> Self {
        let mut arena = Arena::default();
        root.bind("", &mut arena);
        arena.grads = vec![0.0; arena.params.len()];
        arena
    }

    /// Append one leaf's initial state and record its [`LayerSpan`];
    /// called from [`Layer::bind`].
    pub fn push(&mut self, name: String, params: &[f32], buffers: &[f32]) -> Slot {
        let slot = Slot {
            params: self.params.len(),
            buffers: self.buffers.len(),
        };
        self.params.extend_from_slice(params);
        self.buffers.extend_from_slice(buffers);
        self.layout.push(LayerSpan {
            name,
            params: params.len(),
            buffers: buffers.len(),
        });
        slot
    }

    /// Borrow the arena for a forward or backward pass.
    pub fn state(&mut self) -> State<'_> {
        State {
            params: &self.params,
            grads: &mut self.grads,
            buffers: &mut self.buffers,
        }
    }
}

/// `v[start..]` as two adjacent runs of `a` and `b` values (weight and
/// bias, gamma and beta, running mean and variance).
pub(crate) fn pair(v: &[f32], start: usize, a: usize, b: usize) -> (&[f32], &[f32]) {
    v[start..start + a + b].split_at(a)
}

/// Mutable [`pair`].
pub(crate) fn pair_mut(
    v: &mut [f32],
    start: usize,
    a: usize,
    b: usize,
) -> (&mut [f32], &mut [f32]) {
    v[start..start + a + b].split_at_mut(a)
}

/// A `Linear` / `Conv2d` leaf's `[W | b]` run of `params` and `grads`: its
/// initial values until [`Layer::bind`] places it, its offset afterwards.
pub(crate) struct WeightBias {
    at: usize,
    init: Vec<f32>,
    weight_len: usize,
    bias_len: usize,
}

impl WeightBias {
    /// `weight` as the layer's initialiser drew it, then a zero bias.
    pub fn new(mut weight: Vec<f32>, bias_len: usize) -> Self {
        let weight_len = weight.len();
        weight.resize(weight_len + bias_len, 0.0);
        Self {
            at: Slot::UNBOUND.params,
            init: weight,
            weight_len,
            bias_len,
        }
    }

    /// Move the initial values into `arena` as the leaf called `name`.
    pub fn bind(&mut self, name: String, arena: &mut Arena) {
        let init = std::mem::take(&mut self.init);
        self.at = arena.push(name, &init, &[]).params;
    }

    /// `(W, b)` out of the arena's `params` (or `grads`).
    pub fn split<'a>(&self, v: &'a [f32]) -> (&'a [f32], &'a [f32]) {
        pair(v, self.at, self.weight_len, self.bias_len)
    }

    /// `(dW, db)` out of the arena's `grads`.
    pub fn split_mut<'a>(&self, v: &'a mut [f32]) -> (&'a mut [f32], &'a mut [f32]) {
        pair_mut(v, self.at, self.weight_len, self.bias_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Phase};
    use niid_stats::Pcg64;
    use niid_tensor::Tensor;

    #[test]
    fn push_hands_out_prefix_sum_offsets() {
        let mut arena = Arena::default();
        let a = arena.push("a".into(), &[1.0, 2.0, 3.0], &[]);
        let b = arena.push("b".into(), &[4.0], &[5.0, 6.0]);
        let c = arena.push("c".into(), &[7.0, 8.0], &[9.0]);
        assert_eq!((a.params, a.buffers), (0, 0));
        assert_eq!((b.params, b.buffers), (3, 0));
        assert_eq!((c.params, c.buffers), (4, 2));
        assert_eq!(arena.params, [1.0, 2.0, 3.0, 4.0, 7.0, 8.0]);
        assert_eq!(arena.buffers, [5.0, 6.0, 9.0]);
        let spans: Vec<_> = arena
            .layout
            .iter()
            .map(|s| (s.name.as_str(), s.params, s.buffers))
            .collect();
        assert_eq!(spans, [("a", 3, 0), ("b", 1, 2), ("c", 2, 1)]);
    }

    #[test]
    #[should_panic]
    fn a_leaf_that_was_never_bound_cannot_run() {
        let mut l = Linear::new(2, 2, &mut Pcg64::new(0));
        let mut arena = Arena {
            params: vec![0.0; 6],
            grads: vec![0.0; 6],
            ..Arena::default()
        };
        l.forward(Tensor::ones(&[1, 2]), Phase::Eval, &mut arena.state());
    }
}
