//! [`Network`]: a model root and its flat state arena, with training and
//! evaluation helpers. This is the unit that federated parties exchange.

use crate::arena::Arena;
use crate::layer::{Layer, LayerSpan, Phase};
use crate::loss::{LossScratch, SoftmaxCrossEntropy};
use niid_tensor::{argmax_rows, Tensor};

/// A complete classification model: an arbitrary layer graph (usually a
/// [`crate::Sequential`]) terminating in class logits, trained with softmax
/// cross-entropy, plus the one [`Arena`] holding all of its state.
pub struct Network {
    root: Box<dyn Layer>,
    arena: Arena,
    num_classes: usize,
    /// Reused softmax/loss workspace for [`Self::forward_backward`].
    loss_scratch: LossScratch,
}

impl Network {
    /// Wrap a root layer whose output is `[batch, num_classes]` logits,
    /// moving the tree's initial weights into a fresh arena.
    pub fn new(root: impl Layer + 'static, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "Network: need at least 2 classes");
        let mut root: Box<dyn Layer> = Box::new(root);
        let arena = Arena::bind(root.as_mut());
        Self {
            root,
            arena,
            num_classes,
            loss_scratch: LossScratch::new(),
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.arena.params.len()
    }

    /// Total buffer count (BatchNorm running statistics).
    pub fn buffer_count(&self) -> usize {
        self.arena.buffers.len()
    }

    /// Per-leaf-layer spans of the flat state vectors, in traversal
    /// order; prefix sums give each layer's offset into
    /// [`Network::params`] / [`Network::buffers`].
    pub fn state_layout(&self) -> Vec<LayerSpan> {
        self.arena.layout.clone()
    }

    /// Forward pass to logits.
    pub fn forward(&mut self, x: Tensor, phase: Phase) -> Tensor {
        let y = self.root.forward(x, phase, &mut self.arena.state());
        assert_eq!(
            y.shape().last().copied(),
            Some(self.num_classes),
            "Network: model emitted {:?}, expected trailing dim {}",
            y.shape(),
            self.num_classes
        );
        y
    }

    /// One training step's forward+backward on a batch: accumulates
    /// gradients and returns the batch loss. Does **not** update weights —
    /// the caller owns the optimizer (see `niid-fl`'s local trainers).
    pub fn forward_backward(&mut self, x: Tensor, labels: &[usize]) -> f64 {
        let logits = self.forward(x, Phase::Train);
        let (loss, grad) =
            SoftmaxCrossEntropy::loss_and_grad_ws(&logits, labels, &mut self.loss_scratch);
        // The gradient w.r.t. the training batch is never read.
        self.root
            .backward_params_only(grad, &mut self.arena.state());
        loss
    }

    /// Backpropagate an explicit gradient w.r.t. the logits (custom
    /// losses). Must follow a `forward(.., Phase::Train)` on this instance;
    /// accumulates parameter gradients and returns the input gradient.
    pub fn backward(&mut self, grad_logits: Tensor) -> Tensor {
        self.root.backward(grad_logits, &mut self.arena.state())
    }

    /// The trainable parameters, in [`Self::state_layout`] order.
    pub fn params(&self) -> &[f32] {
        &self.arena.params
    }

    /// The accumulated gradients (same layout as [`Self::params`]).
    pub fn grads(&self) -> &[f32] {
        &self.arena.grads
    }

    /// The buffers (BatchNorm running statistics).
    pub fn buffers(&self) -> &[f32] {
        &self.arena.buffers
    }

    /// Parameters and gradients borrowed together, for an in-place
    /// optimizer step or gradient correction.
    pub fn params_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.arena.params, &mut self.arena.grads)
    }

    /// Owned copy of [`Self::params`]. This and the two snapshots below
    /// exist for the frozen `benchmark/` package; borrow instead.
    pub fn params_flat(&self) -> Vec<f32> {
        self.params().to_vec()
    }

    /// Owned copy of [`Self::grads`].
    pub fn grads_flat(&self) -> Vec<f32> {
        self.grads().to_vec()
    }

    /// Owned copy of [`Self::buffers`].
    pub fn buffers_flat(&self) -> Vec<f32> {
        self.buffers().to_vec()
    }

    /// Load trainable parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if the length does not match this architecture exactly.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "set_params_flat: got {} values, architecture has {}",
            flat.len(),
            self.param_count()
        );
        self.arena.params.copy_from_slice(flat);
    }

    /// Load buffers from a flat vector.
    pub fn set_buffers_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.buffer_count(),
            "set_buffers_flat: got {} values, architecture has {}",
            flat.len(),
            self.buffer_count()
        );
        self.arena.buffers.copy_from_slice(flat);
    }

    /// Zero all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.arena.grads.fill(0.0);
    }

    /// Predicted class indices for a batch of inputs.
    pub fn predict(&mut self, x: Tensor) -> Vec<usize> {
        let logits = self.forward(x, Phase::Eval);
        argmax_rows(&logits)
    }

    /// Top-1 accuracy over a dataset, evaluated in mini-batches of
    /// `batch_size` (input rows are gathered per batch so memory stays
    /// bounded for image models).
    ///
    /// `input_shape` is the per-sample shape (e.g. `[1, 16, 16]` for
    /// grayscale images, `[123]` for tabular rows); features are provided
    /// as a `[n, prod(input_shape)]` matrix.
    pub fn evaluate(
        &mut self,
        features: &Tensor,
        labels: &[usize],
        input_shape: &[usize],
        batch_size: usize,
    ) -> f64 {
        let (correct, _) = self.class_counts(features, labels, input_shape, batch_size);
        if labels.is_empty() {
            return 0.0;
        }
        correct.iter().sum::<usize>() as f64 / labels.len() as f64
    }

    /// Per-class recall over a dataset: `out[k] = accuracy on samples of
    /// true class k` (`NaN` for classes absent from the data). This is the
    /// diagnostic behind the paper's `#C = 1` analysis: under extreme label
    /// skew the averaged model collapses onto a few classes, which shows up
    /// here as most entries being 0.
    pub fn evaluate_per_class(
        &mut self,
        features: &Tensor,
        labels: &[usize],
        input_shape: &[usize],
        batch_size: usize,
    ) -> Vec<f64> {
        let (correct, total) = self.class_counts(features, labels, input_shape, batch_size);
        correct
            .iter()
            .zip(&total)
            .map(|(&c, &t)| {
                if t == 0 {
                    f64::NAN
                } else {
                    c as f64 / t as f64
                }
            })
            .collect()
    }

    /// Correct predictions and sample counts per true class, predicted in
    /// mini-batches of `batch_size` rows: the one evaluation loop behind
    /// [`Network::evaluate`] and [`Network::evaluate_per_class`].
    fn class_counts(
        &mut self,
        features: &Tensor,
        labels: &[usize],
        input_shape: &[usize],
        batch_size: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        assert_eq!(features.ndim(), 2, "evaluate: features must be [n, dim]");
        let n = features.shape()[0];
        assert_eq!(n, labels.len(), "evaluate: features/labels mismatch");
        assert!(batch_size > 0, "evaluate: zero batch size");
        let per_sample: usize = input_shape.iter().product();
        assert_eq!(
            per_sample,
            features.shape()[1],
            "evaluate: input_shape {:?} does not match feature dim {}",
            input_shape,
            features.shape()[1]
        );
        let mut correct = vec![0usize; self.num_classes];
        let mut total = vec![0usize; self.num_classes];
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            let idx: Vec<usize> = (start..end).collect();
            let batch = features.gather_rows(&idx);
            let mut shape = vec![end - start];
            shape.extend_from_slice(input_shape);
            let preds = self.predict(batch.reshape(&shape));
            for (p, &l) in preds.iter().zip(&labels[start..end]) {
                total[l] += 1;
                if *p == l {
                    correct[l] += 1;
                }
            }
            start = end;
        }
        (correct, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use crate::sequential::Sequential;
    use crate::sgd::Sgd;
    use niid_stats::Pcg64;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = Pcg64::new(seed);
        Network::new(
            Sequential::new()
                .push(Linear::new(2, 16, &mut rng))
                .push(Relu::new())
                .push(Linear::new(16, 2, &mut rng)),
            2,
        )
    }

    /// XOR-ish separable problem: class = x0 > x1.
    fn toy_data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = Pcg64::new(seed);
        let x = Tensor::rand_uniform(&[n, 2], -1.0, 1.0, &mut rng);
        let labels = (0..n)
            .map(|i| usize::from(x.at2(i, 0) > x.at2(i, 1)))
            .collect();
        (x, labels)
    }

    #[test]
    fn learns_linearly_separable_task() {
        let mut net = tiny_net(1);
        let (x, y) = toy_data(256, 2);
        let mut opt = Sgd::new(net.param_count(), 0.1, 0.9, 0.0);
        let mut first_loss = None;
        for _ in 0..60 {
            net.zero_grads();
            let loss = net.forward_backward(x.clone(), &y);
            first_loss.get_or_insert(loss);
            let (params, grads) = net.params_and_grads_mut();
            opt.step(params, grads);
        }
        let acc = net.evaluate(&x, &y, &[2], 64);
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn flat_state_round_trip_preserves_predictions() {
        let mut a = tiny_net(3);
        let (x, _) = toy_data(32, 4);
        let pa = a.predict(x.clone());
        let mut b = tiny_net(999);
        b.set_params_flat(a.params());
        assert_eq!(b.predict(x), pa);
    }

    #[test]
    fn grads_flat_zeroes_after_zero_grads() {
        let mut net = tiny_net(5);
        let (x, y) = toy_data(16, 6);
        net.forward_backward(x, &y);
        assert!(net.grads().iter().any(|&g| g != 0.0));
        net.zero_grads();
        assert!(net.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn evaluate_batches_equal_full_pass() {
        let mut net = tiny_net(7);
        let (x, y) = toy_data(50, 8);
        let full = net.evaluate(&x, &y, &[2], 64);
        let batched = net.evaluate(&x, &y, &[2], 7);
        assert!((full - batched).abs() < 1e-12);
    }

    #[test]
    fn per_class_recall_averages_to_overall() {
        let mut net = tiny_net(11);
        let (x, y) = toy_data(120, 12);
        let overall = net.evaluate(&x, &y, &[2], 32);
        let per_class = net.evaluate_per_class(&x, &y, &[2], 32);
        // Weighted average of per-class recalls equals overall accuracy.
        let mut counts = [0usize; 2];
        for &l in &y {
            counts[l] += 1;
        }
        let weighted: f64 = per_class
            .iter()
            .zip(&counts)
            .map(|(&r, &c)| r * c as f64)
            .sum::<f64>()
            / y.len() as f64;
        assert!((weighted - overall).abs() < 1e-12);
    }

    #[test]
    fn per_class_marks_absent_classes_nan() {
        let mut net = tiny_net(13);
        let (x, _) = toy_data(10, 14);
        let y = vec![0usize; 10]; // class 1 absent
        let per_class = net.evaluate_per_class(&x, &y, &[2], 8);
        assert!(!per_class[0].is_nan());
        assert!(per_class[1].is_nan());
    }

    /// `forward_backward` skips the first layer's input gradient; the
    /// gradients, loss and BatchNorm buffers it leaves must be bit-equal
    /// to `forward(Train)` + the explicit `Network::backward`, which
    /// computes that gradient — under every kernel the CPU offers.
    fn assert_params_only_matches_full(tag: &str, build: &dyn Fn() -> Network, x_shape: &[usize]) {
        for kern in niid_tensor::Kernel::available_kernels() {
            niid_tensor::with_forced_kernel(kern, || {
                let mut rng = Pcg64::new(91);
                let x = Tensor::randn(x_shape, 1.0, &mut rng);
                let (mut fused, mut full) = (build(), build());
                let labels: Vec<usize> = (0..x_shape[0]).map(|i| i % full.num_classes()).collect();
                // Two steps, so BatchNorm running statistics (updated by
                // the first) feed the comparison too.
                for step in 0..2 {
                    let loss = fused.forward_backward(x.clone(), &labels);
                    let logits = full.forward(x.clone(), Phase::Train);
                    let (want, grad) = SoftmaxCrossEntropy::loss_and_grad(&logits, &labels);
                    let gx = full.backward(grad);
                    assert_eq!(gx.shape(), x.shape(), "{tag}: backward returns dX");
                    let at = format!("{tag} @{} step {step}", kern.name());
                    assert_eq!(loss.to_bits(), want.to_bits(), "loss: {at}");
                    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                    assert_eq!(bits(fused.grads_flat()), bits(full.grads_flat()), "{at}");
                    assert_eq!(
                        bits(fused.buffers_flat()),
                        bits(full.buffers_flat()),
                        "{at}"
                    );
                }
            });
        }
    }

    #[test]
    fn forward_backward_matches_explicit_backward_bitwise() {
        use crate::activation::Flatten;
        use crate::conv::Conv2d;
        use crate::models::ModelSpec;
        use niid_tensor::Conv2dShape;
        let conv = |rng: &mut Pcg64| {
            Conv2d::new(
                Conv2dShape {
                    in_channels: 2,
                    out_channels: 3,
                    in_h: 7,
                    in_w: 6,
                    kernel_h: 3,
                    kernel_w: 3,
                    stride: 1,
                    padding: 1,
                },
                rng,
            )
        };
        let linear = || Network::new(Linear::new(5, 3, &mut Pcg64::new(1)), 3);
        assert_params_only_matches_full("linear", &linear, &[4, 5]);
        let conv_first = || {
            let mut rng = Pcg64::new(2);
            Network::new(
                Sequential::new().push(conv(&mut rng)).push(Flatten::new()),
                126,
            )
        };
        assert_params_only_matches_full("conv2d", &conv_first, &[3, 2, 7, 6]);
        let nested = || {
            let mut rng = Pcg64::new(3);
            let stem = Sequential::new()
                .push(Sequential::new().push(conv(&mut rng)).push(Relu::new()))
                .push(Flatten::new());
            Network::new(stem.push(Linear::new(126, 4, &mut rng)), 4)
        };
        assert_params_only_matches_full("nested sequential", &nested, &[3, 2, 7, 6]);
        let specs = [
            (
                ModelSpec::LenetCnn {
                    in_channels: 1,
                    side: 16,
                },
                vec![5, 1, 16, 16],
            ),
            (ModelSpec::Mlp { in_dim: 12 }, vec![6, 12]),
            (
                ModelSpec::Vgg9 {
                    in_channels: 3,
                    side: 8,
                    width: 2,
                },
                vec![4, 3, 8, 8],
            ),
            (
                ModelSpec::ResNetLite {
                    in_channels: 3,
                    side: 8,
                    width: 4,
                    blocks_per_stage: 1,
                },
                vec![4, 3, 8, 8],
            ),
        ];
        for (spec, x_shape) in specs {
            let build = || spec.build(10, 7);
            assert_params_only_matches_full(&format!("{spec:?}"), &build, &x_shape);
        }
    }

    #[test]
    #[should_panic(expected = "set_buffers_flat: got 1 values, architecture has 0")]
    fn wrong_buffer_length_panics() {
        tiny_net(9).set_buffers_flat(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "architecture has")]
    fn wrong_flat_length_panics() {
        let mut net = tiny_net(9);
        net.set_params_flat(&[0.0; 3]);
    }
}
