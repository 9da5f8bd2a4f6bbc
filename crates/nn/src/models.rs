//! The paper's model architectures.
//!
//! * [`lenet_cnn`] — §5: "a CNN, which has two 5x5 convolution layers
//!   followed by 2x2 max pooling (the first with 6 channels and the second
//!   with 16 channels) and two fully connected layers with ReLU activation
//!   (the first with 120 units and the second with 84 units)". Used for all
//!   image datasets.
//! * [`mlp`] — §5: "a MLP with three hidden layers. The numbers of hidden
//!   units of three layers are 32, 16, and 8". Used for tabular datasets.
//! * [`vgg9`] — Figure 11's VGG-9 (six 3x3 conv layers + three FC layers),
//!   with a width multiplier so the experiment is CPU-tractable.
//! * [`resnet_lite`] — Figure 11's ResNet stand-in: a BatchNorm residual
//!   network built from `BasicBlock`s with a parameterizable width/depth
//!   (the paper uses ResNet-50; DESIGN.md documents the substitution — the
//!   phenomenon under study is BatchNorm-statistics averaging, which this
//!   network exhibits identically).

use crate::activation::{Flatten, Relu};
use crate::batchnorm::BatchNorm2d;
use crate::conv::Conv2d;
use crate::linear::Linear;
use crate::network::Network;
use crate::pool::{GlobalAvgPool, MaxPool2d};
use crate::residual::BasicBlock;
use crate::sequential::Sequential;
use niid_stats::Pcg64;
use niid_tensor::Conv2dShape;

fn conv3x3(in_c: usize, out_c: usize, h: usize, w: usize, rng: &mut Pcg64) -> Conv2d {
    Conv2d::new(
        Conv2dShape {
            in_channels: in_c,
            out_channels: out_c,
            in_h: h,
            in_w: w,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        },
        rng,
    )
}

/// The paper's LeNet-style CNN for square images of side `side`.
///
/// Requires `side >= 16` so the two conv5x5+pool2 stages stay non-empty.
pub fn lenet_cnn(in_channels: usize, side: usize, num_classes: usize, seed: u64) -> Network {
    assert!(side >= 16, "lenet_cnn: side must be >= 16, got {side}");
    let mut rng = Pcg64::new(seed);
    let c1 = Conv2dShape {
        in_channels,
        out_channels: 6,
        in_h: side,
        in_w: side,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        padding: 0,
    };
    let s1 = c1.out_h(); // side - 4
    let p1 = s1 / 2;
    let c2 = Conv2dShape {
        in_channels: 6,
        out_channels: 16,
        in_h: p1,
        in_w: p1,
        kernel_h: 5,
        kernel_w: 5,
        stride: 1,
        padding: 0,
    };
    let s2 = c2.out_h();
    let p2 = s2 / 2;
    let flat = 16 * p2 * p2;
    let net = Sequential::new()
        .push(Conv2d::new(c1, &mut rng))
        .push(Relu::new())
        .push(MaxPool2d::square(6, s1, s1, 2))
        .push(Conv2d::new(c2, &mut rng))
        .push(Relu::new())
        .push(MaxPool2d::square(16, s2, s2, 2))
        .push(Flatten::new())
        .push(Linear::new(flat, 120, &mut rng))
        .push(Relu::new())
        .push(Linear::new(120, 84, &mut rng))
        .push(Relu::new())
        .push(Linear::new(84, num_classes, &mut rng));
    Network::new(net, num_classes)
}

/// The paper's tabular MLP: hidden layers 32, 16, 8 with ReLU.
pub fn mlp(in_dim: usize, num_classes: usize, seed: u64) -> Network {
    let mut rng = Pcg64::new(seed);
    let net = Sequential::new()
        .push(Linear::new(in_dim, 32, &mut rng))
        .push(Relu::new())
        .push(Linear::new(32, 16, &mut rng))
        .push(Relu::new())
        .push(Linear::new(16, 8, &mut rng))
        .push(Relu::new())
        .push(Linear::new(8, num_classes, &mut rng));
    Network::new(net, num_classes)
}

/// VGG-9: six 3x3 convolutions in three pooled stages plus three FC
/// layers. `width` is the first-stage channel count (the canonical VGG-9
/// uses 32; small widths make federated sweeps tractable on CPU).
///
/// Requires `side` divisible by 8 and at least 8.
pub fn vgg9(
    in_channels: usize,
    side: usize,
    num_classes: usize,
    width: usize,
    seed: u64,
) -> Network {
    assert!(
        side >= 8 && side.is_multiple_of(8),
        "vgg9: side must be a multiple of 8 and >= 8, got {side}"
    );
    assert!(width >= 1, "vgg9: width must be positive");
    let mut rng = Pcg64::new(seed);
    let (w1, w2, w3) = (width, 2 * width, 4 * width);
    let s = side;
    let net = Sequential::new()
        // Stage 1.
        .push(conv3x3(in_channels, w1, s, s, &mut rng))
        .push(Relu::new())
        .push(conv3x3(w1, w1, s, s, &mut rng))
        .push(Relu::new())
        .push(MaxPool2d::square(w1, s, s, 2))
        // Stage 2.
        .push(conv3x3(w1, w2, s / 2, s / 2, &mut rng))
        .push(Relu::new())
        .push(conv3x3(w2, w2, s / 2, s / 2, &mut rng))
        .push(Relu::new())
        .push(MaxPool2d::square(w2, s / 2, s / 2, 2))
        // Stage 3.
        .push(conv3x3(w2, w3, s / 4, s / 4, &mut rng))
        .push(Relu::new())
        .push(conv3x3(w3, w3, s / 4, s / 4, &mut rng))
        .push(Relu::new())
        .push(MaxPool2d::square(w3, s / 4, s / 4, 2))
        // Classifier.
        .push(Flatten::new())
        .push(Linear::new(w3 * (s / 8) * (s / 8), 8 * width, &mut rng))
        .push(Relu::new())
        .push(Linear::new(8 * width, 8 * width, &mut rng))
        .push(Relu::new())
        .push(Linear::new(8 * width, num_classes, &mut rng));
    Network::new(net, num_classes)
}

/// A BatchNorm residual network: stem conv+BN+ReLU, three stages of
/// [`BasicBlock`]s (second and third downsample by 2), global average
/// pooling and a linear head.
///
/// `width` is the stem channel count; `blocks_per_stage` controls depth
/// (1 → 6 conv layers + stem, 3 → ResNet-20-like).
///
/// Requires `side` divisible by 4.
pub fn resnet_lite(
    in_channels: usize,
    side: usize,
    num_classes: usize,
    width: usize,
    blocks_per_stage: usize,
    seed: u64,
) -> Network {
    assert!(
        side >= 4 && side.is_multiple_of(4),
        "resnet_lite: side must be a multiple of 4 and >= 4, got {side}"
    );
    assert!(
        width >= 1 && blocks_per_stage >= 1,
        "resnet_lite: bad config"
    );
    let mut rng = Pcg64::new(seed);
    let mut net = Sequential::new()
        .push(conv3x3(in_channels, width, side, side, &mut rng))
        .push(BatchNorm2d::new(width))
        .push(Relu::new());
    let mut h = side;
    let mut c = width;
    for (stage, stride) in [(0usize, 1usize), (1, 2), (2, 2)] {
        let out_c = width << stage;
        for b in 0..blocks_per_stage {
            let s = if b == 0 { stride } else { 1 };
            let blk = BasicBlock::new(c, out_c, h, h, s, &mut rng);
            h = blk.out_hw().0;
            c = out_c;
            net = net.push(blk);
        }
    }
    let net = net
        .push(GlobalAvgPool::new(c, h, h))
        .push(Flatten::new())
        .push(Linear::new(c, num_classes, &mut rng));
    Network::new(net, num_classes)
}

/// Declarative model selection for experiment configs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpec {
    /// The paper's LeNet-style CNN.
    LenetCnn {
        /// Image channels.
        in_channels: usize,
        /// Image side length.
        side: usize,
    },
    /// The paper's 32/16/8 tabular MLP.
    Mlp {
        /// Input feature dimension.
        in_dim: usize,
    },
    /// VGG-9 with a width multiplier.
    Vgg9 {
        /// Image channels.
        in_channels: usize,
        /// Image side length (multiple of 8).
        side: usize,
        /// First-stage channel count.
        width: usize,
    },
    /// BatchNorm residual network.
    ResNetLite {
        /// Image channels.
        in_channels: usize,
        /// Image side length (multiple of 4).
        side: usize,
        /// Stem channel count.
        width: usize,
        /// Blocks per stage.
        blocks_per_stage: usize,
    },
}

impl ModelSpec {
    /// Per-sample input shape expected by the model.
    pub fn input_shape(&self) -> Vec<usize> {
        match *self {
            ModelSpec::LenetCnn { in_channels, side }
            | ModelSpec::Vgg9 {
                in_channels, side, ..
            }
            | ModelSpec::ResNetLite {
                in_channels, side, ..
            } => vec![in_channels, side, side],
            ModelSpec::Mlp { in_dim } => vec![in_dim],
        }
    }

    /// Instantiate the model with the given head size and seed.
    pub fn build(&self, num_classes: usize, seed: u64) -> Network {
        match *self {
            ModelSpec::LenetCnn { in_channels, side } => {
                lenet_cnn(in_channels, side, num_classes, seed)
            }
            ModelSpec::Mlp { in_dim } => mlp(in_dim, num_classes, seed),
            ModelSpec::Vgg9 {
                in_channels,
                side,
                width,
            } => vgg9(in_channels, side, num_classes, width, seed),
            ModelSpec::ResNetLite {
                in_channels,
                side,
                width,
                blocks_per_stage,
            } => resnet_lite(
                in_channels,
                side,
                num_classes,
                width,
                blocks_per_stage,
                seed,
            ),
        }
    }

    /// True when the architecture contains BatchNorm layers (and therefore
    /// has non-empty buffers whose aggregation Finding 7 studies).
    pub fn has_batchnorm(&self) -> bool {
        matches!(self, ModelSpec::ResNetLite { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Phase;
    use niid_tensor::Tensor;

    #[test]
    fn lenet_shapes_28() {
        let mut net = lenet_cnn(1, 28, 10, 0);
        // 28 -> 24 -> 12 -> 8 -> 4 ; flat = 16*16 = 256.
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let y = net.forward(x, Phase::Eval);
        assert_eq!(y.shape(), &[2, 10]);
        // Conv params: 6*(1*25)+6 + 16*(6*25)+16 ; FC: 256*120+120 + ...
        let expected =
            (6 * 25 + 6) + (16 * 150 + 16) + (256 * 120 + 120) + (120 * 84 + 84) + (84 * 10 + 10);
        assert_eq!(net.param_count(), expected);
    }

    #[test]
    fn lenet_shapes_16_and_32() {
        let mut n16 = lenet_cnn(1, 16, 10, 0);
        assert_eq!(
            n16.forward(Tensor::zeros(&[1, 1, 16, 16]), Phase::Eval)
                .shape(),
            &[1, 10]
        );
        let mut n32 = lenet_cnn(3, 32, 10, 0);
        assert_eq!(
            n32.forward(Tensor::zeros(&[1, 3, 32, 32]), Phase::Eval)
                .shape(),
            &[1, 10]
        );
    }

    #[test]
    fn mlp_matches_paper_hidden_sizes() {
        let net = mlp(123, 2, 0);
        let expected = (123 * 32 + 32) + (32 * 16 + 16) + (16 * 8 + 8) + (8 * 2 + 2);
        assert_eq!(net.param_count(), expected);
        let mut net = net;
        let y = net.forward(Tensor::zeros(&[4, 123]), Phase::Eval);
        assert_eq!(y.shape(), &[4, 2]);
    }

    #[test]
    fn vgg9_forward_and_backward() {
        let mut net = vgg9(3, 16, 10, 4, 0);
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = net.forward(x, Phase::Eval);
        assert_eq!(y.shape(), &[2, 10]);
        assert_eq!(net.buffer_count(), 0, "VGG-9 has no BatchNorm");
        let loss = net.forward_backward(Tensor::zeros(&[2, 3, 16, 16]), &[0, 1]);
        assert!(loss.is_finite());
    }

    #[test]
    fn resnet_lite_has_buffers_and_trains() {
        let mut net = resnet_lite(3, 16, 10, 4, 1, 0);
        assert!(net.buffer_count() > 0, "ResNet must expose BN buffers");
        let x = Tensor::zeros(&[4, 3, 16, 16]);
        let y = net.forward(x, Phase::Eval);
        assert_eq!(y.shape(), &[4, 10]);
        let loss = net.forward_backward(Tensor::zeros(&[4, 3, 16, 16]), &[0, 1, 2, 3]);
        assert!(loss.is_finite());
        assert!(net.grads().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn model_spec_builds_consistent_input_shapes() {
        let specs = [
            ModelSpec::LenetCnn {
                in_channels: 1,
                side: 16,
            },
            ModelSpec::Mlp { in_dim: 40 },
            ModelSpec::Vgg9 {
                in_channels: 3,
                side: 16,
                width: 2,
            },
            ModelSpec::ResNetLite {
                in_channels: 3,
                side: 16,
                width: 4,
                blocks_per_stage: 1,
            },
        ];
        for spec in specs {
            let mut net = spec.build(5, 11);
            let mut shape = vec![2];
            shape.extend(spec.input_shape());
            let y = net.forward(Tensor::zeros(&shape), Phase::Eval);
            assert_eq!(y.shape(), &[2, 5], "spec {spec:?}");
            assert_eq!(spec.has_batchnorm(), net.buffer_count() > 0);
        }
    }

    #[test]
    fn same_seed_same_model() {
        let a = lenet_cnn(1, 16, 10, 123);
        let b = lenet_cnn(1, 16, 10, 123);
        let c = lenet_cnn(1, 16, 10, 124);
        assert_eq!(a.params(), b.params());
        assert_ne!(a.params(), c.params());
    }

    /// The arena *is* the layout: `state_layout()` spans tile `params()` /
    /// `grads()` / `buffers()` exactly, and every leaf reads and writes
    /// its own span of them.
    #[test]
    fn arena_is_the_state_layout_for_every_model() {
        let specs = [
            ModelSpec::Mlp { in_dim: 7 },
            ModelSpec::LenetCnn {
                in_channels: 1,
                side: 16,
            },
            ModelSpec::Vgg9 {
                in_channels: 3,
                side: 16,
                width: 2,
            },
            ModelSpec::ResNetLite {
                in_channels: 3,
                side: 16,
                width: 4,
                blocks_per_stage: 1,
            },
        ];
        for spec in specs {
            let mut net = spec.build(5, 11);
            let layout = net.state_layout();
            let params: usize = layout.iter().map(|s| s.params).sum();
            let buffers: usize = layout.iter().map(|s| s.buffers).sum();
            assert_eq!(params, net.params().len(), "spec {spec:?}");
            assert_eq!(params, net.grads().len(), "spec {spec:?}");
            assert_eq!(buffers, net.buffers().len(), "spec {spec:?}");
            assert!(
                layout.iter().all(|s| s.params + s.buffers > 0),
                "stateless leaves must be omitted"
            );
            let bn_leaves = layout.iter().filter(|s| s.buffers > 0).count();
            assert_eq!(spec.has_batchnorm(), bn_leaves > 0, "spec {spec:?}");
            assert_eq!(net.params_flat(), net.params());

            // One memcpy in, the same bits out.
            let mut rng = Pcg64::new(5);
            let v = Tensor::randn(&[params], 0.3, &mut rng).into_vec();
            net.set_params_flat(&v);
            let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(net.params()), bits(&v), "spec {spec:?}");

            let mut shape = vec![4];
            shape.extend(spec.input_shape());
            let before = net.buffers().to_vec();
            net.forward_backward(Tensor::randn(&shape, 1.0, &mut rng), &[0, 1, 2, 3]);
            let (mut p0, mut b0) = (0, 0);
            for span in &layout {
                let tag = format!("{spec:?} {}", span.name);
                let grads = &net.grads()[p0..p0 + span.params];
                assert!(
                    span.params == 0 || grads.iter().any(|&g| g != 0.0),
                    "no gradient: {tag}"
                );
                // BatchNorm buffers are [running_mean | running_var], and
                // a training forward moves both.
                let (now, was) = (&net.buffers()[b0..], &before[b0..]);
                assert!(
                    (0..span.buffers).all(|i| now[i] != was[i]),
                    "stale running statistics: {tag}"
                );
                assert!(span.buffers == 0 || span.name.ends_with("batchnorm2d"));
                p0 += span.params;
                b0 += span.buffers;
            }
            net.zero_grads();
            assert!(net.grads().iter().all(|&g| g == 0.0), "spec {spec:?}");
        }
    }
}
