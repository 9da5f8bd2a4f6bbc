//! Residual blocks (ResNet "BasicBlock") with batch normalization.
//!
//! `y = ReLU(BN2(Conv2(ReLU(BN1(Conv1(x))))) + shortcut(x))` where the
//! shortcut is identity when shapes match and a 1x1 strided
//! convolution + BN otherwise (the standard projection shortcut).

use crate::arena::{Arena, State};
use crate::batchnorm::BatchNorm2d;
use crate::conv::Conv2d;
use crate::layer::{Layer, Phase};
use niid_stats::Pcg64;
use niid_tensor::{relu, relu_backward, Conv2dShape, Tensor};

/// A two-convolution residual block.
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    // Caches for the two ReLUs and the residual add.
    cached_mid: Option<Tensor>,     // input to the inner ReLU (post-bn1)
    cached_pre_out: Option<Tensor>, // input to the final ReLU (sum)
}

impl BasicBlock {
    /// Build a block taking `[N, in_c, h, w]` to
    /// `[N, out_c, h/stride, w/stride]` with 3x3 kernels.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        h: usize,
        w: usize,
        stride: usize,
        rng: &mut Pcg64,
    ) -> Self {
        let conv1_shape = Conv2dShape {
            in_channels,
            out_channels,
            in_h: h,
            in_w: w,
            kernel_h: 3,
            kernel_w: 3,
            stride,
            padding: 1,
        };
        let (oh, ow) = (conv1_shape.out_h(), conv1_shape.out_w());
        let conv2_shape = Conv2dShape {
            in_channels: out_channels,
            out_channels,
            in_h: oh,
            in_w: ow,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
        };
        let shortcut = if stride != 1 || in_channels != out_channels {
            let proj = Conv2dShape {
                in_channels,
                out_channels,
                in_h: h,
                in_w: w,
                kernel_h: 1,
                kernel_w: 1,
                stride,
                padding: 0,
            };
            Some((Conv2d::new(proj, rng), BatchNorm2d::new(out_channels)))
        } else {
            None
        };
        Self {
            conv1: Conv2d::new(conv1_shape, rng),
            bn1: BatchNorm2d::new(out_channels),
            conv2: Conv2d::new(conv2_shape, rng),
            bn2: BatchNorm2d::new(out_channels),
            shortcut,
            cached_mid: None,
            cached_pre_out: None,
        }
    }

    /// Output spatial size of the block.
    pub fn out_hw(&self) -> (usize, usize) {
        let g = self.conv2.geometry();
        (g.out_h(), g.out_w())
    }
}

impl Layer for BasicBlock {
    fn name(&self) -> &'static str {
        "basic_block"
    }

    fn forward(&mut self, x: Tensor, phase: Phase, state: &mut State<'_>) -> Tensor {
        let residual = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x.clone(), phase, state);
                bn.forward(s, phase, state)
            }
            None => x.clone(),
        };
        let mid = self.conv1.forward(x, phase, state);
        let mid = self.bn1.forward(mid, phase, state);
        let mid_act = relu(&mid);
        if phase == Phase::Train {
            self.cached_mid = Some(mid);
        }
        let main = self.conv2.forward(mid_act, phase, state);
        let main = self.bn2.forward(main, phase, state);
        let pre_out = main.add(&residual);
        let out = relu(&pre_out);
        if phase == Phase::Train {
            self.cached_pre_out = Some(pre_out);
        }
        out
    }

    fn backward(&mut self, grad_out: Tensor, state: &mut State<'_>) -> Tensor {
        let pre_out = self
            .cached_pre_out
            .take()
            .expect("BasicBlock::backward without cached forward");
        let g_sum = relu_backward(&grad_out, &pre_out);

        // Main branch.
        let g_main = self.bn2.backward(g_sum.clone(), state);
        let g_main = self.conv2.backward(g_main, state);
        let mid = self
            .cached_mid
            .take()
            .expect("BasicBlock: missing mid cache");
        let g_mid = self.bn1.backward(relu_backward(&g_main, &mid), state);
        let g_input_main = self.conv1.backward(g_mid, state);

        // Shortcut branch.
        let g_input_short = match &mut self.shortcut {
            Some((conv, bn)) => {
                let g = bn.backward(g_sum, state);
                conv.backward(g, state)
            }
            None => g_sum,
        };
        g_input_main.add(&g_input_short)
    }

    // BatchNorm is the only buffer owner, so this one order fixes both
    // layouts: params as listed, buffers as bn1, bn2, shortcut-bn.
    fn bind(&mut self, prefix: &str, arena: &mut Arena) {
        self.conv1.bind(&format!("{prefix}conv1/"), arena);
        self.bn1.bind(&format!("{prefix}bn1/"), arena);
        self.conv2.bind(&format!("{prefix}conv2/"), arena);
        self.bn2.bind(&format!("{prefix}bn2/"), arena);
        if let Some((c, b)) = &mut self.shortcut {
            c.bind(&format!("{prefix}shortcut/"), arena);
            b.bind(&format!("{prefix}shortcut/"), arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(
        in_c: usize,
        out_c: usize,
        hw: usize,
        stride: usize,
        seed: u64,
    ) -> (BasicBlock, Arena, Pcg64) {
        let mut rng = Pcg64::new(seed);
        let mut blk = BasicBlock::new(in_c, out_c, hw, hw, stride, &mut rng);
        let arena = Arena::bind(&mut blk);
        (blk, arena, rng)
    }

    #[test]
    fn identity_block_shapes() {
        let (mut blk, mut arena, mut rng) = bound(4, 4, 8, 1, 40);
        assert!(
            blk.shortcut.is_none(),
            "same-shape block uses identity shortcut"
        );
        let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let y = blk.forward(x, Phase::Train, &mut arena.state());
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        let gx = blk.backward(Tensor::ones(y.shape()), &mut arena.state());
        assert_eq!(gx.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn projection_block_shapes() {
        let (mut blk, mut arena, mut rng) = bound(4, 8, 8, 2, 41);
        assert!(blk.shortcut.is_some(), "stride-2 block needs projection");
        assert_eq!(blk.out_hw(), (4, 4));
        let x = Tensor::randn(&[2, 4, 8, 8], 1.0, &mut rng);
        let y = blk.forward(x, Phase::Train, &mut arena.state());
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
        let gx = blk.backward(Tensor::ones(y.shape()), &mut arena.state());
        assert_eq!(gx.shape(), &[2, 4, 8, 8]);
    }

    #[test]
    fn same_state_same_function_across_instances() {
        let (mut a, mut arena_a, mut rng) = bound(2, 4, 6, 2, 42);
        let x = Tensor::randn(&[1, 2, 6, 6], 1.0, &mut rng);
        // Train once so BN buffers move off their defaults.
        let _ = a.forward(x.clone(), Phase::Train, &mut arena_a.state());
        let ya = a.forward(x.clone(), Phase::Eval, &mut arena_a.state());
        // conv1, bn1, conv2, bn2, shortcut conv, shortcut bn.
        assert_eq!(arena_a.layout.len(), 6);
        assert_eq!(arena_a.buffers.len(), 3 * 2 * 4);

        let (mut b, mut arena_b, _) = bound(2, 4, 6, 2, 4242);
        arena_b.params.copy_from_slice(&arena_a.params);
        arena_b.buffers.copy_from_slice(&arena_a.buffers);
        let yb = b.forward(x, Phase::Eval, &mut arena_b.state());
        assert!(ya.max_abs_diff(&yb) < 1e-6);
    }

    #[test]
    fn gradient_flows_through_both_branches() {
        let (mut blk, mut arena, mut rng) = bound(2, 2, 4, 1, 43);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = blk.forward(x, Phase::Train, &mut arena.state());
        let gx = blk.backward(Tensor::ones(y.shape()), &mut arena.state());
        assert!(gx.sq_norm() > 0.0, "no gradient reached the input");
        assert!(
            arena.grads.iter().any(|&v| v != 0.0),
            "no parameter gradient"
        );
    }
}
