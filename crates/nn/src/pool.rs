//! Max-pooling layer.

use crate::arena::State;
use crate::layer::{Layer, Phase};
use niid_tensor::{maxpool2d, maxpool2d_backward, Pool2dShape, Tensor};

/// 2-D max pooling over NCHW activations with fixed geometry.
pub struct MaxPool2d {
    shape: Pool2dShape,
    cached_argmax: Option<Vec<u32>>,
    cached_input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Create a pooling layer for the given geometry.
    pub fn new(shape: Pool2dShape) -> Self {
        Self {
            shape,
            cached_argmax: None,
            cached_input_shape: Vec::new(),
        }
    }

    /// The common square window with stride = window size.
    pub fn square(channels: usize, in_h: usize, in_w: usize, k: usize) -> Self {
        Self::new(Pool2dShape::square(channels, in_h, in_w, k))
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, x: Tensor, phase: Phase, _state: &mut State<'_>) -> Tensor {
        let input_shape = x.shape().to_vec();
        let (y, arg) = maxpool2d(&x, &self.shape);
        if phase == Phase::Train {
            self.cached_argmax = Some(arg);
            self.cached_input_shape = input_shape;
        }
        y
    }

    fn backward(&mut self, grad_out: Tensor, _state: &mut State<'_>) -> Tensor {
        let arg = self
            .cached_argmax
            .take()
            .expect("MaxPool2d::backward without cached forward");
        maxpool2d_backward(&grad_out, &arg, &self.cached_input_shape)
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C, 1, 1]` by averaging all
/// spatial positions per channel. The backward pass spreads each output
/// gradient uniformly over its `H*W` inputs.
pub struct GlobalAvgPool {
    channels: usize,
    in_h: usize,
    in_w: usize,
}

impl GlobalAvgPool {
    /// Create for a fixed input geometry.
    pub fn new(channels: usize, in_h: usize, in_w: usize) -> Self {
        assert!(
            channels > 0 && in_h > 0 && in_w > 0,
            "GlobalAvgPool: empty geometry"
        );
        Self {
            channels,
            in_h,
            in_w,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn forward(&mut self, x: Tensor, _phase: Phase, _state: &mut State<'_>) -> Tensor {
        assert_eq!(x.ndim(), 4, "GlobalAvgPool: input must be NCHW");
        assert_eq!(
            &x.shape()[1..],
            &[self.channels, self.in_h, self.in_w],
            "GlobalAvgPool: input {:?} vs geometry [{}, {}, {}]",
            x.shape(),
            self.channels,
            self.in_h,
            self.in_w
        );
        let n = x.shape()[0];
        let spatial = self.in_h * self.in_w;
        let inv = 1.0 / spatial as f32;
        let mut out = Vec::with_capacity(n * self.channels);
        for plane in x.as_slice().chunks_exact(spatial) {
            out.push(plane.iter().sum::<f32>() * inv);
        }
        Tensor::from_vec(out, &[n, self.channels, 1, 1])
    }

    fn backward(&mut self, grad_out: Tensor, _state: &mut State<'_>) -> Tensor {
        let n = grad_out.shape()[0];
        let spatial = self.in_h * self.in_w;
        let inv = 1.0 / spatial as f32;
        let mut gx = Vec::with_capacity(n * self.channels * spatial);
        for &g in grad_out.as_slice() {
            let v = g * inv;
            gx.extend(std::iter::repeat_n(v, spatial));
        }
        Tensor::from_vec(gx, &[n, self.channels, self.in_h, self.in_w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;

    #[test]
    fn global_avg_pool_means_and_backward() {
        let mut p = GlobalAvgPool::new(2, 2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
            &[1, 2, 2, 2],
        );
        let y = p.forward(x, Phase::Train, &mut Arena::default().state());
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let gx = p.backward(
            Tensor::from_vec(vec![4.0, 8.0], &[1, 2, 1, 1]),
            &mut Arena::default().state(),
        );
        assert_eq!(gx.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut p = MaxPool2d::square(2, 4, 4, 2);
        let x = Tensor::from_vec((0..32).map(|v| v as f32).collect(), &[1, 2, 4, 4]);
        let y = p.forward(x, Phase::Train, &mut Arena::default().state());
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        let gx = p.backward(Tensor::ones(y.shape()), &mut Arena::default().state());
        assert_eq!(gx.shape(), &[1, 2, 4, 4]);
        assert_eq!(gx.sum(), 8.0, "one unit of gradient per output element");
    }

    #[test]
    #[should_panic(expected = "without cached forward")]
    fn backward_requires_forward() {
        let mut p = MaxPool2d::square(1, 2, 2, 2);
        p.backward(Tensor::ones(&[1, 1, 1, 1]), &mut Arena::default().state());
    }
}
