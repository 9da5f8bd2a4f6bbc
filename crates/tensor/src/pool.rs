//! Max pooling with argmax caching for the backward pass.

use crate::tensor::Tensor;

/// Geometry of a 2-D max-pooling layer over a fixed input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool2dShape {
    /// Channels (unchanged by pooling).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Pooling window height.
    pub kernel_h: usize,
    /// Pooling window width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
}

impl Pool2dShape {
    /// Square window with stride equal to the window (the common `2x2/2`).
    pub fn square(channels: usize, in_h: usize, in_w: usize, k: usize) -> Self {
        Self {
            channels,
            in_h,
            in_w,
            kernel_h: k,
            kernel_w: k,
            stride: k,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        assert!(
            self.in_h >= self.kernel_h,
            "pool window taller than input ({} > {})",
            self.kernel_h,
            self.in_h
        );
        (self.in_h - self.kernel_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        assert!(
            self.in_w >= self.kernel_w,
            "pool window wider than input ({} > {})",
            self.kernel_w,
            self.in_w
        );
        (self.in_w - self.kernel_w) / self.stride + 1
    }
}

/// Max-pool a batch `[N, C, H, W]`, returning the pooled output
/// `[N, C, oh, ow]` and the flat argmax index (into the input tensor) of
/// every output element, for use by [`maxpool2d_backward`].
pub fn maxpool2d(input: &Tensor, s: &Pool2dShape) -> (Tensor, Vec<u32>) {
    assert_eq!(input.ndim(), 4, "maxpool2d: input must be NCHW");
    let n = input.shape()[0];
    assert_eq!(
        &input.shape()[1..],
        &[s.channels, s.in_h, s.in_w],
        "maxpool2d: input shape {:?} vs geometry {:?}",
        input.shape(),
        s
    );
    assert!(s.stride > 0, "pool stride must be positive");
    let (oh, ow) = (s.out_h(), s.out_w());
    let xs = input.as_slice();
    if (s.kernel_h, s.kernel_w, s.stride) == (2, 2, 2) {
        let (out, arg) = maxpool_2x2(xs, s, n * s.channels);
        return (Tensor::from_vec(out, &[n, s.channels, oh, ow]), arg);
    }
    let mut out = Vec::with_capacity(n * s.channels * oh * ow);
    let mut arg = Vec::with_capacity(out.capacity());
    for i in 0..n {
        for c in 0..s.channels {
            let plane_off = (i * s.channels + c) * s.in_h * s.in_w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let y0 = oy * s.stride;
                    let x0 = ox * s.stride;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..s.kernel_h {
                        let row_off = plane_off + (y0 + ky) * s.in_w + x0;
                        for kx in 0..s.kernel_w {
                            let v = xs[row_off + kx];
                            if v > best {
                                best = v;
                                best_idx = row_off + kx;
                            }
                        }
                    }
                    out.push(best);
                    arg.push(best_idx as u32);
                }
            }
        }
    }
    (Tensor::from_vec(out, &[n, s.channels, oh, ow]), arg)
}

/// The `2x2/2` window every model in the paper pools with, over
/// `planes` contiguous `[in_h, in_w]` planes: the general loop's exact
/// comparison sequence (row-major window order, strict `>` from `-∞`, so
/// the first maximum wins and a window with nothing above `-∞` — all NaN
/// — keeps `-∞` and flat index 0), unrolled over two row slices.
fn maxpool_2x2(xs: &[f32], s: &Pool2dShape, planes: usize) -> (Vec<f32>, Vec<u32>) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let mut out = vec![0.0f32; planes * oh * ow];
    let mut arg = vec![0u32; out.len()];
    let rows = out.chunks_exact_mut(ow).zip(arg.chunks_exact_mut(ow));
    for (r, (out_row, arg_row)) in rows.enumerate() {
        let (plane, oy) = (r / oh, r % oh);
        let top_off = plane * s.in_h * s.in_w + 2 * oy * s.in_w;
        let top = xs[top_off..top_off + 2 * ow].chunks_exact(2);
        let bot = xs[top_off + s.in_w..top_off + s.in_w + 2 * ow].chunks_exact(2);
        let windows = top.zip(bot).zip(out_row.iter_mut().zip(arg_row));
        for (ox, ((t, b), (o, a))) in windows.enumerate() {
            let base = top_off + 2 * ox;
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0usize;
            for (v, idx) in [
                (t[0], base),
                (t[1], base + 1),
                (b[0], base + s.in_w),
                (b[1], base + s.in_w + 1),
            ] {
                if v > best {
                    best = v;
                    best_idx = idx;
                }
            }
            *o = best;
            *a = best_idx as u32;
        }
    }
    (out, arg)
}

/// Backward of max pooling: route each output gradient to the input element
/// that won the max.
pub fn maxpool2d_backward(grad_out: &Tensor, argmax: &[u32], input_shape: &[usize]) -> Tensor {
    assert_eq!(
        grad_out.numel(),
        argmax.len(),
        "maxpool2d_backward: grad/argmax length mismatch"
    );
    let mut grad_input = Tensor::zeros(input_shape);
    let gi = grad_input.as_mut_slice();
    for (&g, &idx) in grad_out.as_slice().iter().zip(argmax) {
        gi[idx as usize] += g;
    }
    grad_input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_pool_known_values() {
        let s = Pool2dShape::square(1, 4, 4, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let (y, arg) = maxpool2d(&x, &s);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn pool_multi_channel_batches() {
        let s = Pool2dShape::square(2, 2, 2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, // n0 c0
                8.0, 7.0, 6.0, 5.0, // n0 c1
                -1.0, -2.0, -3.0, -4.0, // n1 c0
                0.0, 0.0, 0.0, 9.0, // n1 c1
            ],
            &[2, 2, 2, 2],
        );
        let (y, _) = maxpool2d(&x, &s);
        assert_eq!(y.shape(), &[2, 2, 1, 1]);
        assert_eq!(y.as_slice(), &[4.0, 8.0, -1.0, 9.0]);
    }

    #[test]
    fn pool_backward_routes_to_argmax() {
        let s = Pool2dShape::square(1, 4, 4, 2);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let (y, arg) = maxpool2d(&x, &s);
        let gy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], y.shape());
        let gx = maxpool2d_backward(&gy, &arg, x.shape());
        let mut expected = [0.0f32; 16];
        expected[5] = 1.0;
        expected[7] = 2.0;
        expected[13] = 3.0;
        expected[15] = 4.0;
        assert_eq!(gx.as_slice(), &expected[..]);
    }

    #[test]
    fn overlapping_windows_accumulate_gradient() {
        let s = Pool2dShape {
            channels: 1,
            in_h: 3,
            in_w: 3,
            kernel_h: 2,
            kernel_w: 2,
            stride: 1,
        };
        // Center (idx 4) is the max of all four overlapping windows.
        let x = Tensor::from_vec(
            vec![0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0],
            &[1, 1, 3, 3],
        );
        let (y, arg) = maxpool2d(&x, &s);
        assert!(y.as_slice().iter().all(|&v| v == 9.0));
        let gy = Tensor::ones(y.shape());
        let gx = maxpool2d_backward(&gy, &arg, x.shape());
        assert_eq!(gx.as_slice()[4], 4.0);
        assert_eq!(gx.sum(), 4.0);
    }

    #[test]
    fn pool_handles_negative_inputs() {
        let s = Pool2dShape::square(1, 2, 2, 2);
        let x = Tensor::from_vec(vec![-5.0, -3.0, -9.0, -4.0], &[1, 1, 2, 2]);
        let (y, _) = maxpool2d(&x, &s);
        assert_eq!(y.as_slice(), &[-3.0]);
    }

    /// The unrolled `2x2/2` path against the general loop's comparison
    /// sequence, written out: outputs and argmax must agree exactly,
    /// including ties, NaN, ±∞ and odd extents whose last row/column no
    /// window covers.
    #[test]
    fn two_by_two_fast_path_matches_reference_exactly() {
        let mut rng = niid_stats::Pcg64::new(0x9001);
        for &(h, w) in &[(2usize, 2usize), (4, 6), (5, 7), (12, 12), (3, 9)] {
            let s = Pool2dShape::square(3, h, w, 2);
            let mut x = Tensor::randn(&[2, 3, h, w], 1.0, &mut rng);
            {
                // Ties (first max must win), an all-NaN window, a NaN
                // beside finite values, and infinities.
                let xs = x.as_mut_slice();
                xs[0] = 1.5;
                xs[1] = 1.5;
                xs[w] = 1.5;
                xs[w + 1] = 1.5;
                let p1 = h * w;
                for i in [p1, p1 + 1, p1 + w, p1 + w + 1] {
                    xs[i] = f32::NAN;
                }
                let p2 = 2 * h * w;
                xs[p2] = f32::NAN;
                xs[p2 + 1] = f32::NEG_INFINITY;
                xs[p2 + w] = f32::INFINITY;
            }
            let (y, arg) = maxpool2d(&x, &s);
            let xs = x.as_slice();
            let (oh, ow) = (s.out_h(), s.out_w());
            let mut k = 0;
            for plane in 0..6 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..2 {
                            for kx in 0..2 {
                                let idx = plane * h * w + (2 * oy + ky) * w + 2 * ox + kx;
                                if xs[idx] > best {
                                    best = xs[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        assert_eq!(y.as_slice()[k].to_bits(), best.to_bits(), "{h}x{w} out {k}");
                        assert_eq!(arg[k] as usize, best_idx, "{h}x{w} argmax {k}");
                        k += 1;
                    }
                }
            }
            assert_eq!(k, arg.len());
        }
    }

    #[test]
    #[should_panic(expected = "taller than input")]
    fn oversized_window_panics() {
        let s = Pool2dShape::square(1, 2, 2, 3);
        let _ = maxpool2d(&Tensor::zeros(&[1, 1, 2, 2]), &s);
    }
}
