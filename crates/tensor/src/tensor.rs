//! The core [`Tensor`] type: a row-major, owned, dense f32 array.

use crate::simd;
use niid_stats::{sample_standard_normal, Pcg64};
use std::fmt;

/// A dense, row-major, owned f32 tensor with an explicit shape.
///
/// Shape invariant: `data.len() == shape.iter().product()`. All constructors
/// and mutators preserve it; shape mismatches in operations panic with a
/// descriptive message (they are programmer errors, as in `ndarray`).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ... {} values])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

fn checked_numel(shape: &[usize]) -> usize {
    shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .unwrap_or_else(|| {
            panic!("tensor shape {shape:?} overflows usize");
        })
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; checked_numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; checked_numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Build from a flat vector.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel = checked_numel(shape);
        assert_eq!(
            data.len(),
            numel,
            "from_vec: data length {} does not match shape {:?} ({} elements)",
            data.len(),
            shape,
            numel
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Standard-normal initialized tensor scaled by `std`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut Pcg64) -> Self {
        let numel = checked_numel(shape);
        let data = (0..numel)
            .map(|_| sample_standard_normal(rng) as f32 * std)
            .collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Uniform in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Pcg64) -> Self {
        assert!(lo <= hi, "rand_uniform: lo {lo} > hi {hi}");
        let numel = checked_numel(shape);
        let data = (0..numel)
            .map(|_| lo + (hi - lo) * rng.next_f32())
            .collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the flat data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshape in place to a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let numel = checked_numel(shape);
        assert_eq!(
            self.data.len(),
            numel,
            "reshape: cannot view {:?} ({} elements) as {:?} ({} elements)",
            self.shape,
            self.data.len(),
            shape,
            numel
        );
        self.shape = shape.to_vec();
        self
    }

    /// Value at a 2-D position. Only valid for rank-2 tensors.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.ndim(), 2, "at2 on rank-{} tensor", self.ndim());
        self.data[r * self.shape[1] + c]
    }

    /// Mutable value at a 2-D position. Only valid for rank-2 tensors.
    #[inline]
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.ndim(), 2, "at2_mut on rank-{} tensor", self.ndim());
        let cols = self.shape[1];
        &mut self.data[r * cols + c]
    }

    /// Borrow row `r` of a rank-2 tensor.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() on rank-{} tensor", self.ndim());
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Copy the rows at `indices` of a rank-2 tensor into a new tensor.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows on rank-{} tensor", self.ndim());
        let cols = self.shape[1];
        let mut out = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            assert!(
                i < self.shape[0],
                "gather_rows: row {i} out of {}",
                self.shape[0]
            );
            out.extend_from_slice(&self.data[i * cols..(i + 1) * cols]);
        }
        Tensor::from_vec(out, &[indices.len(), cols])
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Elementwise addition into a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Elementwise subtraction into a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "sub");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Elementwise (Hadamard) product into a new tensor.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += other`. Dispatches through [`crate::simd`]
    /// (bit-identical on every kernel).
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other, "add_assign");
        simd::add_assign(simd::active_kernel(), &mut self.data, &other.data);
    }

    /// In-place `self += alpha * other` (axpy). Dispatches through
    /// [`crate::simd`] (AVX2 fuses the multiply-add; tolerance-bounded
    /// vs scalar).
    pub fn scaled_add_assign(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "scaled_add_assign");
        simd::axpy(simd::active_kernel(), &mut self.data, alpha, &other.data);
    }

    /// In-place scalar multiply. Dispatches through [`crate::simd`]
    /// (bit-identical on every kernel).
    pub fn scale_assign(&mut self, alpha: f32) {
        simd::scale_assign(simd::active_kernel(), &mut self.data, alpha);
    }

    /// Scalar multiply into a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Scalar add into a new tensor.
    pub fn add_scalar(&self, alpha: f32) -> Tensor {
        let data = self.data.iter().map(|a| a + alpha).collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Apply a function to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Fill with zeros, keeping the allocation.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&a| a as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Squared L2 norm (f64 accumulator).
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&a| (a as f64) * (a as f64)).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.sq_norm().sqrt()
    }

    /// Column-wise sum of a rank-2 tensor: `[rows, cols] -> [cols]`.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "sum_axis0 on rank-{} tensor", self.ndim());
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let kern = simd::active_kernel();
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            let row = &self.data[r * cols..(r + 1) * cols];
            simd::add_assign(kern, &mut out, row);
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Broadcast-add a `[cols]` bias onto each row of a `[rows, cols]`
    /// tensor, in place.
    pub fn add_row_broadcast(&mut self, bias: &Tensor) {
        assert_eq!(self.ndim(), 2, "add_row_broadcast on rank-{}", self.ndim());
        assert_eq!(
            bias.numel(),
            self.shape[1],
            "add_row_broadcast: bias length {} vs row width {}",
            bias.numel(),
            self.shape[1]
        );
        let cols = self.shape[1];
        let kern = simd::active_kernel();
        for row in self.data.chunks_exact_mut(cols) {
            simd::add_assign(kern, row, &bias.data);
        }
    }

    /// Transpose a rank-2 tensor into a new tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose2 on rank-{} tensor", self.ndim());
        let (rows, cols) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|a| !a.is_finite())
    }

    /// Maximum absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let o = Tensor::ones(&[4]);
        assert_eq!(o.sum(), 4.0);

        let f = Tensor::full(&[2, 2], 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    fn scalar_shape_is_unit() {
        let s = Tensor::zeros(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.ndim(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "cannot view")]
    fn reshape_checks_numel() {
        Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.scaled_add_assign(0.5, &b);
        assert_eq!(a.as_slice(), &[16.0, 32.0]);
        a.scale_assign(0.25);
        assert_eq!(a.as_slice(), &[4.0, 8.0]);
        a.zero_();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_checks_shapes() {
        let _ = Tensor::zeros(&[2]).add(&Tensor::zeros(&[3]));
    }

    #[test]
    fn row_and_gather() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        let g = t.gather_rows(&[2, 0]);
        assert_eq!(g.shape(), &[2, 2]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }

    #[test]
    fn sum_axis0_and_broadcast() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum_axis0().as_slice(), &[4.0, 6.0]);
        let mut u = t.clone();
        u.add_row_broadcast(&Tensor::from_vec(vec![10.0, 20.0], &[2]));
        assert_eq!(u.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at2(0, 1), t.at2(1, 0));
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert_eq!(t.sq_norm(), 25.0);
        assert_eq!(t.norm(), 5.0);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = Pcg64::new(42);
        let t = Tensor::randn(&[100, 100], 0.5, &mut rng);
        let mean = t.mean();
        assert!(mean.abs() < 0.02, "mean {mean}");
        let std = (t.sq_norm() / t.numel() as f64 - mean * mean).sqrt();
        assert!((std - 0.5).abs() < 0.02, "std {std}");
    }

    #[test]
    fn rand_uniform_bounds() {
        let mut rng = Pcg64::new(7);
        let t = Tensor::rand_uniform(&[1000], -1.0, 1.0, &mut rng);
        assert!(t.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn non_finite_detector() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.5, 1.0], &[2]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
