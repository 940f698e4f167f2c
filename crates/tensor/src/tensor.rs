//! The core dense tensor type.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, `f32` tensor of arbitrary rank.
///
/// The tensor owns its storage. Cloning copies the buffer; the FedTiny
/// simulator relies on cheap-to-reason-about value semantics rather than
/// shared views.
///
/// # Examples
///
/// ```
/// use ft_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.data.len() <= 16 {
            write!(f, "Tensor{:?} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{:?} [{} elems, first={:?}...]",
                self.shape,
                self.data.len(),
                &self.data[..4]
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ft_tensor::Tensor;
    /// let t = Tensor::zeros(&[4]);
    /// assert_eq!(t.data(), &[0.0; 4]);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Self::filled(shape, 0.0)
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::filled(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "buffer of {} elements cannot have shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes in place (no copy; reuses the shape buffer, so a
    /// steady-state reshape performs no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape element count mismatch");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Resizes to `shape` with every element zeroed, reusing the existing
    /// buffers: once a tensor has seen its largest geometry, repeated calls
    /// allocate nothing. This is the arena-reset primitive behind the
    /// training-engine scratch buffers.
    pub fn resize_zeroed(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.clear();
        self.data.resize(n, 0.0);
    }

    /// Resizes to `shape` like [`Tensor::resize_zeroed`] but skips the
    /// zero-fill when the element count is unchanged, leaving the previous
    /// contents in place. For buffers the caller fully overwrites before
    /// reading (batch assembly, normalized activations, repack staging)
    /// this removes a whole memset pass per call; buffers that are
    /// *accumulated* into must keep using [`Tensor::resize_zeroed`].
    pub fn resize_for_overwrite(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        if n != self.data.len() {
            self.data.clear();
            self.data.resize(n, 0.0);
        }
    }

    /// Makes `self` an exact copy of `src` (shape and data), reusing the
    /// existing buffers when capacity allows.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Element at a 2-D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or the index is out of bounds.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at2 requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert!(
            i < r && j < c,
            "index ({i},{j}) out of bounds for {:?}",
            self.shape
        );
        self.data[i * c + j]
    }

    /// Returns the transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transposed requires a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn filled_and_ones() {
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0, 1.0, 1.0]);
        assert_eq!(Tensor::filled(&[2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at2(0, 0), 1.0);
        assert_eq!(i.at2(0, 1), 0.0);
        assert_eq!(i.at2(2, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn at2_indexing() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 5.0);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transposed();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at2(2, 1), 6.0);
        assert_eq!(tt.at2(0, 0), 1.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Tensor::zeros(&[1]));
        assert!(!s.is_empty());
        let s = format!("{:?}", Tensor::zeros(&[100]));
        assert!(s.contains("100 elems"));
    }
}
