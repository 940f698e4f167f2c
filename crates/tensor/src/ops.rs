//! Elementwise arithmetic and reductions on [`Tensor`].

use crate::Tensor;

impl Tensor {
    /// Elementwise sum, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference, producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise product (Hadamard), producing a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for a in self.data_mut() {
            *a *= s;
        }
    }

    /// Returns a new tensor scaled by `s`.
    pub fn scaled(&self, s: f32) -> Tensor {
        let mut t = self.clone();
        t.scale(s);
        t
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.data().iter().map(|&x| f(x)).collect(), self.shape())
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for a in self.data_mut() {
            *a = f(*a);
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements; zero for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum() / self.numel() as f32
        }
    }

    /// Maximum absolute value; zero for an empty tensor.
    pub fn max_abs(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element of each row of a rank-2 tensor.
    ///
    /// Ties resolve to the lowest index, matching `argmax` conventions.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(
            self.shape().len(),
            2,
            "argmax_rows requires a rank-2 tensor"
        );
        let (r, c) = (self.shape()[0], self.shape()[1]);
        assert!(c > 0, "argmax_rows requires at least one column");
        let mut out = Vec::with_capacity(r);
        for i in 0..r {
            let row = &self.data()[i * c..(i + 1) * c];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        out
    }

    fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Tensor::from_vec(
            self.data()
                .iter()
                .zip(other.data().iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.shape(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()])
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let _ = t(&[1.0]).add(&t(&[1.0, 2.0]));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(2.0, &t(&[3.0, 4.0]));
        assert_eq!(a.data(), &[7.0, 9.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[3.5, 4.5]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -2.0, 3.0]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.mean(), 2.0 / 3.0);
        assert_eq!(a.max_abs(), 3.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Tensor::zeros(&[0]).mean(), 0.0);
    }

    #[test]
    fn argmax_rows_picks_first_of_ties() {
        let m = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.5, 0.2, 0.1], &[2, 3]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn map_and_fill_zero() {
        let mut a = t(&[1.0, 4.0]).map(|x| x * x);
        assert_eq!(a.data(), &[1.0, 16.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0]);
    }
}
