//! Neural-network-specific kernels: softmax, log-softmax, one-hot, and
//! numerically stable cross-entropy helpers.

use crate::dtype::{Float, Scalar};
use crate::tensor::Tensor;

impl<T: Float> Tensor<T> {
    /// Numerically stable softmax along the last axis.
    ///
    /// # Panics
    /// Panics on rank-0 tensors.
    pub fn softmax(&self) -> Tensor<T> {
        assert!(self.rank() >= 1, "softmax requires rank >= 1");
        let axis = self.rank() - 1;
        let maxes = self.max_axis(axis, true);
        let shifted = self.sub(&maxes);
        let exps = shifted.exp();
        let sums = exps.sum_axis(axis, true);
        exps.div(&sums)
    }

    /// Numerically stable log-softmax along the last axis.
    ///
    /// # Panics
    /// Panics on rank-0 tensors.
    pub fn log_softmax(&self) -> Tensor<T> {
        assert!(self.rank() >= 1, "log_softmax requires rank >= 1");
        let axis = self.rank() - 1;
        let maxes = self.max_axis(axis, true);
        let shifted = self.sub(&maxes);
        let log_sum = shifted.exp().sum_axis(axis, true).ln();
        shifted.sub(&log_sum)
    }
}

impl<T: Scalar> Tensor<T> {
    /// One-hot encodes class labels: `[n] → [n, depth]`.
    ///
    /// # Panics
    /// Panics if any label is `>= depth` or negative.
    pub fn one_hot(labels: &[usize], depth: usize) -> Tensor<T> {
        Tensor::build(&[labels.len(), depth], T::zero(), |data| {
            for (row, &l) in labels.iter().enumerate() {
                assert!(l < depth, "label {l} >= depth {depth}");
                data[row * depth + l] = T::one();
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = x.softmax();
        for row in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[row, c])).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // monotone in logits
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_shift_invariant_and_stable() {
        let x = t(&[1000.0, 1001.0, 1002.0], &[3]);
        let s = x.softmax();
        assert!(s.all_finite(), "softmax must not overflow");
        let y = t(&[0.0, 1.0, 2.0], &[3]).softmax();
        assert!(s.allclose(&y, 1e-6));
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let x = t(&[0.5, -0.2, 1.3, 0.0], &[2, 2]);
        let a = x.log_softmax();
        let b = x.softmax().ln();
        assert!(a.allclose(&b, 1e-5));
    }

    #[test]
    fn one_hot() {
        let oh: Tensor<f32> = Tensor::one_hot(&[0, 2, 1], 3);
        assert_eq!(oh.dims(), &[3, 3]);
        assert_eq!(
            oh.as_slice(),
            &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        );
    }

    #[test]
    #[should_panic(expected = ">= depth")]
    fn one_hot_out_of_range_panics() {
        let _: Tensor<f32> = Tensor::one_hot(&[3], 3);
    }
}
