//! # s4tf-tensor
//!
//! A from-scratch multi-dimensional array ("Tensor") library with *mutable
//! value semantics*, reproducing the Tensor substrate of *Swift for
//! TensorFlow: A portable, flexible platform for deep learning* (MLSys 2021),
//! Section 3 ("Tensors & Lazy Tensors") and Section 4 ("Mutable value
//! semantics").
//!
//! Two properties of Swift's `Tensor` are load-bearing in the paper and are
//! reproduced exactly here:
//!
//! 1. **Value semantics**: distinct variables access logically disjoint data.
//!    Cloning a [`Tensor`] is O(1); the underlying buffer is shared and only
//!    copied *lazily, upon mutation, and only when shared* — Swift's
//!    copy-on-write behavior, implemented with [`std::sync::Arc::make_mut`].
//!    See [`storage`].
//! 2. **In-place part-wise mutation**: `Tensor` exposes `*_assign` operations
//!    and mutable indexing so optimizers can borrow a model uniquely (Rust
//!    `&mut` ≡ Swift `inout`) and update parameters without materializing a
//!    second copy (paper §4.2).
//!
//! The kernel suite (matmul, conv2d, pooling, reductions, elementwise, …)
//! is a single-threaded CPU implementation corresponding to the paper's
//! "naïve Tensor" (§3.1); the eager and lazy accelerated backends in
//! `s4tf-runtime` dispatch to these same kernels through different execution
//! strategies.
//!
//! ## Example
//!
//! ```
//! use s4tf_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//!
//! // Value semantics: `d` is logically disjoint from `a`.
//! let mut d = a.clone();
//! d.add_scalar_assign(1.0);
//! assert_eq!(a.as_slice()[0], 1.0);
//! assert_eq!(d.as_slice()[0], 2.0);
//! ```

pub mod cost;
pub mod dtype;
pub mod error;
pub mod ops;
mod par;
pub mod pool;
pub mod shape;
pub mod simd;
pub mod storage;
pub mod tensor;

// Short names for the instrumentation crates; each gates itself at run time.
use s4tf_diag as diag;
use s4tf_metrics as met;

pub use cost::OpCost;
pub use dtype::{Float, Scalar};
pub use error::{panic_message, FaultKind, Result, RuntimeError, TensorError};
pub use pool::{clear_pools, PoolStats};
pub use shape::Shape;
pub use simd::{lane_width, path_label, set_simd_enabled, simd_enabled, simd_supported};
pub use storage::Storage;
pub use tensor::{NonFinite, Tensor};

/// Convolution / pooling padding strategies (paper Figure 6 uses `.same`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Padding {
    /// No padding: output spatial dims shrink by `kernel - 1` (before stride).
    Valid,
    /// Zero padding chosen so `stride == 1` preserves the spatial dims.
    Same,
}

impl Padding {
    /// Amount of padding (before, after) for one spatial dimension.
    pub fn amounts(self, input: usize, kernel: usize, stride: usize) -> (usize, usize) {
        match self {
            Padding::Valid => (0, 0),
            Padding::Same => {
                let out = input.div_ceil(stride);
                let needed = (out.saturating_sub(1) * stride + kernel).saturating_sub(input);
                (needed / 2, needed - needed / 2)
            }
        }
    }

    /// Output length of one spatial dimension.
    ///
    /// # Panics
    /// Panics for [`Padding::Valid`] if `kernel > input`.
    pub fn output_dim(self, input: usize, kernel: usize, stride: usize) -> usize {
        match self {
            Padding::Valid => {
                assert!(
                    kernel <= input,
                    "valid padding requires kernel ({kernel}) <= input ({input})"
                );
                (input - kernel) / stride + 1
            }
            Padding::Same => input.div_ceil(stride),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Padding;

    #[test]
    fn same_padding_preserves_dims_at_stride_one() {
        for input in 1..32 {
            for kernel in 1..8 {
                assert_eq!(Padding::Same.output_dim(input, kernel, 1), input);
                let (before, after) = Padding::Same.amounts(input, kernel, 1);
                assert_eq!(input + before + after, input + kernel - 1);
            }
        }
    }

    #[test]
    fn valid_padding_output_dims() {
        assert_eq!(Padding::Valid.output_dim(28, 5, 1), 24);
        assert_eq!(Padding::Valid.output_dim(28, 2, 2), 14);
        assert_eq!(Padding::Valid.amounts(28, 5, 1), (0, 0));
    }

    #[test]
    fn same_padding_with_stride() {
        assert_eq!(Padding::Same.output_dim(28, 2, 2), 14);
        assert_eq!(Padding::Same.output_dim(7, 3, 2), 4);
    }

    #[test]
    #[should_panic(expected = "valid padding")]
    fn valid_padding_kernel_too_large() {
        Padding::Valid.output_dim(3, 5, 1);
    }
}
