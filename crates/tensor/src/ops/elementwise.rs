//! Element-wise unary and (broadcasting) binary kernels, plus their in-place
//! `*_assign` variants used by the mutable-value-semantics optimizer path
//! (paper §4.2).

use crate::dtype::{Float, Scalar};
use crate::error::Result;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Applies a binary op over two broadcast-compatible tensors.
fn broadcast_binary<T: Scalar>(
    lhs: &Tensor<T>,
    rhs: &Tensor<T>,
    op: &'static str,
    f: impl Fn(T, T) -> T + Sync,
) -> Tensor<T> {
    try_broadcast_binary(lhs, rhs, op, f).unwrap_or_else(|e| panic!("{e}"))
}

fn try_broadcast_binary<T: Scalar>(
    lhs: &Tensor<T>,
    rhs: &Tensor<T>,
    op: &'static str,
    f: impl Fn(T, T) -> T + Sync,
) -> Result<Tensor<T>> {
    if lhs.shape() == rhs.shape() {
        // Fast path: identical shapes, single fused loop.
        return Ok(lhs.zip_map(rhs, f));
    }
    let out_shape = Shape::broadcast(lhs.shape(), rhs.shape()).map_err(|_| {
        crate::TensorError::ShapeMismatch {
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
            op,
        }
    })?;
    let l = lhs.broadcast_to(out_shape.dims());
    let r = rhs.broadcast_to(out_shape.dims());
    Ok(l.zip_map(&r, f))
}

/// `f(dst[i], src[i])` over two equal-length slices, thread-pooled
/// above the element-wise grain — the shared engine of the `*_assign`
/// kernels (each destination element is written by exactly one chunk,
/// so results never depend on the thread count).
fn zip_assign<T: Scalar>(dst: &mut [T], src: &[T], f: impl Fn(&mut T, T) + Sync) {
    debug_assert_eq!(dst.len(), src.len());
    s4tf_threads::parallel_chunks_mut(dst, 1, crate::par::ELEMWISE_GRAIN, |start, chunk| {
        let src = &src[start..start + chunk.len()];
        // Codegen-only vectorization: per-element arithmetic is the same
        // on both dispatch paths (bit-identical; see `crate::simd`).
        crate::simd::vectorize(|| {
            for (d, &s) in chunk.iter_mut().zip(src) {
                f(d, s);
            }
        });
    });
}

impl<T: Scalar> Tensor<T> {
    // -------------------------------------------------------------- binary

    /// Element-wise sum with broadcasting.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn add(&self, rhs: &Tensor<T>) -> Tensor<T> {
        broadcast_binary(self, rhs, "add", |a, b| a + b)
    }

    /// Element-wise sum with broadcasting.
    ///
    /// # Errors
    /// Returns an error if the shapes are not broadcast-compatible.
    pub fn try_add(&self, rhs: &Tensor<T>) -> Result<Tensor<T>> {
        try_broadcast_binary(self, rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference with broadcasting.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn sub(&self, rhs: &Tensor<T>) -> Tensor<T> {
        broadcast_binary(self, rhs, "sub", |a, b| a - b)
    }

    /// Element-wise product with broadcasting.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn mul(&self, rhs: &Tensor<T>) -> Tensor<T> {
        broadcast_binary(self, rhs, "mul", |a, b| a * b)
    }

    /// Element-wise quotient with broadcasting.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn div(&self, rhs: &Tensor<T>) -> Tensor<T> {
        broadcast_binary(self, rhs, "div", |a, b| a / b)
    }

    /// Element-wise maximum with broadcasting.
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn max_elements(&self, rhs: &Tensor<T>) -> Tensor<T> {
        broadcast_binary(self, rhs, "max", |a, b| a.maximum(b))
    }

    /// Element-wise `1.0 where self > rhs else 0.0` mask (broadcasting).
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn greater_mask(&self, rhs: &Tensor<T>) -> Tensor<T> {
        broadcast_binary(self, rhs, "greater", |a, b| {
            if a > b {
                T::one()
            } else {
                T::zero()
            }
        })
    }

    // --------------------------------------------------------------- unary

    /// Element-wise negation.
    pub fn neg(&self) -> Tensor<T> {
        self.map(|x| -x)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor<T> {
        self.map(|x| x.abs_val())
    }

    /// Element-wise sign (±1, 0).
    pub fn signum(&self) -> Tensor<T> {
        self.map(|x| {
            if x > T::zero() {
                T::one()
            } else if x < T::zero() {
                -T::one()
            } else {
                T::zero()
            }
        })
    }

    /// Rectified linear unit: `max(x, 0)`.
    pub fn relu(&self) -> Tensor<T> {
        self.map(|x| x.maximum(T::zero()))
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor<T> {
        self.map(|x| x * x)
    }

    // -------------------------------------------------------------- scalar

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: T) -> Tensor<T> {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: T) -> Tensor<T> {
        self.map(|x| x * s)
    }

    /// Divides every element by a scalar.
    pub fn div_scalar(&self, s: T) -> Tensor<T> {
        self.map(|x| x / s)
    }

    // ----------------------------------------------------------- in-place

    /// In-place element-wise sum. Unlike [`Tensor::add`] this never
    /// broadcasts `self` and mutates it via unique borrow (`inout`, §4.2);
    /// `rhs` may still broadcast up to `self`'s shape.
    ///
    /// # Panics
    /// Panics if `rhs` does not broadcast to `self`'s shape.
    pub fn add_assign_tensor(&mut self, rhs: &Tensor<T>) {
        if self.shape() == rhs.shape() {
            zip_assign(self.as_mut_slice(), rhs.as_slice(), |d, s| *d += s);
        } else {
            let r = rhs.broadcast_to(self.dims());
            self.add_assign_tensor(&r);
        }
    }

    /// In-place element-wise difference (see [`Tensor::add_assign_tensor`]).
    ///
    /// # Panics
    /// Panics if `rhs` does not broadcast to `self`'s shape.
    pub fn sub_assign_tensor(&mut self, rhs: &Tensor<T>) {
        if self.shape() == rhs.shape() {
            zip_assign(self.as_mut_slice(), rhs.as_slice(), |d, s| *d -= s);
        } else {
            let r = rhs.broadcast_to(self.dims());
            self.sub_assign_tensor(&r);
        }
    }

    /// Adds a scalar to every element in place.
    pub fn add_scalar_assign(&mut self, s: T) {
        self.map_assign(|x| x + s);
    }

    /// Scales every element in place.
    pub fn mul_scalar_assign(&mut self, s: T) {
        self.map_assign(|x| x * s);
    }

    /// `self += alpha * rhs` in place — the fused "axpy" update used by
    /// optimizers and by `TangentVector` accumulation.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn scaled_add_assign(&mut self, alpha: T, rhs: &Tensor<T>) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "scaled_add_assign requires identical shapes"
        );
        zip_assign(self.as_mut_slice(), rhs.as_slice(), |d, s| *d += alpha * s);
    }

    /// `self[i] = f(self[i], rhs[i])` in place — the in-place spelling of
    /// [`Tensor::zip_map`] with `self` as the *left* operand. Runs the
    /// same per-element function over the same chunking, so the result is
    /// bit-identical to `self.zip_map(rhs, f)`; the memory planner uses
    /// it to overwrite a dying operand instead of allocating.
    ///
    /// # Panics
    /// Panics if the shapes differ (no broadcasting, like `zip_map`).
    pub fn zip_apply_assign(&mut self, rhs: &Tensor<T>, f: impl Fn(T, T) -> T + Sync) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "zip_apply_assign requires identical shapes ({} vs {})",
            self.shape(),
            rhs.shape()
        );
        zip_assign(self.as_mut_slice(), rhs.as_slice(), |d, s| *d = f(*d, s));
    }

    /// `self[i] = f(lhs[i], self[i])` in place — like
    /// [`Tensor::zip_apply_assign`] but with `self` as the *right*
    /// operand, preserving the argument order of `lhs.zip_map(self, f)`
    /// so non-commutative ops stay bit-identical.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_apply_assign_rev(&mut self, lhs: &Tensor<T>, f: impl Fn(T, T) -> T + Sync) {
        assert_eq!(
            self.shape(),
            lhs.shape(),
            "zip_apply_assign_rev requires identical shapes ({} vs {})",
            self.shape(),
            lhs.shape()
        );
        zip_assign(self.as_mut_slice(), lhs.as_slice(), |d, s| *d = f(s, *d));
    }
}

impl<T: Float> Tensor<T> {
    /// Element-wise `e^x`.
    pub fn exp(&self) -> Tensor<T> {
        self.map(|x| x.exp_())
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor<T> {
        self.map(|x| x.ln_())
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor<T> {
        self.map(|x| x.sqrt_())
    }

    /// Element-wise power.
    pub fn powf(&self, p: T) -> Tensor<T> {
        self.map(|x| x.powf_(p))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor<T> {
        self.map(|x| x.tanh_())
    }

    /// Element-wise sine.
    pub fn sin(&self) -> Tensor<T> {
        self.map(|x| x.sin_())
    }

    /// Element-wise cosine.
    pub fn cos(&self) -> Tensor<T> {
        self.map(|x| x.cos_())
    }

    /// Element-wise logistic sigmoid, `1 / (1 + e^-x)`.
    pub fn sigmoid(&self) -> Tensor<T> {
        self.map(|x| T::one() / (T::one() + (-x).exp_()))
    }

    /// Element-wise reciprocal.
    pub fn recip(&self) -> Tensor<T> {
        self.map(|x| T::one() / x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn binary_same_shape() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[10.0, 20.0, 30.0], &[3]);
        assert_eq!(a.add(&b).as_slice(), &[11.0, 22.0, 33.0]);
        assert_eq!(b.sub(&a).as_slice(), &[9.0, 18.0, 27.0]);
        assert_eq!(a.mul(&b).as_slice(), &[10.0, 40.0, 90.0]);
        assert_eq!(b.div(&a).as_slice(), &[10.0, 10.0, 10.0]);
        assert_eq!(a.max_elements(&b).as_slice(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn binary_broadcast() {
        let m = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let row = t(&[10.0, 20.0], &[2]);
        assert_eq!(m.add(&row).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let col = t(&[10.0, 20.0], &[2, 1]);
        assert_eq!(m.add(&col).as_slice(), &[11.0, 12.0, 23.0, 24.0]);
        let s = Tensor::scalar(1.0f32);
        assert_eq!(m.add(&s).as_slice(), &[2.0, 3.0, 4.0, 5.0]);
        // broadcast in both directions
        let a = t(&[1.0, 2.0], &[2, 1]);
        let b = t(&[10.0, 20.0, 30.0], &[1, 3]);
        assert_eq!(a.add(&b).as_slice(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn binary_incompatible_panics() {
        t(&[1.0, 2.0], &[2]).add(&t(&[1.0, 2.0, 3.0], &[3]));
    }

    #[test]
    fn try_add_error() {
        assert!(t(&[1.0, 2.0], &[2])
            .try_add(&t(&[1.0, 2.0, 3.0], &[3]))
            .is_err());
        assert!(t(&[1.0], &[1]).try_add(&t(&[1.0, 2.0], &[2])).is_ok());
    }

    #[test]
    fn unary() {
        let a = t(&[-1.0, 0.0, 2.0], &[3]);
        assert_eq!(a.neg().as_slice(), &[1.0, 0.0, -2.0]);
        assert_eq!(a.abs().as_slice(), &[1.0, 0.0, 2.0]);
        assert_eq!(a.signum().as_slice(), &[-1.0, 0.0, 1.0]);
        assert_eq!(a.relu().as_slice(), &[0.0, 0.0, 2.0]);
        assert_eq!(a.square().as_slice(), &[1.0, 0.0, 4.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, 2.0], &[2]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul_scalar(3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!(a.div_scalar(2.0).as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn float_unary() {
        let a = t(&[0.0, 1.0], &[2]);
        assert!((a.exp().as_slice()[1] - std::f32::consts::E).abs() < 1e-6);
        assert_eq!(t(&[1.0, 4.0], &[2]).sqrt().as_slice(), &[1.0, 2.0]);
        assert!((t(&[std::f32::consts::E], &[1]).ln().as_slice()[0] - 1.0).abs() < 1e-6);
        assert_eq!(t(&[2.0], &[1]).powf(3.0).as_slice(), &[8.0]);
        assert!((t(&[0.0], &[1]).sigmoid().as_slice()[0] - 0.5).abs() < 1e-7);
        assert_eq!(t(&[0.0], &[1]).tanh().as_slice(), &[0.0]);
        assert_eq!(t(&[0.0], &[1]).sin().as_slice(), &[0.0]);
        assert_eq!(t(&[0.0], &[1]).cos().as_slice(), &[1.0]);
        assert_eq!(t(&[4.0], &[1]).recip().as_slice(), &[0.25]);
    }

    #[test]
    fn in_place_ops() {
        let mut a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        a.add_assign_tensor(&t(&[10.0, 20.0], &[2]));
        assert_eq!(a.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        a.sub_assign_tensor(&t(&[1.0, 1.0, 1.0, 1.0], &[2, 2]));
        assert_eq!(a.as_slice(), &[10.0, 21.0, 12.0, 23.0]);
        a.add_scalar_assign(1.0);
        a.mul_scalar_assign(0.5);
        assert_eq!(a.as_slice(), &[5.5, 11.0, 6.5, 12.0]);
    }

    #[test]
    fn scaled_add_assign() {
        let mut a = t(&[1.0, 2.0], &[2]);
        a.scaled_add_assign(-0.5, &t(&[2.0, 4.0], &[2]));
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn in_place_does_not_affect_old_copies() {
        let a = t(&[1.0, 2.0], &[2]);
        let mut b = a.clone();
        b.add_scalar_assign(100.0);
        assert_eq!(a.as_slice(), &[1.0, 2.0], "spooky action at a distance!");
    }

    #[test]
    fn greater_mask() {
        let a = t(&[1.0, 5.0, 3.0], &[3]);
        let b = t(&[2.0, 2.0, 3.0], &[3]);
        assert_eq!(a.greater_mask(&b).as_slice(), &[0.0, 1.0, 0.0]);
    }
}
