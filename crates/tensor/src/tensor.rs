//! The [`Tensor`] type: a contiguous, row-major multi-dimensional array with
//! mutable value semantics.

use crate::dtype::{Float, Scalar};
use crate::error::{Result, TensorError};
use crate::shape::Shape;
use crate::storage::Storage;
use rand::Rng;
use std::fmt;

/// A non-finite element found by [`Tensor::check_finite`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonFinite {
    /// Flat (row-major) index of the first non-finite element.
    pub index: usize,
    /// The offending value, widened to `f64`.
    pub value: f64,
    /// `"NaN"`, `"+Inf"` or `"-Inf"`.
    pub kind: &'static str,
}

impl fmt::Display for NonFinite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at flat index {}", self.kind, self.index)
    }
}

impl std::error::Error for NonFinite {}

/// A multi-dimensional array with mutable value semantics.
///
/// `Tensor` is the paper's central data type (§3). Cloning is O(1) and the
/// clone is a logically disjoint *value*: the shared buffer is copied lazily
/// on first mutation (copy-on-write, see [`Storage`]). All kernels are
/// row-major, single-threaded CPU implementations (the paper's "naïve
/// Tensor", §3.1).
///
/// ```
/// use s4tf_tensor::Tensor;
/// let x = Tensor::from_vec(vec![1.0f32, 2.0, 3.0], &[3]);
/// let y = &x + &x;
/// assert_eq!(y.as_slice(), &[2.0, 4.0, 6.0]);
/// ```
#[derive(Clone)]
pub struct Tensor<T: Scalar = f32> {
    shape: Shape,
    storage: Storage<T>,
}

impl<T: Scalar> Tensor<T> {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor from a flat row-major buffer and a shape.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the shape's element count.
    pub fn from_vec(data: Vec<T>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "buffer of {} elements cannot have shape {shape}",
            data.len()
        );
        Tensor {
            shape,
            storage: Storage::from_vec(data),
        }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    /// Returns [`TensorError::ElementCountMismatch`] if sizes disagree.
    pub fn try_from_vec(data: Vec<T>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(TensorError::ElementCountMismatch {
                from: data.len(),
                to: shape.num_elements(),
            });
        }
        Ok(Tensor {
            shape,
            storage: Storage::from_vec(data),
        })
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: T) -> Self {
        Tensor {
            shape: Shape::scalar(),
            storage: Storage::filled(1, value),
        }
    }

    /// A tensor filled with `value`.
    pub fn full(value: T, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            shape,
            storage: Storage::filled(n, value),
        }
    }

    /// A tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(T::zero(), dims)
    }

    /// A tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(T::one(), dims)
    }

    /// A tensor of zeros with the same shape as `other`.
    pub fn zeros_like(other: &Tensor<T>) -> Self {
        Self::zeros(other.shape.dims())
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        Tensor::build(&[n, n], T::zero(), |data| {
            for i in 0..n {
                data[i * n + i] = T::one();
            }
        })
    }

    /// `[0, 1, 2, …, n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Self {
        Tensor::build_pushed(&[n], |data| data.extend((0..n).map(T::from_usize)))
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], f: impl FnMut(usize) -> T) -> Self {
        let n = dims.iter().product();
        Tensor::build_pushed(dims, |data| data.extend((0..n).map(f)))
    }

    // -------------------------------------------------------- crate plumbing

    /// Assembles a tensor from a shape and storage (no copy). Crate-internal:
    /// used by O(1) reshape.
    pub(crate) fn from_parts(shape: Shape, storage: Storage<T>) -> Self {
        debug_assert_eq!(shape.num_elements(), storage.len());
        Tensor { shape, storage }
    }

    /// A tensor holding a copy of `data`, recycling pooled capacity when
    /// available (the pool-aware spelling of `from_vec(data.to_vec(), …)`).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the shape's element count.
    pub fn copy_of_slice(data: &[T], dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "buffer of {} elements cannot have shape {shape}",
            data.len()
        );
        Tensor {
            shape,
            storage: Storage::copy_of_slice(data),
        }
    }

    /// A kernel's output of shape `dims`: every element starts as `init`
    /// in pool-aware capacity, and `write` overwrites them in place.
    #[inline]
    pub(crate) fn build(dims: &[usize], init: T, write: impl FnOnce(&mut [T])) -> Self {
        let shape = Shape::new(dims);
        let storage = Storage::build(shape.num_elements(), init, write);
        Tensor { shape, storage }
    }

    /// A kernel's output of shape `dims` with no fill pass: `push`
    /// appends exactly its elements, in order, to an empty pool-aware
    /// buffer.
    ///
    /// # Panics
    /// Panics if `push` leaves a different element count.
    #[inline]
    pub(crate) fn build_pushed(dims: &[usize], push: impl FnOnce(&mut Vec<T>)) -> Self {
        let shape = Shape::new(dims);
        let storage = Storage::pushed(shape.num_elements(), push);
        Tensor { shape, storage }
    }

    /// The underlying storage (crate-internal; no CoW trigger).
    pub(crate) fn storage(&self) -> &Storage<T> {
        &self.storage
    }

    // ------------------------------------------------------------ accessors

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    /// Read-only flat (row-major) view of the elements.
    pub fn as_slice(&self) -> &[T] {
        self.storage.as_slice()
    }

    /// Mutable flat view; triggers copy-on-write if the buffer is shared.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.storage.as_mut_slice()
    }

    /// Extracts the elements as a `Vec`, copying only if shared.
    pub fn into_vec(self) -> Vec<T> {
        self.storage.into_vec()
    }

    /// The element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, index: &[usize]) -> T {
        self.as_slice()[self.shape.flat_index(index)]
    }

    /// Mutable reference to the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut T {
        let flat = self.shape.flat_index(index);
        &mut self.as_mut_slice()[flat]
    }

    /// The single element of a scalar (or one-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn scalar_value(&self) -> T {
        assert_eq!(
            self.num_elements(),
            1,
            "scalar_value on tensor of shape {}",
            self.shape
        );
        self.as_slice()[0]
    }

    /// True if `self` and `other` currently share storage (CoW diagnostics).
    pub fn shares_storage_with(&self, other: &Tensor<T>) -> bool {
        self.storage.ptr_eq(&other.storage)
    }

    /// True if this tensor uniquely owns its buffer — in-place mutation
    /// will not trigger a copy. The runtime layers use this to decide
    /// when an operand can be updated in place or donated (paper §4.2).
    pub fn storage_unique(&self) -> bool {
        self.storage.is_unique()
    }

    // ------------------------------------------------------------ functional

    /// Applies `f` element-wise, producing a new tensor. Large tensors
    /// split across the thread pool; results are identical for every
    /// thread count since `f` is applied independently per element.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U + Sync) -> Tensor<U> {
        let src = self.as_slice();
        if src.len() >= crate::par::ELEMWISE_GRAIN && s4tf_threads::num_threads() > 1 {
            Tensor::build(self.dims(), U::zero(), |out| {
                s4tf_threads::parallel_chunks_mut(
                    out,
                    1,
                    crate::par::ELEMWISE_GRAIN,
                    |start, chunk| {
                        let src = &src[start..start + chunk.len()];
                        // `vectorize` only changes codegen (wider registers,
                        // fused mul_add), never the per-element arithmetic,
                        // so both dispatch paths are bit-identical here.
                        crate::simd::vectorize(|| {
                            for (o, &x) in chunk.iter_mut().zip(src) {
                                *o = f(x);
                            }
                        });
                    },
                );
            })
        } else {
            Tensor::build_pushed(self.dims(), |out| {
                crate::simd::vectorize(|| out.extend(src.iter().map(|&x| f(x))));
            })
        }
    }

    /// Applies `f` element-wise in place (thread-pooled above the
    /// element-wise grain; see [`Tensor::map`]).
    pub fn map_assign(&mut self, f: impl Fn(T) -> T + Sync) {
        s4tf_threads::parallel_chunks_mut(
            self.as_mut_slice(),
            1,
            crate::par::ELEMWISE_GRAIN,
            |_, chunk| {
                crate::simd::vectorize(|| {
                    for x in chunk {
                        *x = f(*x);
                    }
                });
            },
        );
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Panics
    /// Panics if the shapes differ (no broadcasting; see
    /// [`Tensor::add`](crate::ops::elementwise) and friends for broadcasting
    /// variants).
    pub fn zip_map(&self, other: &Tensor<T>, f: impl Fn(T, T) -> T + Sync) -> Tensor<T> {
        assert_eq!(
            self.shape, other.shape,
            "zip_map requires identical shapes ({} vs {})",
            self.shape, other.shape
        );
        let lhs = self.as_slice();
        let rhs = other.as_slice();
        if lhs.len() >= crate::par::ELEMWISE_GRAIN && s4tf_threads::num_threads() > 1 {
            Tensor::build(self.dims(), T::zero(), |out| {
                s4tf_threads::parallel_chunks_mut(
                    out,
                    1,
                    crate::par::ELEMWISE_GRAIN,
                    |start, chunk| {
                        crate::simd::vectorize(|| {
                            for (i, o) in chunk.iter_mut().enumerate() {
                                *o = f(lhs[start + i], rhs[start + i]);
                            }
                        });
                    },
                );
            })
        } else {
            Tensor::build_pushed(self.dims(), |out| {
                crate::simd::vectorize(|| {
                    out.extend(lhs.iter().zip(rhs).map(|(&a, &b)| f(a, b)));
                });
            })
        }
    }

    /// Casts every element to another scalar type via `f64`.
    pub fn cast<U: Scalar>(&self) -> Tensor<U> {
        self.map(|x| U::from_f64(x.to_f64()))
    }
}

impl<T: Float> Tensor<T> {
    /// Standard-normal random tensor (Box–Muller over the given generator).
    pub fn randn<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push(T::from_f64(r * theta.cos()));
            if data.len() < n {
                data.push(T::from_f64(r * theta.sin()));
            }
        }
        Tensor {
            shape,
            storage: Storage::from_vec(data),
        }
    }

    /// Uniform random tensor over `[low, high)`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], low: T, high: T, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let (lo, hi) = (low.to_f64(), high.to_f64());
        let data = (0..shape.num_elements())
            .map(|_| T::from_f64(rng.gen_range(lo..hi)))
            .collect();
        Tensor {
            shape,
            storage: Storage::from_vec(data),
        }
    }

    /// Glorot/Xavier-uniform initialization for a weight of shape `dims`,
    /// with explicit fan-in/fan-out (used by Dense and Conv layers).
    pub fn glorot_uniform<R: Rng + ?Sized>(
        dims: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut R,
    ) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        Self::rand_uniform(dims, T::from_f64(-limit), T::from_f64(limit), rng)
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.as_slice().iter().all(|&x| x.is_finite_())
    }

    /// Checks every element for NaN/Inf, reporting the first offender
    /// with its flat index — the host-side entry point of the numerics
    /// checking pillar (the device paths scan automatically under
    /// `S4TF_CHECK_NUMERICS=1`).
    ///
    /// ```
    /// use s4tf_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![1.0, f32::NAN, 3.0], &[3]);
    /// let err = t.check_finite().unwrap_err();
    /// assert_eq!((err.index, err.kind), (1, "NaN"));
    /// ```
    pub fn check_finite(&self) -> std::result::Result<(), NonFinite> {
        match self.as_slice().iter().position(|&x| !x.is_finite_()) {
            None => Ok(()),
            Some(index) => {
                let value = self.as_slice()[index].to_f64();
                Err(NonFinite {
                    index,
                    value,
                    kind: if value.is_nan() {
                        "NaN"
                    } else if value > 0.0 {
                        "+Inf"
                    } else {
                        "-Inf"
                    },
                })
            }
        }
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor<T>) -> f64 {
        assert_eq!(self.shape, other.shape, "max_abs_diff requires same shape");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// True if all elements are within `tol` of `other`'s.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn allclose(&self, other: &Tensor<T>, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl<T: Scalar + serde::Serialize> serde::Serialize for Tensor<T> {
    /// Serializes as `{ dims, data }` — the value-semantics checkpoint
    /// format (a tensor is just its shape and contents; no graph state).
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("dims".to_string(), serde::Serialize::to_value(self.dims())),
            (
                "data".to_string(),
                serde::Serialize::to_value(self.as_slice()),
            ),
        ])
    }
}

impl<T: Scalar + serde::Deserialize> serde::Deserialize for Tensor<T> {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let dims: Vec<usize> = serde::field(value, "dims")?;
        let data: Vec<T> = serde::field(value, "data")?;
        Tensor::try_from_vec(data, &dims).map_err(serde::de::Error::custom)
    }
}

impl<T: Scalar> PartialEq for Tensor<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.as_slice() == other.as_slice()
    }
}

impl<T: Scalar> Default for Tensor<T> {
    /// The rank-0 zero tensor.
    fn default() -> Self {
        Tensor::scalar(T::zero())
    }
}

impl<T: Scalar> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        let slice = self.as_slice();
        if slice.len() <= 16 {
            write!(f, "data={slice:?})")
        } else {
            write!(
                f,
                "data=[{:?}, {:?}, …; {}])",
                slice[0],
                slice[1],
                slice.len()
            )
        }
    }
}

impl<T: Scalar> fmt::Display for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<T: Scalar> From<T> for Tensor<T> {
    fn from(value: T) -> Self {
        Tensor::scalar(value)
    }
}

impl<T: Scalar> From<Vec<T>> for Tensor<T> {
    /// A rank-1 tensor over the vector's elements.
    fn from(data: Vec<T>) -> Self {
        let n = data.len();
        Tensor::from_vec(data, &[n])
    }
}

impl<T: Scalar> FromIterator<T> for Tensor<T> {
    /// Collects into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let data: Vec<T> = iter.into_iter().collect();
        data.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::<f32>::zeros(&[2, 2]).as_slice(), &[0.0; 4]);
        assert_eq!(Tensor::<f32>::ones(&[3]).as_slice(), &[1.0; 3]);
        assert_eq!(Tensor::full(2.5f32, &[2]).as_slice(), &[2.5, 2.5]);
        assert_eq!(Tensor::<f32>::eye(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Tensor::<f32>::arange(3).as_slice(), &[0.0, 1.0, 2.0]);
        assert_eq!(Tensor::<i32>::arange(3).as_slice(), &[0, 1, 2]);
        let t = Tensor::<f32>::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_size_mismatch_panics() {
        Tensor::from_vec(vec![1.0f32, 2.0], &[3]);
    }

    #[test]
    fn try_from_vec() {
        assert!(Tensor::try_from_vec(vec![1.0f32, 2.0], &[2]).is_ok());
        assert!(matches!(
            Tensor::try_from_vec(vec![1.0f32], &[2]),
            Err(TensorError::ElementCountMismatch { from: 1, to: 2 })
        ));
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.at(&[1, 0]), 3.0);
        *t.at_mut(&[1, 0]) = 9.0;
        assert_eq!(t.at(&[1, 0]), 9.0);
        assert_eq!(Tensor::scalar(5.0f32).scalar_value(), 5.0);
    }

    #[test]
    fn value_semantics_clone_then_mutate() {
        let a = Tensor::from_vec(vec![1.0f32, 2.0], &[2]);
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        *b.at_mut(&[0]) = 10.0;
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        assert_eq!(b.as_slice(), &[10.0, 2.0]);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0f32, -2.0], &[2]);
        assert_eq!(a.map(|x| x * 2.0).as_slice(), &[2.0, -4.0]);
        let b = Tensor::from_vec(vec![10.0f32, 20.0], &[2]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).as_slice(), &[11.0, 18.0]);
        let mut c = a.clone();
        c.map_assign(|x| x + 1.0);
        assert_eq!(c.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn cast() {
        let a = Tensor::from_vec(vec![1.9f32, -2.9], &[2]);
        let b: Tensor<i32> = a.cast();
        assert_eq!(b.as_slice(), &[1, -2]);
    }

    #[test]
    fn random_init_deterministic_and_shaped() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = Tensor::<f32>::randn(&[101], &mut rng);
        assert_eq!(a.num_elements(), 101);
        assert!(a.all_finite());
        let mut rng2 = ChaCha8Rng::seed_from_u64(7);
        let b = Tensor::<f32>::randn(&[101], &mut rng2);
        assert_eq!(a, b);

        let u = Tensor::<f32>::rand_uniform(&[1000], -1.0, 1.0, &mut rng);
        assert!(u.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));

        let g = Tensor::<f32>::glorot_uniform(&[10, 10], 10, 10, &mut rng);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(g.as_slice().iter().all(|&x| x.abs() <= limit));
    }

    #[test]
    fn randn_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let t = Tensor::<f64>::randn(&[10000], &mut rng);
        let mean = t.as_slice().iter().sum::<f64>() / 10000.0;
        let var = t
            .as_slice()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / 10000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn comparisons_and_debug() {
        let a = Tensor::from_vec(vec![1.0f32, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0f32, 2.0], &[1, 2]);
        assert_ne!(a, b, "same data, different shape");
        assert!(format!("{a:?}").contains("shape=[2]"));
        let big = Tensor::<f32>::zeros(&[100]);
        assert!(format!("{big:?}").contains("100"));
        assert_eq!(Tensor::<f32>::default().scalar_value(), 0.0);
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0f32, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0f32, 2.1], &[2]);
        assert!((a.max_abs_diff(&b) - 0.1).abs() < 1e-6);
        assert!(a.allclose(&b, 0.2));
        assert!(!a.allclose(&b, 0.05));
    }

    #[test]
    fn conversions() {
        let t: Tensor<f32> = 3.5.into();
        assert_eq!(t.rank(), 0);
        let v: Tensor<f32> = vec![1.0, 2.0].into();
        assert_eq!(v.dims(), &[2]);
        let c: Tensor<i32> = (0..3).collect();
        assert_eq!(c.as_slice(), &[0, 1, 2]);
        assert_eq!(Tensor::from_vec(vec![1i32, 2], &[2]).into_vec(), vec![1, 2]);
    }
}
