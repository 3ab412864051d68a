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

/// The broadcasting binary kernel of every backend. No operand is ever
/// materialized at the output shape: a one-element operand is hoisted to
/// a scalar, a trailing-suffix (`[C]` against `[N,H,W,C]`) or leading
/// (`[B,1]` against `[B,K]`) operand is indexed in the inner loop, and
/// anything else walks coalesced strides. Per-element arithmetic is `f`
/// on the same operand pair in the same order on every route, so results
/// are bit-identical to `zip_map` over materialized broadcasts.
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
    let n = out_shape.num_elements();
    let (mut out, recycled) = crate::pool::zeroed_vec::<T>(n);
    let (l, r) = (lhs.as_slice(), rhs.as_slice());
    if n == 0 {
        // A zero-extent dim: nothing to compute (and no period to index by).
    } else if let Some(index) = SmallIndex::of(rhs.shape(), &out_shape).filter(|_| l.len() == n) {
        broadcast_zip(&mut out, Some(l), r, index, f);
    } else if let Some(index) = SmallIndex::of(lhs.shape(), &out_shape).filter(|_| r.len() == n) {
        broadcast_zip(&mut out, Some(r), l, index, |x, s| f(s, x));
    } else {
        let (dims, [sl, sr]) = broadcast_walk(&out_shape, [lhs.shape(), rhs.shape()]);
        let (il, ir) = (sl[sl.len() - 1], sr[sr.len() - 1]);
        for_each_row(&mut out, &dims, [&sl, &sr], |row, [ol, or]| {
            for (i, o) in row.iter_mut().enumerate() {
                *o = f(l[ol + i * il], r[or + i * ir]);
            }
        });
    }
    Ok(Tensor::from_pooled_vec((out, recycled), out_shape.dims()))
}

/// How the smaller operand of a broadcasting kernel is indexed against
/// flat output position `e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmallIndex {
    /// One element: `small[0]`, hoisted out of the loop.
    Scalar,
    /// Trailing suffix of the output dims, `m` elements: `small[e % m]`.
    Suffix(usize),
    /// Leading output dims followed by ones, each element spanning
    /// `inner` outputs: `small[e / inner]`.
    Prefix(usize),
}

impl SmallIndex {
    /// Classifies `small` (which must broadcast to `out`); `None` when it
    /// needs the general stride walk.
    fn of(small: &Shape, out: &Shape) -> Option<SmallIndex> {
        if small.num_elements() == 1 {
            return Some(SmallIndex::Scalar);
        }
        if small.is_trailing_suffix_of(out) {
            return Some(SmallIndex::Suffix(small.num_elements()));
        }
        // Right-align: `o[pad + j]` faces `s[j]`.
        let (s, o) = (small.dims(), out.dims());
        let pad = o.len().checked_sub(s.len())?;
        let last = s.iter().rposition(|&d| d != 1)?;
        (o[..pad].iter().all(|&d| d == 1) && s[..=last] == o[pad..=pad + last])
            .then(|| SmallIndex::Prefix(o[pad + last + 1..].iter().product()))
    }
}

/// Shortest period, in elements, that a small trailing-suffix operand is
/// tiled to so the inner loop runs over whole vectors instead of `C`-long
/// rows.
const TILE_MIN: usize = 256;

/// `dst[e] = g(x[e], small[index(e)])` where `x` is `full`, or `dst`
/// itself when `full` is `None` (the in-place form). Thread-pooled at the
/// element-wise grain on boundaries that keep every chunk phase-aligned
/// with `small`; each output element is written by exactly one chunk.
/// `dst` must not be empty (the periods are then non-zero).
fn broadcast_zip<T: Scalar>(
    dst: &mut [T],
    full: Option<&[T]>,
    small: &[T],
    index: SmallIndex,
    g: impl Fn(T, T) -> T + Sync,
) {
    let grain = crate::par::ELEMWISE_GRAIN;
    let at = |start: usize, len: usize| full.map(|x| &x[start..start + len]);
    match index {
        SmallIndex::Scalar => {
            let s = small[0];
            s4tf_threads::parallel_chunks_mut(dst, 1, grain, |start, chunk| {
                let x = at(start, chunk.len());
                crate::simd::vectorize(|| zip_row(chunk, x, |_| s, &g));
            });
        }
        SmallIndex::Suffix(m) => {
            // A short pattern repeats into a stack tile (at most
            // `TILE_MIN + m` elements, never the output extent).
            let mut tile = [T::zero(); 2 * TILE_MIN];
            let reps = if m >= TILE_MIN {
                1
            } else {
                TILE_MIN.div_ceil(m).min(dst.len() / m)
            };
            let pattern: &[T] = if reps <= 1 {
                small
            } else {
                for t in tile[..m * reps].chunks_mut(m) {
                    t.copy_from_slice(small);
                }
                &tile[..m * reps]
            };
            s4tf_threads::parallel_chunks_mut(dst, m, grain, |start, chunk| {
                crate::simd::vectorize(|| {
                    let mut off = start;
                    for piece in chunk.chunks_mut(pattern.len()) {
                        let p = &pattern[..piece.len()];
                        zip_row(piece, at(off, p.len()), |i| p[i], &g);
                        off += p.len();
                    }
                });
            });
        }
        SmallIndex::Prefix(inner) => {
            s4tf_threads::parallel_chunks_mut(dst, inner, grain, |start, chunk| {
                crate::simd::vectorize(|| {
                    let mut off = start;
                    for row in chunk.chunks_mut(inner) {
                        let s = small[off / inner];
                        zip_row(row, at(off, row.len()), |_| s, &g);
                        off += row.len();
                    }
                });
            });
        }
    }
}

/// One contiguous run of [`broadcast_zip`]: `dst[i] = g(x[i], s(i))`,
/// reading `dst[i]` itself for `x` when there is no separate operand.
#[inline(always)]
fn zip_row<T: Scalar>(
    dst: &mut [T],
    x: Option<&[T]>,
    s: impl Fn(usize) -> T,
    g: impl Fn(T, T) -> T,
) {
    match x {
        Some(x) => {
            for (i, (d, &xv)) in dst.iter_mut().zip(x).enumerate() {
                *d = g(xv, s(i));
            }
        }
        None => {
            for (i, d) in dst.iter_mut().enumerate() {
                *d = g(*d, s(i));
            }
        }
    }
}

/// The coalesced iteration space of `N` operands broadcast to `out`:
/// extents outermost first (extent-1 dims dropped, adjacent dims merged
/// wherever every operand stays contiguous or stays broadcast across
/// them) and, per operand, its element stride along each — 0 where it
/// broadcasts. Never empty: an all-ones space is `[1]` with strides 0.
pub(crate) fn broadcast_walk<const N: usize>(
    out: &Shape,
    operands: [&Shape; N],
) -> (Vec<usize>, [Vec<usize>; N]) {
    let rank = out.rank();
    let aligned: [Vec<usize>; N] = operands.map(|s| {
        let pad = rank - s.rank();
        let strides = s.strides();
        (0..rank)
            .map(|i| match i.checked_sub(pad) {
                Some(j) if s.dim(j) != 1 => strides[j],
                _ => 0,
            })
            .collect()
    });
    // Built innermost first, reversed at the end.
    let mut dims: Vec<usize> = Vec::with_capacity(rank);
    let mut strides: [Vec<usize>; N] = std::array::from_fn(|_| Vec::with_capacity(rank));
    for i in (0..rank).rev() {
        let d = out.dim(i);
        if d == 1 {
            continue;
        }
        let merges = dims.last().is_some_and(|&inner| {
            (0..N).all(|k| aligned[k][i] == strides[k][strides[k].len() - 1] * inner)
        });
        if merges {
            *dims.last_mut().expect("merging into a built dim") *= d;
        } else {
            dims.push(d);
            for k in 0..N {
                strides[k].push(aligned[k][i]);
            }
        }
    }
    if dims.is_empty() {
        dims.push(1);
        strides.iter_mut().for_each(|s| s.push(0));
    }
    dims.reverse();
    strides.iter_mut().for_each(|s| s.reverse());
    (dims, strides)
}

/// Runs `row(out_row, operand_offsets)` over every innermost row of a
/// [`broadcast_walk`] space, thread-pooled on whole rows at the
/// element-wise grain. Offsets are each operand's flat position of the
/// row's first element.
pub(crate) fn for_each_row<T: Scalar, const N: usize>(
    out: &mut [T],
    dims: &[usize],
    strides: [&[usize]; N],
    row: impl Fn(&mut [T], [usize; N]) + Sync,
) {
    let (&inner, outer) = dims.split_last().expect("walk spaces are never empty");
    s4tf_threads::parallel_chunks_mut(out, inner, crate::par::ELEMWISE_GRAIN, |start, chunk| {
        // Odometer over the outer dims, seeded at this chunk's first row.
        let mut idx = vec![0usize; outer.len()];
        let mut offs = [0usize; N];
        let mut r = start / inner;
        for ax in (0..outer.len()).rev() {
            idx[ax] = r % outer[ax];
            r /= outer[ax];
            for k in 0..N {
                offs[k] += idx[ax] * strides[k][ax];
            }
        }
        crate::simd::vectorize(|| {
            for out_row in chunk.chunks_mut(inner) {
                row(out_row, offs);
                for ax in (0..outer.len()).rev() {
                    idx[ax] += 1;
                    for k in 0..N {
                        offs[k] += strides[k][ax];
                    }
                    if idx[ax] < outer[ax] {
                        break;
                    }
                    idx[ax] = 0;
                    for k in 0..N {
                        offs[k] -= strides[k][ax] * outer[ax];
                    }
                }
            }
        });
    });
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

    /// `f` over two broadcast-compatible tensors — the kernel behind
    /// [`Tensor::add`] and friends, for callers that bring their own
    /// per-element function (no operand is materialized at the output
    /// shape; see [`Tensor::zip_map`] for the same-shape-only form).
    ///
    /// # Panics
    /// Panics if the shapes are not broadcast-compatible.
    pub fn zip_broadcast(&self, rhs: &Tensor<T>, f: impl Fn(T, T) -> T + Sync) -> Tensor<T> {
        broadcast_binary(self, rhs, "zip_broadcast", f)
    }

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
        self.zip_apply_assign(rhs, |d, s| d + s);
    }

    /// In-place element-wise difference (see [`Tensor::add_assign_tensor`]).
    ///
    /// # Panics
    /// Panics if `rhs` does not broadcast to `self`'s shape.
    pub fn sub_assign_tensor(&mut self, rhs: &Tensor<T>) {
        self.zip_apply_assign(rhs, |d, s| d - s);
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
    /// the broadcasting binary kernel with `self` as the *left*,
    /// full-shape operand; `rhs` may broadcast up to `self`'s shape. Runs
    /// the same per-element function over the same indexing, so the
    /// result is bit-identical to the out-of-place kernel; the memory
    /// planner uses it to overwrite a dying operand instead of allocating.
    ///
    /// # Panics
    /// Panics if `rhs` does not broadcast to `self`'s shape.
    pub fn zip_apply_assign(&mut self, rhs: &Tensor<T>, f: impl Fn(T, T) -> T + Sync) {
        if self.shape() == rhs.shape() {
            return zip_assign(self.as_mut_slice(), rhs.as_slice(), |d, s| *d = f(*d, s));
        }
        match self.small_index_of(rhs, "zip_apply_assign") {
            Some(index) => broadcast_zip(self.as_mut_slice(), None, rhs.as_slice(), index, f),
            None => *self = broadcast_binary(self, rhs, "zip_apply_assign", f),
        }
    }

    /// `self[i] = f(lhs[i], self[i])` in place — like
    /// [`Tensor::zip_apply_assign`] but with `self` as the *right*
    /// operand, preserving the argument order of the out-of-place kernel
    /// so non-commutative ops stay bit-identical.
    ///
    /// # Panics
    /// Panics if `lhs` does not broadcast to `self`'s shape.
    pub fn zip_apply_assign_rev(&mut self, lhs: &Tensor<T>, f: impl Fn(T, T) -> T + Sync) {
        if self.shape() == lhs.shape() {
            return zip_assign(self.as_mut_slice(), lhs.as_slice(), |d, s| *d = f(s, *d));
        }
        match self.small_index_of(lhs, "zip_apply_assign_rev") {
            Some(index) => {
                broadcast_zip(self.as_mut_slice(), None, lhs.as_slice(), index, |x, s| {
                    f(s, x)
                });
            }
            None => *self = broadcast_binary(lhs, self, "zip_apply_assign_rev", f),
        }
    }

    /// How `small` indexes against `self` in an in-place kernel; `None`
    /// when there is nothing to do in place (empty, or a general stride
    /// walk).
    ///
    /// # Panics
    /// Panics if broadcasting `small` would change `self`'s shape.
    fn small_index_of(&self, small: &Tensor<T>, op: &'static str) -> Option<SmallIndex> {
        assert!(
            small.shape().broadcasts_to(self.shape()),
            "{op}: {} does not broadcast to {}",
            small.shape(),
            self.shape()
        );
        SmallIndex::of(small.shape(), self.shape()).filter(|_| self.num_elements() > 0)
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
