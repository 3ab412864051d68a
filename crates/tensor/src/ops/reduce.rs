//! Reduction kernels: sum / mean / max over all elements or along an axis,
//! plus `argmax` and the gradient helper `unreduce`.

use crate::dtype::{Float, Scalar};
use crate::pool::Scratch;
use crate::simd;
use crate::tensor::Tensor;

/// Serial-order sum of one slice, dispatched to the lane-parallel
/// [`simd::sum_f32`] for f32 when SIMD is on. The lane path reassociates
/// within the slice (documented on `sum_f32`); callers hand whole chunks
/// here and combine partials in chunk order, so the thread count never
/// changes the result on either path.
fn sum_slice<T: Scalar>(xs: &[T]) -> T {
    if simd::simd_enabled() {
        if let Some(f) = simd::as_f32_slice(xs) {
            let mut out = T::zero();
            simd::write_f32(&mut out, simd::vectorize(|| simd::sum_f32(f)));
            return out;
        }
    }
    xs.iter().copied().sum()
}

/// `Scalar::maximum` fold of a non-empty slice (lane path for f32).
fn max_slice<T: Scalar>(xs: &[T]) -> T {
    if simd::simd_enabled() {
        if let Some(f) = simd::as_f32_slice(xs) {
            let mut out = T::zero();
            simd::write_f32(&mut out, simd::vectorize(|| simd::max_f32(f)));
            return out;
        }
    }
    xs.iter().copied().fold(xs[0], |a, b| a.maximum(b))
}

/// `Scalar::minimum` fold of a non-empty slice (lane path for f32).
fn min_slice<T: Scalar>(xs: &[T]) -> T {
    if simd::simd_enabled() {
        if let Some(f) = simd::as_f32_slice(xs) {
            let mut out = T::zero();
            simd::write_f32(&mut out, simd::vectorize(|| simd::min_f32(f)));
            return out;
        }
    }
    xs.iter().copied().fold(xs[0], |a, b| a.minimum(b))
}

/// The per-chunk accumulator [`column_sums`] hands its producer: `cols`
/// running totals plus the column the next pushed element belongs to.
#[derive(Debug)]
pub struct ColumnAcc<'a, T> {
    acc: &'a mut [T],
    phase: usize,
}

impl<T: Scalar> ColumnAcc<'_, T> {
    /// Adds the next `xs.len()` elements of the row-major stream to their
    /// columns, in stream order (so each column sees its rows in order).
    #[inline]
    pub fn push(&mut self, xs: &[T]) {
        let cols = self.acc.len();
        let mut xs = xs;
        simd::vectorize(|| {
            // Finish a row a previous push left open, then whole rows.
            if self.phase != 0 {
                let (head, rest) = xs.split_at(xs.len().min(cols - self.phase));
                for (a, &x) in self.acc[self.phase..].iter_mut().zip(head) {
                    *a += x;
                }
                self.phase = (self.phase + head.len()) % cols;
                xs = rest;
            }
            for row in xs.chunks(cols) {
                for (a, &x) in self.acc.iter_mut().zip(row) {
                    *a += x;
                }
            }
        });
        self.phase = (self.phase + xs.len()) % cols;
    }
}

/// Rows per [`column_sums`] chunk: about one reduction grain of elements,
/// and at least 8 rows so the partials stay an eighth of the stream.
fn column_chunk_rows(cols: usize) -> usize {
    (crate::par::REDUCE_GRAIN / cols.max(1)).max(8)
}

/// Column sums of a row-major `[n / cols, cols]` element stream that the
/// caller produces chunk by chunk — the one routine behind
/// [`Tensor::reduce_to_shape`] onto a trailing suffix, `sum_axis(0)` and
/// the compiler's fused reduction epilogue, so all three agree bit for
/// bit.
///
/// **Summation order.** Rows are cut into chunks of
/// `R = max(8, 4096 / cols)` rows. `produce(elements, acc)` must
/// [`push`](ColumnAcc::push) exactly the stream elements `elements`
/// (whole rows of chunk `k`) in order; each chunk starts from zeros and
/// adds its rows top to bottom, then the chunk partials are added, in
/// chunk order, onto zeros. The order depends on `n` and `cols` only —
/// never on the thread count (chunks are merely *scheduled* across the
/// pool) nor on how a producer slices its pushes.
///
/// # Panics
/// Panics if `n` is not a multiple of `cols`.
pub fn column_sums<T: Scalar>(
    n: usize,
    cols: usize,
    produce: impl Fn(std::ops::Range<usize>, &mut ColumnAcc<'_, T>) + Sync,
) -> Tensor<T> {
    Tensor::build(&[cols], T::zero(), |total| {
        if n == 0 {
            return;
        }
        assert!(
            n.is_multiple_of(cols),
            "{n} elements are not rows of {cols}"
        );
        let chunk_len = column_chunk_rows(cols) * cols;
        let mut partials = Scratch::<T>::zeroed(n.div_ceil(chunk_len) * cols);
        s4tf_threads::parallel_chunks_mut(&mut partials, cols, cols, |first, accs| {
            for (k, acc) in accs.chunks_mut(cols).enumerate() {
                let start = (first / cols + k) * chunk_len;
                let mut acc = ColumnAcc { acc, phase: 0 };
                produce(start..n.min(start + chunk_len), &mut acc);
            }
        });
        for partial in partials.chunks(cols) {
            for (t, &p) in total.iter_mut().zip(partial) {
                *t += p;
            }
        }
    })
}

impl<T: Scalar> Tensor<T> {
    /// Sum of all elements, as a rank-0 tensor.
    ///
    /// Large tensors sum per-chunk partials on the thread pool, combined
    /// in chunk-index order: exact for integers; for floats the order
    /// within each chunk is the serial one (or the fixed lane-striped
    /// order of [`simd::sum_f32`] on the SIMD path), so results are
    /// deterministic for a fixed thread count (DESIGN.md, "CPU
    /// parallelism").
    pub fn sum(&self) -> Tensor<T> {
        let src = self.as_slice();
        if src.len() < crate::par::REDUCE_GRAIN {
            return Tensor::scalar(sum_slice(src));
        }
        let parts =
            s4tf_threads::parallel_map_chunks(0..src.len(), crate::par::REDUCE_GRAIN, |r| {
                sum_slice(&src[r])
            });
        Tensor::scalar(parts.into_iter().sum())
    }

    /// Sum along `axis`. With `keep_dims` the axis is retained with extent 1.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn sum_axis(&self, axis: usize, keep_dims: bool) -> Tensor<T> {
        if axis == 0 && self.rank() > 0 {
            // A column sum: one routine, one order (see `column_sums`).
            let kept = if keep_dims {
                self.shape().keeping(0)
            } else {
                self.shape().removing(0)
            };
            return self.column_sum_to(kept.dims());
        }
        self.reduce_axis(axis, keep_dims, T::zero(), |acc, x| acc + x)
    }

    /// [`column_sums`] of the materialized elements, shaped `dims` (a
    /// trailing suffix of `self`'s dims up to extent-1 dims).
    fn column_sum_to(&self, dims: &[usize]) -> Tensor<T> {
        let src = self.as_slice();
        let cols = dims.iter().product();
        column_sums(src.len(), cols, |elements, acc| acc.push(&src[elements])).reshape(dims)
    }

    /// Sum along several axes (deduplicated), keeping dims.
    ///
    /// # Panics
    /// Panics if any axis is out of range.
    pub fn sum_axes_keep(&self, axes: &[usize]) -> Tensor<T> {
        let mut sorted: Vec<usize> = axes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut out = self.clone();
        for &axis in &sorted {
            out = out.sum_axis(axis, true);
        }
        out
    }

    /// Reduces a gradient of shape `self.dims()` back to `target_dims` by
    /// summing over broadcast axes — the pullback of broadcasting. A
    /// target that is a trailing suffix of `self`'s dims (a `[C]` bias
    /// against `[N,H,W,C]`) is summed by [`column_sums`], in its
    /// documented order.
    ///
    /// # Panics
    /// Panics if `target_dims` does not broadcast to `self.dims()`.
    pub fn reduce_to_shape(&self, target_dims: &[usize]) -> Tensor<T> {
        let target = crate::Shape::new(target_dims);
        if self.shape() == &target {
            return self.clone();
        }
        if target.is_trailing_suffix_of(self.shape()) {
            return self.column_sum_to(target_dims);
        }
        let axes = target.broadcast_reduction_axes(self.shape());
        let summed = self.sum_axes_keep(&axes);
        summed.reshape(target_dims)
    }

    /// Maximum element, as a rank-0 tensor.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn max(&self) -> Tensor<T> {
        assert!(self.num_elements() > 0, "max of empty tensor");
        let src = self.as_slice();
        if src.len() < crate::par::REDUCE_GRAIN {
            return Tensor::scalar(max_slice(src));
        }
        // max is associative and commutative, so the chunk combine (and
        // the lane reduction) is exact for floats too.
        let parts =
            s4tf_threads::parallel_map_chunks(0..src.len(), crate::par::REDUCE_GRAIN, |r| {
                max_slice(&src[r])
            });
        Tensor::scalar(parts.into_iter().fold(src[0], |a, b| a.maximum(b)))
    }

    /// Minimum element, as a rank-0 tensor.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn min(&self) -> Tensor<T> {
        assert!(self.num_elements() > 0, "min of empty tensor");
        let src = self.as_slice();
        if src.len() < crate::par::REDUCE_GRAIN {
            return Tensor::scalar(min_slice(src));
        }
        let parts =
            s4tf_threads::parallel_map_chunks(0..src.len(), crate::par::REDUCE_GRAIN, |r| {
                min_slice(&src[r])
            });
        Tensor::scalar(parts.into_iter().fold(src[0], |a, b| a.minimum(b)))
    }

    /// Maximum along `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank` or the axis has extent 0.
    pub fn max_axis(&self, axis: usize, keep_dims: bool) -> Tensor<T> {
        assert!(self.dims()[axis] > 0, "max over empty axis");
        let mut out: Option<Tensor<T>> = None;
        for i in 0..self.dims()[axis] {
            let s = self.slice_axis(axis, i, 1);
            out = Some(match out {
                None => s,
                Some(acc) => acc.max_elements(&s),
            });
        }
        let out = out.unwrap();
        if keep_dims {
            out
        } else {
            out.squeeze(axis)
        }
    }

    /// Index of the maximum element along `axis` (ties favor the first).
    ///
    /// # Panics
    /// Panics if `axis >= rank` or the axis has extent 0.
    pub fn argmax_axis(&self, axis: usize) -> Tensor<i64> {
        assert!(axis < self.rank(), "axis out of range");
        let d = self.dims()[axis];
        assert!(d > 0, "argmax over empty axis");
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let src = self.as_slice();
        let dims = self.shape().removing(axis);
        Tensor::build(dims.dims(), 0, |out| {
            if out.is_empty() {
                return;
            }
            let grain = (crate::par::REDUCE_GRAIN / d.max(1)).max(1);
            s4tf_threads::parallel_chunks_mut(out, inner, grain, |start, chunk| {
                let o0 = start / inner;
                for (u, orow) in chunk.chunks_mut(inner).enumerate() {
                    let o = o0 + u;
                    for (i, slot) in orow.iter_mut().enumerate() {
                        let mut best = src[o * d * inner + i];
                        let mut best_idx = 0i64;
                        for k in 1..d {
                            let v = src[o * d * inner + k * inner + i];
                            if v > best {
                                best = v;
                                best_idx = k as i64;
                            }
                        }
                        *slot = best_idx;
                    }
                }
            });
        })
    }

    fn reduce_axis(
        &self,
        axis: usize,
        keep_dims: bool,
        init: T,
        f: impl Fn(T, T) -> T + Sync,
    ) -> Tensor<T> {
        assert!(axis < self.rank(), "axis {axis} out of range");
        let d = self.dims()[axis];
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let src = self.as_slice();
        let shape = if keep_dims {
            self.shape().keeping(axis)
        } else {
            self.shape().removing(axis)
        };
        Tensor::build(shape.dims(), init, |out| {
            if out.is_empty() {
                return;
            }
            // Chunks split on whole output rows (quantum = inner), so
            // every output element is reduced by one task in the serial
            // k-order — bit-identical for every thread count.
            let grain = (crate::par::REDUCE_GRAIN / d.max(1)).max(1);
            s4tf_threads::parallel_chunks_mut(out, inner, grain, |start, chunk| {
                let o0 = start / inner;
                // Codegen-only vectorization of the inner-stride loop:
                // the k-order per output element is unchanged, so both
                // dispatch paths are bit-identical.
                simd::vectorize(|| {
                    for (u, orow) in chunk.chunks_mut(inner).enumerate() {
                        let o = o0 + u;
                        for k in 0..d {
                            let base = o * d * inner + k * inner;
                            for (i, ov) in orow.iter_mut().enumerate() {
                                *ov = f(*ov, src[base + i]);
                            }
                        }
                    }
                });
            });
        })
    }
}

impl<T: Float> Tensor<T> {
    /// Mean of all elements, as a rank-0 tensor.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    pub fn mean(&self) -> Tensor<T> {
        assert!(self.num_elements() > 0, "mean of empty tensor");
        self.sum().div_scalar(T::from_usize(self.num_elements()))
    }

    /// Mean along `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn mean_axis(&self, axis: usize, keep_dims: bool) -> Tensor<T> {
        self.sum_axis(axis, keep_dims)
            .div_scalar(T::from_usize(self.dims()[axis]))
    }

    /// Euclidean (L2) norm of all elements, as a plain scalar.
    pub fn norm(&self) -> T {
        self.square().sum().scalar_value().sqrt_()
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn dot(&self, other: &Tensor<T>) -> T {
        assert_eq!(self.shape(), other.shape(), "dot requires identical shapes");
        let a = self.as_slice();
        let b = other.as_slice();
        fn dot_slices<T: Float>(a: &[T], b: &[T]) -> T {
            if simd::simd_enabled() {
                if let (Some(af), Some(bf)) = (simd::as_f32_slice(a), simd::as_f32_slice(b)) {
                    let mut out = T::zero();
                    simd::write_f32(&mut out, simd::vectorize(|| simd::dot_f32(af, bf)));
                    return out;
                }
            }
            a.iter().zip(b).map(|(&x, &y)| x * y).sum()
        }
        if a.len() < crate::par::REDUCE_GRAIN {
            return dot_slices(a, b);
        }
        let parts = s4tf_threads::parallel_map_chunks(0..a.len(), crate::par::REDUCE_GRAIN, |r| {
            dot_slices(&a[r.clone()], &b[r])
        });
        parts.into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn sum_all_and_axis() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum().scalar_value(), 21.0);
        assert_eq!(a.sum_axis(0, false).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sum_axis(1, false).as_slice(), &[6.0, 15.0]);
        let k = a.sum_axis(1, true);
        assert_eq!(k.dims(), &[2, 1]);
    }

    #[test]
    fn sum_axes_keep_dedups() {
        let a = Tensor::<f32>::ones(&[2, 3, 4]);
        let s = a.sum_axes_keep(&[0, 2, 0]);
        assert_eq!(s.dims(), &[1, 3, 1]);
        assert_eq!(s.as_slice(), &[8.0, 8.0, 8.0]);
    }

    #[test]
    fn reduce_to_shape_inverts_broadcast() {
        let grad = Tensor::<f32>::ones(&[4, 2, 3]);
        assert_eq!(grad.reduce_to_shape(&[1, 3]).as_slice(), &[8.0, 8.0, 8.0]);
        assert_eq!(grad.reduce_to_shape(&[3]).as_slice(), &[8.0, 8.0, 8.0]);
        let s = grad.reduce_to_shape(&[]);
        assert_eq!(s.scalar_value(), 24.0);
        assert_eq!(grad.reduce_to_shape(&[4, 2, 3]), grad);
    }

    #[test]
    fn min_max() {
        let a = t(&[3.0, -1.0, 2.0], &[3]);
        assert_eq!(a.max().scalar_value(), 3.0);
        assert_eq!(a.min().scalar_value(), -1.0);
        let m = t(&[1.0, 5.0, 3.0, 2.0], &[2, 2]);
        assert_eq!(m.max_axis(0, false).as_slice(), &[3.0, 5.0]);
        assert_eq!(m.max_axis(1, false).as_slice(), &[5.0, 3.0]);
        assert_eq!(m.max_axis(1, true).dims(), &[2, 1]);
    }

    #[test]
    fn argmax() {
        let m = t(&[1.0, 5.0, 3.0, 2.0, 9.0, 0.0], &[2, 3]);
        assert_eq!(m.argmax_axis(1).as_slice(), &[1, 1]);
        assert_eq!(m.argmax_axis(0).as_slice(), &[1, 1, 0]);
        // ties favor first
        let ties = t(&[2.0, 2.0], &[1, 2]);
        assert_eq!(ties.argmax_axis(1).as_slice(), &[0]);
    }

    #[test]
    fn mean_norm_dot() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.mean().scalar_value(), 2.5);
        assert_eq!(a.mean_axis(0, false).as_slice(), &[2.0, 3.0]);
        assert_eq!(t(&[3.0, 4.0], &[2]).norm(), 5.0);
        assert_eq!(t(&[1.0, 2.0], &[2]).dot(&t(&[3.0, 4.0], &[2])), 11.0);
    }
}
