//! Shape-manipulating kernels: reshape, transpose, broadcast, slice, concat,
//! pad and their gradient counterparts.

use crate::dtype::Scalar;
use crate::error::{Result, TensorError};
use crate::ops::elementwise::{broadcast_walk, for_each_row};
use crate::shape::Shape;
use crate::tensor::Tensor;

impl<T: Scalar> Tensor<T> {
    /// Reinterprets the tensor with a new shape of the same element count.
    /// O(1): the storage is shared with `self`.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor<T> {
        self.try_reshape(dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Tensor::reshape`].
    ///
    /// # Errors
    /// Returns [`TensorError::ElementCountMismatch`] if the counts differ.
    pub fn try_reshape(&self, dims: &[usize]) -> Result<Tensor<T>> {
        let shape = Shape::new(dims);
        if shape.num_elements() != self.num_elements() {
            return Err(TensorError::ElementCountMismatch {
                from: self.num_elements(),
                to: shape.num_elements(),
            });
        }
        Ok(Tensor::from_parts(shape, self.storage().clone()))
    }

    /// Flattens to rank 1.
    pub fn flattened(&self) -> Tensor<T> {
        self.reshape(&[self.num_elements()])
    }

    /// Adds a leading/trailing/interior dimension of extent 1.
    ///
    /// # Panics
    /// Panics if `axis > rank`.
    pub fn expand_dims(&self, axis: usize) -> Tensor<T> {
        let shape = self.shape().inserting(axis);
        let dims = shape.dims().to_vec();
        self.reshape(&dims)
    }

    /// Removes a dimension of extent 1.
    ///
    /// # Panics
    /// Panics if `axis >= rank` or the dimension is not 1.
    pub fn squeeze(&self, axis: usize) -> Tensor<T> {
        assert_eq!(
            self.dims()[axis],
            1,
            "cannot squeeze axis {axis} of extent {}",
            self.dims()[axis]
        );
        let shape = self.shape().removing(axis);
        let dims = shape.dims().to_vec();
        self.reshape(&dims)
    }

    /// Materializes the tensor broadcast to `dims`.
    ///
    /// # Panics
    /// Panics if `self` does not broadcast to `dims`.
    pub fn broadcast_to(&self, dims: &[usize]) -> Tensor<T> {
        let target = Shape::new(dims);
        if self.shape() == &target {
            return self.clone();
        }
        let out_shape = Shape::broadcast(self.shape(), &target).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            out_shape,
            target,
            "{} does not broadcast to {}",
            self.shape(),
            target
        );
        let src = self.as_slice();
        let (mut out, out_recycled) = crate::pool::zeroed_vec::<T>(target.num_elements());
        if !out.is_empty() {
            // Whole runs, not elements: each innermost row of the
            // coalesced walk is one contiguous copy of the source, or one
            // source element repeated.
            let (walk, [strides]) = broadcast_walk(&target, [self.shape()]);
            let contiguous = strides[strides.len() - 1] == 1;
            for_each_row(&mut out, &walk, [&strides], |row, [at]| {
                if contiguous {
                    row.copy_from_slice(&src[at..at + row.len()]);
                } else {
                    row.fill(src[at]);
                }
            });
        }
        Tensor::from_pooled_vec((out, out_recycled), dims)
    }

    /// Permutes the dimensions. `perm` must be a permutation of `0..rank`.
    ///
    /// # Panics
    /// Panics if `perm` is not a valid permutation.
    pub fn transpose(&self, perm: &[usize]) -> Tensor<T> {
        assert_eq!(perm.len(), self.rank(), "perm rank mismatch");
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            assert!(p < self.rank() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_dims: Vec<usize> = perm.iter().map(|&p| self.dims()[p]).collect();
        let out_shape = Shape::new(&out_dims);
        let src_strides = self.shape().strides();
        let src = self.as_slice();
        let (mut out, out_recycled) = crate::pool::zeroed_vec::<T>(self.num_elements());
        let mut idx = vec![0usize; self.rank()];
        for slot in out.iter_mut() {
            let mut src_flat = 0;
            for (o, &p) in perm.iter().enumerate() {
                src_flat += idx[o] * src_strides[p];
            }
            *slot = src[src_flat];
            for axis in (0..out_shape.rank()).rev() {
                idx[axis] += 1;
                if idx[axis] < out_shape.dim(axis) {
                    break;
                }
                idx[axis] = 0;
            }
        }
        Tensor::from_pooled_vec((out, out_recycled), &out_dims)
    }

    /// Transposes the last two dimensions (matrix transpose for rank 2).
    ///
    /// # Panics
    /// Panics if rank < 2.
    pub fn t(&self) -> Tensor<T> {
        assert!(self.rank() >= 2, "t() requires rank >= 2");
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.swap(self.rank() - 1, self.rank() - 2);
        self.transpose(&perm)
    }

    /// Extracts `[start, start+len)` along `axis`.
    ///
    /// # Panics
    /// Panics if the range exceeds the dimension.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Tensor<T> {
        assert!(axis < self.rank(), "axis {axis} out of range");
        assert!(
            start + len <= self.dims()[axis],
            "slice [{start}, {}) exceeds dim {} of extent {}",
            start + len,
            axis,
            self.dims()[axis]
        );
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let d = self.dims()[axis];
        let src = self.as_slice();
        let (mut out, out_recycled) = crate::pool::empty_vec::<T>(outer * len * inner);
        for o in 0..outer {
            let base = o * d * inner + start * inner;
            out.extend_from_slice(&src[base..base + len * inner]);
        }
        let mut dims = self.dims().to_vec();
        dims[axis] = len;
        Tensor::from_pooled_vec((out, out_recycled), &dims)
    }

    /// Writes `src` into `[start, start+src.dim(axis))` along `axis` in
    /// place — the gradient scatter for [`Tensor::slice_axis`], and the
    /// building block of the paper's O(1) `inout` pullbacks (§4.3).
    ///
    /// # Panics
    /// Panics on rank/extent mismatch.
    pub fn assign_slice_axis(&mut self, axis: usize, start: usize, src: &Tensor<T>) {
        assert_eq!(self.rank(), src.rank(), "rank mismatch in assign_slice");
        for a in 0..self.rank() {
            if a != axis {
                assert_eq!(self.dims()[a], src.dims()[a], "dim {a} mismatch");
            }
        }
        let len = src.dims()[axis];
        assert!(start + len <= self.dims()[axis], "slice out of bounds");
        let outer: usize = self.dims()[..axis].iter().product();
        let inner: usize = self.dims()[axis + 1..].iter().product();
        let d = self.dims()[axis];
        let s = src.as_slice();
        let dst = self.as_mut_slice();
        for o in 0..outer {
            let dst_base = o * d * inner + start * inner;
            let src_base = o * len * inner;
            dst[dst_base..dst_base + len * inner]
                .copy_from_slice(&s[src_base..src_base + len * inner]);
        }
    }

    /// Concatenates tensors along `axis`.
    ///
    /// # Panics
    /// Panics if `tensors` is empty or shapes disagree off-axis.
    pub fn concat(tensors: &[&Tensor<T>], axis: usize) -> Tensor<T> {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first = tensors[0];
        assert!(axis < first.rank(), "axis out of range");
        let mut axis_total = 0;
        for t in tensors {
            assert_eq!(t.rank(), first.rank(), "rank mismatch in concat");
            for a in 0..first.rank() {
                if a != axis {
                    assert_eq!(t.dims()[a], first.dims()[a], "dim {a} mismatch in concat");
                }
            }
            axis_total += t.dims()[axis];
        }
        let mut dims = first.dims().to_vec();
        dims[axis] = axis_total;
        let mut out = Tensor::zeros(&dims);
        let mut cursor = 0;
        for t in tensors {
            out.assign_slice_axis(axis, cursor, t);
            cursor += t.dims()[axis];
        }
        out
    }

    /// Zero-pads along each dimension by `(before, after)` pairs.
    ///
    /// # Panics
    /// Panics if `pads.len() != rank`.
    pub fn pad(&self, pads: &[(usize, usize)]) -> Tensor<T> {
        assert_eq!(pads.len(), self.rank(), "one pad pair per dimension");
        let dims: Vec<usize> = self
            .dims()
            .iter()
            .zip(pads)
            .map(|(&d, &(b, a))| d + b + a)
            .collect();
        let mut out = Tensor::zeros(&dims);
        // Copy rows of the innermost dimension.
        let src = self.as_slice();
        let in_shape = self.shape().clone();
        let out_strides = out.shape().strides();
        let dst = out.as_mut_slice();
        if self.rank() == 0 {
            dst[0] = src[0];
            return out;
        }
        let inner = in_shape.dim(self.rank() - 1);
        let rows = self.num_elements() / inner.max(1);
        for row in 0..rows {
            let multi = in_shape.multi_index(row * inner);
            let mut dst_flat = 0;
            for (a, &coord) in multi.iter().enumerate() {
                dst_flat += (coord + pads[a].0) * out_strides[a];
            }
            dst[dst_flat..dst_flat + inner].copy_from_slice(&src[row * inner..row * inner + inner]);
        }
        out
    }

    /// Removes padding: the adjoint of [`Tensor::pad`].
    ///
    /// # Panics
    /// Panics if the pads exceed the dimensions.
    pub fn unpad(&self, pads: &[(usize, usize)]) -> Tensor<T> {
        assert_eq!(pads.len(), self.rank(), "one pad pair per dimension");
        let mut t = self.clone();
        for (axis, &(b, a)) in pads.iter().enumerate() {
            let len = t.dims()[axis] - b - a;
            t = t.slice_axis(axis, b, len);
        }
        t
    }

    /// Stacks rank-`r` tensors into a rank-`r+1` tensor along a new leading
    /// axis.
    ///
    /// # Panics
    /// Panics if `tensors` is empty or shapes differ.
    pub fn stack(tensors: &[&Tensor<T>]) -> Tensor<T> {
        assert!(!tensors.is_empty(), "stack of zero tensors");
        let expanded: Vec<Tensor<T>> = tensors.iter().map(|t| t.expand_dims(0)).collect();
        let refs: Vec<&Tensor<T>> = expanded.iter().collect();
        Tensor::concat(&refs, 0)
    }

    /// Scatter-adds rows of `src` into `self` at the given row indices —
    /// the gradient of [`Tensor::gather_rows`], in the mutable-value-
    /// semantics formulation (§4.3: accumulate into a caller-owned buffer;
    /// duplicate indices accumulate).
    ///
    /// # Panics
    /// Panics if shapes disagree beyond axis 0, if `src.dims()[0] !=
    /// indices.len()`, or if any index is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor<T>) {
        self.scatter_add_rows_iter(indices.iter().copied(), src)
    }

    /// [`Tensor::scatter_add_rows`] over indices produced on the fly (no
    /// index buffer).
    pub fn scatter_add_rows_iter<I>(&mut self, indices: I, src: &Tensor<T>)
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator,
    {
        let indices = indices.into_iter();
        assert_eq!(self.rank(), src.rank(), "rank mismatch in scatter_add");
        assert_eq!(src.dims()[0], indices.len(), "one source row per index");
        assert_eq!(&self.dims()[1..], &src.dims()[1..], "row shapes must match");
        let row = self.num_elements() / self.dims()[0].max(1);
        let n_rows = self.dims()[0];
        let s = src.as_slice();
        let dst = self.as_mut_slice();
        for (r, i) in indices.enumerate() {
            assert!(i < n_rows, "row index {i} out of bounds");
            let d = &mut dst[i * row..(i + 1) * row];
            let v = &s[r * row..(r + 1) * row];
            for (dv, &sv) in d.iter_mut().zip(v) {
                *dv += sv;
            }
        }
    }

    /// Selects rows of a rank-≥1 tensor by index along axis 0 (the gather
    /// used by embeddings and minibatch assembly).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor<T> {
        self.gather_rows_iter(indices.iter().copied())
    }

    /// [`Tensor::gather_rows`] over indices produced on the fly (no index
    /// buffer). Rows are copied into a pre-sized output; one-element rows
    /// (bias tables) are copied as elements, not as one-element slices.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows_iter<I>(&self, indices: I) -> Tensor<T>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator,
    {
        assert!(self.rank() >= 1, "gather_rows requires rank >= 1");
        let indices = indices.into_iter();
        let n = indices.len();
        let rows = self.dims()[0];
        let row = self.num_elements() / rows.max(1);
        let src = self.as_slice();
        let (mut out, out_recycled) = crate::pool::zeroed_vec::<T>(n * row);
        let checked = indices.inspect(|&i| assert!(i < rows, "row index {i} out of bounds"));
        match row {
            0 => checked.for_each(drop),
            1 => out.iter_mut().zip(checked).for_each(|(o, i)| *o = src[i]),
            _ => out
                .chunks_exact_mut(row)
                .zip(checked)
                .for_each(|(o, i)| o.copy_from_slice(&src[i * row..(i + 1) * row])),
        }
        let mut dims = self.dims().to_vec();
        dims[0] = n;
        Tensor::from_pooled_vec((out, out_recycled), &dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn reshape_shares_storage() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = a.reshape(&[3, 2]);
        assert!(a.shares_storage_with(&b), "reshape must be O(1)");
        assert_eq!(b.dims(), &[3, 2]);
        assert!(a.try_reshape(&[4]).is_err());
    }

    #[test]
    fn flatten_expand_squeeze() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.flattened().dims(), &[4]);
        assert_eq!(a.expand_dims(0).dims(), &[1, 2, 2]);
        assert_eq!(a.expand_dims(2).dims(), &[2, 2, 1]);
        assert_eq!(a.expand_dims(0).squeeze(0).dims(), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot squeeze")]
    fn squeeze_non_unit_panics() {
        t(&[1.0, 2.0], &[2]).squeeze(0);
    }

    #[test]
    fn broadcast_to() {
        let row = t(&[1.0, 2.0], &[2]);
        let b = row.broadcast_to(&[3, 2]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        let col = t(&[1.0, 2.0], &[2, 1]);
        let b = col.broadcast_to(&[2, 3]);
        assert_eq!(b.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let s = Tensor::scalar(7.0f32);
        assert_eq!(s.broadcast_to(&[2, 2]).as_slice(), &[7.0; 4]);
    }

    #[test]
    #[should_panic(expected = "broadcast")]
    fn broadcast_to_shrink_panics() {
        t(&[1.0, 2.0, 3.0], &[3]).broadcast_to(&[2]);
    }

    #[test]
    fn transpose_2d() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.t();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(at.t(), a, "double transpose is identity");
    }

    #[test]
    fn transpose_3d_perm() {
        let a = Tensor::<f32>::from_fn(&[2, 3, 4], |i| i as f32);
        let p = a.transpose(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(p.at(&[k, i, j]), a.at(&[i, j, k]));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn transpose_bad_perm_panics() {
        t(&[1.0, 2.0], &[2, 1]).transpose(&[0, 0]);
    }

    #[test]
    fn slice_and_assign() {
        let a = Tensor::<f32>::from_fn(&[3, 4], |i| i as f32);
        let s = a.slice_axis(0, 1, 2);
        assert_eq!(s.dims(), &[2, 4]);
        assert_eq!(s.as_slice(), &[4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
        let c = a.slice_axis(1, 1, 2);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);

        let mut z = Tensor::<f32>::zeros(&[3, 4]);
        z.assign_slice_axis(0, 1, &s);
        assert_eq!(z.slice_axis(0, 1, 2), s);
        assert_eq!(z.slice_axis(0, 0, 1).as_slice(), &[0.0; 4]);
    }

    #[test]
    fn concat_and_stack() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0], &[1, 2]);
        let c = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let d = Tensor::concat(&[&a, &b], 1);
        assert_eq!(d.dims(), &[1, 4]);
        assert_eq!(d.as_slice(), &[1.0, 2.0, 3.0, 4.0]);

        let r1 = t(&[1.0, 2.0], &[2]);
        let r2 = t(&[3.0, 4.0], &[2]);
        let s = Tensor::stack(&[&r1, &r2]);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pad_unpad_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let p = a.pad(&[(1, 1), (0, 2)]);
        assert_eq!(p.dims(), &[4, 4]);
        assert_eq!(p.at(&[1, 0]), 1.0);
        assert_eq!(p.at(&[2, 1]), 4.0);
        assert_eq!(p.at(&[0, 0]), 0.0);
        assert_eq!(p.at(&[3, 3]), 0.0);
        assert_eq!(p.unpad(&[(1, 1), (0, 2)]), a);
    }

    #[test]
    fn pad_scalar() {
        let s = Tensor::scalar(5.0f32);
        assert_eq!(s.pad(&[]), s);
    }

    #[test]
    fn gather_rows() {
        let a = Tensor::<f32>::from_fn(&[3, 2], |i| i as f32);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.dims(), &[3, 2]);
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
        // One-element rows, and rows with no elements.
        let col = Tensor::<f32>::from_fn(&[3, 1], |i| i as f32);
        assert_eq!(col.gather_rows(&[2, 2, 0]).as_slice(), &[2.0, 2.0, 0.0]);
        let empty = Tensor::<f32>::zeros(&[3, 0]);
        assert_eq!(empty.gather_rows(&[1, 2]).dims(), &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_checks_every_index_even_for_empty_rows() {
        Tensor::<f32>::zeros(&[3, 0]).gather_rows(&[1, 3]);
    }

    #[test]
    fn scatter_add_is_the_gather_adjoint() {
        // ⟨gather(A, idx), G⟩ == ⟨A, scatter_add(idx, G)⟩ for all A, G.
        let a = Tensor::<f64>::from_fn(&[4, 3], |i| (i as f64) * 0.5 - 2.0);
        let idx = [1usize, 3, 1]; // duplicate index: must accumulate
        let g = Tensor::<f64>::from_fn(&[3, 3], |i| (i as f64) - 4.0);
        let gathered = a.gather_rows(&idx);
        let lhs: f64 = gathered
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        let mut scattered = Tensor::<f64>::zeros(&[4, 3]);
        scattered.scatter_add_rows(&idx, &g);
        let rhs: f64 = a
            .as_slice()
            .iter()
            .zip(scattered.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        assert!((lhs - rhs).abs() < 1e-12);
        // Duplicate row 1 received both contributions.
        assert_eq!(scattered.at(&[1, 0]), g.at(&[0, 0]) + g.at(&[2, 0]));
        // Untouched rows stay zero.
        assert_eq!(scattered.at(&[0, 0]), 0.0);
        assert_eq!(scattered.at(&[2, 2]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn scatter_add_bounds_check() {
        let mut t = Tensor::<f32>::zeros(&[2, 2]);
        t.scatter_add_rows(&[2], &Tensor::ones(&[1, 2]));
    }
}
