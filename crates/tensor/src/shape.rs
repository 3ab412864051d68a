//! Tensor shapes, row-major strides, index arithmetic and NumPy-style
//! broadcasting.

use crate::error::{Result, TensorError};
use std::fmt;

/// The shape of a tensor: its extent along each dimension.
///
/// Shapes are small value types (mutable value semantics, like everything in
/// this crate). A rank-0 shape denotes a scalar with one element.
///
/// ```
/// use s4tf_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.num_elements(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl serde::Serialize for Shape {
    /// Serializes as the bare dims array.
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.0)
    }
}

impl serde::Deserialize for Shape {
    fn from_value(value: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Vec::<usize>::from_value(value).map(Shape)
    }
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extents along each dimension.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent along dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Total number of elements (1 for a scalar shape).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// True if any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.0.contains(&0)
    }

    /// Row-major (C-order) strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat (row-major) offset.
    ///
    /// # Panics
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} != shape rank {}",
            index.len(),
            self.rank()
        );
        let mut flat = 0;
        for (axis, (&i, &d)) in index.iter().zip(self.0.iter()).enumerate() {
            assert!(i < d, "index {i} out of bounds for axis {axis} (size {d})");
            flat = flat * d + i;
        }
        flat
    }

    /// Converts a flat offset back to a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if `flat >= num_elements()`.
    pub fn multi_index(&self, flat: usize) -> Vec<usize> {
        assert!(flat < self.num_elements().max(1), "flat index out of range");
        let mut rem = flat;
        let mut index = vec![0; self.rank()];
        for axis in (0..self.rank()).rev() {
            index[axis] = rem % self.0[axis];
            rem /= self.0[axis];
        }
        index
    }

    /// The shape with `axis` removed.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn removing(&self, axis: usize) -> Shape {
        let mut dims = self.0.clone();
        dims.remove(axis);
        Shape(dims)
    }

    /// The shape with `axis` set to 1 (keep-dims reduction result).
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn keeping(&self, axis: usize) -> Shape {
        let mut dims = self.0.clone();
        dims[axis] = 1;
        Shape(dims)
    }

    /// The shape with an extra dimension of extent 1 inserted at `axis`.
    ///
    /// # Panics
    /// Panics if `axis > rank`.
    pub fn inserting(&self, axis: usize) -> Shape {
        let mut dims = self.0.clone();
        dims.insert(axis, 1);
        Shape(dims)
    }

    /// Computes the NumPy-style broadcast of two shapes.
    ///
    /// Trailing dimensions are aligned; each pair must be equal or one of
    /// them must be 1.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] when the shapes are not
    /// broadcast-compatible.
    ///
    /// ```
    /// use s4tf_tensor::Shape;
    /// let a = Shape::new(&[4, 1, 3]);
    /// let b = Shape::new(&[2, 3]);
    /// assert_eq!(Shape::broadcast(&a, &b)?, Shape::new(&[4, 2, 3]));
    /// # Ok::<(), s4tf_tensor::TensorError>(())
    /// ```
    pub fn broadcast(lhs: &Shape, rhs: &Shape) -> Result<Shape> {
        let rank = lhs.rank().max(rhs.rank());
        let mut dims = vec![0; rank];
        for (i, dim) in dims.iter_mut().enumerate() {
            let l = if i < rank - lhs.rank() {
                1
            } else {
                lhs.0[i - (rank - lhs.rank())]
            };
            let r = if i < rank - rhs.rank() {
                1
            } else {
                rhs.0[i - (rank - rhs.rank())]
            };
            if l == r || l == 1 || r == 1 {
                // The extent that is not 1 wins — a zero extent too.
                *dim = if l == 1 { r } else { l };
            } else {
                return Err(TensorError::ShapeMismatch {
                    lhs: lhs.0.clone(),
                    rhs: rhs.0.clone(),
                    op: "broadcast",
                });
            }
        }
        Ok(Shape(dims))
    }

    /// True if broadcasting `self` against `target` yields exactly
    /// `target` — `self` fits into it without growing it.
    pub fn broadcasts_to(&self, target: &Shape) -> bool {
        Shape::broadcast(self, target).is_ok_and(|out| out == *target)
    }

    /// True if `self`, leading extent-1 dims aside, is the trailing dims of
    /// `full`: broadcasting `self` to `full` then repeats it every
    /// `self.num_elements()` flat positions (a `[C]` bias against
    /// `[N,H,W,C]`, a scalar against anything), and reducing `full` back
    /// onto it is a column sum.
    ///
    /// ```
    /// use s4tf_tensor::Shape;
    /// let full = Shape::new(&[2, 4, 3]);
    /// assert!(Shape::new(&[3]).is_trailing_suffix_of(&full));
    /// assert!(Shape::new(&[1, 4, 3]).is_trailing_suffix_of(&full));
    /// assert!(Shape::scalar().is_trailing_suffix_of(&full));
    /// assert!(!Shape::new(&[2, 1, 1]).is_trailing_suffix_of(&full));
    /// ```
    pub fn is_trailing_suffix_of(&self, full: &Shape) -> bool {
        let first = self.0.iter().position(|&d| d != 1).unwrap_or(self.0.len());
        full.0.ends_with(&self.0[first..])
    }

    /// Axes of `self` (aligned to `target`'s trailing dimensions) along which
    /// broadcasting replicated data — i.e. the axes a gradient must be summed
    /// over to undo the broadcast. Returned as axes of `target`.
    ///
    /// # Panics
    /// Panics if `self` does not broadcast to `target`.
    pub fn broadcast_reduction_axes(&self, target: &Shape) -> Vec<usize> {
        let out = Shape::broadcast(self, target).expect("shapes must be broadcast-compatible");
        assert_eq!(&out, target, "self must broadcast exactly to target");
        let offset = target.rank() - self.rank();
        let mut axes = Vec::new();
        for i in 0..target.rank() {
            if i < offset || (self.0[i - offset] == 1 && target.0[i] != 1) {
                axes.push(i);
            }
        }
        axes
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.num_elements(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
        assert_eq!(s.dim(1), 3);
        assert!(!s.is_empty());
        assert!(Shape::new(&[2, 0]).is_empty());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.flat_index(&[]), 0);
        assert_eq!(s.multi_index(0), Vec::<usize>::new());
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn index_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        for flat in 0..24 {
            let multi = s.multi_index(flat);
            assert_eq!(s.flat_index(&multi), flat);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_index_bounds() {
        Shape::new(&[2, 2]).flat_index(&[2, 0]);
    }

    #[test]
    fn trailing_suffix_detection() {
        let suffix = |a: &[usize], b: &[usize]| Shape::new(a).is_trailing_suffix_of(&Shape::new(b));
        assert!(suffix(&[3], &[2, 3]));
        assert!(suffix(&[4, 3], &[2, 4, 3]));
        assert!(suffix(&[1, 1, 3], &[2, 4, 3]));
        assert!(suffix(&[], &[2, 3]));
        assert!(suffix(&[2, 3], &[2, 3]), "a shape is its own suffix");
        // Interior broadcasts are not suffixes.
        assert!(!suffix(&[2, 1], &[2, 3]));
        assert!(!suffix(&[4, 1, 3], &[4, 2, 3]));
        // Bigger than the full shape is never a suffix.
        assert!(!suffix(&[5, 2, 3], &[2, 3]));
    }

    #[test]
    fn broadcast_rules() {
        let b = |a: &[usize], b: &[usize]| Shape::broadcast(&Shape::new(a), &Shape::new(b));
        assert_eq!(b(&[2, 3], &[2, 3]).unwrap(), Shape::new(&[2, 3]));
        assert_eq!(b(&[2, 1], &[1, 3]).unwrap(), Shape::new(&[2, 3]));
        assert_eq!(b(&[0, 3], &[1, 3]).unwrap(), Shape::new(&[0, 3]));
        assert_eq!(b(&[3], &[2, 3]).unwrap(), Shape::new(&[2, 3]));
        assert_eq!(b(&[], &[2, 3]).unwrap(), Shape::new(&[2, 3]));
        assert_eq!(b(&[4, 1, 3], &[2, 3]).unwrap(), Shape::new(&[4, 2, 3]));
        assert!(b(&[2, 3], &[2, 4]).is_err());
    }

    #[test]
    fn broadcast_reduction_axes() {
        let small = Shape::new(&[1, 3]);
        let big = Shape::new(&[4, 2, 3]);
        assert_eq!(small.broadcast_reduction_axes(&big), vec![0, 1]);
        let same = Shape::new(&[4, 2, 3]);
        assert!(same.broadcast_reduction_axes(&big).is_empty());
        let scalar = Shape::scalar();
        assert_eq!(scalar.broadcast_reduction_axes(&big), vec![0, 1, 2]);
    }

    #[test]
    fn removing_keeping_inserting() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.removing(1), Shape::new(&[2, 4]));
        assert_eq!(s.keeping(1), Shape::new(&[2, 1, 4]));
        assert_eq!(s.inserting(0), Shape::new(&[1, 2, 3, 4]));
        assert_eq!(s.inserting(3), Shape::new(&[2, 3, 4, 1]));
    }

    #[test]
    fn conversions_and_display() {
        let s: Shape = [2usize, 3].into();
        assert_eq!(s, Shape::from(vec![2, 3]));
        assert_eq!(format!("{s}"), "[2, 3]");
        assert_eq!(format!("{s:?}"), "Shape[2, 3]");
    }
}
