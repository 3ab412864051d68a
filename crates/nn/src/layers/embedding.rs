//! The embedding layer (row lookup with a scatter-add gradient).

use crate::layer::{Layer, PullbackWrtFn, Wrt};
use rand::Rng;
use s4tf_core::differentiable_struct;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::Tensor;

differentiable_struct! {
    /// A trainable lookup table: indices `[batch]` → vectors
    /// `[batch, dim]`.
    ///
    /// Its gradient is the canonical "big-to-small" operation of paper
    /// §4.3: each example touches one row, so the pullback *scatter-adds*
    /// into a table-shaped cotangent instead of materializing per-example
    /// one-hot matrices.
    pub struct Embedding tangent EmbeddingTangent {
        params {
            /// The table, `[vocabulary, dim]`.
            pub table: DTensor,
        }
        nodiff {}
    }
}

impl Embedding {
    /// A normal(0, 0.1)-initialized embedding on `device`.
    pub fn new<R: Rng + ?Sized>(
        vocabulary: usize,
        dim: usize,
        device: &Device,
        rng: &mut R,
    ) -> Self {
        let table = Tensor::<f32>::randn(&[vocabulary, dim], rng).mul_scalar(0.1);
        Embedding {
            table: DTensor::from_tensor(table, device),
        }
    }

    /// Vocabulary size.
    pub fn vocabulary(&self) -> usize {
        self.table.dims()[0]
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.dims()[1]
    }
}

impl Layer for Embedding {
    /// `input` carries float-encoded row indices, shape `[batch]`.
    fn forward(&self, input: &DTensor) -> DTensor {
        self.table.gather_rows(input)
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let y = self.table.gather_rows(input);
        // Only the row count: holding the table would make every in-place
        // update while the pullback lives copy it.
        let table_rows = self.vocabulary();
        let indices = input.clone();
        (
            y,
            Box::new(move |dy: &DTensor| {
                let dtable = DTensor::scatter_rows(table_rows, &indices, dy);
                // Indices are not differentiable data; their cotangent is 0.
                let dindices = wrt.input().then(|| indices.zeros_like());
                (EmbeddingTangent { table: dtable }, dindices)
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use s4tf_core::{Differentiable, VectorSpace};

    fn setup(device: &Device) -> (Embedding, DTensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let e = Embedding::new(6, 3, device, &mut rng);
        let idx = DTensor::from_tensor(Tensor::from_vec(vec![4.0, 0.0, 4.0], &[3]), device);
        (e, idx)
    }

    #[test]
    fn lookup_shapes_and_values() {
        let d = Device::naive();
        let (e, idx) = setup(&d);
        assert_eq!(e.vocabulary(), 6);
        assert_eq!(e.dim(), 3);
        let y = e.forward(&idx).to_tensor();
        assert_eq!(y.dims(), &[3, 3]);
        let table = e.table.to_tensor();
        for c in 0..3 {
            assert_eq!(y.at(&[0, c]), table.at(&[4, c]));
            assert_eq!(y.at(&[1, c]), table.at(&[0, c]));
            assert_eq!(y.at(&[2, c]), table.at(&[4, c]));
        }
    }

    #[test]
    fn gradient_scatter_adds_duplicates() {
        let d = Device::naive();
        let (e, idx) = setup(&d);
        let (y, pb) = e.forward_with_pullback(&idx);
        let (g, d_idx) = pb(&y.ones_like());
        let gt = g.table.to_tensor();
        assert_eq!(gt.dims(), &[6, 3]);
        assert_eq!(gt.at(&[4, 0]), 2.0, "row 4 was looked up twice");
        assert_eq!(gt.at(&[0, 0]), 1.0);
        assert_eq!(gt.at(&[1, 0]), 0.0, "untouched rows get zero gradient");
        assert!(d_idx.to_tensor().as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn training_moves_only_touched_rows() {
        let d = Device::naive();
        let (mut e, idx) = setup(&d);
        let before = e.table.to_tensor();
        let (y, pb) = e.forward_with_pullback(&idx);
        let (g, _) = pb(&y.ones_like());
        e.move_along(&g.scaled_by(-0.5));
        let after = e.table.to_tensor();
        for c in 0..3 {
            assert!(after.at(&[4, c]) < before.at(&[4, c]));
            assert_eq!(after.at(&[1, c]), before.at(&[1, c]));
        }
    }

    #[test]
    fn works_on_all_devices() {
        let naive = Device::naive();
        let (e0, _) = setup(&naive);
        let reference = e0
            .forward(&DTensor::from_tensor(
                Tensor::from_vec(vec![5.0, 2.0], &[2]),
                &naive,
            ))
            .to_tensor();
        for d in [Device::eager(), Device::lazy()] {
            let mut e = e0.clone();
            e.table = DTensor::from_tensor(e0.table.to_tensor(), &d);
            let idx = DTensor::from_tensor(Tensor::from_vec(vec![5.0, 2.0], &[2]), &d);
            assert!(e.forward(&idx).to_tensor().allclose(&reference, 1e-6));
        }
    }
}
