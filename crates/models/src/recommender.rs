//! A matrix-factorization recommender — the "recommendation systems"
//! corner of the paper's swift-models catalog (§5).
//!
//! `rating(u, i) = user_vec(u) · item_vec(i) + user_bias(u) + item_bias(i)`
//! with all four tables trainable [`Embedding`]s. The gradient of every
//! lookup is a scatter-add (paper §4.3's big-to-small pattern), so a
//! minibatch update touches only the rows it observed.

use rand::Rng;
use s4tf_core::differentiable_struct;
use s4tf_nn::layers::Embedding;
use s4tf_nn::{Layer, Wrt};
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::Tensor;

differentiable_struct! {
    /// Matrix factorization with biases.
    pub struct MatrixFactorizer tangent MatrixFactorizerTangent {
        params {
            /// User factor table, `[users, dim]`.
            pub user_factors: Embedding,
            /// Item factor table, `[items, dim]`.
            pub item_factors: Embedding,
            /// Per-user bias, `[users, 1]`.
            pub user_bias: Embedding,
            /// Per-item bias, `[items, 1]`.
            pub item_bias: Embedding,
        }
        nodiff {}
    }
}

/// The pullback of [`MatrixFactorizer::predict_with_pullback`].
pub type RecommenderPullback = Box<dyn Fn(&DTensor) -> MatrixFactorizerTangent + Send>;

impl MatrixFactorizer {
    /// A fresh factorizer on `device`.
    pub fn new<R: Rng + ?Sized>(
        users: usize,
        items: usize,
        dim: usize,
        device: &Device,
        rng: &mut R,
    ) -> Self {
        MatrixFactorizer {
            user_factors: Embedding::new(users, dim, device, rng),
            item_factors: Embedding::new(items, dim, device, rng),
            user_bias: Embedding::new(users, 1, device, rng),
            item_bias: Embedding::new(items, 1, device, rng),
        }
    }

    /// Encodes id lists as the float index tensors the embeddings take.
    pub fn encode_ids(ids: &[usize], device: &Device) -> DTensor {
        DTensor::from_tensor(
            Tensor::from_vec(ids.iter().map(|&i| i as f32).collect(), &[ids.len()]),
            device,
        )
    }

    /// Predicted ratings for `(users, items)` pairs: `[batch]`.
    pub fn predict(&self, users: &DTensor, items: &DTensor) -> DTensor {
        let batch = users.dims()[0];
        let u = self.user_factors.forward(users);
        let v = self.item_factors.forward(items);
        let dot = u.mul(&v).sum_axis(1);
        let ub = self.user_bias.forward(users).reshape(&[batch]);
        let ib = self.item_bias.forward(items).reshape(&[batch]);
        dot.add(&ub).add(&ib)
    }

    /// Predictions with the pullback onto all four tables.
    pub fn predict_with_pullback(
        &self,
        users: &DTensor,
        items: &DTensor,
    ) -> (DTensor, RecommenderPullback) {
        let batch = users.dims()[0];
        let dim = self.user_factors.dim();
        // Indices have no cotangent worth building: parameters only.
        let wrt = Wrt::Parameters;
        let (u, pb_u) = self.user_factors.forward_with_pullback_wrt(users, wrt);
        let (v, pb_v) = self.item_factors.forward_with_pullback_wrt(items, wrt);
        let (ub, pb_ub) = self.user_bias.forward_with_pullback_wrt(users, wrt);
        let (ib, pb_ib) = self.item_bias.forward_with_pullback_wrt(items, wrt);
        let dot = u.mul(&v).sum_axis(1);
        let pred = dot.add(&ub.reshape(&[batch])).add(&ib.reshape(&[batch]));
        (
            pred,
            Box::new(move |dy: &DTensor| {
                // d(u·v)/du = dy ⊗ v (broadcast dy over the factor dim).
                let dy_col = dy.reshape(&[batch, 1]).broadcast_to(&[batch, dim]);
                let (g_user, _) = pb_u(&dy_col.mul(&v));
                let (g_item, _) = pb_v(&dy_col.mul(&u));
                let dy_bias = dy.reshape(&[batch, 1]);
                let (g_ubias, _) = pb_ub(&dy_bias);
                let (g_ibias, _) = pb_ib(&dy_bias);
                MatrixFactorizerTangent {
                    user_factors: g_user,
                    item_factors: g_item,
                    user_bias: g_ubias,
                    item_bias: g_ibias,
                }
            }),
        )
    }

    /// Mean-squared error over observed ratings.
    pub fn mse(&self, users: &DTensor, items: &DTensor, targets: &Tensor<f32>) -> f64 {
        let pred = self.predict(users, items).to_tensor();
        pred.as_slice()
            .iter()
            .zip(targets.as_slice())
            .map(|(p, t)| ((p - t) as f64).powi(2))
            .sum::<f64>()
            / targets.num_elements().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use s4tf_core::{Differentiable, VectorSpace};
    use s4tf_data::ratings::{RatingsDataset, RatingsSpec};

    #[test]
    fn prediction_shape_and_pullback_shapes() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let m = MatrixFactorizer::new(10, 8, 4, &d, &mut rng);
        let users = MatrixFactorizer::encode_ids(&[0, 3, 9], &d);
        let items = MatrixFactorizer::encode_ids(&[7, 7, 1], &d);
        let (pred, pb) = m.predict_with_pullback(&users, &items);
        assert_eq!(pred.dims(), vec![3]);
        let g = pb(&pred.ones_like());
        assert_eq!(g.user_factors.table.dims(), vec![10, 4]);
        assert_eq!(g.item_factors.table.dims(), vec![8, 4]);
        assert_eq!(g.user_bias.table.dims(), vec![10, 1]);
        // Item 7 appears twice: its gradient row accumulates both.
        let gi = g.item_bias.table.to_tensor();
        assert_eq!(gi.at(&[7, 0]), 2.0);
        assert_eq!(gi.at(&[1, 0]), 1.0);
        assert_eq!(gi.at(&[0, 0]), 0.0);
    }

    #[test]
    fn a_step_updates_every_table_in_place_while_its_pullback_lives() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut m = MatrixFactorizer::new(10, 8, 4, &d, &mut rng);
        let users = MatrixFactorizer::encode_ids(&[0, 3, 9], &d);
        let items = MatrixFactorizer::encode_ids(&[7, 7, 1], &d);
        let (pred, pb) = m.predict_with_pullback(&users, &items);
        let g = pb(&pred.ones_like());
        let before = s4tf_tensor::storage::thread_cow_copy_count();
        m.move_along(&g.scaled_by(-0.1));
        assert_eq!(
            s4tf_tensor::storage::thread_cow_copy_count() - before,
            0,
            "no pullback may share a table's buffer"
        );
        drop(pb);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let m = MatrixFactorizer::new(5, 5, 3, &d, &mut rng);
        let users = MatrixFactorizer::encode_ids(&[1, 4], &d);
        let items = MatrixFactorizer::encode_ids(&[2, 2], &d);
        let loss = |m: &MatrixFactorizer| {
            m.predict(&users, &items).sum().to_tensor().scalar_value() as f64
        };
        let (pred, pb) = m.predict_with_pullback(&users, &items);
        let g = pb(&pred.ones_like());
        let eps = 1e-3f32;
        // user factor (1, 0)
        {
            let mut mp = m.clone();
            let mut t = mp.user_factors.table.to_tensor();
            *t.at_mut(&[1, 0]) += eps;
            mp.user_factors.table = DTensor::from_tensor(t, &d);
            let fd = (loss(&mp) - loss(&m)) / eps as f64;
            let ad = g.user_factors.table.to_tensor().at(&[1, 0]) as f64;
            assert!((fd - ad).abs() < 1e-2, "fd={fd} ad={ad}");
        }
        // item factor (2, 1) — touched twice
        {
            let mut mp = m.clone();
            let mut t = mp.item_factors.table.to_tensor();
            *t.at_mut(&[2, 1]) += eps;
            mp.item_factors.table = DTensor::from_tensor(t, &d);
            let fd = (loss(&mp) - loss(&m)) / eps as f64;
            let ad = g.item_factors.table.to_tensor().at(&[2, 1]) as f64;
            assert!((fd - ad).abs() < 1e-2, "fd={fd} ad={ad}");
        }
    }

    #[test]
    fn factorization_learns_held_out_ratings() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let data = RatingsDataset::generate(RatingsSpec::default(), 11);
        let mut model = MatrixFactorizer::new(64, 48, 6, &d, &mut rng);
        let users = MatrixFactorizer::encode_ids(&data.train.users, &d);
        let items = MatrixFactorizer::encode_ids(&data.train.items, &d);
        let targets = DTensor::from_tensor(
            Tensor::from_vec(data.train.ratings.clone(), &[data.train.len()]),
            &d,
        );
        let test_users = MatrixFactorizer::encode_ids(&data.test.users, &d);
        let test_items = MatrixFactorizer::encode_ids(&data.test.items, &d);
        let test_targets = Tensor::from_vec(data.test.ratings.clone(), &[data.test.len()]);

        let before = model.mse(&test_users, &test_items, &test_targets);
        let n = data.train.len() as f32;
        for _ in 0..120 {
            let (pred, pb) = model.predict_with_pullback(&users, &items);
            let dy = pred.sub(&targets).mul_scalar(2.0 / n);
            let g = pb(&dy);
            model.move_along(&g.scaled_by(-6.0));
        }
        let after = model.mse(&test_users, &test_items, &test_targets);
        assert!(
            after < before * 0.3,
            "held-out MSE must drop substantially: {before} → {after}"
        );
    }
}
