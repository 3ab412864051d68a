//! Generic sequential composition of two layers.
//!
//! The paper's models compose layers as struct fields (Figure 6), but
//! Swift's `sequenced(through:)` also offers generic chaining. [`Chain`]
//! is that combinator: a layer whose tangent vector is the pair of its
//! parts' tangents (tuples are `Differentiable`), and whose pullback is
//! the mechanical chain rule.

use crate::layer::{input_cotangent, Layer, PullbackWrtFn, Wrt};
use s4tf_core::Differentiable;
use s4tf_runtime::DTensor;

/// `Chain { first, second }` applies `first` then `second`.
///
/// Chains nest: `Chain<Chain<A, B>, C>` is a three-layer stack with tangent
/// `((A::TangentVector, B::TangentVector), C::TangentVector)`.
///
/// ```
/// use s4tf_nn::prelude::*;
/// use s4tf_nn::layers::Chain;
/// use rand::SeedableRng;
///
/// let d = Device::naive();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mlp = Chain::new(
///     Dense::new(4, 8, Activation::Tanh, &d, &mut rng),
///     Dense::new(8, 2, Activation::Identity, &d, &mut rng),
/// );
/// let x = DTensor::from_tensor(Tensor::zeros(&[3, 4]), &d);
/// assert_eq!(mlp.forward(&x).dims(), vec![3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Chain<A, B> {
    /// Applied first.
    pub first: A,
    /// Applied to `first`'s output.
    pub second: B,
}

impl<A, B> Chain<A, B> {
    /// Chains two layers.
    pub fn new(first: A, second: B) -> Self {
        Chain { first, second }
    }
}

impl<A: Differentiable, B: Differentiable> Differentiable for Chain<A, B> {
    type TangentVector = (A::TangentVector, B::TangentVector);

    fn move_along(&mut self, direction: &Self::TangentVector) {
        self.first.move_along(&direction.0);
        self.second.move_along(&direction.1);
    }

    fn zero_tangent(&self) -> Self::TangentVector {
        (self.first.zero_tangent(), self.second.zero_tangent())
    }
}

impl<A: Layer, B: Layer> Layer for Chain<A, B> {
    fn forward(&self, input: &DTensor) -> DTensor {
        self.second.forward(&self.first.forward(input))
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let (h, pb_first) = self.first.forward_with_pullback_wrt(input, wrt);
        let (y, pb_second) = self
            .second
            .forward_with_pullback_wrt(&h, Wrt::ParametersAndInput);
        (
            y,
            Box::new(move |dy: &DTensor| {
                let (g2, dh) = pb_second(dy);
                let (g1, dx) = pb_first(input_cotangent(&dh));
                ((g1, g2), dx)
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layers::{Dense, Flatten};
    use crate::loss::softmax_cross_entropy;
    use crate::optimizer::{Optimizer, Sgd};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use s4tf_core::VectorSpace;
    use s4tf_runtime::Device;
    use s4tf_tensor::Tensor;

    type Mlp = Chain<Chain<Flatten, Dense>, Dense>;

    fn mlp(rng: &mut ChaCha8Rng, d: &Device) -> Mlp {
        Chain::new(
            Chain::new(Flatten::new(), Dense::new(16, 12, Activation::Tanh, d, rng)),
            Dense::new(12, 3, Activation::Identity, d, rng),
        )
    }

    #[test]
    fn nested_chains_forward_and_backward() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = mlp(&mut rng, &d);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[5, 4, 4], &mut rng), &d);
        let (y, pb) = model.forward_with_pullback(&x);
        assert_eq!(y.dims(), vec![5, 3]);
        let (((_, g_hidden), g_head), dx) = {
            let (g, dx) = pb(&y.ones_like());
            (g, dx)
        };
        assert_eq!(g_hidden.weight.dims(), vec![16, 12]);
        assert_eq!(g_head.weight.dims(), vec![12, 3]);
        assert_eq!(dx.dims(), vec![5, 4, 4]);
    }

    #[test]
    fn chained_model_trains_with_generic_optimizer() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut model = mlp(&mut rng, &d);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[12, 4, 4], &mut rng), &d);
        let labels = DTensor::from_tensor(
            Tensor::one_hot(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2], 3),
            &d,
        );
        let mut opt = Sgd::<Mlp>::new(0.3);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..25 {
            let (logits, pb) = model.forward_with_pullback(&x);
            let (loss, loss_pb) = softmax_cross_entropy(&logits, &labels);
            let (g, _) = pb(&loss_pb(&loss.scalar_like(1.0)));
            opt.update(&mut model, &g);
            let v = loss.to_tensor().scalar_value() as f64;
            if step == 0 {
                first = v;
            }
            last = v;
        }
        assert!(last < first * 0.5, "{first} → {last}");
    }

    #[test]
    fn chain_gradient_matches_finite_differences() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = Chain::new(
            Dense::new(3, 4, Activation::Sigmoid, &d, &mut rng),
            Dense::new(4, 1, Activation::Identity, &d, &mut rng),
        );
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[2, 3], &mut rng), &d);
        let (y, pb) = model.forward_with_pullback(&x);
        let (g, _) = pb(&y.ones_like());
        let loss = |m: &Chain<Dense, Dense>| m.forward(&x).sum().to_tensor().scalar_value() as f64;
        let eps = 1e-3f32;
        let mut mp = model.clone();
        let mut w = mp.first.weight.to_tensor();
        *w.at_mut(&[1, 2]) += eps;
        mp.first.weight = DTensor::from_tensor(w, &d);
        let fd = (loss(&mp) - loss(&model)) / eps as f64;
        let ad = g.0.weight.to_tensor().at(&[1, 2]) as f64;
        assert!((fd - ad).abs() < 1e-2, "fd={fd} ad={ad}");
    }

    #[test]
    fn tangent_arithmetic_composes() {
        let d = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = mlp(&mut rng, &d);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[2, 4, 4], &mut rng), &d);
        let (y, pb) = model.forward_with_pullback(&x);
        let (g, _) = pb(&y.ones_like());
        let doubled = g.scaled_by(2.0);
        assert!(doubled
            .1
            .weight
            .to_tensor()
            .allclose(&g.1.weight.mul_scalar(2.0).to_tensor(), 1e-6));
    }
}
