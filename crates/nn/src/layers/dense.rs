//! The fully-connected layer.

use crate::activation::Activation;
use crate::layer::{Layer, PullbackWrtFn, Wrt};
use rand::Rng;
use s4tf_core::differentiable_struct;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::Tensor;

differentiable_struct! {
    /// A dense (fully-connected) layer: `activation(x·W + b)`.
    ///
    /// Mirrors the paper's `Dense<Float>(inputSize:outputSize:activation:)`
    /// (Figure 6). The weight has shape `[input, output]`, the bias
    /// `[output]`.
    pub struct Dense tangent DenseTangent {
        params {
            /// Weight matrix, `[input, output]`.
            pub weight: DTensor,
            /// Bias vector, `[output]`.
            pub bias: DTensor,
        }
        nodiff {
            /// Post-affine activation.
            pub activation: Activation,
        }
    }
}

impl Dense {
    /// A Glorot-initialized dense layer on `device`.
    pub fn new<R: Rng + ?Sized>(
        input_size: usize,
        output_size: usize,
        activation: Activation,
        device: &Device,
        rng: &mut R,
    ) -> Self {
        let weight =
            Tensor::<f32>::glorot_uniform(&[input_size, output_size], input_size, output_size, rng);
        Dense {
            weight: DTensor::from_tensor(weight, device),
            bias: DTensor::from_tensor(Tensor::zeros(&[output_size]), device),
            activation,
        }
    }
}

impl Layer for Dense {
    fn forward(&self, input: &DTensor) -> DTensor {
        let affine = input.matmul(&self.weight).add(&self.bias);
        self.activation.apply(&affine)
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let affine = input.matmul(&self.weight).add(&self.bias);
        let (y, act_pb) = self.activation.vjp(&affine);
        let x = input.clone();
        let w = self.weight.clone();
        let bias_dims = self.bias.dims();
        (
            y,
            Box::new(move |dy: &DTensor| {
                let da = act_pb(dy);
                let dw = x.matmul_tn(&da);
                let db = da.reduce_to_shape(&bias_dims);
                let dx = wrt.input().then(|| da.matmul_nt(&w));
                (
                    DenseTangent {
                        weight: dw,
                        bias: db,
                    },
                    dx,
                )
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use s4tf_core::Differentiable;

    fn layer(act: Activation) -> (Dense, DTensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let d = Device::naive();
        let l = Dense::new(4, 3, act, &d, &mut rng);
        let x = DTensor::from_tensor(Tensor::randn(&[5, 4], &mut rng), &d);
        (l, x)
    }

    #[test]
    fn forward_shapes() {
        let (l, x) = layer(Activation::Identity);
        assert_eq!(l.forward(&x).dims(), vec![5, 3]);
    }

    #[test]
    fn identity_layer_is_affine() {
        let d = Device::naive();
        let l = Dense {
            weight: DTensor::from_tensor(Tensor::eye(2), &d),
            bias: DTensor::from_tensor(Tensor::from_vec(vec![1.0, -1.0], &[2]), &d),
            activation: Activation::Identity,
        };
        let x = DTensor::from_tensor(Tensor::from_vec(vec![3.0, 4.0], &[1, 2]), &d);
        assert_eq!(l.forward(&x).to_tensor().as_slice(), &[4.0, 3.0]);
    }

    /// Central-difference gradient check of all three cotangents.
    #[test]
    fn pullback_matches_finite_differences() {
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let (l, x) = layer(act);
            let (y, pb) = l.forward_with_pullback(&x);
            let (grad, dx) = pb(&y.ones_like());

            let d = Device::naive();
            let loss = |l: &Dense, x: &DTensor| -> f64 {
                l.forward(x).sum().to_tensor().scalar_value() as f64
            };
            let eps = 1e-3;

            // d/dW
            let w = l.weight.to_tensor();
            let gw = grad.weight.to_tensor();
            for i in [0usize, 5, 11] {
                let mut wp = w.clone();
                wp.as_mut_slice()[i] += eps;
                let mut wm = w.clone();
                wm.as_mut_slice()[i] -= eps;
                let mut lp = l.clone();
                lp.weight = DTensor::from_tensor(wp, &d);
                let mut lm = l.clone();
                lm.weight = DTensor::from_tensor(wm, &d);
                let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps as f64);
                assert!(
                    (fd - gw.as_slice()[i] as f64).abs() < 1e-2,
                    "{act:?} dW[{i}]"
                );
            }

            // d/db
            let gb = grad.bias.to_tensor();
            for i in 0..3 {
                let mut bp = l.bias.to_tensor();
                bp.as_mut_slice()[i] += eps;
                let mut lp = l.clone();
                lp.bias = DTensor::from_tensor(bp, &d);
                let fd = (loss(&lp, &x) - loss(&l, &x)) / eps as f64;
                assert!(
                    (fd - gb.as_slice()[i] as f64).abs() < 1e-2,
                    "{act:?} db[{i}]"
                );
            }

            // d/dx
            let xt = x.to_tensor();
            let gx = dx.to_tensor();
            for i in [0usize, 7, 19] {
                let mut xp = xt.clone();
                xp.as_mut_slice()[i] += eps;
                let mut xm = xt.clone();
                xm.as_mut_slice()[i] -= eps;
                let fd = (loss(&l, &DTensor::from_tensor(xp, &d))
                    - loss(&l, &DTensor::from_tensor(xm, &d)))
                    / (2.0 * eps as f64);
                assert!(
                    (fd - gx.as_slice()[i] as f64).abs() < 1e-2,
                    "{act:?} dx[{i}]"
                );
            }
        }
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let (mut l, x) = layer(Activation::Tanh);
        let loss_of = |l: &Dense| {
            let y = l.forward(&x);
            y.square().sum().to_tensor().scalar_value()
        };
        let before = loss_of(&l);
        // One step of gradient descent on loss = Σ y².
        let (y, pb) = l.forward_with_pullback(&x);
        let dy = y.mul_scalar(2.0);
        let (grad, _) = pb(&dy);
        use s4tf_core::VectorSpace;
        l.move_along(&grad.scaled_by(-0.05));
        assert!(loss_of(&l) < before);
    }

    #[test]
    fn works_on_all_devices() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let w = Tensor::<f32>::randn(&[4, 3], &mut rng);
        let xs = Tensor::<f32>::randn(&[2, 4], &mut rng);
        let mut outs = Vec::new();
        for d in [Device::naive(), Device::eager(), Device::lazy()] {
            let l = Dense {
                weight: DTensor::from_tensor(w.clone(), &d),
                bias: DTensor::from_tensor(Tensor::zeros(&[3]), &d),
                activation: Activation::Relu,
            };
            let x = DTensor::from_tensor(xs.clone(), &d);
            let (y, pb) = l.forward_with_pullback(&x);
            let (g, dx) = pb(&y.ones_like());
            outs.push((y.to_tensor(), g.weight.to_tensor(), dx.to_tensor()));
        }
        for o in &outs[1..] {
            assert!(o.0.allclose(&outs[0].0, 1e-5));
            assert!(o.1.allclose(&outs[0].1, 1e-5));
            assert!(o.2.allclose(&outs[0].2, 1e-5));
        }
    }
}
