//! Batch normalization over the feature (last) axis.

use crate::layer::{Layer, PullbackWrtFn, Wrt};
use s4tf_core::differentiable_struct;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::Tensor;

differentiable_struct! {
    /// Batch normalization: normalizes over every axis except the last
    /// (features), then applies a learned per-feature affine
    /// transformation. Used by the ResNet family (paper §5.1).
    ///
    /// This implementation always normalizes with batch statistics
    /// (training-mode); see DESIGN.md for the running-statistics
    /// simplification note.
    pub struct BatchNorm tangent BatchNormTangent {
        params {
            /// Per-feature scale γ, `[features]`.
            pub scale: DTensor,
            /// Per-feature offset β, `[features]`.
            pub offset: DTensor,
        }
        nodiff {
            /// Variance floor.
            pub epsilon: f32,
        }
    }
}

impl BatchNorm {
    /// A batch-norm layer over `features` channels (γ=1, β=0) on `device`.
    pub fn new(features: usize, device: &Device) -> Self {
        BatchNorm {
            scale: DTensor::from_tensor(Tensor::ones(&[features]), device),
            offset: DTensor::from_tensor(Tensor::zeros(&[features]), device),
            epsilon: 1e-5,
        }
    }

    /// Number of elements normalized per feature.
    fn reduce_count(dims: &[usize]) -> f32 {
        dims[..dims.len() - 1].iter().product::<usize>() as f32
    }

    /// The forward computation: `(y, x̂, σ)` — the normalized input and the
    /// per-feature standard deviation are what the pullback needs.
    fn normalize(&self, input: &DTensor) -> (DTensor, DTensor, DTensor) {
        let dims = input.dims();
        let c = *dims.last().expect("batchnorm needs a feature axis");
        let m = Self::reduce_count(&dims);
        let mean = input.reduce_to_shape(&[c]).div_scalar(m);
        let centered = input.sub(&mean);
        let var = centered.square().reduce_to_shape(&[c]).div_scalar(m);
        let std = var.add_scalar(self.epsilon).sqrt();
        let xhat = centered.div(&std);
        let y = xhat.mul(&self.scale).add(&self.offset);
        (y, xhat, std)
    }
}

impl Layer for BatchNorm {
    fn forward(&self, input: &DTensor) -> DTensor {
        self.normalize(input).0
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let (y, xhat, std) = self.normalize(input);
        let dims = input.dims();
        let c = dims[dims.len() - 1];
        let m = Self::reduce_count(&dims);
        let gamma = self.scale.clone();
        (
            y,
            Box::new(move |dy: &DTensor| {
                // Standard batch-norm backward:
                // dβ = Σ dy;  dγ = Σ dy·x̂
                // dx = γ/σ · (dy − mean(dy) − x̂·mean(dy·x̂))
                let dbeta = dy.reduce_to_shape(&[c]);
                let dgamma = dy.mul(&xhat).reduce_to_shape(&[c]);
                let dx = wrt.input().then(|| {
                    let mean_dy = dbeta.div_scalar(m);
                    let mean_dy_xhat = dgamma.div_scalar(m);
                    dy.sub(&mean_dy)
                        .sub(&xhat.mul(&mean_dy_xhat))
                        .mul(&gamma.div(&std))
                });
                (
                    BatchNormTangent {
                        scale: dgamma,
                        offset: dbeta,
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

    fn setup() -> (BatchNorm, DTensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let d = Device::naive();
        let l = BatchNorm::new(3, &d);
        let x = DTensor::from_tensor(
            Tensor::<f32>::randn(&[4, 2, 2, 3], &mut rng)
                .mul_scalar(2.0)
                .add_scalar(1.0),
            &d,
        );
        (l, x)
    }

    #[test]
    fn output_is_normalized_per_feature() {
        let (l, x) = setup();
        let y = l.forward(&x).to_tensor();
        // Per feature: mean ≈ 0, var ≈ 1.
        for f in 0..3 {
            let vals: Vec<f32> = y.as_slice().iter().skip(f).step_by(3).copied().collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-5, "feature {f} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "feature {f} var {var}");
        }
    }

    #[test]
    fn affine_parameters_shift_and_scale() {
        let (mut l, x) = setup();
        let d = Device::naive();
        l.scale = DTensor::from_tensor(Tensor::from_vec(vec![2.0, 2.0, 2.0], &[3]), &d);
        l.offset = DTensor::from_tensor(Tensor::from_vec(vec![5.0, 5.0, 5.0], &[3]), &d);
        let y = l.forward(&x).to_tensor();
        let mean: f32 = y.as_slice().iter().sum::<f32>() / y.num_elements() as f32;
        assert!((mean - 5.0).abs() < 1e-4);
    }

    #[test]
    fn pullback_matches_finite_differences() {
        let (l, x) = setup();
        let (y, pb) = l.forward_with_pullback(&x);
        let (grad, dx) = pb(&y.ones_like());
        let d = Device::naive();
        // loss = Σ y: dγ ≈ Σ x̂ per feature, dβ = count per feature.
        let gb = grad.offset.to_tensor();
        for &b in gb.as_slice() {
            assert!((b - 16.0).abs() < 1e-4, "dβ = per-feature count");
        }

        let eps = 1e-2;
        let xt = x.to_tensor();
        let gx = dx.to_tensor();
        let loss = |x: &Tensor<f32>| {
            l.forward(&DTensor::from_tensor(x.clone(), &d))
                .sum()
                .to_tensor()
                .scalar_value() as f64
        };
        for i in [0usize, 13, 31] {
            let mut xp = xt.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = xt.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps as f64);
            assert!(
                (fd - gx.as_slice()[i] as f64).abs() < 1e-2,
                "dx[{i}]: fd={fd} vjp={}",
                gx.as_slice()[i]
            );
        }

        // dγ check via finite differences.
        let gs = grad.scale.to_tensor();
        for i in 0..3 {
            let mut lp = l.clone();
            let mut sp = l.scale.to_tensor();
            sp.as_mut_slice()[i] += eps;
            lp.scale = DTensor::from_tensor(sp, &d);
            let base = l.forward(&x).sum().to_tensor().scalar_value() as f64;
            let fp = lp.forward(&x).sum().to_tensor().scalar_value() as f64;
            let fd = (fp - base) / eps as f64;
            assert!((fd - gs.as_slice()[i] as f64).abs() < 1e-2, "dγ[{i}]");
        }
    }

    #[test]
    fn works_on_rank_two_inputs() {
        let d = Device::naive();
        let l = BatchNorm::new(4, &d);
        let x = DTensor::from_tensor(Tensor::<f32>::from_fn(&[8, 4], |i| i as f32), &d);
        let y = l.forward(&x);
        assert_eq!(y.dims(), vec![8, 4]);
    }
}
