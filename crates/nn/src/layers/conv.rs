//! The 2-D convolution layer.

use crate::activation::Activation;
use crate::layer::{Layer, PullbackWrtFn, Wrt};
use rand::Rng;
use s4tf_core::differentiable_struct;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::{Padding, Tensor};

differentiable_struct! {
    /// A 2-D convolution layer: `activation(conv2d(x, filter) + b)`.
    ///
    /// Mirrors the paper's `Conv2D<Float>(filterShape:padding:activation:)`
    /// (Figure 6). The filter has HWIO shape `[h, w, in, out]`; inputs are
    /// NHWC.
    pub struct Conv2D tangent Conv2DTangent {
        params {
            /// Filter, `[kh, kw, in_channels, out_channels]`.
            pub filter: DTensor,
            /// Bias, `[out_channels]`.
            pub bias: DTensor,
        }
        nodiff {
            /// Spatial strides.
            pub strides: (usize, usize),
            /// Padding strategy.
            pub padding: Padding,
            /// Post-affine activation.
            pub activation: Activation,
        }
    }
}

impl Conv2D {
    /// A Glorot-initialized convolution layer on `device`.
    ///
    /// `filter_shape` is `(kh, kw, in_channels, out_channels)` — the same
    /// tuple as the paper's `filterShape:`.
    pub fn new<R: Rng + ?Sized>(
        filter_shape: (usize, usize, usize, usize),
        strides: (usize, usize),
        padding: Padding,
        activation: Activation,
        device: &Device,
        rng: &mut R,
    ) -> Self {
        let (kh, kw, cin, cout) = filter_shape;
        let fan_in = kh * kw * cin;
        let fan_out = kh * kw * cout;
        let filter = Tensor::<f32>::glorot_uniform(&[kh, kw, cin, cout], fan_in, fan_out, rng);
        Conv2D {
            filter: DTensor::from_tensor(filter, device),
            bias: DTensor::from_tensor(Tensor::zeros(&[cout]), device),
            strides,
            padding,
            activation,
        }
    }
}

impl Layer for Conv2D {
    fn forward(&self, input: &DTensor) -> DTensor {
        let conv = input
            .conv2d(&self.filter, self.strides, self.padding)
            .add(&self.bias);
        self.activation.apply(&conv)
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let pre = input
            .conv2d(&self.filter, self.strides, self.padding)
            .add(&self.bias);
        let (y, act_pb) = self.activation.vjp(&pre);
        let x = input.clone();
        let filter = self.filter.clone();
        let filter_dims = self.filter.dims();
        let bias_dims = self.bias.dims();
        let (strides, padding) = (self.strides, self.padding);
        (
            y,
            Box::new(move |dy: &DTensor| {
                let da = act_pb(dy);
                let dfilter = x.conv2d_backward_filter(&filter_dims, &da, strides, padding);
                let dbias = da.reduce_to_shape(&bias_dims);
                let dx = wrt
                    .input()
                    .then(|| x.conv2d_backward_input(&filter, &da, strides, padding));
                (
                    Conv2DTangent {
                        filter: dfilter,
                        bias: dbias,
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

    fn setup() -> (Conv2D, DTensor) {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let d = Device::naive();
        let l = Conv2D::new(
            (3, 3, 2, 4),
            (1, 1),
            Padding::Same,
            Activation::Relu,
            &d,
            &mut rng,
        );
        let x = DTensor::from_tensor(Tensor::randn(&[2, 6, 6, 2], &mut rng), &d);
        (l, x)
    }

    #[test]
    fn forward_shape() {
        let (l, x) = setup();
        assert_eq!(l.forward(&x).dims(), vec![2, 6, 6, 4]);
        // Figure 6's first layer: 5×5, 1→6 channels, same padding on MNIST.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let d = Device::naive();
        let lenet1 = Conv2D::new(
            (5, 5, 1, 6),
            (1, 1),
            Padding::Same,
            Activation::Relu,
            &d,
            &mut rng,
        );
        let img = DTensor::from_tensor(Tensor::zeros(&[1, 28, 28, 1]), &d);
        assert_eq!(lenet1.forward(&img).dims(), vec![1, 28, 28, 6]);
    }

    #[test]
    fn pullback_matches_finite_differences() {
        let (l, x) = setup();
        let (y, pb) = l.forward_with_pullback(&x);
        let (grad, dx) = pb(&y.ones_like());
        let d = Device::naive();
        let loss = |l: &Conv2D, x: &DTensor| l.forward(x).sum().to_tensor().scalar_value() as f64;
        let eps = 1e-3;

        let f = l.filter.to_tensor();
        let gf = grad.filter.to_tensor();
        for i in [0usize, 17, 41, 71] {
            let mut fp = f.clone();
            fp.as_mut_slice()[i] += eps;
            let mut fm = f.clone();
            fm.as_mut_slice()[i] -= eps;
            let mut lp = l.clone();
            lp.filter = DTensor::from_tensor(fp, &d);
            let mut lm = l.clone();
            lm.filter = DTensor::from_tensor(fm, &d);
            let fd = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps as f64);
            assert!(
                (fd - gf.as_slice()[i] as f64).abs() < 2e-2,
                "dfilter[{i}]: {fd} vs {}",
                gf.as_slice()[i]
            );
        }

        let xt = x.to_tensor();
        let gx = dx.to_tensor();
        for i in [0usize, 33, 99] {
            let mut xp = xt.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = xt.clone();
            xm.as_mut_slice()[i] -= eps;
            let fd = (loss(&l, &DTensor::from_tensor(xp, &d))
                - loss(&l, &DTensor::from_tensor(xm, &d)))
                / (2.0 * eps as f64);
            assert!((fd - gx.as_slice()[i] as f64).abs() < 2e-2, "dx[{i}]");
        }

        let gb = grad.bias.to_tensor();
        assert_eq!(gb.dims(), &[4]);
    }

    #[test]
    fn strided_valid_convolution() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let d = Device::naive();
        let l = Conv2D::new(
            (2, 2, 1, 3),
            (2, 2),
            Padding::Valid,
            Activation::Identity,
            &d,
            &mut rng,
        );
        let x = DTensor::from_tensor(Tensor::randn(&[1, 8, 8, 1], &mut rng), &d);
        let (y, pb) = l.forward_with_pullback(&x);
        assert_eq!(y.dims(), vec![1, 4, 4, 3]);
        let (g, dx) = pb(&y.ones_like());
        assert_eq!(g.filter.dims(), vec![2, 2, 1, 3]);
        assert_eq!(dx.dims(), vec![1, 8, 8, 1]);
    }
}
