//! Pooling layers (parameter-free; their tangent vector is `()`).

use crate::layer::{Layer, PullbackWrtFn, Wrt};
use s4tf_core::Differentiable;
use s4tf_runtime::DTensor;
use s4tf_tensor::Padding;

/// Average pooling — the paper's
/// `AvgPool2D<Float>(poolSize:strides:)` (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvgPool2D {
    /// Pooling window.
    pub pool_size: (usize, usize),
    /// Strides.
    pub strides: (usize, usize),
    /// Padding strategy.
    pub padding: Padding,
}

impl AvgPool2D {
    /// A valid-padded average pool.
    pub fn new(pool_size: (usize, usize), strides: (usize, usize)) -> Self {
        AvgPool2D {
            pool_size,
            strides,
            padding: Padding::Valid,
        }
    }
}

impl Differentiable for AvgPool2D {
    type TangentVector = ();
    fn move_along(&mut self, _: &()) {}
}

impl Layer for AvgPool2D {
    fn forward(&self, input: &DTensor) -> DTensor {
        input.avg_pool2d(self.pool_size, self.strides, self.padding)
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let y = self.forward(input);
        let x = wrt.input().then(|| input.clone());
        let (pool, strides, padding) = (self.pool_size, self.strides, self.padding);
        (
            y,
            Box::new(move |dy: &DTensor| {
                let dx = x
                    .as_ref()
                    .map(|x| x.avg_pool2d_backward(dy, pool, strides, padding));
                ((), dx)
            }),
        )
    }
}

/// Max pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPool2D {
    /// Pooling window.
    pub pool_size: (usize, usize),
    /// Strides.
    pub strides: (usize, usize),
    /// Padding strategy.
    pub padding: Padding,
}

impl MaxPool2D {
    /// A valid-padded max pool.
    pub fn new(pool_size: (usize, usize), strides: (usize, usize)) -> Self {
        MaxPool2D {
            pool_size,
            strides,
            padding: Padding::Valid,
        }
    }
}

impl Differentiable for MaxPool2D {
    type TangentVector = ();
    fn move_along(&mut self, _: &()) {}
}

impl Layer for MaxPool2D {
    fn forward(&self, input: &DTensor) -> DTensor {
        input.max_pool2d(self.pool_size, self.strides, self.padding)
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let y = self.forward(input);
        let x = wrt.input().then(|| input.clone());
        let (pool, strides, padding) = (self.pool_size, self.strides, self.padding);
        (
            y,
            Box::new(move |dy: &DTensor| {
                let dx = x
                    .as_ref()
                    .map(|x| x.max_pool2d_backward(dy, pool, strides, padding));
                ((), dx)
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_runtime::Device;
    use s4tf_tensor::Tensor;

    fn image() -> DTensor {
        DTensor::from_tensor(
            Tensor::<f32>::from_fn(&[1, 4, 4, 1], |i| i as f32),
            &Device::naive(),
        )
    }

    #[test]
    fn avg_pool_forward_and_pullback() {
        let l = AvgPool2D::new((2, 2), (2, 2));
        let x = image();
        let (y, pb) = l.forward_with_pullback(&x);
        assert_eq!(y.dims(), vec![1, 2, 2, 1]);
        assert_eq!(y.to_tensor().as_slice(), &[2.5, 4.5, 10.5, 12.5]);
        let ((), dx) = pb(&y.ones_like());
        // Every input cell receives 1/4 of its window's gradient.
        assert!(dx.to_tensor().as_slice().iter().all(|&g| g == 0.25));
    }

    #[test]
    fn max_pool_forward_and_pullback() {
        let l = MaxPool2D::new((2, 2), (2, 2));
        let x = image();
        let (y, pb) = l.forward_with_pullback(&x);
        assert_eq!(y.to_tensor().as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        let ((), dx) = pb(&y.ones_like());
        let g = dx.to_tensor();
        assert_eq!(g.as_slice().iter().filter(|&&v| v == 1.0).count(), 4);
        assert_eq!(g.as_slice().iter().filter(|&&v| v == 0.0).count(), 12);
    }

    #[test]
    fn pool_layers_are_parameter_free() {
        let mut l = AvgPool2D::new((2, 2), (2, 2));
        l.move_along(&()); // tangent is ()
        assert_eq!(l.pool_size, (2, 2));
    }
}
