//! The flatten layer.

use crate::layer::{Layer, PullbackWrtFn, Wrt};
use s4tf_core::Differentiable;
use s4tf_runtime::DTensor;

/// Flattens `[batch, d1, d2, …]` to `[batch, d1·d2·…]` — the paper's
/// `Flatten<Float>()` (Figure 6). Parameter-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flatten;

impl Flatten {
    /// A flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Differentiable for Flatten {
    type TangentVector = ();
    fn move_along(&mut self, _: &()) {}
}

impl Layer for Flatten {
    fn forward(&self, input: &DTensor) -> DTensor {
        let dims = input.dims();
        assert!(!dims.is_empty(), "flatten requires a batch dimension");
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product();
        input.reshape(&[batch, rest])
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let original = input.dims();
        let y = self.forward(input);
        (
            y,
            Box::new(move |dy: &DTensor| ((), wrt.input().then(|| dy.reshape(&original)))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_runtime::Device;
    use s4tf_tensor::Tensor;

    #[test]
    fn flatten_and_unflatten() {
        let x = DTensor::from_tensor(
            Tensor::<f32>::from_fn(&[2, 3, 4, 5], |i| i as f32),
            &Device::naive(),
        );
        let l = Flatten::new();
        let (y, pb) = l.forward_with_pullback(&x);
        assert_eq!(y.dims(), vec![2, 60]);
        let ((), dx) = pb(&y);
        assert_eq!(dx.dims(), vec![2, 3, 4, 5]);
        assert_eq!(dx.to_tensor(), x.to_tensor());
    }

    #[test]
    fn rank_two_is_a_no_op() {
        let x = DTensor::from_tensor(Tensor::<f32>::ones(&[4, 7]), &Device::naive());
        assert_eq!(Flatten::new().forward(&x).dims(), vec![4, 7]);
    }
}
