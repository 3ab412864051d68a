//! The dropout layer.

use crate::layer::{Layer, PullbackWrtFn, Wrt};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use s4tf_core::Differentiable;
use s4tf_runtime::DTensor;
use s4tf_tensor::Tensor;
use std::sync::Arc;

/// Inverted dropout: during training each element is zeroed with
/// probability `rate` and the survivors are scaled by `1/(1-rate)`; during
/// inference the layer is the identity.
///
/// The mask is sampled on the host and enters the computation as a runtime
/// input, so on the lazy device the *trace structure* (and therefore the
/// program-cache key) is identical across steps even though the mask values
/// differ.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub rate: f32,
    /// True during training (mask applied); false for inference.
    pub training: bool,
    rng: Arc<Mutex<ChaCha8Rng>>,
}

impl Dropout {
    /// A training-mode dropout layer with a deterministic seed.
    ///
    /// # Panics
    /// Panics unless `0.0 <= rate < 1.0`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        Dropout {
            rate,
            training: true,
            rng: Arc::new(Mutex::new(ChaCha8Rng::seed_from_u64(seed))),
        }
    }

    fn sample_mask(&self, dims: &[usize]) -> Tensor<f32> {
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mut rng = self.rng.lock();
        Tensor::from_fn(dims, |_| if rng.gen::<f32>() < keep { scale } else { 0.0 })
    }
}

impl Differentiable for Dropout {
    type TangentVector = ();
    fn move_along(&mut self, _: &()) {}
}

impl Layer for Dropout {
    fn forward(&self, input: &DTensor) -> DTensor {
        if !self.training || self.rate == 0.0 {
            return input.clone();
        }
        let mask = DTensor::from_tensor(self.sample_mask(&input.dims()), &input.device());
        input.mul(&mask)
    }

    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        if !self.training || self.rate == 0.0 {
            let y = input.clone();
            return (
                y,
                Box::new(move |dy: &DTensor| ((), wrt.input().then(|| dy.clone()))),
            );
        }
        // The mask is drawn either way: the layer's random stream must not
        // depend on what its caller differentiates.
        let mask = DTensor::from_tensor(self.sample_mask(&input.dims()), &input.device());
        let y = input.mul(&mask);
        (
            y,
            Box::new(move |dy: &DTensor| ((), wrt.input().then(|| dy.mul(&mask)))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_runtime::Device;

    fn x() -> DTensor {
        DTensor::from_tensor(Tensor::ones(&[1000]), &Device::naive())
    }

    #[test]
    fn drops_roughly_rate_fraction() {
        let l = Dropout::new(0.3, 1);
        let y = l.forward(&x()).to_tensor();
        let dropped = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!((250..350).contains(&dropped), "dropped {dropped}");
        // Survivors are scaled to preserve the expectation.
        let survivor = y.as_slice().iter().find(|&&v| v != 0.0).unwrap();
        assert!((survivor - 1.0 / 0.7).abs() < 1e-6);
    }

    #[test]
    fn inference_mode_is_identity() {
        let mut l = Dropout::new(0.5, 2);
        l.training = false;
        let input = x();
        assert_eq!(l.forward(&input).to_tensor(), input.to_tensor());
    }

    #[test]
    fn pullback_uses_the_same_mask() {
        let l = Dropout::new(0.5, 3);
        let input = x();
        let (y, pb) = l.forward_with_pullback(&input);
        let ((), dx) = pb(&input.ones_like());
        let yt = y.to_tensor();
        let gt = dx.to_tensor();
        for (a, b) in yt.as_slice().iter().zip(gt.as_slice()) {
            // forward output and gradient share zero positions
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn zero_rate_is_identity() {
        let l = Dropout::new(0.0, 4);
        let input = x();
        assert_eq!(l.forward(&input).to_tensor(), input.to_tensor());
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn invalid_rate_panics() {
        Dropout::new(1.0, 5);
    }
}
