//! LeNet-5, transcribed from the paper's Figure 6.
//!
//! ```swift
//! public struct LeNet: Layer {
//!   public var conv1 = Conv2D<Float>(filterShape: (5, 5, 1, 6), padding: .same, activation: relu)
//!   public var pool1 = AvgPool2D<Float>(poolSize: (2, 2), strides: (2, 2))
//!   public var conv2 = Conv2D<Float>(filterShape: (5, 5, 6, 16), activation: relu)
//!   public var pool2 = AvgPool2D<Float>(poolSize: (2, 2), strides: (2, 2))
//!   public var flatten = Flatten<Float>()
//!   public var fc1 = Dense<Float>(inputSize: 400, outputSize: 120, activation: relu)
//!   public var fc2 = Dense<Float>(inputSize: 120, outputSize: 84, activation: relu)
//!   public var fc3 = Dense<Float>(inputSize: 84, outputSize: 10)
//! }
//! ```

use rand::Rng;
use s4tf_core::differentiable_struct;
use s4tf_nn::prelude::*;
use s4tf_runtime::{DTensor, Device};

differentiable_struct! {
    /// The LeNet-5 variant of paper Figure 6 (28×28×1 inputs, 10 classes).
    pub struct LeNet tangent LeNetTangent {
        params {
            /// 5×5, 1→6, same padding, relu.
            pub conv1: Conv2D,
            /// 5×5, 6→16, valid padding, relu.
            pub conv2: Conv2D,
            /// 400→120, relu.
            pub fc1: Dense,
            /// 120→84, relu.
            pub fc2: Dense,
            /// 84→10 (logits).
            pub fc3: Dense,
        }
        nodiff {
            /// 2×2/2 average pool.
            pub pool1: AvgPool2D,
            /// 2×2/2 average pool.
            pub pool2: AvgPool2D,
            /// Flatten to `[batch, 400]`.
            pub flatten: Flatten,
        }
    }
}

impl LeNet {
    /// A freshly initialized LeNet on `device`.
    pub fn new<R: Rng + ?Sized>(device: &Device, rng: &mut R) -> Self {
        LeNet {
            conv1: Conv2D::new(
                (5, 5, 1, 6),
                (1, 1),
                Padding::Same,
                Activation::Relu,
                device,
                rng,
            ),
            conv2: Conv2D::new(
                (5, 5, 6, 16),
                (1, 1),
                Padding::Valid,
                Activation::Relu,
                device,
                rng,
            ),
            fc1: Dense::new(400, 120, Activation::Relu, device, rng),
            fc2: Dense::new(120, 84, Activation::Relu, device, rng),
            fc3: Dense::new(84, 10, Activation::Identity, device, rng),
            pool1: AvgPool2D::new((2, 2), (2, 2)),
            pool2: AvgPool2D::new((2, 2), (2, 2)),
            flatten: Flatten::new(),
        }
    }
}

impl Checkpointable for LeNet {
    fn for_each_param(&self, prefix: &str, f: &mut dyn FnMut(&str, &DTensor)) {
        use s4tf_nn::checkpoint::join_name;
        self.conv1.for_each_param(&join_name(prefix, "conv1"), f);
        self.conv2.for_each_param(&join_name(prefix, "conv2"), f);
        self.fc1.for_each_param(&join_name(prefix, "fc1"), f);
        self.fc2.for_each_param(&join_name(prefix, "fc2"), f);
        self.fc3.for_each_param(&join_name(prefix, "fc3"), f);
    }

    fn for_each_param_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut DTensor)) {
        use s4tf_nn::checkpoint::join_name;
        self.conv1
            .for_each_param_mut(&join_name(prefix, "conv1"), f);
        self.conv2
            .for_each_param_mut(&join_name(prefix, "conv2"), f);
        self.fc1.for_each_param_mut(&join_name(prefix, "fc1"), f);
        self.fc2.for_each_param_mut(&join_name(prefix, "fc2"), f);
        self.fc3.for_each_param_mut(&join_name(prefix, "fc3"), f);
    }
}

impl Layer for LeNet {
    /// Figure 6's `callAsFunction`: `input.sequenced(through: conv1, pool1,
    /// conv2, pool2)` then `(flatten, fc1, fc2, fc3)`.
    fn forward(&self, input: &DTensor) -> DTensor {
        let convolved = self.pool2.forward(
            &self
                .conv2
                .forward(&self.pool1.forward(&self.conv1.forward(input))),
        );
        self.fc3.forward(
            &self
                .fc2
                .forward(&self.fc1.forward(&self.flatten.forward(&convolved))),
        )
    }

    /// The first convolution sees the model's input and gets the caller's
    /// `wrt`; every later layer's input cotangent feeds the chain rule.
    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let chain = Wrt::ParametersAndInput;
        let (h1, pb_conv1) = self.conv1.forward_with_pullback_wrt(input, wrt);
        let (h2, pb_pool1) = self.pool1.forward_with_pullback_wrt(&h1, chain);
        let (h3, pb_conv2) = self.conv2.forward_with_pullback_wrt(&h2, chain);
        let (h4, pb_pool2) = self.pool2.forward_with_pullback_wrt(&h3, chain);
        let (h5, pb_flat) = self.flatten.forward_with_pullback_wrt(&h4, chain);
        let (h6, pb_fc1) = self.fc1.forward_with_pullback_wrt(&h5, chain);
        let (h7, pb_fc2) = self.fc2.forward_with_pullback_wrt(&h6, chain);
        let (logits, pb_fc3) = self.fc3.forward_with_pullback_wrt(&h7, chain);
        (
            logits,
            Box::new(move |dy: &DTensor| {
                let (g_fc3, d7) = pb_fc3(dy);
                let (g_fc2, d6) = pb_fc2(input_cotangent(&d7));
                let (g_fc1, d5) = pb_fc1(input_cotangent(&d6));
                let ((), d4) = pb_flat(input_cotangent(&d5));
                let ((), d3) = pb_pool2(input_cotangent(&d4));
                let (g_conv2, d2) = pb_conv2(input_cotangent(&d3));
                let ((), d1) = pb_pool1(input_cotangent(&d2));
                let (g_conv1, dx) = pb_conv1(input_cotangent(&d1));
                (
                    LeNetTangent {
                        conv1: g_conv1,
                        conv2: g_conv2,
                        fc1: g_fc1,
                        fc2: g_fc2,
                        fc3: g_fc3,
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
    use s4tf_tensor::Tensor;

    #[test]
    fn forward_shapes_match_figure_6() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d = Device::naive();
        let model = LeNet::new(&d, &mut rng);
        let x = DTensor::from_tensor(Tensor::zeros(&[2, 28, 28, 1]), &d);
        // conv1(same): 28×28×6 → pool: 14×14×6 → conv2(valid): 10×10×16
        // → pool: 5×5×16 → flatten: 400 → 120 → 84 → 10.
        let y = model.forward(&x);
        assert_eq!(y.dims(), vec![2, 10]);
    }

    #[test]
    fn pullback_produces_full_tangent() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let d = Device::naive();
        let model = LeNet::new(&d, &mut rng);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[2, 28, 28, 1], &mut rng), &d);
        let (y, pb) = model.forward_with_pullback(&x);
        let (g, dx) = pb(&y.ones_like());
        assert_eq!(g.conv1.filter.dims(), vec![5, 5, 1, 6]);
        assert_eq!(g.conv2.filter.dims(), vec![5, 5, 6, 16]);
        assert_eq!(g.fc1.weight.dims(), vec![400, 120]);
        assert_eq!(g.fc3.bias.dims(), vec![10]);
        assert_eq!(dx.dims(), vec![2, 28, 28, 1]);
    }

    #[test]
    fn selected_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let d = Device::naive();
        let model = LeNet::new(&d, &mut rng);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[1, 28, 28, 1], &mut rng), &d);
        let (y, pb) = model.forward_with_pullback(&x);
        let (g, _) = pb(&y.ones_like());
        let loss = |m: &LeNet| m.forward(&x).sum().to_tensor().scalar_value() as f64;
        let eps = 1e-2f64;
        // One weight from each trainable layer.
        let checks: Vec<(f64, f64)> = vec![
            {
                let mut m = model.clone();
                let mut f = m.conv1.filter.to_tensor();
                let i = 3;
                let ad = g.conv1.filter.to_tensor().as_slice()[i] as f64;
                f.as_mut_slice()[i] += eps as f32;
                m.conv1.filter = DTensor::from_tensor(f, &d);
                ((loss(&m) - loss(&model)) / eps, ad)
            },
            {
                let mut m = model.clone();
                let mut f = m.fc2.weight.to_tensor();
                let i = 100;
                let ad = g.fc2.weight.to_tensor().as_slice()[i] as f64;
                f.as_mut_slice()[i] += eps as f32;
                m.fc2.weight = DTensor::from_tensor(f, &d);
                ((loss(&m) - loss(&model)) / eps, ad)
            },
            {
                let mut m = model.clone();
                let mut b = m.fc3.bias.to_tensor();
                let i = 5;
                let ad = g.fc3.bias.to_tensor().as_slice()[i] as f64;
                b.as_mut_slice()[i] += eps as f32;
                m.fc3.bias = DTensor::from_tensor(b, &d);
                ((loss(&m) - loss(&model)) / eps, ad)
            },
        ];
        for (i, (fd, ad)) in checks.iter().enumerate() {
            assert!(
                (fd - ad).abs() < 0.05 * (1.0 + ad.abs()),
                "check {i}: fd={fd} ad={ad}"
            );
        }
    }

    /// The codegen launch counters are process-wide: the tests that run
    /// LeNet on the lazy device take turns.
    static LAZY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn lazy_momentum_steps_merge_their_fused_programs() {
        // Two momentum-SGD steps stage values through register rows only
        // in the programs no peephole can merge (relu backward, the loss
        // gradient). Bias+relu is one instruction with an activation
        // epilogue, the momentum update one two-product instruction, the
        // parameter update one mul+add: if a peephole stops firing, its
        // launches join the staged count pinned here. The losses match
        // the naive device.
        use s4tf_nn::optimizer::Sgd;
        use s4tf_nn::train::train_classifier_step;

        let _turn = LAZY.lock().unwrap_or_else(|e| e.into_inner());
        let mut one_hot = vec![0.0f32; 40];
        for i in 0..4 {
            one_hot[i * 10 + (3 * i + 1) % 10] = 1.0;
        }
        let mut losses = Vec::new();
        let mut launches = (0, 0);
        for d in [Device::naive(), Device::lazy()] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut model = LeNet::new(&d, &mut rng);
            let mut opt = Sgd::<LeNet>::with_momentum(0.05, 0.9);
            let x = DTensor::from_tensor(Tensor::<f32>::randn(&[4, 28, 28, 1], &mut rng), &d);
            let labels = DTensor::from_tensor(Tensor::from_vec(one_hot.clone(), &[4, 10]), &d);
            let before = s4tf_runtime::codegen::stats();
            for _ in 0..2 {
                losses.push(train_classifier_step(&mut model, &mut opt, &x, &labels));
            }
            let after = s4tf_runtime::codegen::stats();
            launches = (
                after.specialized - before.specialized,
                after.fallback - before.fallback,
            );
        }
        let (single, staged) = launches;
        assert_eq!(
            staged, 12,
            "staged fused launches ({single} single-instruction)"
        );
        assert!(single > staged, "{single} single-instruction launches");
        let (naive, lazy) = losses.split_at(2);
        for (n, l) in naive.iter().zip(lazy) {
            assert!(
                (n - l).abs() <= 1e-4 * (1.0 + n.abs()),
                "naive {n} vs lazy {l}"
            );
        }
    }

    #[test]
    fn identical_on_all_devices() {
        let _turn = LAZY.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let naive = Device::naive();
        let reference_model = LeNet::new(&naive, &mut rng);
        let xs = Tensor::<f32>::randn(&[2, 28, 28, 1], &mut rng);
        let reference = reference_model
            .forward(&DTensor::from_tensor(xs.clone(), &naive))
            .to_tensor();
        for d in [Device::eager(), Device::lazy()] {
            // Port the same weights to the device.
            let mut m = reference_model.clone();
            m.conv1.filter = DTensor::from_tensor(reference_model.conv1.filter.to_tensor(), &d);
            m.conv1.bias = DTensor::from_tensor(reference_model.conv1.bias.to_tensor(), &d);
            m.conv2.filter = DTensor::from_tensor(reference_model.conv2.filter.to_tensor(), &d);
            m.conv2.bias = DTensor::from_tensor(reference_model.conv2.bias.to_tensor(), &d);
            m.fc1.weight = DTensor::from_tensor(reference_model.fc1.weight.to_tensor(), &d);
            m.fc1.bias = DTensor::from_tensor(reference_model.fc1.bias.to_tensor(), &d);
            m.fc2.weight = DTensor::from_tensor(reference_model.fc2.weight.to_tensor(), &d);
            m.fc2.bias = DTensor::from_tensor(reference_model.fc2.bias.to_tensor(), &d);
            m.fc3.weight = DTensor::from_tensor(reference_model.fc3.weight.to_tensor(), &d);
            m.fc3.bias = DTensor::from_tensor(reference_model.fc3.bias.to_tensor(), &d);
            let y = m.forward(&DTensor::from_tensor(xs.clone(), &d)).to_tensor();
            assert!(y.allclose(&reference, 1e-4), "{} diverged", d.kind());
        }
    }
}
