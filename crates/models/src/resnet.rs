//! The ResNet family, dynamically configured.
//!
//! §3.5 of the paper argues for lazy tracing precisely because "one may
//! implement a complete ResNet family of models by assembling key building
//! blocks in a configuration determined by a dynamic model variant" — the
//! composition is not known ahead of time, so fully static compilation
//! can't fuse across blocks, while lazy tracing sees the whole assembled
//! program. [`ResNetConfig`] is that dynamic variant: the same code builds
//! ResNet-8 through ResNet-56 (CIFAR geometry, Table 3) and the
//! ImageNet-geometry network used by the Table 1/2 simulations.

use rand::Rng;
use s4tf_core::differentiable_struct;
use s4tf_nn::prelude::*;
use s4tf_runtime::{DTensor, Device};

differentiable_struct! {
    /// A pre-activation-free basic residual block:
    /// `relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
    ///
    /// `shortcut` is empty for identity skips and holds one 1×1 strided
    /// projection when the block changes resolution or width.
    pub struct BasicBlock tangent BasicBlockTangent {
        params {
            /// First 3×3 convolution (possibly strided).
            pub conv1: Conv2D,
            /// Batch norm after `conv1`.
            pub bn1: BatchNorm,
            /// Second 3×3 convolution.
            pub conv2: Conv2D,
            /// Batch norm after `conv2`.
            pub bn2: BatchNorm,
            /// Projection shortcut (`[]` = identity, `[conv1x1]` = projection).
            pub shortcut: Vec<Conv2D>,
        }
        nodiff {}
    }
}

impl BasicBlock {
    /// A block mapping `in_filters` to `out_filters` at the given stride.
    pub fn new<R: Rng + ?Sized>(
        in_filters: usize,
        out_filters: usize,
        stride: usize,
        device: &Device,
        rng: &mut R,
    ) -> Self {
        let shortcut = if stride != 1 || in_filters != out_filters {
            vec![Conv2D::new(
                (1, 1, in_filters, out_filters),
                (stride, stride),
                Padding::Same,
                Activation::Identity,
                device,
                rng,
            )]
        } else {
            Vec::new()
        };
        BasicBlock {
            conv1: Conv2D::new(
                (3, 3, in_filters, out_filters),
                (stride, stride),
                Padding::Same,
                Activation::Identity,
                device,
                rng,
            ),
            bn1: BatchNorm::new(out_filters, device),
            conv2: Conv2D::new(
                (3, 3, out_filters, out_filters),
                (1, 1),
                Padding::Same,
                Activation::Identity,
                device,
                rng,
            ),
            bn2: BatchNorm::new(out_filters, device),
            shortcut,
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&self, input: &DTensor) -> DTensor {
        let h = self.bn1.forward(&self.conv1.forward(input)).relu();
        let h = self.bn2.forward(&self.conv2.forward(&h));
        let s = match self.shortcut.first() {
            Some(proj) => proj.forward(input),
            None => input.clone(),
        };
        h.add(&s).relu()
    }

    /// `conv1` and the projection shortcut see the block's input and get
    /// the caller's `wrt`; the rest feed the chain rule.
    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let chain = Wrt::ParametersAndInput;
        let (c1, pb_c1) = self.conv1.forward_with_pullback_wrt(input, wrt);
        let (b1, pb_b1) = self.bn1.forward_with_pullback_wrt(&c1, chain);
        let (r1, pb_r1) = Activation::Relu.vjp(&b1);
        let (c2, pb_c2) = self.conv2.forward_with_pullback_wrt(&r1, chain);
        let (b2, pb_b2) = self.bn2.forward_with_pullback_wrt(&c2, chain);
        let (s, pb_s) = match self.shortcut.first() {
            Some(proj) => {
                let (s, pb) = proj.forward_with_pullback_wrt(input, wrt);
                (s, Some(pb))
            }
            None => (input.clone(), None),
        };
        let sum = b2.add(&s);
        let (y, pb_out) = Activation::Relu.vjp(&sum);
        (
            y,
            Box::new(move |dy: &DTensor| {
                let dsum = pb_out(dy);
                // Residual fan-in: the gradient flows to both branches.
                let (g_b2, dc2) = pb_b2(&dsum);
                let (g_c2, dr1) = pb_c2(input_cotangent(&dc2));
                let db1 = pb_r1(input_cotangent(&dr1));
                let (g_b1, dc1) = pb_b1(&db1);
                let (g_c1, dx_main) = pb_c1(input_cotangent(&dc1));
                let (g_short, dx_side) = match &pb_s {
                    Some(pb) => {
                        let (g, dx) = pb(&dsum);
                        (vec![g], dx)
                    }
                    None => (Vec::new(), wrt.input().then(|| dsum.clone())),
                };
                (
                    BasicBlockTangent {
                        conv1: g_c1,
                        bn1: g_b1,
                        conv2: g_c2,
                        bn2: g_b2,
                        shortcut: g_short,
                    },
                    dx_main.zip(dx_side).map(|(main, side)| main.add(&side)),
                )
            }),
        )
    }
}

/// The dynamic model variant (paper §3.5): which ResNet to assemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Input channels (1 for MNIST-like, 3 for CIFAR/ImageNet-like).
    pub input_channels: usize,
    /// Stem filter count.
    pub stem_filters: usize,
    /// Blocks in each stage.
    pub blocks_per_stage: Vec<usize>,
    /// Filter count of each stage (same length as `blocks_per_stage`).
    pub stage_filters: Vec<usize>,
    /// Output classes.
    pub classes: usize,
    /// ImageNet-style stem (7×7/2 conv + 3×3/2 max pool) instead of the
    /// CIFAR 3×3/1 stem.
    pub imagenet_stem: bool,
}

impl ResNetConfig {
    /// ResNet-56 for CIFAR-10 (paper Table 3): 3 stages × 9 blocks,
    /// 16/32/64 filters, depth 6·9+2 = 56.
    pub fn resnet56_cifar() -> Self {
        ResNetConfig {
            input_channels: 3,
            stem_filters: 16,
            blocks_per_stage: vec![9, 9, 9],
            stage_filters: vec![16, 32, 64],
            classes: 10,
            imagenet_stem: false,
        }
    }

    /// A shallow CIFAR variant (6·1+2 = 8 layers) for tests and quick runs.
    pub fn resnet8_cifar() -> Self {
        ResNetConfig {
            input_channels: 3,
            stem_filters: 16,
            blocks_per_stage: vec![1, 1, 1],
            stage_filters: vec![16, 32, 64],
            classes: 10,
            imagenet_stem: false,
        }
    }

    /// A CIFAR variant of depth `6n+2` — the "dynamic model variant"
    /// argument made executable.
    pub fn cifar_variant(n: usize) -> Self {
        ResNetConfig {
            input_channels: 3,
            stem_filters: 16,
            blocks_per_stage: vec![n, n, n],
            stage_filters: vec![16, 32, 64],
            classes: 10,
            imagenet_stem: false,
        }
    }

    /// ImageNet-geometry ResNet with basic blocks (\[3,4,6,3\] = ResNet-34
    /// structure). Its training-step FLOP count is within ~5% of
    /// ResNet-50's, so the Table 1/2 cost model uses it as the ResNet-50
    /// stand-in (documented in DESIGN.md).
    pub fn resnet_imagenet() -> Self {
        ResNetConfig {
            input_channels: 3,
            stem_filters: 64,
            blocks_per_stage: vec![3, 4, 6, 3],
            stage_filters: vec![64, 128, 256, 512],
            classes: 1000,
            imagenet_stem: true,
        }
    }

    /// Total weighted-layer depth (the "ResNet-N" number).
    pub fn depth(&self) -> usize {
        2 + 2 * self.blocks_per_stage.iter().sum::<usize>()
    }
}

differentiable_struct! {
    /// A ResNet assembled from a [`ResNetConfig`].
    pub struct ResNet tangent ResNetTangent {
        params {
            /// Stem convolution.
            pub stem: Conv2D,
            /// Stem batch norm.
            pub stem_bn: BatchNorm,
            /// All residual blocks, in order.
            pub blocks: Vec<BasicBlock>,
            /// Classification head.
            pub head: Dense,
        }
        nodiff {
            /// The generating configuration.
            pub config: ResNetConfig,
        }
    }
}

impl ResNet {
    /// Assembles the network described by `config` on `device`.
    ///
    /// # Panics
    /// Panics if `blocks_per_stage` and `stage_filters` lengths differ.
    pub fn new<R: Rng + ?Sized>(config: ResNetConfig, device: &Device, rng: &mut R) -> Self {
        assert_eq!(
            config.blocks_per_stage.len(),
            config.stage_filters.len(),
            "one filter count per stage"
        );
        let stem = if config.imagenet_stem {
            Conv2D::new(
                (7, 7, config.input_channels, config.stem_filters),
                (2, 2),
                Padding::Same,
                Activation::Identity,
                device,
                rng,
            )
        } else {
            Conv2D::new(
                (3, 3, config.input_channels, config.stem_filters),
                (1, 1),
                Padding::Same,
                Activation::Identity,
                device,
                rng,
            )
        };
        let mut blocks = Vec::new();
        let mut in_filters = config.stem_filters;
        for (stage, (&n, &filters)) in config
            .blocks_per_stage
            .iter()
            .zip(&config.stage_filters)
            .enumerate()
        {
            for b in 0..n {
                let stride = if stage > 0 && b == 0 { 2 } else { 1 };
                blocks.push(BasicBlock::new(in_filters, filters, stride, device, rng));
                in_filters = filters;
            }
        }
        let head = Dense::new(
            in_filters,
            config.classes,
            Activation::Identity,
            device,
            rng,
        );
        ResNet {
            stem,
            stem_bn: BatchNorm::new(config.stem_filters, device),
            blocks,
            head,
            config,
        }
    }

    fn stem_pool(&self, x: &DTensor) -> DTensor {
        if self.config.imagenet_stem {
            x.max_pool2d((3, 3), (2, 2), Padding::Same)
        } else {
            x.clone()
        }
    }

    fn global_avg_pool(x: &DTensor) -> DTensor {
        let dims = x.dims();
        let (h, w, c) = (dims[1], dims[2], dims[3]);
        x.avg_pool2d((h, w), (1, 1), Padding::Valid)
            .reshape(&[dims[0], c])
    }
}

impl Layer for ResNet {
    fn forward(&self, input: &DTensor) -> DTensor {
        let mut h = self.stem_pool(&self.stem_bn.forward(&self.stem.forward(input)).relu());
        for block in &self.blocks {
            h = block.forward(&h);
        }
        self.head.forward(&Self::global_avg_pool(&h))
    }

    /// The stem convolution sees the model's input and gets the caller's
    /// `wrt`; every later layer's input cotangent feeds the chain rule.
    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>) {
        let chain = Wrt::ParametersAndInput;
        let (c, pb_stem) = self.stem.forward_with_pullback_wrt(input, wrt);
        let (b, pb_bn) = self.stem_bn.forward_with_pullback_wrt(&c, chain);
        let (r, pb_relu) = Activation::Relu.vjp(&b);
        // Stem pooling (ImageNet stem only).
        let pooled = self.stem_pool(&r);
        let pre_pool = r.clone();
        let imagenet_stem = self.config.imagenet_stem;

        let mut h = pooled;
        let mut block_pbs = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (next, pb) = block.forward_with_pullback_wrt(&h, chain);
            block_pbs.push(pb);
            h = next;
        }
        let feat_dims = h.dims();
        let (h2, w2, c2) = (feat_dims[1], feat_dims[2], feat_dims[3]);
        let features = Self::global_avg_pool(&h);
        let pre_gap = h;
        let (logits, pb_head) = self.head.forward_with_pullback_wrt(&features, chain);
        (
            logits,
            Box::new(move |dy: &DTensor| {
                let (g_head, dfeat) = pb_head(dy);
                let dfeat = input_cotangent(&dfeat);
                // Undo global average pool: expand and scale.
                let batch = dfeat.dims()[0];
                let dgap = dfeat.reshape(&[batch, 1, 1, c2]);
                let dpre_gap = pre_gap.avg_pool2d_backward(&dgap, (h2, w2), (1, 1), Padding::Valid);
                let mut d = dpre_gap;
                let mut g_blocks_rev = Vec::with_capacity(block_pbs.len());
                for pb in block_pbs.iter().rev() {
                    let (g, dx) = pb(&d);
                    g_blocks_rev.push(g);
                    d = input_cotangent(&dx).clone();
                }
                g_blocks_rev.reverse();
                let d = if imagenet_stem {
                    pre_pool.max_pool2d_backward(&d, (3, 3), (2, 2), Padding::Same)
                } else {
                    d
                };
                let db = pb_relu(&d);
                let (g_bn, dc) = pb_bn(&db);
                let (g_stem, dx) = pb_stem(input_cotangent(&dc));
                (
                    ResNetTangent {
                        stem: g_stem,
                        stem_bn: g_bn,
                        blocks: g_blocks_rev,
                        head: g_head,
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
    fn depths() {
        assert_eq!(ResNetConfig::resnet56_cifar().depth(), 56);
        assert_eq!(ResNetConfig::resnet8_cifar().depth(), 8);
        assert_eq!(ResNetConfig::cifar_variant(3).depth(), 20);
        assert_eq!(ResNetConfig::resnet_imagenet().depth(), 34);
    }

    #[test]
    fn cifar_forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let d = Device::naive();
        let model = ResNet::new(ResNetConfig::resnet8_cifar(), &d, &mut rng);
        assert_eq!(model.blocks.len(), 3);
        let x = DTensor::from_tensor(Tensor::zeros(&[2, 32, 32, 3]), &d);
        let y = model.forward(&x);
        assert_eq!(y.dims(), vec![2, 10]);
    }

    #[test]
    fn imagenet_stem_halves_twice() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let d = Device::naive();
        let mut cfg = ResNetConfig::resnet_imagenet();
        cfg.blocks_per_stage = vec![1, 1];
        cfg.stage_filters = vec![8, 16];
        cfg.stem_filters = 8;
        cfg.classes = 10;
        let model = ResNet::new(cfg, &d, &mut rng);
        let x = DTensor::from_tensor(Tensor::zeros(&[1, 64, 64, 3]), &d);
        let y = model.forward(&x);
        assert_eq!(y.dims(), vec![1, 10]);
    }

    #[test]
    fn block_shortcut_projection_appears_when_needed() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let d = Device::naive();
        let same = BasicBlock::new(16, 16, 1, &d, &mut rng);
        assert!(same.shortcut.is_empty());
        let down = BasicBlock::new(16, 32, 2, &d, &mut rng);
        assert_eq!(down.shortcut.len(), 1);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[1, 8, 8, 16], &mut rng), &d);
        assert_eq!(same.forward(&x).dims(), vec![1, 8, 8, 16]);
        assert_eq!(down.forward(&x).dims(), vec![1, 4, 4, 32]);
    }

    #[test]
    fn block_gradient_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let d = Device::naive();
        let block = BasicBlock::new(4, 4, 1, &d, &mut rng);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[1, 5, 5, 4], &mut rng), &d);
        let (y, pb) = block.forward_with_pullback(&x);
        let (g, dx) = pb(&y.ones_like());
        let loss =
            |b: &BasicBlock, x: &DTensor| b.forward(x).sum().to_tensor().scalar_value() as f64;
        let eps = 1e-2f64;
        // conv1 filter element
        {
            let mut bp = block.clone();
            let mut f = bp.conv1.filter.to_tensor();
            f.as_mut_slice()[7] += eps as f32;
            bp.conv1.filter = DTensor::from_tensor(f, &d);
            let fd = (loss(&bp, &x) - loss(&block, &x)) / eps;
            let ad = g.conv1.filter.to_tensor().as_slice()[7] as f64;
            assert!((fd - ad).abs() < 0.05 * (1.0 + ad.abs()), "fd={fd} ad={ad}");
        }
        // input element (tests residual fan-in accumulation)
        {
            let mut xp = x.to_tensor();
            xp.as_mut_slice()[13] += eps as f32;
            let mut xm = x.to_tensor();
            xm.as_mut_slice()[13] -= eps as f32;
            let fd = (loss(&block, &DTensor::from_tensor(xp, &d))
                - loss(&block, &DTensor::from_tensor(xm, &d)))
                / (2.0 * eps);
            let ad = dx.to_tensor().as_slice()[13] as f64;
            assert!((fd - ad).abs() < 0.05 * (1.0 + ad.abs()), "fd={fd} ad={ad}");
        }
    }

    #[test]
    fn full_model_gradients_have_model_shape() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let d = Device::naive();
        let model = ResNet::new(ResNetConfig::resnet8_cifar(), &d, &mut rng);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[2, 16, 16, 3], &mut rng), &d);
        let (y, pb) = model.forward_with_pullback(&x);
        let (g, dx) = pb(&y.ones_like());
        assert_eq!(g.blocks.len(), 3);
        assert_eq!(g.head.weight.dims(), vec![64, 10]);
        assert_eq!(dx.dims(), vec![2, 16, 16, 3]);
        // Block tangent ordering matches block ordering (stage widths).
        assert_eq!(g.blocks[0].conv1.filter.dims(), vec![3, 3, 16, 16]);
        assert_eq!(g.blocks[1].conv1.filter.dims(), vec![3, 3, 16, 32]);
        assert_eq!(g.blocks[2].conv1.filter.dims(), vec![3, 3, 32, 64]);
    }

    #[test]
    fn training_step_reduces_loss() {
        use s4tf_nn::optimizer::Sgd;
        use s4tf_nn::train::train_classifier_step;
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let d = Device::naive();
        let mut model = ResNet::new(ResNetConfig::resnet8_cifar(), &d, &mut rng);
        let x = DTensor::from_tensor(Tensor::<f32>::randn(&[8, 16, 16, 3], &mut rng), &d);
        let labels = DTensor::from_tensor(Tensor::one_hot(&[0, 1, 2, 3, 4, 5, 6, 7], 10), &d);
        let mut opt = Sgd::new(0.05);
        let first = train_classifier_step(&mut model, &mut opt, &x, &labels);
        let mut last = first;
        for _ in 0..8 {
            last = train_classifier_step(&mut model, &mut opt, &x, &labels);
        }
        assert!(last < first, "loss {first} → {last}");
    }
}
