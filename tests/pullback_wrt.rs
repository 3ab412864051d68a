//! Every `Layer`'s one VJP under both `Wrt` masks: asking for the
//! parameters only must skip the input cotangent and change nothing else.
//! On the naive and the lazy device the output and the parameter tangent
//! are the same bits either way, the input cotangent is `None` under
//! `Wrt::Parameters` and has the input's dims under
//! `Wrt::ParametersAndInput`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::models::lenet::LeNetTangent;
use s4tf::models::resnet::{BasicBlock, BasicBlockTangent, ResNetTangent};
use s4tf::models::{LeNet, ResNet, ResNetConfig};
use s4tf::nn::layers::{BatchNormTangent, Conv2DTangent, DenseTangent, EmbeddingTangent};
use s4tf::prelude::*;

/// A tangent's components as bits, in field order.
trait Bits {
    fn bits(&self) -> Vec<u32>;
}

impl Bits for DTensor {
    fn bits(&self) -> Vec<u32> {
        self.to_tensor()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }
}

impl Bits for () {
    fn bits(&self) -> Vec<u32> {
        Vec::new()
    }
}

impl<A: Bits, B: Bits> Bits for (A, B) {
    fn bits(&self) -> Vec<u32> {
        [self.0.bits(), self.1.bits()].concat()
    }
}

impl<T: Bits> Bits for Vec<T> {
    fn bits(&self) -> Vec<u32> {
        self.iter().flat_map(Bits::bits).collect()
    }
}

macro_rules! struct_bits {
    ($($tangent:ident { $($field:ident),* })*) => {$(
        impl Bits for $tangent {
            fn bits(&self) -> Vec<u32> {
                [$(self.$field.bits()),*].concat()
            }
        }
    )*};
}

struct_bits! {
    DenseTangent { weight, bias }
    Conv2DTangent { filter, bias }
    BatchNormTangent { scale, offset }
    EmbeddingTangent { table }
    LeNetTangent { conv1, conv2, fc1, fc2, fc3 }
    BasicBlockTangent { conv1, bn1, conv2, bn2, shortcut }
    ResNetTangent { stem, stem_bn, blocks, head }
}

/// Runs `build`'s layer on its input under both masks, on the naive and
/// the lazy device, with the same output cotangent. `build` is called
/// once per run, so a layer that draws randomness (dropout) draws the
/// same values each time.
fn check_wrt<L: Layer>(build: impl Fn(&Device, &mut ChaCha8Rng) -> (L, DTensor))
where
    L::TangentVector: Bits,
{
    for device in [Device::naive(), Device::lazy()] {
        let run = |wrt: Wrt| {
            let (layer, x) = build(&device, &mut ChaCha8Rng::seed_from_u64(17));
            let (y, pullback) = layer.forward_with_pullback_wrt(&x, wrt);
            let mut rng = ChaCha8Rng::seed_from_u64(18);
            let dy = DTensor::from_tensor(Tensor::randn(&y.dims(), &mut rng), &device);
            let (tangent, dx) = pullback(&dy);
            (y.bits(), tangent.bits(), dx.map(|dx| dx.dims()), x.dims())
        };
        let (y_params, tangent_params, dx_params, _) = run(Wrt::Parameters);
        let (y_both, tangent_both, dx_both, input_dims) = run(Wrt::ParametersAndInput);
        let kind = device.kind();
        assert!(y_params == y_both, "{kind}: outputs differ");
        assert!(tangent_params == tangent_both, "{kind}: tangents differ");
        assert_eq!(dx_params, None, "{kind}: input cotangent under Parameters");
        assert_eq!(dx_both, Some(input_dims), "{kind}: input cotangent dims");
    }
}

fn input(device: &Device, rng: &mut ChaCha8Rng, dims: &[usize]) -> DTensor {
    DTensor::from_tensor(Tensor::randn(dims, rng), device)
}

fn conv(
    filter: (usize, usize, usize, usize),
    strides: (usize, usize),
    padding: Padding,
) -> impl Fn(&Device, &mut ChaCha8Rng) -> (Conv2D, DTensor) {
    move |d, rng| {
        let layer = Conv2D::new(filter, strides, padding, Activation::Relu, d, rng);
        (layer, input(d, rng, &[2, 7, 7, filter.2]))
    }
}

#[test]
fn dense() {
    check_wrt(|d, rng| {
        let layer = Dense::new(5, 3, Activation::Tanh, d, rng);
        (layer, input(d, rng, &[4, 5]))
    });
}

#[test]
fn conv2d_same_valid_and_strided() {
    check_wrt(conv((3, 3, 2, 4), (1, 1), Padding::Same));
    check_wrt(conv((3, 3, 2, 4), (1, 1), Padding::Valid));
    check_wrt(conv((2, 2, 1, 3), (2, 2), Padding::Valid));
}

#[test]
fn pools() {
    check_wrt(|d, rng| (AvgPool2D::new((2, 2), (2, 2)), input(d, rng, &[2, 6, 6, 3])));
    check_wrt(|d, rng| (MaxPool2D::new((2, 2), (2, 2)), input(d, rng, &[2, 6, 6, 3])));
}

#[test]
fn flatten() {
    check_wrt(|d, rng| (Flatten::new(), input(d, rng, &[2, 3, 4, 5])));
}

#[test]
fn dropout() {
    check_wrt(|d, rng| (Dropout::new(0.4, 9), input(d, rng, &[3, 8])));
}

#[test]
fn batchnorm() {
    check_wrt(|d, rng| (BatchNorm::new(3, d), input(d, rng, &[4, 2, 2, 3])));
}

#[test]
fn embedding() {
    check_wrt(|d, rng| {
        let layer = Embedding::new(6, 3, d, rng);
        let indices = Tensor::from_vec(vec![4.0, 0.0, 4.0, 2.0], &[4]);
        (layer, DTensor::from_tensor(indices, d))
    });
}

#[test]
fn chain() {
    check_wrt(|d, rng| {
        let layer = Chain::new(
            Chain::new(Flatten::new(), Dense::new(12, 6, Activation::Relu, d, rng)),
            Dense::new(6, 2, Activation::Identity, d, rng),
        );
        (layer, input(d, rng, &[3, 3, 4]))
    });
}

#[test]
fn lenet() {
    check_wrt(|d, rng| (LeNet::new(d, rng), input(d, rng, &[2, 28, 28, 1])));
}

#[test]
fn basic_block_with_projection_and_identity_shortcuts() {
    check_wrt(|d, rng| {
        let block = BasicBlock::new(3, 4, 2, d, rng);
        assert_eq!(block.shortcut.len(), 1, "a projection shortcut");
        (block, input(d, rng, &[2, 6, 6, 3]))
    });
    check_wrt(|d, rng| {
        let block = BasicBlock::new(4, 4, 1, d, rng);
        assert!(block.shortcut.is_empty(), "an identity shortcut");
        (block, input(d, rng, &[2, 5, 5, 4]))
    });
}

#[test]
fn resnet8() {
    check_wrt(|d, rng| {
        let model = ResNet::new(ResNetConfig::resnet8_cifar(), d, rng);
        (model, input(d, rng, &[2, 8, 8, 3]))
    });
}
