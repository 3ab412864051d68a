//! What a training step hands the lazy device's compiler: the loss, the
//! model's gradient and the updated parameters, and nothing else. The
//! paper's training loop asks for `gradient(at: model)`, never for the
//! gradient of the data: the step asks its model's VJP for the parameters
//! only, so no backend computes the input gradient of the first
//! convolution — the lazy trace does not even record it — and a lazy
//! tensor nobody holds is never computed (§3.3). And what is left still
//! trains exactly like the naive device.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::data::{Dataset, ImageSpec};
use s4tf::models::{LeNet, ResNet, ResNetConfig};
use s4tf::nn::train::{loss_and_gradient, train_classifier_step};
use s4tf::nn::Checkpointable;
use s4tf::prelude::*;
use s4tf::xla::{self, HloOp};

/// One steady-state step of `model` on the lazy device it lives on — a
/// first step run for real (it creates the optimizer's state), then
/// `loss_and_gradient` and the update recorded — as the raw trace and
/// compiled as the barrier would compile it, with the images' dims.
fn step_program<M: Layer, O: Optimizer<M>>(
    mut model: M,
    mut opt: O,
    device: &Device,
    spec: ImageSpec,
) -> (xla::HloGraph, xla::Executable, Vec<usize>) {
    let data = Dataset::generate(spec, 16, 3);
    let batch = data.batch(16, 0, 0);
    let x = DTensor::from_tensor(batch.images.clone(), device);
    let y = DTensor::from_tensor(batch.one_hot(spec.classes), device);
    train_classifier_step(&mut model, &mut opt, &x, &y);
    let (loss, gradients) = loss_and_gradient(&model, &x, &y);
    opt.update(&mut model, &gradients);
    let Device::Lazy(ctx) = device else {
        unreachable!("the step runs on a lazy device")
    };
    let graph = ctx.snapshot_trace();
    device.barrier();
    drop((loss, gradients));
    let exe = xla::compile(&graph);
    (graph, exe, x.dims())
}

/// The input gradients of convolutions in `graph`, by output dims.
fn conv_input_gradients(graph: &xla::HloGraph) -> Vec<Vec<usize>> {
    graph
        .nodes
        .iter()
        .filter(|n| matches!(n.op, HloOp::Conv2DBackwardInput { .. }))
        .map(|n| n.shape.dims().to_vec())
        .collect()
}

#[test]
fn lazy_lenet_step_computes_no_image_gradient() {
    let device = Device::lazy();
    let model = LeNet::new(&device, &mut ChaCha8Rng::seed_from_u64(1));
    let opt = Sgd::with_momentum(0.01, 0.9);
    let (trace, exe, image) = step_program(model, opt, &device, ImageSpec::mnist_like());
    // Only the second convolution's input gradient is recorded: it feeds
    // the first convolution's filter gradient. Nothing is left for dead-code
    // elimination to delete.
    assert_eq!(conv_input_gradients(&trace), [vec![16, 14, 14, 6]]);
    assert_eq!(conv_input_gradients(exe.graph()), [vec![16, 14, 14, 6]]);
    assert!(!conv_input_gradients(&trace).contains(&image));
    assert_eq!(exe.kernel_count(), 67, "LeNet step kernel count moved");
}

#[test]
fn lazy_resnet_step_computes_no_image_gradient() {
    let device = Device::lazy();
    let config = ResNetConfig::resnet8_cifar();
    let model = ResNet::new(config, &device, &mut ChaCha8Rng::seed_from_u64(1));
    let (trace, exe, image) = step_program(model, Sgd::new(0.3), &device, ImageSpec::cifar_like());
    for graph in [&trace, exe.graph()] {
        let grads = conv_input_gradients(graph);
        assert!(
            !grads.contains(&image),
            "image gradient recorded: {grads:?}"
        );
    }
    assert_eq!(exe.kernel_count(), 173, "ResNet-8 step kernel count moved");
}

/// Every parameter of `model`, read back to the host.
fn parameters(model: &LeNet) -> Vec<(String, Tensor<f32>)> {
    let mut params = Vec::new();
    model.for_each_param("", &mut |name, t| {
        params.push((name.to_string(), t.to_tensor()))
    });
    params
}

/// Five momentum-SGD steps of LeNet on the eager and the lazy device give
/// the naive device's losses and parameters bit for bit: dropping the
/// values nobody observes changes what each backend computes, not how.
#[test]
fn lazy_lenet_steps_match_the_naive_device() {
    let data = Dataset::generate(ImageSpec::mnist_like(), 80, 11);
    let mut trajectories = Vec::new();
    for device in [Device::naive(), Device::eager(), Device::lazy()] {
        let mut model = LeNet::new(&device, &mut ChaCha8Rng::seed_from_u64(7));
        let mut opt = Sgd::with_momentum(0.02, 0.9);
        let losses: Vec<u64> = (0..5)
            .map(|step| {
                let batch = data.batch(16, step, 0);
                let x = DTensor::from_tensor(batch.images.clone(), &device);
                let y = DTensor::from_tensor(batch.one_hot(10), &device);
                train_classifier_step(&mut model, &mut opt, &x, &y).to_bits()
            })
            .collect();
        trajectories.push((losses, parameters(&model)));
    }
    let naive = &trajectories[0];
    for (other, kind) in trajectories[1..].iter().zip(["eager", "lazy"]) {
        assert_eq!(other.0, naive.0, "{kind} losses");
        for ((name, o), (_, n)) in other.1.iter().zip(&naive.1) {
            let bits =
                |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(o) == bits(n),
                "{kind} {name}: max diff {}",
                o.max_abs_diff(n)
            );
        }
    }
}

/// Kernels one steady momentum-SGD LeNet step dispatched on the eager
/// device while the step's VJP also built the images' cotangent.
const STEADY_LENET_DISPATCHES_WITH_IMAGE_GRADIENT: u64 = 115;

/// The eager device runs every op it is handed, so the saving shows as a
/// count: a steady LeNet step dispatches exactly one kernel fewer than
/// when the step's VJP still returned the images' cotangent — the first
/// convolution's `conv2d_backward_input`.
#[test]
fn eager_lenet_step_dispatches_no_image_gradient() {
    let device = Device::eager();
    let Device::Eager(queue) = &device else {
        unreachable!("an eager device")
    };
    let data = Dataset::generate(ImageSpec::mnist_like(), 32, 5);
    let mut model = LeNet::new(&device, &mut ChaCha8Rng::seed_from_u64(3));
    let mut opt = Sgd::with_momentum(0.02, 0.9);
    let batches: Vec<_> = (0..2)
        .map(|step| {
            let batch = data.batch(16, step, 0);
            let x = DTensor::from_tensor(batch.images.clone(), &device);
            let y = DTensor::from_tensor(batch.one_hot(10), &device);
            (x, y)
        })
        .collect();
    // The first step creates the optimizer's state.
    train_classifier_step(&mut model, &mut opt, &batches[0].0, &batches[0].1);
    let before = queue.dispatched();
    train_classifier_step(&mut model, &mut opt, &batches[1].0, &batches[1].1);
    assert_eq!(
        queue.dispatched() - before,
        STEADY_LENET_DISPATCHES_WITH_IMAGE_GRADIENT - 1
    );
}
