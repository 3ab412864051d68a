//! The "illusion of eager execution" (paper §3.3), checked end-to-end:
//! the naive, eager and lazy backends must be observationally equivalent —
//! identical numerics for forward passes, gradients, and whole training
//! trajectories.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::data::{Dataset, ImageSpec};
use s4tf::models::{LeNet, ResNet, ResNetConfig};
use s4tf::nn::train::train_classifier_step;
use s4tf::prelude::*;

/// Ports a LeNet's weights onto another device.
fn lenet_on(device: &Device, reference: &LeNet) -> LeNet {
    let mut m = reference.clone();
    let port = |t: &DTensor| DTensor::from_tensor(t.to_tensor(), device);
    m.conv1.filter = port(&reference.conv1.filter);
    m.conv1.bias = port(&reference.conv1.bias);
    m.conv2.filter = port(&reference.conv2.filter);
    m.conv2.bias = port(&reference.conv2.bias);
    m.fc1.weight = port(&reference.fc1.weight);
    m.fc1.bias = port(&reference.fc1.bias);
    m.fc2.weight = port(&reference.fc2.weight);
    m.fc2.bias = port(&reference.fc2.bias);
    m.fc3.weight = port(&reference.fc3.weight);
    m.fc3.bias = port(&reference.fc3.bias);
    m
}

#[test]
fn lenet_training_trajectories_agree_across_backends() {
    let data = Dataset::generate(ImageSpec::mnist_like(), 64, 11);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let naive = Device::naive();
    let reference = LeNet::new(&naive, &mut rng);

    let mut final_losses = Vec::new();
    for device in [Device::naive(), Device::eager(), Device::lazy()] {
        let mut model = lenet_on(&device, &reference);
        let mut opt = Sgd::with_momentum(0.02, 0.9);
        let mut losses = Vec::new();
        for step in 0..4 {
            let batch = data.batch(16, step, 0);
            let x = DTensor::from_tensor(batch.images.clone(), &device);
            let y = DTensor::from_tensor(batch.one_hot(10), &device);
            losses.push(train_classifier_step(&mut model, &mut opt, &x, &y));
        }
        final_losses.push((device.kind(), losses));
    }
    let (_, reference_losses) = &final_losses[0];
    for (kind, losses) in &final_losses[1..] {
        for (a, b) in losses.iter().zip(reference_losses) {
            assert!(
                (a - b).abs() < 1e-4,
                "{kind} training diverged: {losses:?} vs {reference_losses:?}"
            );
        }
    }
}

#[test]
fn resnet_forward_agrees_across_backends() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let naive = Device::naive();
    let reference_model = ResNet::new(ResNetConfig::resnet8_cifar(), &naive, &mut rng);
    let xs = s4tf::tensor::Tensor::<f32>::randn(&[2, 16, 16, 3], &mut rng);
    let reference = reference_model
        .forward(&DTensor::from_tensor(xs.clone(), &naive))
        .to_tensor();

    for device in [Device::eager(), Device::lazy()] {
        // Rebuild with identical weights by regenerating from the same seed
        // on the target device (initializers are deterministic).
        let mut rng2 = ChaCha8Rng::seed_from_u64(8);
        let model = ResNet::new(ResNetConfig::resnet8_cifar(), &device, &mut rng2);
        let y = model
            .forward(&DTensor::from_tensor(xs.clone(), &device))
            .to_tensor();
        assert!(
            y.allclose(&reference, 1e-3),
            "{}: max diff {}",
            device.kind(),
            y.max_abs_diff(&reference)
        );
    }
}

#[test]
fn lazy_backend_fuses_and_caches_during_resnet_training() {
    let device = Device::lazy();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut model = ResNet::new(ResNetConfig::resnet8_cifar(), &device, &mut rng);
    let mut opt = Sgd::new(0.01);
    let data = Dataset::generate(ImageSpec::cifar_like(), 16, 12);
    for step in 0..3 {
        let batch = data.batch(8, 0, step);
        let x = DTensor::from_tensor(batch.images.clone(), &device);
        let y = DTensor::from_tensor(batch.one_hot(10), &device);
        train_classifier_step(&mut model, &mut opt, &x, &y);
    }
    let Device::Lazy(ctx) = &device else {
        unreachable!()
    };
    let stats = ctx.cache().stats();
    assert_eq!(stats.misses, 1, "one program for the whole training step");
    assert_eq!(stats.hits, 2);
}

#[test]
fn eager_pipeline_runs_ahead_of_observation() {
    let device = Device::eager();
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let x = DTensor::from_tensor(
        s4tf::tensor::Tensor::<f32>::randn(&[64, 64], &mut rng),
        &device,
    );
    // Dispatch a deep chain; dispatching must be much faster than the
    // computation it enqueues.
    let dispatch_start = std::time::Instant::now();
    let mut h = x.clone();
    for _ in 0..60 {
        h = h.matmul(&x).tanh();
    }
    let dispatch_time = dispatch_start.elapsed();
    let drain_start = std::time::Instant::now();
    let _ = h.to_tensor();
    let drain_time = drain_start.elapsed();
    assert!(
        dispatch_time < drain_time,
        "dispatch ({dispatch_time:?}) should outpace execution ({drain_time:?})"
    );
}

#[test]
fn observation_is_the_only_distinguisher() {
    // Identical programs with interleaved host observation produce
    // identical results on all devices (timing aside).
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let xs = s4tf::tensor::Tensor::<f32>::randn(&[3, 3], &mut rng);
    let mut outs = Vec::new();
    for device in [Device::naive(), Device::eager(), Device::lazy()] {
        let x = DTensor::from_tensor(xs.clone(), &device);
        let a = x.exp();
        let host_peek = a.to_tensor(); // observe mid-program
        let b = a.mul(&x).sum();
        outs.push((host_peek, b.to_tensor().scalar_value()));
    }
    for (peek, val) in &outs[1..] {
        assert!(peek.allclose(&outs[0].0, 1e-6));
        assert!((val - outs[0].1).abs() < 1e-4);
    }
}

/// The SIMD dispatch switch must be invisible at the backend level: on
/// each dispatch path all three backends agree, and per backend the two
/// paths agree within FMA-rounding tolerance (the lane kernels use fused
/// multiply-adds; see `s4tf_tensor::simd`). Runs a LeNet forward so the
/// comparison covers conv2d, GEMM, elementwise and reduction kernels at
/// once — including lenet-c1 on the single-channel direct kernels.
#[test]
fn simd_paths_agree_on_every_backend() {
    let data = Dataset::generate(ImageSpec::mnist_like(), 16, 21);
    let batch = data.batch(8, 0, 0);
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    let naive = Device::naive();
    let reference = LeNet::new(&naive, &mut rng);

    let mut per_path = Vec::new();
    for simd in [false, true] {
        s4tf::tensor::set_simd_enabled(simd);
        let mut outs = Vec::new();
        for device in [Device::naive(), Device::eager(), Device::lazy()] {
            let model = lenet_on(&device, &reference);
            let x = DTensor::from_tensor(batch.images.clone(), &device);
            outs.push((device.kind(), model.forward(&x).to_tensor()));
        }
        let (_, reference_out) = &outs[0];
        for (kind, y) in &outs[1..] {
            assert!(
                y.allclose(reference_out, 1e-4),
                "{kind} diverged from naive on the {} path",
                if simd { "simd" } else { "scalar" }
            );
        }
        per_path.push(outs.remove(0).1);
    }
    s4tf::tensor::set_simd_enabled(true);
    assert!(
        per_path[0].allclose(&per_path[1], 1e-3),
        "scalar and simd paths diverged beyond FMA tolerance: max diff {}",
        per_path[0].max_abs_diff(&per_path[1])
    );
}

/// A reduction fused onto its producer sums exactly what
/// `Tensor::reduce_to_shape` sums from the stored values — one routine,
/// one order — so the lazy backend's epilogue agrees bit for bit with the
/// naive backend's two kernels, at 1 and at 2 kernel threads. The shape is
/// past several column-sum chunks and the parallel grain.
#[test]
fn fused_reduction_epilogue_is_the_reduce_to_shape_routine() {
    let dims = [8usize, 24, 24, 6];
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let x = Tensor::<f32>::randn(&dims, &mut rng);
    let mean = Tensor::<f32>::randn(&[6], &mut rng);
    let materialized = x.sub(&mean).square();

    let mut per_threads = Vec::new();
    for threads in [1usize, 2] {
        s4tf::threads::set_num_threads(threads);
        let lazy = Device::lazy();
        let on = |t: &Tensor<f32>| DTensor::from_tensor(t.clone(), &lazy);
        let var = on(&x).sub(&on(&mean)).square().reduce_to_shape(&[6]);
        let Device::Lazy(ctx) = &lazy else {
            unreachable!()
        };
        let compiled = s4tf::xla::compile(&ctx.snapshot_trace());
        assert!(
            compiled.graph().nodes.iter().any(|n| matches!(
                &n.op,
                s4tf::xla::HloOp::Fused { reduce_to: Some(d), .. } if d == &[6]
            )),
            "the reduction should have fused onto (x − mean)²"
        );
        assert_eq!(compiled.kernel_count(), 1, "and nothing else should run");
        let fused = var.to_tensor();
        let stored = materialized.reduce_to_shape(&[6]);
        let naive = Device::naive();
        let two_kernels = DTensor::from_tensor(x.clone(), &naive)
            .sub(&DTensor::from_tensor(mean.clone(), &naive))
            .square()
            .reduce_to_shape(&[6])
            .to_tensor();
        let bits =
            |t: &Tensor<f32>| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(&fused),
            bits(&stored),
            "epilogue vs stored, {threads} thread(s)"
        );
        assert_eq!(
            bits(&fused),
            bits(&two_kernels),
            "lazy vs naive, {threads} thread(s)"
        );
        per_threads.push(bits(&fused));
    }
    s4tf::threads::set_num_threads(1);
    assert_eq!(
        per_threads[0], per_threads[1],
        "the sum depends on the thread count"
    );
}
