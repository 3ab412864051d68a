//! `lenet_lazy`, `lenet_eager` and `resnet_lazy`: steady-state training of
//! an image classifier on one device, every loss checked against a
//! naive-backend reference trajectory computed in set-up.

use super::{run_steps, DeviceCounts, Outcome, Phase, Steps, Workload};
use crate::host::HostSpeed;
use crate::spans::Recorder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::core::LossValue;
use s4tf::data::{Dataset, ImageSpec};
use s4tf::models::{LeNet, ResNet, ResNetConfig};
use s4tf::nn::loss::LossPullback;
use s4tf::nn::train::train_classifier_step;
use s4tf::nn::{softmax_cross_entropy, Layer, Optimizer, PullbackFn, Sgd};
use s4tf::runtime::{DTensor, Device};
use s4tf::xla::HloGraph;
use serde::Value;

/// Largest |loss − reference| accepted, as in `tests/backend_consistency.rs`.
pub const LOSS_TOLERANCE: f64 = 1e-4;

/// Keeps the data stream's seed apart from the model's.
const DATA_SALT: u64 = 0x5eed_da7a;

pub type Build<M> = fn(&Device, &mut ChaCha8Rng) -> M;

/// One optimizer step on batch `index` of `data`: batch → host-to-device →
/// forward → loss → backward → update → barrier and loss read. Untraced
/// it is `train_classifier_step` as a user calls it; traced, the same
/// calls inlined with a span around each.
pub fn train_step<M: Layer, O: Optimizer<M>>(
    rec: &mut Recorder,
    model: &mut M,
    opt: &mut O,
    device: &Device,
    data: &Dataset,
    batch: usize,
    index: usize,
) -> f64 {
    let (images, labels) = rec.span("data.batch", |_| {
        let b = data.batch(batch, index, 0);
        let labels = b.one_hot(data.spec.classes);
        (b.images, labels)
    });
    let (x, y) = rec.span("runtime.h2d", |_| {
        (
            DTensor::from_tensor(images, device),
            DTensor::from_tensor(labels, device),
        )
    });
    if !rec.is_on() {
        return train_classifier_step(model, opt, &x, &y);
    }
    let lazy = match device {
        Device::Lazy(ctx) => Some((ctx, ctx.trace_time(), ctx.cuts())),
        _ => None,
    };
    let recorded = record_step(rec, model, opt, &x, &y);
    if let Some((ctx, _, _)) = lazy {
        rec.count("runtime.lazy.trace_nodes", ctx.trace_len() as f64);
    }
    let loss = rec.span("runtime.sync", |_| {
        device.barrier();
        recorded.loss.loss_value()
    });
    if let Some((ctx, trace_before, cuts_before)) = lazy {
        let traced = ctx.trace_time().saturating_sub(trace_before);
        rec.time_us("runtime.lazy.trace_us", traced.as_secs_f64() * 1e6);
        rec.count("runtime.lazy.cuts", (ctx.cuts() - cuts_before) as f64);
    }
    loss
}

/// What [`record_step`] leaves for the barrier: the loss to read, and every
/// value `train_classifier_step` still holds when it reaches its barrier.
/// Dropping any early — the input's cotangent, say — would let the compiler
/// delete the kernels that produce it: a different, cheaper program than
/// the one the untraced leg runs.
struct Recorded<M: Layer> {
    loss: DTensor,
    _alive: (
        DTensor,
        PullbackFn<M>,
        LossPullback,
        DTensor,
        M::TangentVector,
        DTensor,
    ),
}

/// The body of `train_classifier_step` up to its barrier, a span around
/// each call.
fn record_step<M: Layer, O: Optimizer<M>>(
    rec: &mut Recorder,
    model: &mut M,
    opt: &mut O,
    x: &DTensor,
    y: &DTensor,
) -> Recorded<M> {
    let (logits, pullback) = rec.span("nn.forward", |_| model.forward_with_pullback(x));
    let (loss, loss_pullback, dlogits) = rec.span("nn.loss", |_| {
        let (loss, loss_pullback) = softmax_cross_entropy(&logits, y);
        let dlogits = loss_pullback(&loss.scalar_like(1.0));
        (loss, loss_pullback, dlogits)
    });
    let (gradients, dinput) = rec.span("nn.backward", |_| pullback(&dlogits));
    rec.span("nn.update", |_| opt.update(model, &gradients));
    Recorded {
        loss,
        _alive: (logits, pullback, loss_pullback, dlogits, gradients, dinput),
    }
}

/// The trace of one steady-state step of `build`'s model on a scratch lazy
/// device: step 0 runs for real (it creates the optimizer state), step 1 is
/// recorded, snapshotted, and then run so no handle is left dangling.
pub fn step_graph<M: Layer, O: Optimizer<M>>(
    build: Build<M>,
    mut opt: O,
    data: &Dataset,
    batch: usize,
) -> HloGraph {
    let device = Device::lazy();
    let mut model = build(&device, &mut ChaCha8Rng::seed_from_u64(0));
    let b = data.batch(batch, 0, 0);
    let x = DTensor::from_tensor(b.images.clone(), &device);
    let y = DTensor::from_tensor(b.one_hot(data.spec.classes), &device);
    train_classifier_step(&mut model, &mut opt, &x, &y);
    let recorded = record_step(&mut Recorder::off(), &mut model, &mut opt, &x, &y);
    let Device::Lazy(ctx) = &device else {
        unreachable!("the scratch device is lazy")
    };
    let graph = ctx.snapshot_trace();
    device.barrier();
    drop(recorded);
    graph
}

/// A classifier trained in rounds of `round` steps from the same initial
/// model over the same `round` batches, so a reference trajectory of
/// `round` losses checks every step however long the run is.
pub struct Classifier<M: Layer + Clone> {
    spec: Spec<M>,
    device: Device,
    data: Dataset,
    initial: M,
    model: M,
    opt: Sgd<M>,
    reference: Vec<f64>,
    /// Steps taken in the current round.
    step: usize,
    first_loss: f64,
    last_loss: f64,
}

struct Spec<M: Layer> {
    name: &'static str,
    image: ImageSpec,
    batch: usize,
    /// Steps in a round.
    round: usize,
    warmup: usize,
    build: Build<M>,
    make_opt: fn() -> Sgd<M>,
}

impl<M: Layer + Clone> Classifier<M> {
    fn new(spec: Spec<M>, seed: u64, device: Device) -> Self {
        let data = Dataset::generate(spec.image, spec.batch * spec.round, seed ^ DATA_SALT);
        let mut off = Recorder::off();

        let naive = Device::naive();
        let mut model = (spec.build)(&naive, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut opt = (spec.make_opt)();
        let reference = (0..spec.round)
            .map(|i| train_step(&mut off, &mut model, &mut opt, &naive, &data, spec.batch, i))
            .collect();

        let initial = (spec.build)(&device, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut this = Classifier {
            model: initial.clone(),
            initial,
            opt: (spec.make_opt)(),
            spec,
            device,
            data,
            reference,
            step: 0,
            first_loss: 0.0,
            last_loss: 0.0,
        };
        // Warm-up: the first trace, compile and cache fill land in set-up.
        for _ in 0..this.spec.warmup {
            this.prepare(&mut off);
            this.op(&mut off);
        }
        this.reset();
        this
    }

    fn reset(&mut self) {
        // Value semantics: the clone shares buffers until the first update.
        self.model = self.initial.clone();
        self.opt = (self.spec.make_opt)();
        self.step = 0;
    }
}

impl<M: Layer + Clone> Steps for Classifier<M> {
    fn prepare(&mut self, rec: &mut Recorder) -> u64 {
        if self.step < self.spec.round {
            return 0;
        }
        rec.span("bench.round_reset", |_| self.reset());
        let learned = self.last_loss < self.first_loss;
        if !learned {
            eprintln!(
                "{}: round ended at loss {} from {}",
                self.spec.name, self.last_loss, self.first_loss
            );
        }
        u64::from(!learned)
    }

    fn op(&mut self, rec: &mut Recorder) -> Outcome {
        let loss = rec.span("op", |rec| {
            train_step(
                rec,
                &mut self.model,
                &mut self.opt,
                &self.device,
                &self.data,
                self.spec.batch,
                self.step,
            )
        });
        if self.step == 0 {
            self.first_loss = loss;
        }
        self.last_loss = loss;
        let expected = self.reference[self.step];
        let ok = loss.is_finite() && (loss - expected).abs() < LOSS_TOLERANCE;
        if !ok {
            eprintln!(
                "{}: step {} loss {loss}, reference {expected}",
                self.spec.name, self.step
            );
        }
        self.step += 1;
        Outcome {
            examples: self.spec.batch,
            ok,
        }
    }
}

impl<M: Layer + Clone> Workload for Classifier<M> {
    fn run(&mut self, seconds: f64, rec: &mut Recorder, host: &mut HostSpeed) -> Phase {
        run_steps(self, seconds, rec, host)
    }

    fn device_counts(&self) -> DeviceCounts {
        let cache = self.device.cache_stats().unwrap_or_default();
        DeviceCounts {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            eager_dispatched: match &self.device {
                Device::Eager(queue) => queue.dispatched(),
                _ => 0,
            },
        }
    }

    fn step_graph(&self) -> HloGraph {
        step_graph(
            self.spec.build,
            (self.spec.make_opt)(),
            &self.data,
            self.spec.batch,
        )
    }

    fn fuses(&self) -> bool {
        matches!(self.device, Device::Lazy(_))
    }

    fn describe(&self) -> Vec<(String, Value)> {
        vec![
            ("model".into(), Value::Str(self.spec.name.into())),
            ("device".into(), Value::Str(self.device.kind().into())),
            ("batch".into(), Value::UInt(self.spec.batch as u64)),
            ("round_steps".into(), Value::UInt(self.spec.round as u64)),
            (
                "examples_per_op".into(),
                Value::UInt(self.spec.batch as u64),
            ),
        ]
    }
}

/// LeNet-5 on MNIST-like 28×28 images, batch 16, momentum SGD.
pub fn lenet(seed: u64, device: Device) -> Classifier<LeNet> {
    Classifier::new(
        Spec {
            name: "lenet5",
            image: ImageSpec::mnist_like(),
            batch: 16,
            round: 40,
            warmup: 20,
            build: |device, rng| LeNet::new(device, rng),
            // 0.02 learns faster but overshoots within a round on some seeds.
            make_opt: || Sgd::with_momentum(0.01, 0.9),
        },
        seed,
        device,
    )
}

/// ResNet-8 on CIFAR-like 32×32 images, batch 16, plain SGD.
pub fn resnet8(seed: u64, device: Device) -> Classifier<ResNet> {
    Classifier::new(
        Spec {
            name: "resnet8_cifar",
            image: ImageSpec::cifar_like(),
            batch: 16,
            round: 8,
            warmup: 3,
            build: |device, rng| ResNet::new(ResNetConfig::resnet8_cifar(), device, rng),
            make_opt: || Sgd::new(0.3),
        },
        seed,
        device,
    )
}
