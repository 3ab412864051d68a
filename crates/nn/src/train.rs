//! The training loop (paper Figure 7), with the automatic
//! `LazyTensorBarrier()` after the optimizer update (paper §3.4: "a
//! training-loop library can automatically call `LazyTensorBarrier()` after
//! the optimizer update step on behalf of the user").
//!
//! Every step — single-device, the data-parallel shards here and the
//! distributed workers in `s4tf-dist` — gets its loss and gradient from
//! [`loss_and_gradient`], the one forward → loss → pullback sequence, which
//! keeps only those two values: like the paper's `gradient(at: model)` it
//! never asks for the gradient of the data, so on the lazy device the
//! barrier's program does not compute it.

use crate::checkpoint::Checkpointable;
use crate::diag;
use crate::fault;
use crate::layer::{Layer, Wrt};
use crate::loss::softmax_cross_entropy;
use crate::met;
use crate::optimizer::Optimizer;
use crate::prof;
use s4tf_core::{AdditiveArithmetic, LossValue, VectorSpace};
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::{panic_message, RuntimeError, Tensor};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Records one step into the metrics registry (step-time and loss
/// histograms, step/example counters) — live export surface, recorded on
/// every step whether or not the `S4TF_METRICS_FILE` stream is active.
fn record_step_instruments(loss: f64, examples: usize, elapsed: std::time::Duration) {
    if !met::enabled() {
        return;
    }
    met::histogram!(
        "s4tf_train_step_us",
        "Wall time of one training step, microseconds"
    )
    .record(elapsed.as_micros() as u64);
    // The histogram is integer-valued; losses live near zero, so scale to
    // micro-loss units to keep sub-unit resolution (p50 of 0.3 → 300000).
    met::histogram!(
        "s4tf_train_loss_micros",
        "Per-step training loss, scaled by 1e6 (micro-loss units)"
    )
    .record((loss.max(0.0) * 1e6) as u64);
    met::counter!("s4tf_train_steps_total", "Training steps completed").inc();
    met::counter!(
        "s4tf_train_examples_total",
        "Training examples consumed across all steps"
    )
    .add(examples as u64);
}

/// Emits one [`diag::StepRecord`] to the `S4TF_METRICS_FILE` stream.
///
/// Called after the barrier, so on the lazy device the gradient is already
/// materialized and the host-side norm read does not pollute the next
/// trace. The peak-bytes counter is reset afterwards so each record reports
/// a per-step high-water mark.
fn emit_step_metrics<G: VectorSpace>(
    loss: f64,
    gradients: &G,
    examples: usize,
    elapsed: std::time::Duration,
    backend: &'static str,
) {
    let grad_norm = gradients.norm_squared().sqrt();
    let secs = elapsed.as_secs_f64();
    let stats = diag::memory_stats();
    let record = diag::StepRecord {
        step: diag::next_step(),
        loss,
        grad_norm,
        examples_per_sec: if secs > 0.0 {
            examples as f64 / secs
        } else {
            0.0
        },
        peak_bytes: stats.peak_bytes,
        live_bytes: stats.live_bytes,
        backend,
    };
    diag::event!(
        "train.step",
        step = record.step,
        loss = record.loss,
        grad_norm = record.grad_norm,
        backend = backend,
    );
    diag::record_step(&record);
    diag::reset_peak_bytes();
}

/// The classifier's `valueWithGradient(at: model)`: forward → softmax
/// cross-entropy → pullback, returning the on-device loss and the
/// gradient with respect to the model — a first-class
/// `Model::TangentVector` value (paper §4.2: "both the model and its
/// gradient are first class values").
///
/// The VJP is asked for [`Wrt::Parameters`]: no backend computes the
/// images' cotangent, not even the lazy device's trace records it.
/// Everything else the pullback produced or captured — the predictions
/// and both pullback closures — is dropped before returning. On the lazy
/// device every live handle is an output of the step's program, so what
/// is dropped here is never computed past what the loss and the gradient
/// need; on every device, `Optimizer::update` then finds no captured
/// parameter handle sharing a buffer it updates in place.
pub fn loss_and_gradient<L: Layer>(
    model: &L,
    images: &DTensor,
    labels: &DTensor,
) -> (DTensor, L::TangentVector) {
    let (logits, pullback) = model.forward_with_pullback_wrt(images, Wrt::Parameters);
    let (loss, loss_pullback) = softmax_cross_entropy(&logits, labels);
    let (gradients, _) = pullback(&loss_pullback(&loss.scalar_like(1.0)));
    (loss, gradients)
}

/// The body every single-device step shares: [`loss_and_gradient`] →
/// in-place optimizer update → the automatic barrier, which cuts (and on
/// the lazy device compiles and runs) the step's trace, materializing the
/// loss, the gradients and the updated parameters — the only values alive
/// at that point.
fn step_body<L, O>(
    model: &mut L,
    optimizer: &mut O,
    inputs: &DTensor,
    targets: &DTensor,
) -> (DTensor, L::TangentVector)
where
    L: Layer,
    O: Optimizer<L>,
{
    let (loss, gradients) = loss_and_gradient(model, inputs, targets);
    optimizer.update(model, &gradients);
    inputs.device().barrier();
    (loss, gradients)
}

/// The epilogue every metered step shares: the loss onto the step's
/// span, the registry instruments, and — with a metrics file — the step
/// record. Returns `loss`.
fn finish_step<G: VectorSpace>(
    mut span: prof::SpanGuard,
    start: std::time::Instant,
    loss: f64,
    gradients: &G,
    examples: usize,
    backend: &'static str,
) -> f64 {
    if span.is_recording() {
        span.annotate_f64("loss", loss);
    }
    record_step_instruments(loss, examples, start.elapsed());
    if diag::metrics_enabled() {
        emit_step_metrics(loss, gradients, examples, start.elapsed(), backend);
    }
    loss
}

/// One classifier training step (paper Figure 7, one loop body):
/// forward → softmax cross-entropy → pullback → in-place optimizer update →
/// barrier, under the `train.step` span. Returns the minibatch loss.
pub fn train_classifier_step<L, O>(
    model: &mut L,
    optimizer: &mut O,
    images: &DTensor,
    labels: &DTensor,
) -> f64
where
    L: Layer,
    O: Optimizer<L>,
{
    let span = prof::span("train.step");
    let start = std::time::Instant::now();
    let (loss, gradients) = step_body(model, optimizer, images, labels);
    let examples = images.dims().first().copied().unwrap_or(1);
    let backend = images.device().kind();
    finish_step(
        span,
        start,
        loss.loss_value(),
        &gradients,
        examples,
        backend,
    )
}

/// Like [`train_classifier_step`] but without reading the loss back — for
/// throughput measurements where a host read per step would serialize the
/// eager pipeline beyond what the experiment intends.
pub fn train_classifier_step_no_metrics<L, O>(
    model: &mut L,
    optimizer: &mut O,
    images: &DTensor,
    labels: &DTensor,
) where
    L: Layer,
    O: Optimizer<L>,
{
    let _span = prof::span("train.step");
    step_body(model, optimizer, images, labels);
}

/// How a data-parallel step reacts to a failing shard (a kernel fault, a
/// poisoned tensor, or an injected `allreduce` fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Surface the first shard failure as the step's error.
    FailFast,
    /// Drop failed shards and renormalize the gradient average over the
    /// surviving shards (the classic elastic all-reduce degradation). The
    /// step only fails if *every* shard fails.
    DropShard,
    /// Re-run each failed shard up to this many extra attempts (with
    /// exponential backoff) before giving up on the step.
    Retry(u32),
}

/// Drains any error state the device accumulated during a handled fault so
/// it cannot leak into a later, unrelated step.
fn drain_device_errors(device: &Device) {
    let _ = device.sync_checked();
}

/// One *synchronous data-parallel* classifier step across worker threads —
/// the training regime of the paper's Table 1 ("hosts synchronously
/// training a single model in data-parallel fashion"), with real threads
/// standing in for accelerator cores.
///
/// Each shard computes its gradient against the same model replica in
/// parallel; the gradients are all-reduced (averaged — gradients are
/// first-class `TangentVector` values, §4.2, so the reduction is ordinary
/// value arithmetic) and applied once. With equal shard sizes this is
/// *mathematically identical* to one large-batch step, which the tests
/// assert.
///
/// Returns the mean of the shard losses.
///
/// # Panics
/// Panics if `shards` is empty or if any shard fails (this is the
/// [`FaultPolicy::FailFast`] wrapper over
/// [`data_parallel_classifier_step_with_policy`]).
pub fn data_parallel_classifier_step<L, O>(
    model: &mut L,
    optimizer: &mut O,
    shards: &[(DTensor, DTensor)],
) -> f64
where
    L: Layer + Checkpointable + Sync,
    L::TangentVector: Send,
    O: Optimizer<L>,
{
    data_parallel_classifier_step_with_policy(model, optimizer, shards, FaultPolicy::FailFast)
        .unwrap_or_else(|e| panic!("data-parallel step failed: {e}"))
}

/// [`data_parallel_classifier_step`] with explicit fault handling.
///
/// The step is *transactional*: on `Err` the model is left with its
/// pre-step parameters (a failed optimizer update is rolled back from a
/// host-side snapshot), so a training loop can simply skip or retry the
/// step. The snapshot is only taken when fault injection is active or a
/// shard already failed — the fault-free fast path does no extra work
/// beyond a cheap per-shard gradient probe.
///
/// Shard workers catch kernel panics (and observe deferred/poisoned
/// values, which surface at the probe with their original op attribution)
/// and report them as typed [`RuntimeError`]s rather than tearing down the
/// whole step — the join handles can then only fail on bugs outside the
/// guarded region, which are re-raised verbatim.
pub fn data_parallel_classifier_step_with_policy<L, O>(
    model: &mut L,
    optimizer: &mut O,
    shards: &[(DTensor, DTensor)],
    policy: FaultPolicy,
) -> Result<f64, RuntimeError>
where
    L: Layer + Checkpointable + Sync,
    L::TangentVector: Send,
    O: Optimizer<L>,
{
    assert!(!shards.is_empty(), "data-parallel step needs ≥1 shard");
    let mut span = prof::span("train.step");
    let start = std::time::Instant::now();
    if span.is_recording() {
        span.annotate_f64("shards", shards.len() as f64);
    }
    let device = shards[0].0.device();
    let backend = device.kind();

    let model_ref = &*model;
    // One shard's forward/backward, fault-guarded. The loss read and the
    // gradient-norm probe force observation, so deferred faults (poisoned
    // eager slots, naive poison values) surface *here*, inside the guard,
    // carrying their original op attribution in the panic message.
    let compute = |images: &DTensor, labels: &DTensor| {
        catch_unwind(AssertUnwindSafe(|| {
            let (loss, gradients) = loss_and_gradient(model_ref, images, labels);
            // Observation probe in a protected region: existing poison
            // still surfaces (and is caught above), but the probe's own
            // ops draw no fresh injections.
            let _protect = fault::suppress();
            let loss = loss.loss_value();
            let _probe = gradients.norm_squared();
            (loss, gradients)
        }))
        .map_err(|payload| {
            let e = RuntimeError::kernel("data_parallel.shard", backend, panic_message(&*payload));
            diag::event!("fault.shard_failed", op = e.op, backend = backend);
            e
        })
    };

    type ShardResult<T> = Result<(f64, T), RuntimeError>;
    let mut results: Vec<ShardResult<L::TangentVector>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|(images, labels)| scope.spawn(move || compute(images, labels)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    // The all-reduce itself can fail (site `allreduce`): a lost shard
    // contribution, drawn per shard.
    for (k, r) in results.iter_mut().enumerate() {
        if r.is_ok() && fault::should_inject(fault::FaultSite::Allreduce) {
            diag::event!(
                "fault.injected",
                site = "allreduce",
                op = "allreduce.mean",
                backend = backend,
                shard = k,
            );
            *r = Err(RuntimeError::injected(
                "allreduce.mean",
                backend,
                "allreduce",
            ));
        }
    }

    let saw_failure = results.iter().any(|r| r.is_err());
    match policy {
        FaultPolicy::FailFast => {
            if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
                let e = e.clone();
                drain_device_errors(&device);
                return Err(e);
            }
        }
        FaultPolicy::Retry(attempts) => {
            for (k, r) in results.iter_mut().enumerate() {
                let mut attempt = 0;
                while r.is_err() && attempt < attempts {
                    std::thread::sleep(fault::backoff_delay(attempt));
                    diag::event!("fault.shard_retry", shard = k, attempt = attempt + 1);
                    *r = compute(&shards[k].0, &shards[k].1).and_then(|ok| {
                        if fault::should_inject(fault::FaultSite::Allreduce) {
                            Err(RuntimeError::injected(
                                "allreduce.mean",
                                backend,
                                "allreduce",
                            ))
                        } else {
                            Ok(ok)
                        }
                    });
                    attempt += 1;
                }
            }
            if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
                let e = e.clone();
                drain_device_errors(&device);
                return Err(e);
            }
        }
        FaultPolicy::DropShard => {
            for (k, r) in results.iter().enumerate() {
                if let Err(e) = r {
                    diag::event!(
                        "fault.shard_dropped",
                        shard = k,
                        op = e.op,
                        backend = backend,
                    );
                }
            }
            if results.iter().all(|r| r.is_err()) {
                let e = results
                    .into_iter()
                    .next()
                    .and_then(|r| r.err())
                    .expect("all shards failed");
                drain_device_errors(&device);
                return Err(e);
            }
        }
    }

    // All-reduce: average the shard gradients over the survivors. Under
    // `DropShard` the mean is renormalized by the survivor count, so the
    // update stays an unbiased average of the gradients that made it.
    //
    // From here on we are in the recovery/apply half of the step — a
    // protected region. Chaos specs stress the shard workers; the
    // reduction, validation probes, optimizer update and rollback draw no
    // fresh injections (real faults still propagate as poisoned values
    // and are caught by the probes below). The guard is thread-local, so
    // on the eager device only host-side draws are paused.
    let _protect = fault::suppress();
    let survivors = results.iter().filter(|r| r.is_ok()).count();
    let mut losses = 0.0;
    let mut summed: Option<L::TangentVector> = None;
    for (loss, grad) in results.into_iter().flatten() {
        losses += loss;
        summed = Some(match summed.take() {
            None => grad,
            Some(acc) => acc.adding(&grad),
        });
    }
    let mean_grad = summed
        .expect("≥1 surviving shard")
        .scaled_by(1.0 / survivors as f64);

    // The reduction and the update below dispatch fresh ops that can fault
    // too. Only pay for validation when faults are actually possible.
    let must_validate = fault::injection_enabled() || saw_failure;
    if must_validate {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| mean_grad.norm_squared())) {
            let e = RuntimeError::kernel("allreduce.mean", backend, panic_message(&*payload));
            drain_device_errors(&device);
            return Err(e);
        }
    }
    let snapshot: Option<BTreeMap<String, Tensor<f32>>> = if must_validate {
        let mut snap = BTreeMap::new();
        let mut snap_err: Option<RuntimeError> = None;
        model.for_each_param("", &mut |name, t| {
            if snap_err.is_none() {
                match t.to_tensor_checked() {
                    Ok(host) => {
                        snap.insert(name.to_string(), host);
                    }
                    Err(e) => snap_err = Some(e),
                }
            }
        });
        if let Some(e) = snap_err {
            drain_device_errors(&device);
            return Err(e);
        }
        Some(snap)
    } else {
        None
    };

    optimizer.update(model, &mean_grad);
    device.barrier();

    if let Some(snap) = &snapshot {
        // Probe every parameter: a fault during the update phase poisons
        // some weight, and the model must not carry it into the next step.
        let mut probe_err: Option<RuntimeError> = None;
        model.for_each_param("", &mut |_, t| {
            if probe_err.is_none() {
                if let Err(e) = t.to_tensor_checked() {
                    probe_err = Some(e);
                }
            }
        });
        if let Some(e) = probe_err {
            model.for_each_param_mut("", &mut |name, slot| {
                if let Some(saved) = snap.get(name) {
                    *slot = DTensor::from_tensor(saved.clone(), &device);
                }
            });
            diag::event!("fault.step_rolled_back", op = e.op, backend = backend);
            drain_device_errors(&device);
            return Err(e);
        }
    }
    if must_validate {
        drain_device_errors(&device);
    }

    let loss = losses / survivors as f64;
    let examples: usize = shards
        .iter()
        .map(|(x, _)| x.dims().first().copied().unwrap_or(1))
        .sum();
    Ok(finish_step(
        span, start, loss, &mean_grad, examples, backend,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layers::Dense;
    use crate::metrics::accuracy;
    use crate::optimizer::Sgd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use s4tf_runtime::Device;
    use s4tf_tensor::Tensor;

    /// A linearly separable 2-class problem.
    fn toy_data(device: &Device) -> (DTensor, DTensor, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let n = 64;
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            data.push(center + Tensor::<f32>::randn(&[1], &mut rng).scalar_value() * 0.5);
            data.push(center * 0.5 + Tensor::<f32>::randn(&[1], &mut rng).scalar_value() * 0.5);
            labels.push(class);
        }
        let x = DTensor::from_tensor(Tensor::from_vec(data, &[n, 2]), device);
        let y = DTensor::from_tensor(Tensor::one_hot(&labels, 2), device);
        (x, y, labels)
    }

    #[test]
    fn classifier_trains_on_every_device() {
        for device in [Device::naive(), Device::eager(), Device::lazy()] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let (x, y, labels) = toy_data(&device);
            let mut model = Dense::new(2, 2, Activation::Identity, &device, &mut rng);
            let mut opt = Sgd::new(0.5);
            let first_loss = train_classifier_step(&mut model, &mut opt, &x, &y);
            let mut last_loss = first_loss;
            for _ in 0..30 {
                last_loss = train_classifier_step(&mut model, &mut opt, &x, &y);
            }
            assert!(
                last_loss < first_loss * 0.5,
                "{}: loss {first_loss} → {last_loss}",
                device.kind()
            );
            let logits = model.forward(&x).to_tensor();
            assert!(
                accuracy(&logits, &labels) > 0.95,
                "{}: accuracy too low",
                device.kind()
            );
        }
    }

    #[test]
    fn lazy_training_reuses_one_compiled_program() {
        let device = Device::lazy();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let (x, y, _) = toy_data(&device);
        let mut model = Dense::new(2, 2, Activation::Identity, &device, &mut rng);
        let mut opt = Sgd::new(0.1);
        for _ in 0..10 {
            train_classifier_step_no_metrics(&mut model, &mut opt, &x, &y);
        }
        if let Device::Lazy(ctx) = &device {
            let stats = ctx.cache().stats();
            assert_eq!(
                stats.misses, 1,
                "identical step traces must compile exactly once"
            );
            assert_eq!(stats.hits, 9);
        }
    }

    #[test]
    fn data_parallel_equals_large_batch() {
        // With equal shard sizes and mean-reduced losses, K-way synchronous
        // data parallelism is mathematically identical to one large-batch
        // step. Run both and compare the resulting models exactly.
        let device = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        let (x, y, _) = toy_data(&device);
        let reference_init = Dense::new(2, 2, Activation::Tanh, &device, &mut rng);

        // Large-batch step.
        let mut single = reference_init.clone();
        let mut opt1 = Sgd::new(0.3);
        train_classifier_step(&mut single, &mut opt1, &x, &y);

        // 4-way sharded step over the same 64 samples.
        let xt = x.to_tensor();
        let yt = y.to_tensor();
        let shards: Vec<(DTensor, DTensor)> = (0..4)
            .map(|k| {
                (
                    DTensor::from_tensor(xt.slice_axis(0, k * 16, 16), &device),
                    DTensor::from_tensor(yt.slice_axis(0, k * 16, 16), &device),
                )
            })
            .collect();
        let mut parallel = reference_init.clone();
        let mut opt2 = Sgd::new(0.3);
        let loss = data_parallel_classifier_step(&mut parallel, &mut opt2, &shards);
        assert!(loss.is_finite());

        assert!(
            single
                .weight
                .to_tensor()
                .allclose(&parallel.weight.to_tensor(), 1e-6),
            "data-parallel must equal large-batch"
        );
        assert!(single
            .bias
            .to_tensor()
            .allclose(&parallel.bias.to_tensor(), 1e-6));
    }

    #[test]
    fn data_parallel_training_converges() {
        let device = Device::naive();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let (x, y, labels) = toy_data(&device);
        let xt = x.to_tensor();
        let yt = y.to_tensor();
        let shards: Vec<(DTensor, DTensor)> = (0..2)
            .map(|k| {
                (
                    DTensor::from_tensor(xt.slice_axis(0, k * 32, 32), &device),
                    DTensor::from_tensor(yt.slice_axis(0, k * 32, 32), &device),
                )
            })
            .collect();
        let mut model = Dense::new(2, 2, Activation::Identity, &device, &mut rng);
        let mut opt = Sgd::new(0.5);
        for _ in 0..30 {
            data_parallel_classifier_step(&mut model, &mut opt, &shards);
        }
        let logits = model.forward(&x).to_tensor();
        assert!(accuracy(&logits, &labels) > 0.95);
    }
}
