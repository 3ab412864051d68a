//! `mf_naive`: matrix factorization on the naive device — gathers,
//! scatter-add tangents and `move_along` on small tables, with no queue and
//! no compiler between the caller and the kernels.

use super::{run_steps, DeviceCounts, Outcome, Phase, Steps, Workload};
use crate::host::HostSpeed;
use crate::spans::Recorder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::core::{Differentiable, LossValue, VectorSpace};
use s4tf::data::{RatingsDataset, RatingsSpec};
use s4tf::models::MatrixFactorizer;
use s4tf::nn::mse;
use s4tf::runtime::{DTensor, Device};
use s4tf::tensor::Tensor;
use s4tf::xla::HloGraph;
use serde::Value;

const RANK: usize = 6;
const BATCH: usize = 256;
/// Passes over the training set in one round; the held-out check closes it.
const ROUND_EPOCHS: usize = 30;
const LEARNING_RATE: f64 = 4.0;
const WARMUP_STEPS: usize = 20;
/// A round must bring held-out MSE below this share of the initial model's.
const HELD_OUT_SHARE: f64 = 0.5;

fn build(spec: &RatingsSpec, device: &Device, seed: u64) -> MatrixFactorizer {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    MatrixFactorizer::new(spec.users, spec.items, RANK, device, &mut rng)
}

/// One minibatch step up to the loss read: slice → host-to-device → predict
/// → MSE → pullback → `move_along`. Returns the loss, still on the device.
fn record_step(
    rec: &mut Recorder,
    model: &mut MatrixFactorizer,
    device: &Device,
    data: &RatingsDataset,
    index: usize,
) -> DTensor {
    let rows = index * BATCH..(index + 1) * BATCH;
    let (users, items, ratings) = rec.span("data.batch", |_| {
        (
            &data.train.users[rows.clone()],
            &data.train.items[rows.clone()],
            data.train.ratings[rows.clone()].to_vec(),
        )
    });
    let (users, items, targets) = rec.span("runtime.h2d", |_| {
        (
            MatrixFactorizer::encode_ids(users, device),
            MatrixFactorizer::encode_ids(items, device),
            DTensor::from_tensor(Tensor::from_vec(ratings, &[BATCH]), device),
        )
    });
    let (pred, pullback) = rec.span("nn.forward", |_| {
        model.predict_with_pullback(&users, &items)
    });
    let (loss, dpred) = rec.span("nn.loss", |_| {
        let (loss, loss_pullback) = mse(&pred, &targets);
        let dpred = loss_pullback(&loss.scalar_like(1.0));
        (loss, dpred)
    });
    let gradients = rec.span("nn.backward", |rec| {
        rec.span("core.pullback", |_| pullback(&dpred))
    });
    rec.span("nn.update", |rec| {
        rec.span("core.move_along", |_| {
            model.move_along(&gradients.scaled_by(-LEARNING_RATE))
        })
    });
    loss
}

/// One minibatch step, loss read included.
fn train_step(
    rec: &mut Recorder,
    model: &mut MatrixFactorizer,
    device: &Device,
    data: &RatingsDataset,
    index: usize,
) -> f64 {
    let loss = record_step(rec, model, device, data, index);
    rec.span("runtime.sync", |_| {
        device.barrier();
        loss.loss_value()
    })
}

pub struct Mf {
    device: Device,
    data: RatingsDataset,
    initial: MatrixFactorizer,
    model: MatrixFactorizer,
    test_users: DTensor,
    test_items: DTensor,
    test_targets: Tensor<f32>,
    initial_mse: f64,
    step: usize,
    first_loss: f64,
    last_loss: f64,
}

impl Mf {
    pub fn new(seed: u64) -> Self {
        let device = Device::naive();
        let spec = RatingsSpec::default();
        let data = RatingsDataset::generate(spec, seed);
        let initial = build(&spec, &device, seed);
        let test_users = MatrixFactorizer::encode_ids(&data.test.users, &device);
        let test_items = MatrixFactorizer::encode_ids(&data.test.items, &device);
        let test_targets = Tensor::from_vec(data.test.ratings.clone(), &[data.test.len()]);
        let initial_mse = initial.mse(&test_users, &test_items, &test_targets);
        let mut this = Mf {
            model: initial.clone(),
            initial,
            device,
            data,
            test_users,
            test_items,
            test_targets,
            initial_mse,
            step: 0,
            first_loss: 0.0,
            last_loss: 0.0,
        };
        let mut off = Recorder::off();
        for _ in 0..WARMUP_STEPS {
            this.op(&mut off);
        }
        this.model = this.initial.clone();
        this.step = 0;
        this
    }

    fn batches_per_epoch(&self) -> usize {
        self.data.train.len() / BATCH
    }

    fn round_steps(&self) -> usize {
        ROUND_EPOCHS * self.batches_per_epoch()
    }
}

impl Steps for Mf {
    fn prepare(&mut self, rec: &mut Recorder) -> u64 {
        if self.step < self.round_steps() {
            return 0;
        }
        rec.span("bench.round_reset", |_| {
            let held_out = self
                .model
                .mse(&self.test_users, &self.test_items, &self.test_targets);
            let learned =
                held_out < HELD_OUT_SHARE * self.initial_mse && self.last_loss < self.first_loss;
            if !learned {
                eprintln!(
                    "mf_naive: round ended at held-out MSE {held_out} from {}, loss {} from {}",
                    self.initial_mse, self.last_loss, self.first_loss
                );
            }
            self.model = self.initial.clone();
            self.step = 0;
            u64::from(!learned)
        })
    }

    fn op(&mut self, rec: &mut Recorder) -> Outcome {
        let index = self.step % self.batches_per_epoch();
        let loss = rec.span("op", |rec| {
            train_step(rec, &mut self.model, &self.device, &self.data, index)
        });
        if self.step == 0 {
            self.first_loss = loss;
        }
        self.last_loss = loss;
        self.step += 1;
        Outcome {
            examples: BATCH,
            ok: loss.is_finite(),
        }
    }
}

impl Workload for Mf {
    fn run(&mut self, seconds: f64, rec: &mut Recorder, host: &mut HostSpeed) -> Phase {
        run_steps(self, seconds, rec, host)
    }

    fn device_counts(&self) -> DeviceCounts {
        DeviceCounts::default()
    }

    fn step_graph(&self) -> HloGraph {
        let device = Device::lazy();
        let mut model = build(&self.data.spec, &device, 0);
        let mut off = Recorder::off();
        train_step(&mut off, &mut model, &device, &self.data, 0);
        let loss = record_step(&mut off, &mut model, &device, &self.data, 1);
        let Device::Lazy(ctx) = &device else {
            unreachable!("the scratch device is lazy")
        };
        let graph = ctx.snapshot_trace();
        device.barrier();
        drop(loss);
        graph
    }

    fn fuses(&self) -> bool {
        false
    }

    fn describe(&self) -> Vec<(String, Value)> {
        vec![
            ("model".into(), Value::Str("matrix_factorizer".into())),
            ("device".into(), Value::Str("naive".into())),
            ("rank".into(), Value::UInt(RANK as u64)),
            ("batch".into(), Value::UInt(BATCH as u64)),
            ("round_steps".into(), Value::UInt(self.round_steps() as u64)),
            ("examples_per_op".into(), Value::UInt(BATCH as u64)),
        ]
    }
}
