//! Canonical LeNet data-parallel setup, shared by the distributed tests,
//! the `dist_lenet` example, and the `dist` bench.
//!
//! One function builds the shard data stream, one runs the worker role,
//! and one replays the in-process reference — all from the same seeds and
//! hyperparameters, so every consumer agrees on what "bit-identical"
//! means.

use crate::reference::reference_run;
use crate::worker::{is_worker_process, run_worker, WorkerEnv};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf_data::images::{Dataset, ImageSpec};
use s4tf_models::LeNet;
use s4tf_nn::Sgd;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::RuntimeError;

/// Shard dataset size, in batches. Batch indices wrap modulo this.
const SHARD_BATCHES: usize = 8;

fn shard_dataset(shard_batch: usize, data_seed: u64, rank: u32) -> Dataset {
    // Disjoint per-rank streams: each rank owns its own generated shard,
    // keyed by the *original* rank so survivors keep their data after an
    // expulsion and a rejoiner resumes its own stream.
    let seed = data_seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(rank) + 1));
    Dataset::generate(ImageSpec::mnist_like(), shard_batch * SHARD_BATCHES, seed)
}

/// The `(step) → (images, one-hot labels)` stream for one worker rank.
pub fn shard_data(
    device: &Device,
    shard_batch: usize,
    data_seed: u64,
    rank: u32,
) -> impl FnMut(u64) -> (DTensor, DTensor) {
    let dataset = shard_dataset(shard_batch, data_seed, rank);
    let device = device.clone();
    move |step: u64| {
        let batch = dataset.batch(shard_batch, step as usize, 0);
        let images = DTensor::from_tensor(batch.images.clone(), &device);
        let labels = DTensor::from_tensor(batch.one_hot(10), &device);
        (images, labels)
    }
}

/// Builds the seeded LeNet every participant starts from.
pub fn build_model(device: &Device, seed: u64) -> LeNet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    LeNet::new(device, &mut rng)
}

/// The worker role for LeNet runs. Call this first thing in `main` of any
/// binary that launches LeNet clusters; when the process was spawned as a
/// worker it runs to completion here and exits.
pub fn worker_main_if_spawned() {
    if !is_worker_process() {
        return;
    }
    let code = match lenet_worker() {
        Ok(_steps) => 0,
        Err(e) => {
            eprintln!("s4tf-dist worker: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn lenet_worker() -> Result<u64, RuntimeError> {
    let env = WorkerEnv::from_env()?;
    let device = Device::naive();
    let cfg = &env.cfg;
    let model = build_model(&device, cfg.seed);
    let optimizer: Sgd<LeNet> = Sgd::new(cfg.learning_rate);
    let data = shard_data(&device, cfg.shard_batch, cfg.data_seed, env.rank);
    run_worker(&env, model, optimizer, data, &device)
}

/// Replays a membership schedule in-process with the same LeNet setup.
/// Returns the per-step mean survivor losses and the final model.
pub fn lenet_reference(
    schedule: &[Vec<u32>],
    shard_batch: usize,
    learning_rate: f64,
    seed: u64,
    data_seed: u64,
    bucket_bytes: usize,
) -> Result<(Vec<f64>, LeNet, Device), RuntimeError> {
    let device = Device::naive();
    let mut model = build_model(&device, seed);
    let mut optimizer: Sgd<LeNet> = Sgd::new(learning_rate);
    let mut streams: std::collections::BTreeMap<u32, _> = std::collections::BTreeMap::new();
    let losses = reference_run(
        &mut model,
        &mut optimizer,
        schedule,
        |step, rank| {
            let stream = streams
                .entry(rank)
                .or_insert_with(|| shard_data(&device, shard_batch, data_seed, rank));
            stream(step)
        },
        (bucket_bytes / 4).max(1),
        &device,
    )?;
    Ok((losses, model, device))
}
