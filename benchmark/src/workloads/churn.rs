//! `lenet_lazy_churn`: the lazy backend the other way round. One operation
//! is a whole short session on a *fresh* lazy device with a fresh LeNet —
//! six steps over three batch sizes — so the program cache misses, the
//! compiler runs and the pool sees buffer sizes that do not recur. A change
//! that buys steady-state speed with compile time or shape-keyed state
//! pays for it here.

use super::classifier::{step_graph, train_step, LOSS_TOLERANCE};
use super::{run_steps, DeviceCounts, Outcome, Phase, Steps, Workload};
use crate::host::HostSpeed;
use crate::spans::Recorder;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::data::{Dataset, ImageSpec};
use s4tf::models::LeNet;
use s4tf::nn::Sgd;
use s4tf::runtime::Device;
use s4tf::xla::HloGraph;
use serde::Value;

const SESSION_STEPS: usize = 6;
const WARMUP_SESSIONS: usize = 2;
const DATASET_EXAMPLES: usize = 64;

/// The session's three batch sizes `[a, b, c]`, a pure function of the
/// seed: `a` in 4..=9, `b = 20 − a` in 11..=16, `c = 28` — always distinct,
/// always summing to 48 and always with the same largest batch, so every
/// seed trains on the same number of examples per session and peaks at the
/// same activation size: the metrics do not move with the seed.
pub fn batch_sizes(seed: u64) -> [usize; 3] {
    // splitmix64: the low bits of nearby seeds must not correlate.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let a = 4 + ((z ^ (z >> 31)) % 6) as usize;
    [a, 20 - a, 28]
}

fn optimizer() -> Sgd<LeNet> {
    Sgd::with_momentum(0.01, 0.9)
}

pub struct Churn {
    seed: u64,
    sizes: [usize; 3],
    data: Dataset,
    reference: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
}

impl Churn {
    pub fn new(seed: u64) -> Self {
        let mut this = Churn {
            seed,
            sizes: batch_sizes(seed),
            data: Dataset::generate(ImageSpec::mnist_like(), DATASET_EXAMPLES, seed ^ 0xc4u64),
            reference: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
        };
        let mut off = Recorder::off();
        this.reference = this.session(&mut off, Device::naive());
        for _ in 0..WARMUP_SESSIONS {
            this.op(&mut off);
        }
        this
    }

    fn examples_per_session(&self) -> usize {
        (0..SESSION_STEPS).map(|i| self.sizes[i % 3]).sum()
    }

    /// Builds a LeNet on `device`, trains the session's steps, drops both;
    /// returns the losses.
    fn session(&mut self, rec: &mut Recorder, device: Device) -> Vec<f64> {
        let mut model = rec.span("nn.model_build", |_| {
            LeNet::new(&device, &mut ChaCha8Rng::seed_from_u64(self.seed))
        });
        let mut opt = optimizer();
        let losses = (0..SESSION_STEPS)
            .map(|i| {
                let batch = self.sizes[i % 3];
                train_step(rec, &mut model, &mut opt, &device, &self.data, batch, i)
            })
            .collect();
        if let Some(cache) = device.cache_stats() {
            self.cache_hits += cache.hits;
            self.cache_misses += cache.misses;
        }
        rec.span("runtime.device_drop", |_| drop((model, opt, device)));
        losses
    }
}

impl Steps for Churn {
    fn prepare(&mut self, _rec: &mut Recorder) -> u64 {
        0
    }

    fn op(&mut self, rec: &mut Recorder) -> Outcome {
        let losses = rec.span("op", |rec| {
            let device = rec.span("runtime.device_new", |_| Device::lazy());
            self.session(rec, device)
        });
        let ok = losses
            .iter()
            .zip(&self.reference)
            .all(|(loss, expected)| loss.is_finite() && (loss - expected).abs() < LOSS_TOLERANCE);
        Outcome {
            examples: self.examples_per_session(),
            ok,
        }
    }
}

impl Workload for Churn {
    fn run(&mut self, seconds: f64, rec: &mut Recorder, host: &mut HostSpeed) -> Phase {
        run_steps(self, seconds, rec, host)
    }

    fn device_counts(&self) -> DeviceCounts {
        DeviceCounts {
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            eager_dispatched: 0,
        }
    }

    fn step_graph(&self) -> HloGraph {
        step_graph(
            LeNet::new,
            optimizer(),
            &self.data,
            // The middle size: the three average 16, and `b` is 11..=16.
            self.sizes[1],
        )
    }

    fn steps_per_op(&self) -> usize {
        SESSION_STEPS
    }

    fn fuses(&self) -> bool {
        true
    }

    fn describe(&self) -> Vec<(String, Value)> {
        let sizes = self.sizes.iter().map(|&s| Value::UInt(s as u64)).collect();
        vec![
            ("model".into(), Value::Str("lenet5".into())),
            ("device".into(), Value::Str("lazy, fresh per op".into())),
            ("session_steps".into(), Value::UInt(SESSION_STEPS as u64)),
            ("batch_sizes".into(), Value::Array(sizes)),
            (
                "examples_per_op".into(),
                Value::UInt(self.examples_per_session() as u64),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sizes_are_a_pure_function_of_the_seed() {
        for seed in 0..500 {
            let sizes = batch_sizes(seed);
            assert_eq!(sizes, batch_sizes(seed), "seed {seed}");
            let [a, b, c] = sizes;
            assert!((4..=9).contains(&a) && (11..=16).contains(&b) && c == 28);
            assert_eq!(a + b + c, 48);
        }
        // The seed matters: nearby seeds reach every triple.
        let distinct: std::collections::BTreeSet<_> = (0..50).map(batch_sizes).collect();
        assert_eq!(distinct.len(), 6, "{distinct:?}");
    }
}
