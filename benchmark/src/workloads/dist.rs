//! `dist_lenet_2w`: two worker processes training LeNet data-parallel over
//! loopback TCP — the only workload with `dist` (flatten, bucketed ring,
//! two-phase commit) on the blocking path. One operation is one committed
//! step; steps run in sessions of [`SESSION_STEPS`], each a whole
//! `s4tf_dist::run`, all from the same seeds, so one in-process reference
//! trajectory checks every loss for equality.

use super::classifier::step_graph;
use super::{DeviceCounts, Phase, Workload};
use crate::host::HostSpeed;
use crate::spans::Recorder;
use crate::{alloc, stats};
use s4tf::data::{Dataset, ImageSpec};
use s4tf::dist::lenet::lenet_reference;
use s4tf::dist::{full_schedule, ClusterConfig, ClusterReport};
use s4tf::models::LeNet;
use s4tf::nn::Sgd;
use s4tf::xla::HloGraph;
use serde::Value;
use std::path::Path;
use std::time::Instant;

const WORLD: u32 = 2;
const SESSION_STEPS: u64 = 100;
const WARMUP_STEPS: u64 = 8;
/// Host-speed probing between sessions, seconds (outside the wall time).
const BETWEEN_SESSIONS_PROBE_S: f64 = 0.03;

pub struct Dist {
    cfg: ClusterConfig,
    reference: Vec<f64>,
    /// Every step record of the phase run last, and each of its sessions'
    /// wall time beyond its steps (spawn, connect, teardown).
    step_us: Vec<f64>,
    allreduce_us: Vec<f64>,
    tx_bytes: Vec<f64>,
    launch_s: Vec<f64>,
    retries: u64,
    expelled: u64,
}

impl Dist {
    pub fn new(seed: u64, scratch: &Path) -> Self {
        let ckpt_dir = scratch.join(format!("dist-ckpt-{}", std::process::id()));
        let mut cfg = ClusterConfig::new(WORLD, SESSION_STEPS, ckpt_dir);
        cfg.seed = seed;
        cfg.data_seed = seed ^ 0xd157;
        let (reference, _, _) = lenet_reference(
            &full_schedule(WORLD, SESSION_STEPS),
            cfg.shard_batch,
            cfg.learning_rate,
            cfg.seed,
            cfg.data_seed,
            cfg.bucket_bytes,
        )
        .expect("the fault-free in-process replay cannot fail");
        let mut this = Dist {
            cfg,
            reference,
            step_us: Vec::new(),
            allreduce_us: Vec::new(),
            tx_bytes: Vec::new(),
            launch_s: Vec::new(),
            retries: 0,
            expelled: 0,
        };
        // Warm-up: spawn the workers once so the binary is paged in.
        let mut warm = this.cfg.clone();
        warm.steps = WARMUP_STEPS;
        let warm = this.session(&warm, &mut Recorder::off());
        assert!(warm.is_some(), "the warm-up cluster run failed");
        this
    }

    fn clear_records(&mut self) {
        self.step_us.clear();
        self.allreduce_us.clear();
        self.tx_bytes.clear();
        self.launch_s.clear();
        self.retries = 0;
        self.expelled = 0;
    }

    /// One cluster run; `None` if it returned a typed error (printed).
    fn session(&mut self, cfg: &ClusterConfig, rec: &mut Recorder) -> Option<ClusterReport> {
        let begun = Instant::now();
        let result = rec.span("dist.run", |_| s4tf::dist::run(cfg));
        let wall_s = begun.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&cfg.ckpt_dir);
        match result {
            Ok(report) => {
                let steps_s: f64 = report.steps.iter().map(|r| r.step_us as f64 / 1e6).sum();
                self.launch_s.push(wall_s - steps_s);
                for record in &report.steps {
                    self.step_us.push(record.step_us as f64);
                    self.allreduce_us.push(record.allreduce_us as f64);
                    self.tx_bytes.push(record.tx_bytes as f64);
                }
                self.retries += report.retries;
                self.expelled += report.expelled.len() as u64;
                Some(report)
            }
            Err(e) => {
                eprintln!("dist_lenet_2w: cluster run failed: {e}");
                None
            }
        }
    }
}

impl Workload for Dist {
    fn run(&mut self, seconds: f64, rec: &mut Recorder, host: &mut HostSpeed) -> Phase {
        let mut phase = Phase::default();
        let examples_per_step = u64::from(WORLD) * self.cfg.shard_batch as u64;
        let cfg = self.cfg.clone();
        self.clear_records();
        alloc::reset_peak();
        let allocs_before = alloc::allocs();
        // The launcher sleeps while the workers train, so the host's speed
        // is probed between sessions and interpolated across each.
        host.probe_for(BETWEEN_SESSIONS_PROBE_S);
        let start_s = host.now_s();
        let start = Instant::now();
        loop {
            rec.next_op();
            phase.attempted += SESSION_STEPS;
            let begun_s = host.now_s();
            let session = self.session(&cfg, rec);
            let ended_s = host.now_s();
            host.probe_for(BETWEEN_SESSIONS_PROBE_S);
            match session {
                Some(report) => {
                    let pace = (host.slowdown_at(begun_s) + host.slowdown_at(ended_s)) / 2.0;
                    for record in &report.steps {
                        phase.op_ms.push(record.step_us as f64 / 1e3);
                        phase.op_ref_ms.push(record.step_us as f64 / 1e3 / pace);
                    }
                    phase.examples += report.steps_completed * examples_per_step;
                    let losses: Vec<f64> = report.steps.iter().map(|r| r.loss).collect();
                    // Bit-identity with the in-process replay, step by step;
                    // a short or reordered report fails the missing steps.
                    let agreeing = losses
                        .iter()
                        .zip(&self.reference)
                        .filter(|(loss, expected)| loss == expected)
                        .count() as u64;
                    phase.failed += SESSION_STEPS - agreeing.min(SESSION_STEPS);
                    let learned = losses.last() < losses.first();
                    phase.failed += u64::from(!learned);
                }
                None => {
                    phase.failed += SESSION_STEPS;
                    break;
                }
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.wall_ref_s = host.reference_seconds(start_s, host.now_s());
        phase.peak_heap_bytes = alloc::peak_bytes();
        phase.heap_allocs = alloc::allocs() - allocs_before;
        phase
    }

    fn device_counts(&self) -> DeviceCounts {
        DeviceCounts::default()
    }

    fn step_graph(&self) -> HloGraph {
        // What each worker computes per step: LeNet on its shard, plain SGD.
        let batch = self.cfg.shard_batch;
        let data = Dataset::generate(ImageSpec::mnist_like(), batch, self.cfg.data_seed);
        step_graph(
            LeNet::new,
            Sgd::<LeNet>::new(self.cfg.learning_rate),
            &data,
            batch,
        )
    }

    fn fuses(&self) -> bool {
        false
    }

    fn describe(&self) -> Vec<(String, Value)> {
        vec![
            ("model".into(), Value::Str("lenet5".into())),
            (
                "device".into(),
                Value::Str("naive, 2 worker processes".into()),
            ),
            ("world".into(), Value::UInt(u64::from(WORLD))),
            (
                "shard_batch".into(),
                Value::UInt(self.cfg.shard_batch as u64),
            ),
            ("session_steps".into(), Value::UInt(SESSION_STEPS)),
            (
                "examples_per_op".into(),
                Value::UInt(u64::from(WORLD) * self.cfg.shard_batch as u64),
            ),
        ]
    }

    fn runs_in_process(&self) -> bool {
        false
    }

    fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let compute_us: Vec<f64> = self
            .step_us
            .iter()
            .zip(&self.allreduce_us)
            .map(|(step, ring)| step - ring)
            .collect();
        let step_ms = stats::sorted(self.step_us.iter().map(|us| us / 1e3).collect());
        let total_step: f64 = self.step_us.iter().sum();
        let total_ring: f64 = self.allreduce_us.iter().sum();
        vec![
            ("dist.step_us_p50", stats::median(&self.step_us)),
            ("dist.allreduce_us_p50", stats::median(&self.allreduce_us)),
            (
                "dist.allreduce_share",
                if total_step > 0.0 {
                    total_ring / total_step
                } else {
                    0.0
                },
            ),
            ("dist.compute_us_p50", stats::median(&compute_us)),
            ("dist.tx_bytes_per_step", stats::median(&self.tx_bytes)),
            ("dist.retries", self.retries as f64),
            ("dist.expelled", self.expelled as f64),
            ("dist.step_ms_tail", stats::tail(&step_ms).1),
            ("dist.launch_s", stats::median(&self.launch_s)),
        ]
    }
}
