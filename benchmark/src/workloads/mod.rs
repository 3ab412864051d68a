//! The six workloads. Each is built from `--seed` alone, runs closed-loop
//! with one client, checks every operation's output, and — when handed a
//! [`Recorder`] — records spans around its calls into the layers.

mod churn;
mod classifier;
mod dist;
mod mf;

use crate::alloc;
use crate::host::HostSpeed;
use crate::spans::Recorder;
use s4tf::xla::HloGraph;
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each operation, in order, milliseconds.
    pub op_ms: Vec<f64>,
    /// The same at reference host speed (see [`crate::host`]).
    pub op_ref_ms: Vec<f64>,
    /// Wall time of the whole phase, stalls between operations included.
    pub wall_s: f64,
    /// The same at reference host speed, the speed probes taken out.
    pub wall_ref_s: f64,
    pub examples: u64,
    pub attempted: u64,
    /// Operations that panicked with a runtime error, produced a
    /// non-finite loss or failed their output check.
    pub failed: u64,
    pub peak_heap_bytes: usize,
    pub heap_allocs: u64,
}

/// The result of one operation.
pub struct Outcome {
    pub examples: usize,
    pub ok: bool,
}

/// Counters a workload's devices keep, cumulative since set-up. Zero where
/// the backend has no such thing.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeviceCounts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub eager_dispatched: u64,
}

/// A workload the harness can time.
pub trait Workload {
    /// Runs operations for `seconds`, probing the host's speed as it goes.
    /// A recorder that is on gets a span around every call into a layer.
    fn run(&mut self, seconds: f64, rec: &mut Recorder, host: &mut HostSpeed) -> Phase;

    fn device_counts(&self) -> DeviceCounts;

    /// One steady-state optimizer step of this workload's model as a
    /// lazy-device trace, for the replay probes.
    fn step_graph(&self) -> HloGraph;

    /// The sizes that define the workload, for the result files.
    fn describe(&self) -> Vec<(String, Value)>;

    /// Per-layer numbers only this workload can supply (name, value),
    /// over the phase run last.
    fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// True when the workload's device compiles its steps: its kernels are
    /// then those of the optimized (fused) graph, not one per recorded op.
    fn fuses(&self) -> bool;

    /// Optimizer steps in one operation.
    fn steps_per_op(&self) -> usize {
        1
    }

    /// False when the work happens in other processes, out of reach of this
    /// process's observability switches.
    fn runs_in_process(&self) -> bool {
        true
    }
}

/// A workload whose operations the harness drives one by one.
pub trait Steps {
    /// Work due between operations — a round's closing checks and the
    /// reset to the initial model. Inside the phase's wall time, outside
    /// every operation's. Returns how many checks failed.
    fn prepare(&mut self, rec: &mut Recorder) -> u64;

    fn op(&mut self, rec: &mut Recorder) -> Outcome;
}

/// Drives `steps` closed-loop for `seconds`, at least one operation.
pub fn run_steps(
    steps: &mut dyn Steps,
    seconds: f64,
    rec: &mut Recorder,
    host: &mut HostSpeed,
) -> Phase {
    let mut phase = Phase::default();
    let budget = Duration::from_secs_f64(seconds);
    let (mut begun_s, mut op_ms) = (alloc::Samples::default(), alloc::Samples::default());
    alloc::reset_peak();
    let allocs_before = alloc::allocs();
    host.probe();
    let start_s = host.now_s();
    let start = Instant::now();
    loop {
        host.probe_if_due();
        phase.failed += steps.prepare(rec);
        rec.next_op();
        begun_s.push(host.now_s());
        let begun = Instant::now();
        // A kernel fault surfaces as a panic carrying the typed
        // `RuntimeError` at the step's observation point.
        let outcome = catch_unwind(AssertUnwindSafe(|| steps.op(rec)));
        op_ms.push(begun.elapsed().as_secs_f64() * 1e3);
        phase.attempted += 1;
        match outcome {
            Ok(outcome) => {
                phase.examples += outcome.examples as u64;
                phase.failed += u64::from(!outcome.ok);
            }
            Err(_) => {
                // The model may be half-updated: stop rather than time
                // operations on a broken state.
                phase.failed += 1;
                break;
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    let end_s = host.now_s();
    phase.peak_heap_bytes = alloc::peak_bytes();
    phase.heap_allocs = alloc::allocs() - allocs_before;
    host.probe();
    phase.wall_ref_s = host.reference_seconds(start_s, end_s);
    phase.op_ms = op_ms.as_slice().to_vec();
    phase.op_ref_ms = begun_s
        .as_slice()
        .iter()
        .zip(&phase.op_ms)
        .map(|(at_s, ms)| ms / host.slowdown_at(at_s + ms / 2e3))
        .collect();
    phase
}

/// Kernel threads a workload runs with: one everywhere, so dispatch costs
/// are not hidden behind a second core, except where the thread pool is
/// the layer under test.
pub fn kernel_threads(workload: &str) -> usize {
    match workload {
        "resnet_lazy" => std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        _ => 1,
    }
}

/// Builds (sets up) the named workload from `seed`; `None` for a name this
/// binary does not implement. `scratch` is a directory the workload may
/// write under.
pub fn build(name: &str, seed: u64, scratch: &std::path::Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "lenet_lazy" => Box::new(classifier::lenet(seed, s4tf::runtime::Device::lazy())),
        "lenet_eager" => Box::new(classifier::lenet(seed, s4tf::runtime::Device::eager())),
        "resnet_lazy" => Box::new(classifier::resnet8(seed, s4tf::runtime::Device::lazy())),
        "lenet_lazy_churn" => Box::new(churn::Churn::new(seed)),
        "mf_naive" => Box::new(mf::Mf::new(seed)),
        "dist_lenet_2w" => Box::new(dist::Dist::new(seed, scratch)),
        _ => return None,
    })
}
