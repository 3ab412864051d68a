//! The traced run: the per-layer ledger of one workload. A quarter-length
//! untraced leg, a quarter-length leg with spans around every call into a
//! layer, two eighth-length legs with observability all on and all off, then
//! the replay probes on one snapshotted step graph. Writes the spans as a
//! Chrome trace to `<out_dir>/<workload>.trace.json`.

use crate::host::HostSpeed;
use crate::spans::{self, Recorder};
use crate::workloads::{self, DeviceCounts, Phase, Workload};
use crate::{m_get, probes, put, stats, Metrics};
use std::path::Path;

/// Median operation time at reference host speed: the legs of one run are
/// seconds apart, and the host's speed shifts in between.
fn p50_ref(phase: &Phase) -> f64 {
    stats::median(&phase.op_ref_ms)
}

/// Process-wide counters read before and after the traced phase.
struct Counters {
    tensor_allocs: u64,
    pool_hits: u64,
    pool_misses: u64,
    cow_copies: u64,
    thread_tasks: u64,
    codegen: s4tf::xla::CodegenStats,
    device: DeviceCounts,
}

impl Counters {
    fn read(workload: &dyn Workload) -> Counters {
        let pool = s4tf::tensor::pool::stats();
        Counters {
            tensor_allocs: s4tf::diag::memory_stats().allocs,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            cow_copies: s4tf::tensor::storage::cow_copy_count(),
            thread_tasks: s4tf::threads::pool_stats().tasks_run,
            codegen: s4tf::xla::codegen::stats(),
            device: workload.device_counts(),
        }
    }
}

/// Switches the three observability layers on (profiler, event ring,
/// metrics registry) or off; the default a user gets is in between.
fn set_observability(on: bool) {
    s4tf::profile::set_enabled(on);
    s4tf::diag::set_events_enabled(on);
    s4tf::metrics::set_enabled(on);
}

/// Runs the legs and the probes; returns the workload, the operations
/// attempted and failed over all legs, and every per-layer number by name.
pub fn traced(
    name: &str,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> (Box<dyn Workload>, Phase, Metrics) {
    // Per-layer times are at reference host speed too: the legs and the
    // probes run seconds apart, and the host's speed shifts in between.
    let mut host = HostSpeed::new();
    let mut workload =
        workloads::build(name, seed, out_dir).expect("the workload name was checked");
    let untraced = workload.run(seconds / 4.0, &mut Recorder::off(), &mut host);

    s4tf::diag::reset_peak_bytes();
    let before = Counters::read(workload.as_ref());
    let mut rec = Recorder::new();
    let phase = workload.run(seconds / 4.0, &mut rec, &mut host);
    let after = Counters::read(workload.as_ref());
    let ops = phase.attempted as f64;

    // Span lengths at reference host speed.
    let rec_began_s = host.seconds_at(rec.epoch());
    let slowdown = |at_ns: u64| host.slowdown_at(rec_began_s + at_ns as f64 / 1e9);
    let mut m = Metrics::new();
    for (span, us) in spans::median_us_per_op(&spans::at_reference_speed(rec.spans(), slowdown)) {
        put(&mut m, &format!("{span}_us"), us);
    }
    for (name, value) in rec.sample_medians(slowdown) {
        put(&mut m, name, value);
    }
    for (name, value) in workload.layer_metrics() {
        put(&mut m, name, value);
    }
    let (tail_pct, tail_ms) = stats::tail(&stats::sorted(untraced.op_ref_ms.clone()));
    put(&mut m, "nn.op_ms_tail", tail_ms);
    put(&mut m, "nn.tail_pct", tail_pct);
    put(
        &mut m,
        "bench.span_coverage",
        spans::coverage(rec.spans(), (phase.wall_s * 1e9) as u64),
    );
    put(
        &mut m,
        "bench.trace_overhead_share",
        p50_ref(&phase) / p50_ref(&untraced) - 1.0,
    );

    let (a, b) = (&after, &before);
    for (name, after, before) in [
        (
            "xla.cache_hits_per_op",
            a.device.cache_hits,
            b.device.cache_hits,
        ),
        (
            "xla.cache_misses_per_op",
            a.device.cache_misses,
            b.device.cache_misses,
        ),
        (
            "xla.codegen_miss_per_op",
            a.codegen.misses,
            b.codegen.misses,
        ),
        (
            "xla.codegen_specialized_per_op",
            a.codegen.specialized,
            b.codegen.specialized,
        ),
        (
            "xla.codegen_fallback_per_op",
            a.codegen.fallback,
            b.codegen.fallback,
        ),
        (
            "runtime.eager.ops_per_step",
            a.device.eager_dispatched,
            b.device.eager_dispatched,
        ),
        ("tensor.allocs_per_op", a.tensor_allocs, b.tensor_allocs),
        ("tensor.pool_hits_per_op", a.pool_hits, b.pool_hits),
        ("tensor.pool_misses_per_op", a.pool_misses, b.pool_misses),
        ("tensor.cow_copies_per_op", a.cow_copies, b.cow_copies),
        ("threads.tasks_per_op", a.thread_tasks, b.thread_tasks),
    ] {
        put(&mut m, name, (after - before) as f64 / ops);
    }
    put(&mut m, "heap.allocs_per_op", phase.heap_allocs as f64 / ops);
    put(
        &mut m,
        "tensor.peak_bytes",
        s4tf::diag::memory_stats().peak_bytes as f64,
    );

    let mut total = Phase {
        attempted: untraced.attempted + phase.attempted,
        failed: untraced.failed + phase.failed,
        ..Phase::default()
    };
    // The cost of watching: everything on against everything off. Worker
    // processes do not see this process's switches, so a workload whose
    // work happens elsewhere reports none.
    let mut tax = 0.0;
    if workload.runs_in_process() {
        set_observability(true);
        let watched = workload.run(seconds / 8.0, &mut Recorder::off(), &mut host);
        set_observability(false);
        let unwatched = workload.run(seconds / 8.0, &mut Recorder::off(), &mut host);
        s4tf::metrics::set_enabled(true);
        s4tf::profile::reset();
        tax = p50_ref(&watched) / p50_ref(&unwatched) - 1.0;
        total.attempted += watched.attempted + unwatched.attempted;
        total.failed += watched.failed + unwatched.failed;
    }
    put(&mut m, "observe.tax_share", tax);

    let steps = workload.steps_per_op() as f64;
    for (name, value) in probes::replay(&workload.step_graph(), workload.fuses(), &mut host) {
        put(&mut m, name, value);
    }
    for (name, value) in probes::dispatch(&mut host) {
        put(&mut m, name, value);
    }
    let floor_us = m_get(&m, "tensor.kernel_floor_us") * steps;
    let flops = m_get(&m, "tensor.flops_per_op") * steps;
    // What the barrier costs beyond running the compiled program.
    let overhead_us = if workload.fuses() {
        m_get(&m, "runtime.sync_us") - m_get(&m, "xla.exec_us") * steps
    } else {
        0.0
    };
    put(&mut m, "tensor.flops_per_op", flops);
    put(
        &mut m,
        "runtime.dispatch_share",
        1.0 - floor_us / (p50_ref(&untraced) * 1e3),
    );
    put(&mut m, "runtime.lazy.overhead_us", overhead_us.max(0.0));

    let trace = spans::chrome_trace(rec.spans(), name);
    let path = out_dir.join(format!("{name}.trace.json"));
    let written = serde_json::to_string(&trace)
        .map_err(|e| e.to_string())
        .and_then(|json| std::fs::write(&path, json).map_err(|e| e.to_string()));
    if let Err(e) = written {
        eprintln!("benchmark: writing {}: {e}", path.display());
    }
    (workload, total, m)
}
