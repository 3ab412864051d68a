//! End-to-end checks that the eager and lazy devices feed the profiler
//! the right spans and counters for a *known* op sequence, and that all
//! three backends run the same per-kernel protocol.
//!
//! The profiler (like the numerics checker, the fault spec and the event
//! ring) is process-global, so these tests serialize on a mutex (this
//! binary is its own process; other test binaries are unaffected).

use s4tf_runtime::eager::{EagerQueue, EagerTensor};
use s4tf_runtime::lazy::{LazyContext, LazyTensor};
use s4tf_runtime::Device;
use s4tf_tensor::Tensor;
use s4tf_xla::{ElemBinary, ElemUnary, HloOp};
use std::sync::{Arc, Mutex, MutexGuard};

static PROFILER_LOCK: Mutex<()> = Mutex::new(());

fn exclusive_profiler() -> MutexGuard<'static, ()> {
    let guard = PROFILER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    s4tf_profile::set_enabled(true);
    s4tf_profile::reset();
    guard
}

fn teardown() {
    s4tf_profile::set_enabled(false);
    s4tf_profile::reset();
}

#[test]
fn lazy_device_reports_trace_compile_and_cache_activity() {
    let _guard = exclusive_profiler();
    let ctx = Arc::new(LazyContext::new());
    let run = |data: Vec<f32>| {
        let x = LazyTensor::from_host(&ctx, Tensor::from_vec(data, &[2]));
        let y = LazyTensor::record_op(&ctx, HloOp::Unary(ElemUnary::Square), &[&x]);
        let z = LazyTensor::record_op(&ctx, HloOp::Binary(ElemBinary::Add), &[&y, &x]);
        z.to_host()
    };
    // First run compiles; the structurally identical second one hits.
    assert_eq!(run(vec![2.0, 3.0]).as_slice(), &[6.0, 12.0]);
    assert_eq!(run(vec![1.0, 4.0]).as_slice(), &[2.0, 20.0]);

    // The profiler reports the registry's counters, under their registry
    // names, as deltas over its window.
    let report = s4tf_profile::report();
    // Two record_op calls per run.
    assert_eq!(report.counter("s4tf_lazy_trace_append_total"), Some(4));
    let (miss, hit) = (
        report.counter("s4tf_xla_cache_total{result=\"miss\"}"),
        report.counter("s4tf_xla_cache_total{result=\"hit\"}"),
    );
    assert_eq!((miss, hit), (Some(1), Some(1)));
    // The profiler counters agree with the Device cache-stats API.
    let device = Device::Lazy(Arc::clone(&ctx));
    let stats = device.cache_stats().expect("lazy device has a cache");
    assert_eq!((Some(stats.misses), Some(stats.hits)), (miss, hit));

    assert_eq!(report.span("lazy.barrier").unwrap().count, 2);
    assert_eq!(report.span("xla.compile").unwrap().count, 1);
    assert_eq!(report.span("xla.execute").unwrap().count, 2);
    for pass in [
        "xla.pass.constant_fold",
        "xla.pass.cse",
        "xla.pass.algebraic_simplify",
        "xla.pass.fuse_elementwise",
        "xla.pass.dce",
    ] {
        assert_eq!(report.span(pass).unwrap().count, 1, "{pass}");
    }
    assert!(report.counter("s4tf_xla_kernels_run_total").unwrap_or(0) >= 2);
    teardown();
}

#[test]
fn eager_device_reports_dispatch_and_observe_activity() {
    let _guard = exclusive_profiler();
    const OPS: u64 = 5;
    {
        let q = EagerQueue::new();
        let mut t = EagerTensor::from_host(&q, Tensor::ones(&[4]));
        for _ in 0..OPS {
            t = EagerTensor::dispatch_op(&q, HloOp::Unary(ElemUnary::Neg), &[&t]);
        }
        assert_eq!(t.to_host().as_slice(), &[-1.0; 4]);
        q.sync(); // all kernel_run spans recorded once the queue drains
        assert_eq!(q.dispatched(), OPS);
        assert_eq!(q.queue_depth(), 0, "drained queue has no pending work");
    }
    let report = s4tf_profile::report();
    assert_eq!(report.span("eager.enqueue").unwrap().count, OPS);
    assert_eq!(report.span("eager.kernel_run").unwrap().count, OPS);
    assert_eq!(report.span("eager.block_on_observe").unwrap().count, 1);
    let gauges = report.gauges();
    assert!(
        gauges
            .iter()
            .any(|(name, _)| name == "s4tf_queue_depth{queue=\"eager\"}"),
        "queue-depth gauge sampled"
    );
    teardown();
}

#[test]
fn eager_dispatch_records_op_events_flows_and_critical_path() {
    let _guard = exclusive_profiler();
    const OPS: u64 = 5;
    {
        let q = EagerQueue::new();
        let mut t = EagerTensor::from_host(&q, Tensor::ones(&[4]));
        for _ in 0..OPS {
            t = EagerTensor::dispatch_op(&q, HloOp::Unary(ElemUnary::Neg), &[&t]);
        }
        assert_eq!(t.to_host().as_slice(), &[-1.0; 4]);
        q.sync();
    }

    // One op event per dispatched kernel, with the exact analytic cost:
    // Neg over 4 elements is 4 FLOPs, reads 16 B + writes 16 B.
    let ops = s4tf_profile::op_events();
    assert_eq!(ops.len(), OPS as usize);
    for op in &ops {
        assert_eq!(op.backend, "eager");
        assert_eq!(op.phase, "kernel");
        assert_eq!(op.name, "elementwise");
        assert_eq!(op.flops, 4);
        assert_eq!(op.bytes, 32);
        assert!(op.enqueue_us <= op.start_us && op.start_us <= op.end_us);
    }
    // Each op depends on its predecessor (data edge and/or FIFO edge), so
    // the critical path must walk the whole chain.
    let cp = s4tf_profile::critical_path();
    assert_eq!(cp.steps.len(), OPS as usize);
    assert_eq!(cp.kernel_us + cp.queue_us, cp.chain_us);
    assert_eq!(cp.compile_us, 0);

    // Roofline aggregates the five kernels into one eager/elementwise row.
    let roof = s4tf_profile::roofline();
    let row = roof
        .row("eager", "elementwise")
        .expect("eager kernels aggregated");
    assert_eq!(row.count, OPS);
    assert_eq!(row.flops, 4 * OPS);

    // The Chrome trace links enqueue -> kernel_run with flow arrows.
    let json = s4tf_profile::chrome_trace_json();
    assert!(json.contains("\"ph\":\"s\""), "flow start missing");
    assert!(json.contains("\"ph\":\"f\""), "flow end missing");
    assert!(json.contains("eager-worker"), "worker thread unnamed");
    teardown();
}

#[test]
fn lazy_run_records_trace_compile_and_kernel_phases() {
    let _guard = exclusive_profiler();
    let ctx = Arc::new(LazyContext::new());
    let run = |data: Vec<f32>| {
        let x = LazyTensor::from_host(&ctx, Tensor::from_vec(data, &[2]));
        let y = LazyTensor::record_op(&ctx, HloOp::Unary(ElemUnary::Square), &[&x]);
        let z = LazyTensor::record_op(&ctx, HloOp::Binary(ElemBinary::Add), &[&y, &x]);
        z.to_host()
    };
    assert_eq!(run(vec![2.0, 3.0]).as_slice(), &[6.0, 12.0]);
    assert_eq!(run(vec![1.0, 4.0]).as_slice(), &[2.0, 20.0]);

    let ops = s4tf_profile::op_events();
    let phase_count = |p: &str| -> usize { ops.iter().filter(|o| o.phase == p).count() };
    // Two barriers trace; each records its get_or_compile interval as a
    // compile-phase event (the second is a near-free cache hit — the
    // hit/miss split is covered by the xla.cache_* counters); both
    // execute kernels.
    assert_eq!(phase_count("trace"), 2);
    assert_eq!(phase_count("compile"), 2);
    assert!(phase_count("kernel") >= 2);
    assert!(ops.iter().all(|o| o.backend == "lazy"));

    // The roofline only counts kernel-phase work.
    let roof = s4tf_profile::roofline();
    assert!(roof.rows().iter().all(|r| r.backend == "lazy"));
    assert!(roof.row("lazy", "compile").is_none());

    // The chain reaches back through compile to the trace phase.
    let cp = s4tf_profile::critical_path();
    assert!(!cp.is_empty());
    let phases: Vec<&str> = cp.steps.iter().map(|s| s.phase).collect();
    assert!(phases.contains(&"trace"), "{phases:?}");
    assert!(phases.contains(&"kernel"), "{phases:?}");
    teardown();
}

#[test]
fn naive_dispatch_attaches_exact_matmul_cost() {
    let _guard = exclusive_profiler();
    let device = Device::naive();
    let a = s4tf_runtime::DTensor::from_tensor(Tensor::ones(&[2, 3]), &device);
    let b = s4tf_runtime::DTensor::from_tensor(Tensor::ones(&[3, 4]), &device);
    let c = a.matmul(&b);
    assert_eq!(c.to_tensor().shape().dims(), &[2, 4]);

    let ops = s4tf_profile::op_events();
    let mm = ops
        .iter()
        .find(|o| o.name == "matmul")
        .expect("naive matmul op event");
    assert_eq!(mm.backend, "naive");
    assert_eq!(mm.phase, "kernel");
    // 2x3 x 3x4: 2*2*3*4 = 48 FLOPs; (6 + 12 + 8) * 4 B = 104 B.
    assert_eq!(mm.flops, 48);
    assert_eq!(mm.bytes, 104);
    teardown();
}

/// `[2,3] x [3,4]` on `device`; `x00` is the first element of the left
/// operand (a NaN there reaches the whole first output row).
fn matmul_on(device: &Device, x00: f32) -> s4tf_runtime::DTensor {
    let mut lhs = vec![1.0; 6];
    lhs[0] = x00;
    let a = s4tf_runtime::DTensor::from_tensor(Tensor::from_vec(lhs, &[2, 3]), device);
    let b = s4tf_runtime::DTensor::from_tensor(Tensor::ones(&[3, 4]), device);
    a.matmul(&b)
}

/// One op, the same inputs, every backend: the kernel scope must leave
/// the same records whichever device launched the kernel. The only
/// per-backend column is the span open where the kernel runs.
#[test]
fn every_backend_runs_the_same_kernel_protocol() {
    use s4tf_diag::{clear_numerics, first_violation, set_numerics_mode, NumericsMode};
    let table = [
        ("naive", Device::naive(), None),
        ("eager", Device::eager(), Some("eager.kernel_run")),
        ("lazy", Device::lazy(), Some("xla.execute")),
    ];
    for (backend, device, kernel_span) in table {
        let _guard = exclusive_profiler();
        s4tf_metrics::set_enabled(true);
        set_numerics_mode(NumericsMode::Off);

        // A clean launch: one kernel-phase event with the analytic cost,
        // one latency sample, the live-bytes track (numerics off).
        let hist = s4tf_metrics::dispatch_hist(backend, "matmul");
        let samples = hist.count();
        let out = matmul_on(&device, 1.0).to_tensor();
        device.barrier();
        assert_eq!(out.as_slice(), &[3.0; 8], "{backend}");
        let kernels: Vec<_> = s4tf_profile::op_events()
            .into_iter()
            .filter(|o| o.phase == "kernel")
            .collect();
        assert_eq!(kernels.len(), 1, "{backend}: {kernels:?}");
        let k = &kernels[0];
        assert_eq!(
            (k.name.as_ref(), k.backend, k.flops, k.bytes),
            ("matmul", backend, 48, 104)
        );
        assert!(k.enqueue_us <= k.start_us && k.start_us <= k.end_us);
        assert_eq!(hist.count(), samples + 1, "{backend}: one latency sample");
        let report = s4tf_profile::report();
        assert!(
            report
                .gauges()
                .iter()
                .any(|(name, _)| name == "s4tf_mem_live_bytes"),
            "{backend}: live bytes not sampled: {:?}",
            report.gauges()
        );

        // An injected kernel-site fault: same event fields, same error.
        s4tf_diag::set_events_enabled(true);
        s4tf_diag::clear_events();
        s4tf_fault::set_fault_spec(Some("kernel:1:0")).unwrap();
        let err = matmul_on(&device, 1.0).to_tensor_checked().unwrap_err();
        s4tf_fault::set_fault_spec(None).unwrap();
        s4tf_diag::set_events_enabled(false);
        assert_eq!(err.kind, s4tf_runtime::FaultKind::Injected, "{backend}");
        assert_eq!((err.op.as_str(), err.backend), ("matmul", backend));
        assert_eq!(err.span.as_deref(), kernel_span, "{backend}");
        let injected: Vec<_> = s4tf_diag::events()
            .into_iter()
            .filter(|e| e.kind == "fault.injected")
            .collect();
        assert_eq!(injected.len(), 1, "{backend}: {injected:?}");
        let fields: Vec<(&str, &str)> = injected[0]
            .fields
            .iter()
            .map(|(k, v)| (k.as_ref(), v.as_str()))
            .collect();
        assert_eq!(
            fields,
            [("site", "kernel"), ("op", "matmul"), ("backend", backend)]
        );
        s4tf_diag::clear_events();

        // A NaN is attributed to the op that produced it.
        set_numerics_mode(NumericsMode::Warn);
        clear_numerics();
        let out = matmul_on(&device, f32::NAN).to_tensor();
        device.barrier();
        set_numerics_mode(NumericsMode::Off);
        assert!(out.as_slice()[0].is_nan(), "{backend}");
        let v = first_violation().expect("violation recorded");
        assert_eq!(
            (v.op.as_str(), v.backend, v.kind),
            ("matmul", backend, "NaN")
        );
        assert_eq!(v.shape, vec![2, 4]);
        assert_eq!(v.span.as_deref(), kernel_span, "{backend}");
        clear_numerics();
        teardown();
    }
}

/// One thread is one lane, whichever backend records on it: each op event
/// depends on the event recorded before it on the same thread. So a lazy
/// barrier's trace waits for the naive op before it, and a directly run
/// executable's first kernel for the barrier's last one.
#[test]
fn every_event_waits_for_the_one_before_it_on_its_thread() {
    let _guard = exclusive_profiler();
    let naive = Device::naive();
    let a = s4tf_runtime::DTensor::from_tensor(Tensor::ones(&[2, 3]), &naive);
    let b = s4tf_runtime::DTensor::from_tensor(Tensor::ones(&[3, 4]), &naive);
    assert_eq!(a.matmul(&b).to_tensor().as_slice(), &[3.0; 8]);
    let after_naive = s4tf_profile::op_events().len();

    let ctx = Arc::new(LazyContext::new());
    let x = LazyTensor::from_host(&ctx, Tensor::from_vec(vec![2.0, 3.0], &[2]));
    let y = LazyTensor::record_op(&ctx, HloOp::Unary(ElemUnary::Square), &[&x]);
    assert_eq!(y.to_host().as_slice(), &[4.0, 9.0]);
    let after_lazy = s4tf_profile::op_events().len();

    let mut g = s4tf_xla::HloGraph::new();
    let p = g.parameter(0, &[2]);
    let n = g.unary(ElemUnary::Neg, p);
    g.mark_output(n);
    let out = s4tf_xla::compile(&g).run(&[&Tensor::from_vec(vec![1.0, 2.0], &[2])]);
    assert_eq!(out[0].as_slice(), &[-1.0, -2.0]);

    let ops = s4tf_profile::op_events();
    let firsts: Vec<_> = [0, after_naive, after_lazy]
        .iter()
        .map(|&i| (ops[i].backend, ops[i].phase))
        .collect();
    assert_eq!(
        firsts,
        [("naive", "kernel"), ("lazy", "trace"), ("xla", "kernel")]
    );
    for pair in ops.windows(2) {
        assert!(
            pair[1].deps.contains(&pair[0].id),
            "{:?} does not wait for {:?}",
            pair[1],
            pair[0]
        );
    }
    teardown();
}
