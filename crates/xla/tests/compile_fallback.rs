//! Graceful degradation of the JIT: an injected compile failure retries
//! and then falls back to the trace interpreter, producing identical
//! results.
//!
//! The fault spec is process-global, so these tests live in their own
//! integration binary and serialize on one mutex.

use s4tf_fault::{set_fault_spec, FaultSite};
use s4tf_tensor::Tensor;
use s4tf_xla::graph::HloGraph;
use s4tf_xla::op::{ElemBinary, ElemUnary};
use s4tf_xla::ProgramCache;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// relu(x·2 + 1): three elementwise ops the optimizer would fuse.
fn graph(dim: usize) -> HloGraph {
    let mut g = HloGraph::new();
    let x = g.parameter(0, &[dim]);
    let two = g.constant(Tensor::scalar(2.0));
    let one = g.constant(Tensor::scalar(1.0));
    let m = g.binary(ElemBinary::Mul, x, two);
    let a = g.binary(ElemBinary::Add, m, one);
    let r = g.unary(ElemUnary::Relu, a);
    g.mark_output(r);
    g
}

#[test]
fn injected_compile_failure_falls_back_to_interpreter() {
    let _g = guard();

    // Uninjected baseline: optimized compile, no fallback.
    set_fault_spec(None).unwrap();
    let cache = ProgramCache::new();
    let exe = cache.get_or_compile(&graph(4));
    let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0, 2.0], &[4]);
    let expected = exe.run(&[&x]);
    assert_eq!(cache.stats().compile_fallbacks, 0);
    assert_eq!(exe.kernel_count(), 1, "fused by the optimizer");

    // Every compile attempt fails → retries exhaust → interpreter.
    set_fault_spec(Some("compile:1:0")).unwrap();
    let cache = ProgramCache::new();
    let exe = cache.get_or_compile(&graph(4));
    set_fault_spec(None).unwrap();

    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.compile_fallbacks, 1, "degraded exactly once");
    assert_eq!(exe.kernel_count(), 3, "interpreter runs the raw trace");
    let out = exe.run(&[&x]);
    assert_eq!(
        out[0].as_slice(),
        expected[0].as_slice(),
        "fallback must be semantically identical to the optimized program"
    );
}

#[test]
fn transient_compile_failure_is_retried_not_degraded() {
    let _g = guard();
    // p=0.5: with seed 7 the first draws include both outcomes well
    // within the retry budget; the ladder should eventually compile the
    // real program for *some* seed — use one where draw 0 injects and a
    // retry succeeds. Deterministically find such a seed first.
    set_fault_spec(None).unwrap();
    let seed = (0..100)
        .find(|&s| {
            s4tf_fault::would_inject(s, FaultSite::Compile, 0, 0.5)
                && !s4tf_fault::would_inject(s, FaultSite::Compile, 1, 0.5)
        })
        .expect("some seed injects on draw 0 and not draw 1");

    set_fault_spec(Some(&format!("compile:0.5:{seed}"))).unwrap();
    let cache = ProgramCache::new();
    let exe = cache.get_or_compile(&graph(8));
    set_fault_spec(None).unwrap();

    assert_eq!(cache.stats().compile_fallbacks, 0, "retry succeeded");
    assert_eq!(exe.kernel_count(), 1, "the real optimized program");
}

#[test]
fn fallback_program_is_cached_and_reused() {
    let _g = guard();
    set_fault_spec(Some("compile:1:3")).unwrap();
    let cache = ProgramCache::new();
    let a = cache.get_or_compile(&graph(16));
    // Second lookup is a cache hit: no compile attempt, no new fault draw.
    let b = cache.get_or_compile(&graph(16));
    set_fault_spec(None).unwrap();
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.compile_fallbacks),
        (1, 1, 1)
    );
}

/// The interpreter (`eval_op`, which a fallback program and the naive and
/// eager devices run node by node) derives a fused node's output shape
/// from the op: the broadcast of its input shapes, or `reduce_to` when
/// set — not from "the largest input", which a `[1,C]` vs `[C]` tie and a
/// reduction epilogue both get wrong.
#[test]
fn interpreter_derives_a_fused_nodes_shape_from_the_op() {
    use s4tf_xla::op::FusedInst;
    use s4tf_xla::{eval_op, HloOp};
    let add = |reduce_to| HloOp::Fused {
        insts: vec![
            FusedInst::Input(0),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 0, 1),
        ],
        n_inputs: 2,
        reduce_to,
    };
    let row = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
    let bias = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
    // Three elements each: the tie used to resolve to the *last* input.
    for inputs in [[&row, &bias], [&bias, &row]] {
        let out = eval_op(&add(None), &inputs);
        assert_eq!(out.dims(), &[1, 3]);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 33.0]);
    }
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
    let summed = eval_op(&add(Some(vec![3])), &[&x, &bias]);
    assert_eq!(summed.dims(), &[3]);
    assert_eq!(summed.as_slice(), &[25.0, 47.0, 69.0]);
    assert_eq!(
        add(Some(vec![3]))
            .infer_shape(&[x.shape(), bias.shape()])
            .dims(),
        &[3]
    );
    assert_eq!(
        add(None).infer_shape(&[bias.shape(), row.shape()]).dims(),
        &[1, 3]
    );
}
