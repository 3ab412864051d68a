//! The lazy device: trace-record / JIT-compile / cache (paper §3.3–3.4).
//!
//! Operations on a [`LazyTensor`] do not execute; they append nodes to the
//! device's trace under construction. The trace is *cut* when the program
//! observes a tensor's contents (`to_host`) or calls the barrier
//! ([`LazyContext::barrier`] — the paper's `LazyTensorBarrier()`). At a
//! cut, every pending tensor becomes an output of the trace, the trace is
//! hashed into the program cache (compiling at most once per unique
//! trace), executed, and the pending handles become materialized values —
//! which the *next* trace consumes as parameters.
//!
//! The host therefore re-traces every step of a training loop (the §3.4
//! retracing overhead, measured by experiment E8), but pays JIT compilation
//! only on cache misses.

use crate::diag;
use crate::fault::FaultSite;
use crate::met;
use crate::prof;
use parking_lot::Mutex;
use s4tf_tensor::{RuntimeError, Shape, Tensor};
use s4tf_xla::graph::HloGraph;
use s4tf_xla::scope::{injected_fault, phase_event};
use s4tf_xla::{HloOp, NodeId, ProgramCache};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// The state of one lazy handle.
#[derive(Debug)]
enum LazyState {
    /// Materialized on the host.
    Value {
        tensor: Tensor<f32>,
        /// Parameter node already minted for the current trace, if any.
        lifted: Option<(u64, NodeId)>,
        /// Embed as a trace *constant* instead of a runtime parameter.
        /// Used for program-stable scalars (literals, hyper-parameters):
        /// constants participate in constant folding and fusion immediates,
        /// while the fingerprint stays stable across steps because the
        /// values do not change. Data and weights stay parameters so new
        /// values hit the program cache.
        as_constant: bool,
    },
    /// Pending node in the current trace.
    Pending { generation: u64, node: NodeId },
    /// Poisoned: the batch this tensor belonged to failed (a kernel
    /// panic or injected fault during execution), or a poisoned input
    /// propagated into it at record time. The error is the *first*
    /// failure, with op/backend attribution.
    Failed(RuntimeError),
}

struct TraceState {
    graph: HloGraph,
    params: Vec<Tensor<f32>>,
    generation: u64,
    /// Live pending handles; all become outputs at the next cut.
    pending: Vec<Weak<Mutex<LazyState>>>,
    /// Time spent recording trace nodes (the §3.4 tracing overhead).
    trace_time: Duration,
    /// Value of `trace_time` when this trace started: `trace_time` is
    /// cumulative across traces, so the difference is the recording time
    /// of the *current* trace (the per-step trace phase).
    trace_time_base: Duration,
    cuts: u64,
}

impl TraceState {
    fn fresh(generation: u64) -> Self {
        TraceState {
            graph: HloGraph::new(),
            params: Vec::new(),
            generation,
            pending: Vec::new(),
            trace_time: Duration::ZERO,
            trace_time_base: Duration::ZERO,
            cuts: 0,
        }
    }

    /// Starts a fresh trace in place, carrying the cumulative counters
    /// forward and re-basing the per-trace clock.
    fn restart(&mut self) {
        let generation = self.generation + 1;
        let (cuts, trace_time) = (self.cuts, self.trace_time);
        *self = TraceState::fresh(generation);
        self.cuts = cuts;
        self.trace_time = trace_time;
        self.trace_time_base = trace_time;
    }
}

/// A lazy device: one trace under construction plus the program cache.
pub struct LazyContext {
    trace: Mutex<TraceState>,
    cache: ProgramCache,
    /// First error that originated on this device since the last
    /// [`take_error`](LazyContext::take_error) (execution failures and
    /// injected faults; not propagation).
    first_error: Mutex<Option<RuntimeError>>,
}

impl std::fmt::Debug for LazyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.trace.lock();
        write!(
            f,
            "LazyContext(trace: {} nodes, gen {}, cache: {:?})",
            t.graph.len(),
            t.generation,
            self.cache
        )
    }
}

impl Default for LazyContext {
    fn default() -> Self {
        LazyContext {
            trace: Mutex::new(TraceState::fresh(0)),
            cache: ProgramCache::new(),
            first_error: Mutex::new(None),
        }
    }
}

impl LazyContext {
    /// A fresh lazy device.
    pub fn new() -> Self {
        LazyContext::default()
    }

    /// The program cache (hit/miss statistics, compile time).
    pub fn cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// The first error that originated on this device since the last
    /// call, clearing it.
    pub fn take_error(&self) -> Option<RuntimeError> {
        self.first_error.lock().take()
    }

    fn record_error(&self, err: &RuntimeError) {
        let mut guard = self.first_error.lock();
        if guard.is_none() {
            *guard = Some(err.clone());
        }
    }

    /// Number of nodes in the trace currently under construction.
    pub fn trace_len(&self) -> usize {
        self.trace.lock().graph.len()
    }

    /// Number of trace cuts so far (observations + barriers).
    pub fn cuts(&self) -> u64 {
        self.trace.lock().cuts
    }

    /// Cumulative time spent recording trace nodes.
    pub fn trace_time(&self) -> Duration {
        self.trace.lock().trace_time
    }

    /// The current trace rendered as DOT (paper Figure 4).
    pub fn trace_dot(&self, title: &str) -> String {
        self.trace.lock().graph.to_dot(title)
    }

    /// Op histogram of the current trace.
    pub fn trace_histogram(&self) -> Vec<(String, usize)> {
        self.trace.lock().graph.op_histogram()
    }

    /// Snapshots the current trace as a compilable graph, with every live
    /// pending tensor marked as an output (exactly what [`barrier`] would
    /// compile) — but *without* compiling or executing anything.
    ///
    /// Used by the accelerator-simulation experiments, which feed real
    /// traces of datacenter-scale models through the real compiler while
    /// simulating only the kernel clock. The trace keeps accumulating;
    /// call [`barrier`] (or drop the tensors) to discard it.
    ///
    /// [`barrier`]: LazyContext::barrier
    pub fn snapshot_trace(&self) -> s4tf_xla::graph::HloGraph {
        let trace = self.trace.lock();
        let mut graph = trace.graph.clone();
        for weak in &trace.pending {
            if let Some(handle) = weak.upgrade() {
                if let LazyState::Pending { node, .. } = *handle.lock() {
                    graph.mark_output(node);
                }
            }
        }
        graph
    }

    /// Discards the trace under construction without executing it. Pending
    /// tensors become unusable (their nodes are gone); intended for
    /// simulation workflows that only needed the trace structure.
    pub fn abandon_trace(&self) {
        self.trace.lock().restart();
    }

    /// Cuts the trace (the paper's `LazyTensorBarrier()`): compiles (via
    /// the cache) and executes the pending graph, materializing every
    /// pending tensor, and starts a fresh trace.
    pub fn barrier(self: &Arc<Self>) {
        let mut span = prof::span("lazy.barrier");
        let mut trace = self.trace.lock();
        trace.cuts += 1;

        // Collect live pending handles and mark their nodes as outputs.
        let pending: Vec<Arc<Mutex<LazyState>>> =
            trace.pending.iter().filter_map(Weak::upgrade).collect();
        let mut outputs: Vec<(Arc<Mutex<LazyState>>, NodeId)> = Vec::new();
        for handle in pending {
            let state = handle.lock();
            if let LazyState::Pending { generation, node } = *state {
                debug_assert_eq!(generation, trace.generation);
                outputs.push((Arc::clone(&handle), node));
            }
        }
        if outputs.is_empty() {
            // `restart` (not `fresh`) so the cumulative cut and trace-time
            // counters survive an empty barrier.
            trace.restart();
            return;
        }
        let mut graph = std::mem::take(&mut trace.graph);
        for &(_, node) in &outputs {
            graph.mark_output(node);
        }
        if span.is_recording() {
            span.annotate_f64("nodes", graph.len() as f64);
            span.annotate_f64("outputs", outputs.len() as f64);
        }
        if diag::dump_enabled() {
            // The raw trace as cut, before any compiler pass touches it
            // (the pass pipeline writes its own before/after dumps).
            let _ = diag::dump("lazy", "trace", "dot", &graph.to_dot("lazy trace"));
        }

        // Performance-observatory phase events: the step's trace phase
        // (re-based per trace), then the compile phase, then — inside
        // `try_run_owned` — one kernel event per executed node. All are
        // recorded on this thread, and each waits on the event before it
        // there (the trace on the previous barrier's last kernel, unless
        // another op ran between): critical-path analysis sees the full
        // trace → compile → execute chain of every step.
        if prof::enabled() {
            let trace_us = trace
                .trace_time
                .saturating_sub(trace.trace_time_base)
                .as_micros() as u64;
            phase_event("lazy", "trace", prof::now_us().saturating_sub(trace_us));
        }
        let compile_start = prof::now_us();
        let exe = self.cache.get_or_compile(&graph);
        phase_event("lazy", "compile", compile_start);
        // Parameters pass by value: the trace's copies are *donated* to
        // the executor. A parameter whose handle was rebound during
        // tracing (the optimizer-update pattern) is uniquely owned here,
        // so the memory plan updates it in place — `param_new` aliases
        // `param_old`'s buffer. Parameters with live handles stay shared
        // and are never overwritten.
        let params = std::mem::take(&mut trace.params);
        // Kernel outputs materialized by this barrier are credited to the
        // lazy executor in `memory_by_site()`.
        let mem_site = met::mem_site("lazy");
        let run_result = exe.try_run_owned(params, "lazy");
        drop(mem_site);
        match run_result {
            Ok(results) => {
                for ((handle, _), tensor) in outputs.into_iter().zip(results) {
                    *handle.lock() = LazyState::Value {
                        tensor,
                        lifted: None,
                        as_constant: false,
                    };
                }
            }
            Err(e) => {
                // The whole batch failed: every pending output is
                // poisoned with the first (attributed) error, and the
                // device records it for `sync_checked`.
                diag::event!(
                    "fault.batch_failed",
                    backend = "lazy",
                    op = e.op,
                    outputs = outputs.len(),
                );
                self.record_error(&e);
                for (handle, _) in outputs {
                    *handle.lock() = LazyState::Failed(e.clone());
                }
            }
        }
        trace.restart();
    }
}

/// A tensor on the lazy device. Cloning shares the handle — which is safe
/// because the logical value never changes (pending → materialized is the
/// same value); mutation in the `DTensor` layer rebinds, preserving value
/// semantics.
#[derive(Clone)]
pub struct LazyTensor {
    ctx: Arc<LazyContext>,
    shape: Shape,
    state: Arc<Mutex<LazyState>>,
}

impl std::fmt::Debug for LazyTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match &*self.state.lock() {
            LazyState::Value { .. } => "materialized",
            LazyState::Pending { .. } => "pending",
            LazyState::Failed(_) => "failed",
        };
        write!(f, "LazyTensor(shape: {}, {state})", self.shape)
    }
}

impl LazyTensor {
    /// Transfers a host tensor to the device (no trace node until used).
    pub fn from_host(ctx: &Arc<LazyContext>, t: Tensor<f32>) -> Self {
        LazyTensor {
            ctx: Arc::clone(ctx),
            shape: t.shape().clone(),
            state: Arc::new(Mutex::new(LazyState::Value {
                tensor: t,
                lifted: None,
                as_constant: false,
            })),
        }
    }

    /// Transfers a host tensor to the device, to be embedded in traces as
    /// a *constant* (see `LazyState::Value::as_constant`). Use only for
    /// program-stable values; varying values would each compile their own
    /// program.
    pub fn constant_from_host(ctx: &Arc<LazyContext>, t: Tensor<f32>) -> Self {
        LazyTensor {
            ctx: Arc::clone(ctx),
            shape: t.shape().clone(),
            state: Arc::new(Mutex::new(LazyState::Value {
                tensor: t,
                lifted: None,
                as_constant: true,
            })),
        }
    }

    /// A handle already poisoned with `err` (used when lifting a poisoned
    /// value from another device onto this context).
    pub fn poisoned(ctx: &Arc<LazyContext>, dims: &[usize], err: RuntimeError) -> Self {
        LazyTensor {
            ctx: Arc::clone(ctx),
            shape: Shape::new(dims),
            state: Arc::new(Mutex::new(LazyState::Failed(err))),
        }
    }

    /// The tensor's shape (always known: shape inference runs at record
    /// time).
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The device context.
    pub fn context(&self) -> &Arc<LazyContext> {
        &self.ctx
    }

    /// The node for this tensor in the *current* trace, minting a
    /// parameter node for materialized values.
    fn node_in_current_trace(&self, trace: &mut TraceState) -> NodeId {
        let mut state = self.state.lock();
        match &mut *state {
            LazyState::Pending { generation, node } => {
                assert_eq!(
                    *generation, trace.generation,
                    "lazy tensor used after its trace was cut without being \
                     materialized (it was not live at the barrier)"
                );
                *node
            }
            LazyState::Value {
                tensor,
                lifted,
                as_constant,
            } => {
                if let Some((generation, node)) = lifted {
                    if *generation == trace.generation {
                        return *node;
                    }
                }
                // Buffers lifted into the trace (embedded constants and
                // parameter copies) are credited to the trace subsystem.
                let _site = crate::met::mem_site("trace");
                let node = if *as_constant {
                    trace.graph.constant(tensor.clone())
                } else {
                    let index = trace.params.len();
                    trace.params.push(tensor.clone());
                    trace.graph.parameter(index, tensor.dims())
                };
                *lifted = Some((trace.generation, node));
                node
            }
            LazyState::Failed(_) => {
                unreachable!("poisoned inputs are filtered out in record_op")
            }
        }
    }

    /// Records one operation into the trace; returns a pending handle.
    ///
    /// # Panics
    /// Panics on shape-inference failures (at record time, like the
    /// paper's lazy tracing) and when inputs live on different lazy
    /// devices.
    pub fn record_op(ctx: &Arc<LazyContext>, op: HloOp, inputs: &[&LazyTensor]) -> LazyTensor {
        let start = std::time::Instant::now();
        for t in inputs {
            assert!(
                Arc::ptr_eq(&t.ctx, ctx),
                "lazy tensors must live on the same device"
            );
        }
        let poison = inputs.iter().find_map(|t| match &*t.state.lock() {
            LazyState::Failed(e) => Some(e.clone()),
            _ => None,
        });
        let failed = poison.or_else(|| {
            let e = injected_fault(FaultSite::Dispatch, &op, "lazy")?;
            ctx.record_error(&e);
            Some(e)
        });
        if let Some(e) = failed {
            // Shape inference stays synchronous (record time) even on
            // the poisoned paths, so shape bugs never hide behind a
            // fault.
            let shapes: Vec<&Shape> = inputs.iter().map(|t| &t.shape).collect();
            return LazyTensor {
                ctx: Arc::clone(ctx),
                shape: op.infer_shape(&shapes),
                state: Arc::new(Mutex::new(LazyState::Failed(e))),
            };
        }
        let mut trace = ctx.trace.lock();
        let nodes: Vec<NodeId> = inputs
            .iter()
            .map(|t| t.node_in_current_trace(&mut trace))
            .collect();
        let node = trace.graph.add(op, &nodes);
        let shape = trace.graph.node(node).shape.clone();
        let state = Arc::new(Mutex::new(LazyState::Pending {
            generation: trace.generation,
            node,
        }));
        trace.pending.push(Arc::downgrade(&state));
        trace.trace_time += start.elapsed();
        met::counter!(
            "s4tf_lazy_trace_append_total",
            "Ops appended to a lazy trace"
        )
        .inc();
        LazyTensor {
            ctx: Arc::clone(ctx),
            shape,
            state,
        }
    }

    /// Observes the contents: cuts the trace if this tensor is pending.
    ///
    /// # Panics
    /// Panics with the original attributed error if the tensor is
    /// poisoned; [`to_host_checked`](LazyTensor::to_host_checked) is the
    /// non-panicking observation point.
    pub fn to_host(&self) -> Tensor<f32> {
        self.to_host_checked()
            .unwrap_or_else(|e| panic!("lazy tensor observation failed: {e}"))
    }

    /// Observes the contents, surfacing a poisoned value as the error
    /// that originally caused it (with op/backend attribution).
    pub fn to_host_checked(&self) -> Result<Tensor<f32>, RuntimeError> {
        loop {
            {
                let state = self.state.lock();
                match &*state {
                    LazyState::Value { tensor, .. } => return Ok(tensor.clone()),
                    LazyState::Failed(e) => return Err(e.clone()),
                    LazyState::Pending { .. } => {}
                }
            }
            self.ctx.barrier();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_xla::{ElemBinary, ElemUnary, HloOp};

    fn ctx() -> Arc<LazyContext> {
        Arc::new(LazyContext::new())
    }

    #[test]
    fn nothing_executes_until_observation() {
        let c = ctx();
        let x = LazyTensor::from_host(&c, Tensor::from_vec(vec![1.0, -1.0], &[2]));
        let y = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Relu), &[&x]);
        let z = LazyTensor::record_op(&c, HloOp::Binary(ElemBinary::Add), &[&y, &x]);
        assert_eq!(c.cache().stats().misses, 0, "no compilation yet");
        assert!(c.trace_len() >= 3);
        assert_eq!(z.to_host().as_slice(), &[2.0, -1.0]);
        assert_eq!(c.cache().stats().misses, 1);
        assert_eq!(c.cuts(), 1);
    }

    #[test]
    fn observation_materializes_all_pending() {
        let c = ctx();
        let x = LazyTensor::from_host(&c, Tensor::ones(&[4]));
        let a = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Exp), &[&x]);
        let b = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Neg), &[&x]);
        let _ = a.to_host();
        // b was live at the cut, so it materialized too: no new compile.
        let before = c.cache().stats();
        assert_eq!(b.to_host().as_slice(), &[-1.0; 4]);
        assert_eq!(c.cache().stats(), before, "b was already materialized");
    }

    #[test]
    fn retrace_hits_the_cache() {
        let c = ctx();
        let run = |c: &Arc<LazyContext>, data: Vec<f32>| {
            let x = LazyTensor::from_host(c, Tensor::from_vec(data, &[2]));
            let y = LazyTensor::record_op(c, HloOp::Unary(ElemUnary::Square), &[&x]);
            y.to_host()
        };
        assert_eq!(run(&c, vec![2.0, 3.0]).as_slice(), &[4.0, 9.0]);
        assert_eq!(run(&c, vec![4.0, 5.0]).as_slice(), &[16.0, 25.0]);
        assert_eq!(run(&c, vec![6.0, 7.0]).as_slice(), &[36.0, 49.0]);
        let stats = c.cache().stats();
        assert_eq!(stats.misses, 1, "identical traces compile once");
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn shape_change_recompiles() {
        let c = ctx();
        for dims in [&[2usize][..], &[3], &[2]] {
            let x = LazyTensor::from_host(&c, Tensor::ones(dims));
            let y = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Neg), &[&x]);
            y.to_host();
        }
        let stats = c.cache().stats();
        // §3.4: a dimension change triggers recompilation; the third run
        // reuses the first program.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn barrier_cuts_an_unobserved_trace() {
        let c = ctx();
        let x = LazyTensor::from_host(&c, Tensor::ones(&[2]));
        let y = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Neg), &[&x]);
        assert!(c.trace_len() > 0);
        c.barrier();
        assert_eq!(c.trace_len(), 0, "barrier starts a fresh trace");
        // y is already materialized; no further compile on observation.
        let misses = c.cache().stats().misses;
        assert_eq!(y.to_host().as_slice(), &[-1.0, -1.0]);
        assert_eq!(c.cache().stats().misses, misses);
    }

    #[test]
    fn empty_barrier_is_cheap() {
        let c = ctx();
        c.barrier();
        c.barrier();
        assert_eq!(c.cache().stats().misses, 0);
    }

    #[test]
    fn materialized_values_feed_the_next_trace_as_parameters() {
        let c = ctx();
        let x = LazyTensor::from_host(&c, Tensor::from_vec(vec![3.0], &[1]));
        let y = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Square), &[&x]);
        assert_eq!(y.to_host().as_slice(), &[9.0]);
        // Second trace consumes y (a materialized value) as a parameter —
        // and is structurally identical to the first, so it hits the cache.
        let z = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Square), &[&y]);
        assert_eq!(z.to_host().as_slice(), &[81.0]);
        let stats = c.cache().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn trace_instrumentation() {
        let c = ctx();
        let x = LazyTensor::from_host(&c, Tensor::ones(&[2]));
        let y = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Exp), &[&x]);
        let _ = LazyTensor::record_op(&c, HloOp::Binary(ElemBinary::Mul), &[&y, &y]);
        let hist = c.trace_histogram();
        assert!(hist.iter().any(|(n, c)| n == "exp" && *c == 1));
        let dot = c.trace_dot("t");
        assert!(dot.contains("digraph"));
        assert!(c.trace_time() > Duration::ZERO);
    }

    #[test]
    fn dropped_pending_tensors_are_not_outputs() {
        let c = ctx();
        let x = LazyTensor::from_host(&c, Tensor::ones(&[2]));
        {
            let _dead = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Exp), &[&x]);
            // dropped before the cut
        }
        let y = LazyTensor::record_op(&c, HloOp::Unary(ElemUnary::Neg), &[&x]);
        assert_eq!(y.to_host().as_slice(), &[-1.0, -1.0]);
    }
}
