//! Compilation and execution: an [`Executable`] is the optimized,
//! topologically ordered kernel plan for one trace.

use crate::codegen;
use crate::graph::HloGraph;
use crate::met;
use crate::op::{with_binary, with_unary, ElemBinary, ElemUnary, FusedInst, HloOp, ReduceKind};
use crate::passes::{self, MemoryPlan};
use crate::prof;
use crate::scope::KernelScope;
use s4tf_tensor::{RuntimeError, Shape, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the memory plan actually did at run time, accumulated across
/// every execution of one program (clones share the tally via `Arc`).
/// "Planned" numbers live on [`MemoryPlan`]; these are the outcomes.
#[derive(Debug, Default)]
pub struct PlanCounters {
    /// Kernels that committed to writing their output into a dying
    /// operand's buffer (the run-time uniqueness check passed).
    pub in_place: AtomicU64,
    /// The subset of in-place commits whose overwritten operand was a
    /// *parameter* — a caller-donated buffer (the optimizer-update
    /// pattern `p ← p − lr·g`).
    pub donated: AtomicU64,
}

/// A compiled trace: the optimized graph plus execution bookkeeping.
#[derive(Debug, Clone)]
pub struct Executable {
    graph: HloGraph,
    /// Nodes that actually execute (excludes parameters/constants).
    kernel_count: usize,
    /// Buffer liveness computed at compile time (paper §3.3: the trace
    /// exposes whole-program structure, so buffer assignment is static).
    plan: MemoryPlan,
    /// Run-time plan outcomes, shared across clones of this program.
    counters: Arc<PlanCounters>,
    /// Compiled kernels of the `Fused` nodes by node index (see
    /// [`codegen::fused_table`]).
    fused: HashMap<usize, Arc<codegen::CompiledKernel>>,
}

/// Compiles a graph: runs the whole-program pass pipeline (constant
/// folding, CSE, algebraic simplification, fusion, DCE) and fixes the
/// execution plan.
pub fn compile(graph: &HloGraph) -> Executable {
    let mut span = prof::span("xla.compile");
    let mut g = graph.clone();
    passes::optimize(&mut g);
    let exe = Executable::new(g);
    if span.is_recording() {
        span.annotate_f64("nodes_in", graph.len() as f64);
        span.annotate_f64("kernels_out", exe.kernel_count as f64);
    }
    met::counter!(
        "s4tf_xla_fused_kernels_total",
        "Fused kernels in compiled programs"
    )
    .add(exe.fused.len() as u64);
    exe
}

/// Compiles without optimization (for pass-effect comparisons).
pub fn compile_unoptimized(graph: &HloGraph) -> Executable {
    Executable::new(graph.clone())
}

impl Executable {
    /// Fixes the execution plan of `graph` as it stands.
    fn new(graph: HloGraph) -> Executable {
        let kernel_count = graph
            .nodes
            .iter()
            .filter(|n| !matches!(n.op, HloOp::Parameter(_) | HloOp::Constant(_)))
            .count();
        Executable {
            kernel_count,
            plan: passes::plan_memory(&graph),
            counters: Arc::default(),
            fused: codegen::fused_table(&graph),
            graph,
        }
    }

    /// The optimized graph.
    pub fn graph(&self) -> &HloGraph {
        &self.graph
    }

    /// Number of kernel launches per run (post-fusion) — the metric the
    /// fusion experiments report.
    pub fn kernel_count(&self) -> usize {
        self.kernel_count
    }

    /// The liveness schedule's analytic peak live bytes for one run.
    pub fn planned_bytes(&self) -> u64 {
        self.plan.planned_bytes
    }

    /// Run-time plan outcomes accumulated over this program's executions.
    pub fn plan_counters(&self) -> &PlanCounters {
        &self.counters
    }

    /// Executes the plan on runtime parameters.
    ///
    /// # Panics
    /// Panics if the number or shapes of `params` disagree with the trace,
    /// and with the attributed [`RuntimeError`] if a kernel fails (use
    /// [`try_run_with_backend`](Executable::try_run_with_backend) to get
    /// it as a value).
    pub fn run(&self, params: &[&Tensor<f32>]) -> Vec<Tensor<f32>> {
        self.try_run_with_backend(params, "xla")
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Executes the plan under an explicit backend label (numerics and
    /// fault provenance: the lazy device runs through this plan too, and
    /// its violations should say `lazy`, not `xla`), returning the *first*
    /// kernel failure (a panic caught on this node, or an injected fault)
    /// as an attributed error instead of unwinding. Nodes run in
    /// topological order, so the error names the op that introduced the
    /// failure, not a downstream consumer.
    ///
    /// # Panics
    /// Still panics on caller bugs: wrong parameter count or shapes
    /// (shape errors are synchronous, paper §4), and numerics-check
    /// panics in [`NumericsMode::Panic`](s4tf_diag::NumericsMode) — those
    /// are an explicitly requested abort, not a runtime fault.
    pub fn try_run_with_backend(
        &self,
        params: &[&Tensor<f32>],
        backend: &'static str,
    ) -> std::result::Result<Vec<Tensor<f32>>, RuntimeError> {
        // Borrowed parameters are cloned; the caller's handles keep the
        // buffers shared, so the planner's uniqueness checks refuse to
        // overwrite them (donation requires an owned run).
        let owned: Vec<Option<Tensor<f32>>> = params.iter().map(|t| Some((*t).clone())).collect();
        self.run_values(owned, backend)
    }

    /// [`try_run_with_backend`](Executable::try_run_with_backend), taking
    /// parameters *by value*: the caller donates its buffers. A donated
    /// parameter whose last graph use is an in-place-eligible elementwise
    /// node (the fused optimizer-update pattern `p ← p − lr·g`) is
    /// overwritten in place, so the updated parameter aliases the old
    /// one's buffer. Parameters the caller still holds other handles to
    /// are shared, hence copied — donation never breaks value semantics.
    pub fn try_run_owned(
        &self,
        params: Vec<Tensor<f32>>,
        backend: &'static str,
    ) -> std::result::Result<Vec<Tensor<f32>>, RuntimeError> {
        self.run_values(params.into_iter().map(Some).collect(), backend)
    }

    fn run_values(
        &self,
        mut params: Vec<Option<Tensor<f32>>>,
        backend: &'static str,
    ) -> std::result::Result<Vec<Tensor<f32>>, RuntimeError> {
        let mut span = prof::span("xla.execute");
        if span.is_recording() {
            span.annotate_f64("kernels", self.kernel_count as f64);
            span.annotate_f64("threads_used", s4tf_threads::num_threads() as f64);
        }
        met::counter!(
            "s4tf_xla_kernels_run_total",
            "Kernels launched by compiled-program executions"
        )
        .add(self.kernel_count as u64);
        assert_eq!(
            params.len(),
            self.graph.n_params,
            "executable expects {} parameters, got {}",
            self.graph.n_params,
            params.len()
        );
        // `node_ids` maps graph nodes to the op ids of *this run*, so data
        // dependencies become op-event edges (the kernel scope adds the
        // lane edge to the event before).
        let mut node_ids: Vec<u64> = if prof::enabled() {
            vec![0; self.graph.nodes.len()]
        } else {
            Vec::new()
        };
        let (mut step_flops, mut step_bytes) = (0u64, 0u64);
        let mut values: Vec<Option<Tensor<f32>>> = vec![None; self.graph.nodes.len()];
        for (i, node) in self.graph.nodes.iter().enumerate() {
            let out = match &node.op {
                HloOp::Parameter(p) => {
                    let t = params[*p]
                        .take()
                        .expect("each parameter index appears in one node");
                    assert_eq!(
                        t.shape(),
                        &node.shape,
                        "parameter {p} has shape {}, trace recorded {}",
                        t.shape(),
                        node.shape
                    );
                    t
                }
                HloOp::Constant(c) => c.clone(),
                op => {
                    let scope = KernelScope::enqueue(backend);
                    let (out, cost) = scope.run(
                        op,
                        || self.eval_node(i, &mut values),
                        || {
                            let inputs = node.inputs.iter().map(|&id| id.0 as usize);
                            // `get`: the profiler may have been switched
                            // on after this run sized `node_ids`.
                            (
                                inputs.clone().map(|j| &self.graph.nodes[j].shape).collect(),
                                inputs.filter_map(|j| node_ids.get(j).copied()).collect(),
                            )
                        },
                        // Shapes were inferred when the graph was built.
                        || (),
                    )?;
                    step_flops += cost.flops;
                    step_bytes += cost.bytes;
                    if let Some(id) = node_ids.get_mut(i) {
                        *id = scope.op_id();
                    }
                    debug_assert_eq!(
                        out.shape(),
                        &node.shape,
                        "{} produced {}, inference said {}",
                        op.mnemonic(),
                        out.shape(),
                        node.shape
                    );
                    // Nodes execute in topological order, so the first
                    // violating node here is the op that *introduced* the
                    // NaN/Inf — not whichever downstream op a caller
                    // observed it through. Nothing waits on `values`, so
                    // the scan may run before the store.
                    scope.scan(op, &out);
                    out
                }
            };
            values[i] = Some(out);
            // Drop dead intermediates now: their buffers return to the
            // recycling pool for reuse by later steps instead of staying
            // live until the end of the run.
            for &dead in &self.plan.drop_after[i] {
                values[dead as usize] = None;
            }
        }
        span.record_work(step_flops, step_bytes);
        Ok(self
            .graph
            .outputs
            .iter()
            .map(|o| values[o.0 as usize].clone().expect("outputs computed"))
            .collect())
    }

    /// Node `i`'s compiled kernel. The table misses only a malformed
    /// program, which fails here with `lower`'s reason — inside the
    /// kernel scope's `catch_unwind`, so it becomes that node's kernel
    /// error.
    fn fused_kernel(&self, i: usize, insts: &[FusedInst]) -> Arc<codegen::CompiledKernel> {
        match self.fused.get(&i) {
            Some(k) => Arc::clone(k),
            None => codegen::get_or_compile(insts),
        }
    }

    /// Node `i`'s kernel over the operand values computed so far. The
    /// memory plan marks an operand this step may overwrite; the kernel
    /// commits to it only if that operand's buffer is uniquely owned right
    /// now (no other value slot, parameter handle, or caller clone shares
    /// it), taking it out of `values` and writing the output into it.
    /// Per-element arithmetic, operand order and chunking are identical on
    /// both routes, so results are bit-identical.
    fn eval_node(&self, i: usize, values: &mut [Option<Tensor<f32>>]) -> Tensor<f32> {
        let node = &self.graph.nodes[i];
        let slot = |id: crate::graph::NodeId| id.0 as usize;
        let inplace_at = self.plan.inplace[i].filter(|&k| {
            values[slot(node.inputs[k])]
                .as_ref()
                .is_some_and(|t| t.storage_unique())
        });
        let target = inplace_at.map(|k| {
            let target_id = slot(node.inputs[k]);
            self.counters.in_place.fetch_add(1, Ordering::Relaxed);
            met::counter!(
                "s4tf_plan_in_place_total",
                "Kernels that wrote their output in place into a dying operand's buffer"
            )
            .inc();
            if matches!(self.graph.nodes[target_id].op, HloOp::Parameter(_)) {
                self.counters.donated.fetch_add(1, Ordering::Relaxed);
                met::counter!(
                    "s4tf_plan_donated_total",
                    "In-place kernel commits that overwrote a caller-donated parameter buffer"
                )
                .inc();
            }
            let taken = values[target_id]
                .take()
                .expect("topological order guarantees operands are ready");
            (k, taken)
        });
        let ready = |id: crate::graph::NodeId| -> &Tensor<f32> {
            values[slot(id)]
                .as_ref()
                .expect("topological order guarantees operands are ready")
        };
        let Some((k, mut t)) = target else {
            let inputs: Vec<&Tensor<f32>> = node.inputs.iter().map(|&id| ready(id)).collect();
            return match &node.op {
                // A kernel that stores its values runs over the node's own
                // shape; only a reduction has to ask its inputs.
                HloOp::Fused {
                    insts,
                    reduce_to: None,
                    ..
                } => run_fused(&self.fused_kernel(i, insts), &inputs, &node.shape, None),
                HloOp::Fused {
                    insts,
                    reduce_to: Some(dims),
                    ..
                } => run_fused(
                    &self.fused_kernel(i, insts),
                    &inputs,
                    &input_extent(&inputs),
                    Some(dims),
                ),
                op => eval_op(op, &inputs),
            };
        };
        match &node.op {
            HloOp::Unary(u) => unary_assign(*u, &mut t),
            HloOp::Binary(b) => binary_assign(*b, &mut t, ready(node.inputs[1 - k]), k == 0),
            HloOp::Fused { insts, .. } => {
                // Input positions naming the aliased node read the output
                // buffer itself (each chunk is read before it is written).
                let alias = node.inputs[k];
                let slices: Vec<Option<&[f32]>> = node
                    .inputs
                    .iter()
                    .map(|&id| (id != alias).then(|| ready(id).as_slice()))
                    .collect();
                let n = t.num_elements();
                self.fused_kernel(i, insts)
                    .run(&slices, n, t.as_mut_slice());
            }
            op => unreachable!("plan marks only elementwise ops in-place, got {op:?}"),
        }
        t
    }
}

/// Evaluates one (non-leaf) operation on materialized tensors — the shared
/// kernel-dispatch used by the compiled executor here and by the naive and
/// eager devices in `s4tf-runtime` (all backends run the *same* kernels;
/// they differ only in execution strategy, §3).
///
/// # Panics
/// Panics on [`HloOp::Parameter`]/[`HloOp::Constant`] (leaves have no
/// kernel) and on operand-shape mismatches.
pub fn eval_op(op: &HloOp, inputs: &[&Tensor<f32>]) -> Tensor<f32> {
    match op {
        HloOp::Parameter(_) | HloOp::Constant(_) => {
            unreachable!("leaves are materialized by the caller")
        }
        HloOp::Unary(u) => unary(*u, inputs[0]),
        HloOp::Binary(b) => binary(*b, inputs[0], inputs[1]),
        HloOp::MatMul { t_lhs, t_rhs } => match (t_lhs, t_rhs) {
            (false, false) => inputs[0].matmul(inputs[1]),
            (true, false) => inputs[0].matmul_tn(inputs[1]),
            (false, true) => inputs[0].matmul_nt(inputs[1]),
            (true, true) => inputs[0].t().matmul(&inputs[1].t()),
        },
        HloOp::Conv2D { strides, padding } => inputs[0].conv2d(inputs[1], *strides, *padding),
        HloOp::Conv2DBackwardInput {
            input_dims,
            strides,
            padding,
        } => {
            Tensor::conv2d_backward_input_dims(input_dims, inputs[0], inputs[1], *strides, *padding)
        }
        HloOp::Conv2DBackwardFilter {
            filter_dims,
            strides,
            padding,
        } => inputs[0].conv2d_backward_filter(filter_dims, inputs[1], *strides, *padding),
        HloOp::AvgPool {
            pool,
            strides,
            padding,
        } => inputs[0].avg_pool2d(*pool, *strides, *padding),
        HloOp::AvgPoolGrad {
            pool,
            strides,
            padding,
        } => inputs[0].avg_pool2d_backward(inputs[1], *pool, *strides, *padding),
        HloOp::MaxPool {
            pool,
            strides,
            padding,
        } => inputs[0].max_pool2d(*pool, *strides, *padding),
        HloOp::MaxPoolGrad {
            pool,
            strides,
            padding,
        } => inputs[0].max_pool2d_backward(inputs[1], *pool, *strides, *padding),
        HloOp::GatherRows => {
            inputs[0].gather_rows_iter(inputs[1].as_slice().iter().map(|&x| row_index(x)))
        }
        HloOp::GatherRowsGrad { table_rows } => {
            let mut dims = vec![*table_rows];
            dims.extend_from_slice(&inputs[1].dims()[1..]);
            let mut out = Tensor::zeros(&dims);
            let idx = inputs[0].as_slice().iter().map(|&x| row_index(x));
            out.scatter_add_rows_iter(idx, inputs[1]);
            out
        }
        HloOp::Reduce { kind, axis } => {
            let x = inputs[0];
            match (kind, axis) {
                (ReduceKind::Sum, None) => x.sum(),
                (ReduceKind::Mean, None) => x.mean(),
                (ReduceKind::Max, None) => x.max(),
                (ReduceKind::Sum, Some(a)) => x.sum_axis(*a, false),
                (ReduceKind::Mean, Some(a)) => x.mean_axis(*a, false),
                (ReduceKind::Max, Some(a)) => x.max_axis(*a, false),
            }
        }
        HloOp::Reshape(dims) => inputs[0].reshape(dims),
        HloOp::Transpose(perm) => inputs[0].transpose(perm),
        HloOp::Broadcast(dims) => inputs[0].broadcast_to(dims),
        HloOp::ReduceToShape(dims) => inputs[0].reduce_to_shape(dims),
        HloOp::Fused {
            insts, reduce_to, ..
        } => run_fused(
            &codegen::get_or_compile(insts),
            inputs,
            &input_extent(inputs),
            reduce_to.as_deref(),
        ),
    }
}

/// Decodes a float-encoded row index exactly as `x.round() as usize`
/// (halves away from zero, saturating). An exactly-integral value — every
/// index a caller encodes — is a cast; only the rest pay for `roundf`,
/// which is a libm call on the baseline x86_64 build.
#[inline]
fn row_index(x: f32) -> usize {
    let i = x as usize;
    if i as f32 == x {
        i
    } else {
        x.round() as usize
    }
}

// The unfused elementwise kernels of every backend. Each dispatches on
// the op once per launch (`with_unary!`/`with_binary!`), so each variant's
// loop is its own instantiation of the tensor kernel, with the scalar op
// inlined and vectorized; per element it is still `apply` on the same
// operands, in the same order, on the same broadcast route. Kept out of
// line so the per-variant instantiations do not swell their callers.

/// `u` over every element of `x`.
#[inline(never)]
fn unary(u: ElemUnary, x: &Tensor<f32>) -> Tensor<f32> {
    with_unary!(u, f => x.map(f))
}

/// `u` over every element of `t`, in place.
#[inline(never)]
fn unary_assign(u: ElemUnary, t: &mut Tensor<f32>) {
    with_unary!(u, f => t.map_assign(f))
}

/// `b(x, y)` with NumPy broadcasting.
#[inline(never)]
fn binary(b: ElemBinary, x: &Tensor<f32>, y: &Tensor<f32>) -> Tensor<f32> {
    with_binary!(b, f => x.zip_broadcast(y, f))
}

/// `t ← b(t, other)` when `t_is_lhs`, else `t ← b(other, t)`; `other`
/// broadcasts up to `t`'s shape.
#[inline(never)]
fn binary_assign(b: ElemBinary, t: &mut Tensor<f32>, other: &Tensor<f32>, t_is_lhs: bool) {
    with_binary!(b, f => if t_is_lhs {
        t.zip_apply_assign(other, f)
    } else {
        t.zip_apply_assign_rev(other, f)
    })
}

/// The extent a fused kernel over `inputs` runs across.
fn input_extent(inputs: &[&Tensor<f32>]) -> Shape {
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    crate::op::fused_extent(&shapes)
}

/// [`eval_op`] over *owned* operands: when an operand's buffer is
/// uniquely owned (its handle died and no other value shares the
/// storage), elementwise kernels write into it instead of allocating —
/// through a broadcast too, as long as the owned operand already has the
/// output's shape (`conv + bias` lands in the conv output's buffer). The
/// eager and naive devices route through here; results are bit-identical
/// to [`eval_op`].
pub fn eval_op_owned(op: &HloOp, mut operands: Vec<Tensor<f32>>) -> Tensor<f32> {
    match op {
        HloOp::Unary(u) if operands[0].storage_unique() => {
            let mut t = operands.swap_remove(0);
            unary_assign(*u, &mut t);
            return t;
        }
        HloOp::Binary(b) => {
            let fits = |t: &Tensor<f32>, other: &Tensor<f32>| {
                t.storage_unique() && other.shape().broadcasts_to(t.shape())
            };
            if fits(&operands[0], &operands[1]) {
                let mut t = operands.swap_remove(0);
                binary_assign(*b, &mut t, &operands[0], true);
                return t;
            }
            if fits(&operands[1], &operands[0]) {
                let mut t = operands.swap_remove(1);
                binary_assign(*b, &mut t, &operands[0], false);
                return t;
            }
        }
        _ => {}
    }
    let refs: Vec<&Tensor<f32>> = operands.iter().collect();
    eval_op(op, &refs)
}

/// Launches a compiled fused kernel over `extent`, the broadcast of its
/// input shapes: one pass over the elements, no intermediate full-size
/// buffers — the fusion payoff. Inputs smaller than that extent are
/// trailing-suffix broadcasts, indexed modulo their length (bias vectors,
/// batch-norm scales, …). With `reduce_to` the values are summed onto
/// those dims instead of stored.
fn run_fused(
    kernel: &codegen::CompiledKernel,
    inputs: &[&Tensor<f32>],
    extent: &Shape,
    reduce_to: Option<&[usize]>,
) -> Tensor<f32> {
    let n = extent.num_elements();
    let slices: Vec<Option<&[f32]>> = inputs.iter().map(|t| Some(t.as_slice())).collect();
    match reduce_to {
        Some(dims) => kernel
            .run_reduce(&slices, n, dims.iter().product())
            .reshape(dims),
        None => {
            // The output buffer comes through the tensor constructors,
            // which recycle pooled capacity; the fill value is
            // overwritten below.
            let mut out = Tensor::full(0.0f32, extent.dims());
            kernel.run(&slices, n, out.as_mut_slice());
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{ElemBinary, ElemUnary};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use s4tf_tensor::panic_message;

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn runs_elementwise_chain() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[3]);
        let e = g.unary(ElemUnary::Exp, x);
        let s = g.binary(ElemBinary::Add, e, x);
        g.mark_output(s);
        for exe in [compile(&g), compile_unoptimized(&g)] {
            let out = exe.run(&[&t(&[0.0, 1.0, 2.0], &[3])]);
            for (i, &xv) in [0.0f32, 1.0, 2.0].iter().enumerate() {
                assert!((out[0].as_slice()[i] - (xv.exp() + xv)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn optimized_matches_unoptimized_on_mixed_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[4, 5]);
        let w = g.parameter(1, &[5, 3]);
        let mm = g.add(
            HloOp::MatMul {
                t_lhs: false,
                t_rhs: false,
            },
            &[x, w],
        );
        let c = g.constant(Tensor::scalar(0.5));
        let scaled = g.binary(ElemBinary::Mul, mm, c);
        let r = g.unary(ElemUnary::Relu, scaled);
        let sum = g.add(
            HloOp::Reduce {
                kind: ReduceKind::Sum,
                axis: None,
            },
            &[r],
        );
        g.mark_output(r);
        g.mark_output(sum);

        let xs = Tensor::<f32>::randn(&[4, 5], &mut rng);
        let ws = Tensor::<f32>::randn(&[5, 3], &mut rng);
        let fast = compile(&g).run(&[&xs, &ws]);
        let slow = compile_unoptimized(&g).run(&[&xs, &ws]);
        assert!(fast[0].allclose(&slow[0], 1e-6));
        assert!(fast[1].allclose(&slow[1], 1e-5));
    }

    #[test]
    fn fusion_reduces_kernel_count() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[1000]);
        let a = g.unary(ElemUnary::Neg, x);
        let b = g.unary(ElemUnary::Exp, a);
        let one = g.constant(Tensor::scalar(1.0));
        let c = g.binary(ElemBinary::Add, b, one);
        let d = g.unary(ElemUnary::Recip, c); // = sigmoid(x), 4 element ops
        g.mark_output(d);
        let unopt = compile_unoptimized(&g);
        let opt = compile(&g);
        assert_eq!(unopt.kernel_count(), 4);
        assert_eq!(opt.kernel_count(), 1, "whole chain fuses");
        let input = t(&[0.5, -0.5], &[2]);
        // shape mismatch with the trace is rejected below, so rebuild:
        let mut g2 = HloGraph::new();
        let x = g2.parameter(0, &[2]);
        let a = g2.unary(ElemUnary::Neg, x);
        let b = g2.unary(ElemUnary::Exp, a);
        let one = g2.constant(Tensor::scalar(1.0));
        let c = g2.binary(ElemBinary::Add, b, one);
        let d = g2.unary(ElemUnary::Recip, c);
        g2.mark_output(d);
        let out = compile(&g2).run(&[&input]);
        for (o, &xv) in out[0].as_slice().iter().zip(input.as_slice()) {
            assert!((o - 1.0 / (1.0 + (-xv).exp())).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "parameter 0 has shape")]
    fn shape_change_is_rejected_at_run_time() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[3]);
        let y = g.unary(ElemUnary::Neg, x);
        g.mark_output(y);
        compile(&g).run(&[&t(&[1.0, 2.0], &[2])]);
    }

    #[test]
    fn conv_pool_and_grads_execute() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let x = Tensor::<f32>::randn(&[1, 8, 8, 2], &mut rng);
        let w = Tensor::<f32>::randn(&[3, 3, 2, 4], &mut rng);
        let mut g = HloGraph::new();
        let xp = g.parameter(0, &[1, 8, 8, 2]);
        let wp = g.parameter(1, &[3, 3, 2, 4]);
        let conv = g.add(
            HloOp::Conv2D {
                strides: (1, 1),
                padding: s4tf_tensor::Padding::Same,
            },
            &[xp, wp],
        );
        let pool = g.add(
            HloOp::AvgPool {
                pool: (2, 2),
                strides: (2, 2),
                padding: s4tf_tensor::Padding::Valid,
            },
            &[conv],
        );
        g.mark_output(pool);
        let out = compile(&g).run(&[&x, &w]);
        let expected = x.conv2d(&w, (1, 1), s4tf_tensor::Padding::Same).avg_pool2d(
            (2, 2),
            (2, 2),
            s4tf_tensor::Padding::Valid,
        );
        assert!(out[0].allclose(&expected, 1e-5));
    }

    #[test]
    fn reductions_and_shape_ops_execute() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2, 3]);
        let s = g.add(
            HloOp::Reduce {
                kind: ReduceKind::Sum,
                axis: Some(0),
            },
            &[x],
        );
        let r = g.add(HloOp::Reshape(vec![3, 1]), &[s]);
        let b = g.add(HloOp::Broadcast(vec![3, 2]), &[r]);
        let back = g.add(HloOp::ReduceToShape(vec![3, 1]), &[b]);
        let tr = g.add(HloOp::Transpose(vec![1, 0]), &[back]);
        g.mark_output(tr);
        let out = compile(&g).run(&[&t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])]);
        assert_eq!(out[0].dims(), &[1, 3]);
        assert_eq!(out[0].as_slice(), &[10.0, 14.0, 18.0]);
    }

    /// The optimizer-update pattern `p ← p − lr·g`: an owned run donates
    /// the parameter buffer, so the updated parameter aliases it.
    fn update_graph(n: usize) -> HloGraph {
        let mut g = HloGraph::new();
        let p = g.parameter(0, &[n]);
        let grad = g.parameter(1, &[n]);
        let lr = g.constant(Tensor::scalar(0.1));
        let step = g.binary(ElemBinary::Mul, grad, lr);
        let new = g.binary(ElemBinary::Sub, p, step);
        g.mark_output(new);
        g
    }

    #[test]
    fn owned_run_donates_unique_param_buffer() {
        let n = 1000;
        let exe = compile(&update_graph(n));
        let param = Tensor::full(1.0f32, &[n]);
        let grad = Tensor::full(0.5f32, &[n]);
        let ptr = param.as_slice().as_ptr();
        let out = exe.try_run_owned(vec![param, grad], "xla").unwrap();
        assert_eq!(
            out[0].as_slice().as_ptr(),
            ptr,
            "param_new should alias param_old's buffer"
        );
        assert!(out[0].as_slice().iter().all(|&x| (x - 0.95).abs() < 1e-6));
    }

    #[test]
    fn donation_refuses_shared_storage() {
        let n = 1000;
        let exe = compile(&update_graph(n));
        let param = Tensor::full(1.0f32, &[n]);
        let keep = param.clone(); // a live handle shares the buffer
        let grad = Tensor::full(0.5f32, &[n]);
        let out = exe.try_run_owned(vec![param, grad], "xla").unwrap();
        assert_ne!(
            out[0].as_slice().as_ptr(),
            keep.as_slice().as_ptr(),
            "shared storage must not be overwritten"
        );
        assert!(keep.as_slice().iter().all(|&x| x == 1.0), "value semantics");
    }

    #[test]
    fn borrowed_run_never_touches_caller_buffers() {
        let n = 1000;
        let exe = compile(&update_graph(n));
        let param = Tensor::full(1.0f32, &[n]);
        let grad = Tensor::full(0.5f32, &[n]);
        let out = exe.try_run_with_backend(&[&param, &grad], "xla").unwrap();
        assert!(param.as_slice().iter().all(|&x| x == 1.0));
        assert!(out[0].as_slice().iter().all(|&x| (x - 0.95).abs() < 1e-6));
    }

    #[test]
    fn inplace_fused_chain_matches_eval_op() {
        // A fusable chain over a donated buffer: in-place fused execution
        // must agree exactly with the unfused per-op kernels.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2000]);
        let a = g.unary(ElemUnary::Tanh, x);
        let b = g.unary(ElemUnary::Square, a);
        let c = g.binary(ElemBinary::Add, a, b);
        g.mark_output(c);
        let xs = Tensor::<f32>::randn(&[2000], &mut rng);
        let expect = compile_unoptimized(&g).run(&[&xs]);
        let got = compile(&g).try_run_owned(vec![xs], "xla").unwrap();
        assert_eq!(
            expect[0].as_slice(),
            got[0].as_slice(),
            "fused in-place must be bit-identical"
        );
    }

    /// Hand-built programs `lower` rejects, with the reason it gives.
    fn malformed_programs() -> Vec<(Vec<FusedInst>, &'static str)> {
        vec![
            (vec![], "empty program"),
            (
                vec![FusedInst::Input(0), FusedInst::Unary(ElemUnary::Neg, 5)],
                "forward operand reference",
            ),
        ]
    }

    #[test]
    fn malformed_fused_program_panics_with_lowering_reason() {
        for (insts, why) in malformed_programs() {
            let op = HloOp::Fused {
                insts,
                n_inputs: 1,
                reduce_to: None,
            };
            let x = t(&[1.0, 2.0], &[2]);
            let payload = std::panic::catch_unwind(|| eval_op(&op, &[&x])).unwrap_err();
            let msg = panic_message(&*payload);
            assert!(msg.contains(why), "`{msg}` should name `{why}`");
        }
    }

    #[test]
    fn malformed_fused_node_is_a_typed_kernel_error() {
        for (insts, why) in malformed_programs() {
            let mut g = HloGraph::new();
            let x = g.parameter(0, &[2]);
            let f = g.add(
                HloOp::Fused {
                    insts,
                    n_inputs: 1,
                    reduce_to: None,
                },
                &[x],
            );
            g.mark_output(f);
            let err = compile(&g)
                .try_run_with_backend(&[&t(&[1.0, 2.0], &[2])], "xla")
                .unwrap_err();
            assert_eq!(err.kind, s4tf_tensor::FaultKind::Kernel);
            assert!(err.op.starts_with("fused["), "op: {}", err.op);
            assert!(err.message.contains(why), "`{}`", err.message);
        }
    }
}
