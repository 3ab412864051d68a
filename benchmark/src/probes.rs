//! Replay probes: after the traced loop, one snapshotted step graph is fed
//! back through the compiler's and the kernels' public entry points, one
//! layer at a time, with inputs already materialized. They attribute what
//! the spans around `barrier` cannot see into.

use crate::host::HostSpeed;
use crate::stats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::runtime::eager::{EagerQueue, EagerTensor};
use s4tf::runtime::{DTensor, Device};
use s4tf::tensor::Tensor;
use s4tf::xla::{self, ElemUnary, HloGraph, HloOp, ProgramCache};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel families `tensor.kernel_floor_us` is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Conv,
    Matmul,
    Elementwise,
    Reduce,
    Pool,
    Gather,
    Shape,
}

impl Family {
    pub const ALL: [Family; 7] = [
        Family::Conv,
        Family::Matmul,
        Family::Elementwise,
        Family::Reduce,
        Family::Pool,
        Family::Gather,
        Family::Shape,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Family::Conv => "tensor.conv_us",
            Family::Matmul => "tensor.matmul_us",
            Family::Elementwise => "tensor.elementwise_us",
            Family::Reduce => "tensor.reduce_us",
            Family::Pool => "tensor.pool_us",
            Family::Gather => "tensor.gather_us",
            Family::Shape => "tensor.shape_us",
        }
    }
}

/// The family whose kernel executes `op`; `None` for leaves, which have no
/// kernel. No wildcard arm: a new `HloOp` variant fails to compile here
/// until it is assigned.
pub fn family(op: &HloOp) -> Option<Family> {
    Some(match op {
        HloOp::Parameter(_) | HloOp::Constant(_) => return None,
        HloOp::Unary(_) | HloOp::Binary(_) | HloOp::Fused { .. } => Family::Elementwise,
        HloOp::MatMul { .. } => Family::Matmul,
        HloOp::Conv2D { .. }
        | HloOp::Conv2DBackwardInput { .. }
        | HloOp::Conv2DBackwardFilter { .. } => Family::Conv,
        HloOp::AvgPool { .. }
        | HloOp::AvgPoolGrad { .. }
        | HloOp::MaxPool { .. }
        | HloOp::MaxPoolGrad { .. } => Family::Pool,
        HloOp::GatherRows | HloOp::GatherRowsGrad { .. } => Family::Gather,
        HloOp::Reduce { .. } | HloOp::ReduceToShape(_) => Family::Reduce,
        HloOp::Reshape(_) | HloOp::Transpose(_) | HloOp::Broadcast(_) => Family::Shape,
    })
}

/// Median microseconds of `f` at reference host speed, timed call by call:
/// at least `min_reps` calls, then more until `budget` is spent or
/// `max_reps` is reached.
fn median_us<T>(
    host: &mut HostSpeed,
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut() -> T,
) -> f64 {
    let (median, pace) = host.around(|| {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < min_reps || (samples.len() < max_reps && start.elapsed() < budget) {
            let begun = Instant::now();
            black_box(f());
            samples.push(begun.elapsed().as_secs_f64() * 1e6);
        }
        stats::median(&samples)
    });
    median / pace
}

const SHORT: Duration = Duration::from_millis(150);
const LONG: Duration = Duration::from_millis(600);

/// Uniform [0, 1) tensors for the graph's parameters: valid row indices
/// for the gathers, finite everywhere else.
fn parameters(graph: &HloGraph) -> Vec<Tensor<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let mut params = vec![Tensor::scalar(0.0); graph.n_params];
    for node in &graph.nodes {
        if let HloOp::Parameter(i) = node.op {
            params[i] = Tensor::rand_uniform(node.shape.dims(), 0.0, 1.0, &mut rng);
        }
    }
    params
}

/// One pass of `eval_op` over every node of the graph in order; returns the
/// microseconds spent per family. Each value is dropped after its last use,
/// as an executor would, so the pool recycles buffers and the kernels run on
/// warm memory — the floor is kernel time, not allocator time.
fn kernel_pass(graph: &HloGraph, params: &[Tensor<f32>]) -> [f64; Family::ALL.len()] {
    let mut last_use = vec![0; graph.nodes.len()];
    for (index, node) in graph.nodes.iter().enumerate() {
        for id in &node.inputs {
            last_use[id.0 as usize] = index;
        }
    }
    let mut spent = [0.0; Family::ALL.len()];
    let mut values: Vec<Option<Tensor<f32>>> = Vec::with_capacity(graph.nodes.len());
    for (index, node) in graph.nodes.iter().enumerate() {
        let value = match (&node.op, family(&node.op)) {
            (HloOp::Parameter(i), _) => params[*i].clone(),
            (HloOp::Constant(t), _) => t.clone(),
            (op, Some(fam)) => {
                let inputs: Vec<&Tensor<f32>> = node
                    .inputs
                    .iter()
                    .map(|id| {
                        values[id.0 as usize]
                            .as_ref()
                            .expect("operands precede users")
                    })
                    .collect();
                let begun = Instant::now();
                let out = xla::eval_op(op, &inputs);
                spent[fam as usize] += begun.elapsed().as_secs_f64() * 1e6;
                out
            }
            (_, None) => unreachable!("only leaves have no family"),
        };
        values.push(Some(value));
        for id in &node.inputs {
            if last_use[id.0 as usize] == index {
                values[id.0 as usize] = None;
            }
        }
    }
    spent
}

/// Analytic FLOPs of one run of the graph (`xla::op_cost` per node).
fn flops(graph: &HloGraph) -> u64 {
    graph
        .nodes
        .iter()
        .map(|node| {
            let shapes: Vec<_> = node
                .inputs
                .iter()
                .map(|id| &graph.node(*id).shape)
                .collect();
            xla::op_cost(&node.op, &shapes, &node.shape).flops
        })
        .sum()
}

/// Every `xla.*` and `tensor.*` replay number for one step graph. The
/// kernel floor is taken over the graph the backend executes: the optimized
/// one when it `fuses`, else the recorded one, one kernel per op.
pub fn replay(graph: &HloGraph, fuses: bool, host: &mut HostSpeed) -> Vec<(&'static str, f64)> {
    let params = parameters(graph);
    let param_refs: Vec<&Tensor<f32>> = params.iter().collect();
    let mut out = Vec::new();

    out.push((
        "xla.fingerprint_us",
        median_us(host, 20, 2000, SHORT, || graph.fingerprint()),
    ));
    let cache = ProgramCache::new();
    cache.get_or_compile(graph);
    out.push((
        "xla.cache_hit_us",
        median_us(host, 20, 2000, SHORT, || cache.get_or_compile(graph)),
    ));
    out.push((
        "xla.compile_us",
        median_us(host, 3, 20, SHORT, || xla::compile(graph)),
    ));
    out.push((
        "xla.optimize_us",
        median_us(host, 3, 20, SHORT, || {
            let mut g = graph.clone();
            xla::passes::optimize(&mut g);
            g
        }),
    ));

    let exe = xla::compile(graph);
    let unoptimized = xla::compile_unoptimized(graph);
    out.push((
        "xla.plan_us",
        median_us(host, 5, 200, SHORT, || xla::plan_memory(exe.graph())),
    ));
    out.push((
        "xla.exec_us",
        median_us(host, 3, 400, LONG, || exe.run(&param_refs)),
    ));
    out.push((
        "xla.exec_unopt_us",
        median_us(host, 3, 400, LONG, || unoptimized.run(&param_refs)),
    ));
    out.push(("xla.kernels_fused", exe.kernel_count() as f64));
    out.push(("xla.kernels_unfused", unoptimized.kernel_count() as f64));
    out.push(("xla.planned_bytes", exe.planned_bytes() as f64));

    let executed = if fuses { exe.graph() } else { graph };
    let (passes, pace) = host.around(|| {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < 3 || (passes.len() < 200 && start.elapsed() < LONG) {
            passes.push(kernel_pass(executed, &params));
        }
        passes
    });
    let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    let floor_us = stats::median(&totals) / pace;
    out.push(("tensor.kernel_floor_us", floor_us));
    for fam in Family::ALL {
        let per_pass: Vec<f64> = passes.iter().map(|p| p[fam as usize]).collect();
        out.push((fam.metric(), stats::median(&per_pass) / pace));
    }
    let flops = flops(executed) as f64;
    out.push(("tensor.flops_per_op", flops));
    out.push((
        "tensor.kernel_gflops",
        if floor_us > 0.0 {
            flops / floor_us / 1e3
        } else {
            0.0
        },
    ));
    out
}

/// The per-op cost of the eager queue and of naive dispatch on a
/// one-element tensor, where the kernel itself is nothing.
pub fn dispatch(host: &mut HostSpeed) -> Vec<(&'static str, f64)> {
    const OPS: usize = 20_000;
    let neg = HloOp::Unary(ElemUnary::Neg);
    let one = || Tensor::from_vec(vec![1.0f32], &[1]);

    let queue = EagerQueue::new();
    let x = EagerTensor::from_host(&queue, one());
    let (enqueue_us, pace) = host.around(|| {
        let begun = Instant::now();
        let mut h = x.clone();
        for _ in 0..OPS {
            h = EagerTensor::dispatch_op(&queue, neg.clone(), &[&h]);
        }
        begun.elapsed().as_secs_f64() * 1e6 / OPS as f64
    });
    let enqueue_us = enqueue_us / pace;
    queue.sync();
    let roundtrip_us = median_us(host, 100, 5000, SHORT, || {
        EagerTensor::dispatch_op(&queue, neg.clone(), &[&x]).to_host()
    });

    let naive = Device::naive();
    let a = DTensor::from_tensor(one(), &naive);
    let b = DTensor::from_tensor(one(), &naive);
    let (naive_us, pace) = host.around(|| {
        let begun = Instant::now();
        for _ in 0..OPS {
            black_box(a.add(&b));
        }
        begun.elapsed().as_secs_f64() * 1e6 / OPS as f64
    });
    let naive_us = naive_us / pace;

    vec![
        ("runtime.eager.enqueue_us_per_op", enqueue_us),
        ("runtime.eager.roundtrip_us", roundtrip_us),
        ("runtime.naive.op_us", naive_us),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf::tensor::Padding;
    use s4tf::xla::{ElemBinary, ReduceKind};

    #[test]
    fn every_hlo_variant_has_a_family() {
        let window = ((2, 2), (2, 2), Padding::Valid);
        let (pool, strides, padding) = window;
        let cases = [
            (HloOp::Parameter(0), None),
            (HloOp::Constant(Tensor::scalar(1.0)), None),
            (HloOp::Unary(ElemUnary::Exp), Some(Family::Elementwise)),
            (HloOp::Binary(ElemBinary::Add), Some(Family::Elementwise)),
            (
                HloOp::Fused {
                    insts: vec![],
                    n_inputs: 0,
                },
                Some(Family::Elementwise),
            ),
            (
                HloOp::MatMul {
                    t_lhs: false,
                    t_rhs: true,
                },
                Some(Family::Matmul),
            ),
            (HloOp::Conv2D { strides, padding }, Some(Family::Conv)),
            (
                HloOp::Conv2DBackwardInput {
                    input_dims: vec![],
                    strides,
                    padding,
                },
                Some(Family::Conv),
            ),
            (
                HloOp::Conv2DBackwardFilter {
                    filter_dims: vec![],
                    strides,
                    padding,
                },
                Some(Family::Conv),
            ),
            (
                HloOp::AvgPool {
                    pool,
                    strides,
                    padding,
                },
                Some(Family::Pool),
            ),
            (
                HloOp::AvgPoolGrad {
                    pool,
                    strides,
                    padding,
                },
                Some(Family::Pool),
            ),
            (
                HloOp::MaxPool {
                    pool,
                    strides,
                    padding,
                },
                Some(Family::Pool),
            ),
            (
                HloOp::MaxPoolGrad {
                    pool,
                    strides,
                    padding,
                },
                Some(Family::Pool),
            ),
            (HloOp::GatherRows, Some(Family::Gather)),
            (
                HloOp::GatherRowsGrad { table_rows: 4 },
                Some(Family::Gather),
            ),
            (
                HloOp::Reduce {
                    kind: ReduceKind::Sum,
                    axis: None,
                },
                Some(Family::Reduce),
            ),
            (HloOp::ReduceToShape(vec![1]), Some(Family::Reduce)),
            (HloOp::Reshape(vec![1]), Some(Family::Shape)),
            (HloOp::Transpose(vec![0]), Some(Family::Shape)),
            (HloOp::Broadcast(vec![1]), Some(Family::Shape)),
        ];
        for (op, expected) in cases {
            assert_eq!(family(&op), expected, "{}", op.mnemonic());
        }
        // Each family names its own metric.
        let names: std::collections::BTreeSet<_> = Family::ALL.iter().map(|f| f.metric()).collect();
        assert_eq!(names.len(), Family::ALL.len());
    }

    #[test]
    fn replay_attributes_a_small_graph() {
        let mut g = HloGraph::new();
        let a = g.parameter(0, &[8, 8]);
        let b = g.parameter(1, &[8, 8]);
        let product = g.add(
            HloOp::MatMul {
                t_lhs: false,
                t_rhs: false,
            },
            &[a, b],
        );
        let sum = g.binary(ElemBinary::Add, product, a);
        let out = g.unary(ElemUnary::Relu, sum);
        g.mark_output(out);

        assert_eq!(flops(&g), 2 * 8 * 8 * 8 + 64 + 64);
        let spent = kernel_pass(&g, &parameters(&g));
        assert!(spent[Family::Matmul as usize] > 0.0);
        assert!(spent[Family::Elementwise as usize] > 0.0);
        assert_eq!(spent[Family::Conv as usize], 0.0);

        let metrics: std::collections::BTreeMap<_, _> = replay(&g, true, &mut HostSpeed::new())
            .into_iter()
            .collect();
        assert_eq!(metrics["xla.kernels_unfused"], 3.0);
        // add+relu fuse into one kernel behind the matmul.
        assert_eq!(metrics["xla.kernels_fused"], 2.0);
        assert!(metrics["tensor.kernel_floor_us"] > 0.0);
    }
}
