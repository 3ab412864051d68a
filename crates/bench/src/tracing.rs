//! Shared tracing helpers: record a full training step of a model on the
//! lazy device and snapshot the trace for compilation/simulation, without
//! executing it — this is how the datacenter-scale experiments feed *real*
//! traces of *real* (ImageNet-geometry) models through the real compiler
//! while only the kernel clock is simulated.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf_models::{ResNet, ResNetConfig};
use s4tf_nn::optimizer::{Optimizer, Sgd};
use s4tf_nn::train::loss_and_gradient;
use s4tf_nn::Layer;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::Tensor;
use s4tf_xla::graph::HloGraph;

/// A recorded (un-executed) training-step trace.
#[derive(Debug)]
pub struct TracedStep {
    /// The step's operation graph, outputs marked.
    pub graph: HloGraph,
    /// Wall-clock seconds spent *recording* the trace (the §3.4 per-step
    /// retracing overhead of the lazy backend, measured on this machine).
    pub trace_seconds: f64,
    /// Number of model parameters (for gradient all-reduce sizing).
    pub param_count: usize,
}

/// Records one full training step (forward → softmax CE → backward →
/// SGD update) of the configured ResNet at the given input geometry,
/// returning the trace without executing it.
pub fn trace_resnet_training_step(
    config: ResNetConfig,
    batch: usize,
    height: usize,
    width: usize,
) -> TracedStep {
    let device = Device::lazy();
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let classes = config.classes;
    let channels = config.input_channels;
    let mut model = ResNet::new(config, &device, &mut rng);
    let param_count = resnet_param_count(&model);

    let images = DTensor::from_tensor(Tensor::zeros(&[batch, height, width, channels]), &device);
    let label_ids: Vec<usize> = (0..batch).map(|i| i % classes).collect();
    let labels = DTensor::from_tensor(Tensor::one_hot(&label_ids, classes), &device);

    let Device::Lazy(ctx) = &device else {
        unreachable!()
    };
    let mut span = s4tf_profile::span("bench.trace_resnet_step");
    let trace_before = ctx.trace_time();
    let wall = std::time::Instant::now();
    record_training_step(&mut model, &images, &labels);
    let wall_elapsed = wall.elapsed().as_secs_f64();
    let recorded = (ctx.trace_time() - trace_before).as_secs_f64();

    let graph = ctx.snapshot_trace();
    ctx.abandon_trace();
    if span.is_recording() {
        span.annotate_f64("nodes", graph.len() as f64);
        span.annotate_f64("params", param_count as f64);
    }
    TracedStep {
        graph,
        // Recording time includes both the lock-protected graph appends
        // (`recorded`) and the host-side closure plumbing around them; the
        // wall measurement is the honest per-step retrace cost.
        trace_seconds: wall_elapsed.max(recorded),
        param_count,
    }
}

/// The body of `train_classifier_step` minus the barrier (with plain SGD):
/// on a lazy device it only appends to the trace.
fn record_training_step<L: Layer>(model: &mut L, images: &DTensor, labels: &DTensor)
where
    Sgd<L>: Optimizer<L>,
{
    let (_, gradients) = loss_and_gradient(model, images, labels);
    Sgd::<L>::new(0.1).update(model, &gradients);
}

/// Counts a ResNet's trainable parameters.
fn resnet_param_count(model: &ResNet) -> usize {
    let mut count = model.stem.filter.num_elements()
        + model.stem.bias.num_elements()
        + model.stem_bn.scale.num_elements()
        + model.stem_bn.offset.num_elements()
        + model.head.weight.num_elements()
        + model.head.bias.num_elements();
    for b in &model.blocks {
        count += b.conv1.filter.num_elements()
            + b.conv1.bias.num_elements()
            + b.conv2.filter.num_elements()
            + b.conv2.bias.num_elements()
            + b.bn1.scale.num_elements()
            + b.bn1.offset.num_elements()
            + b.bn2.scale.num_elements()
            + b.bn2.offset.num_elements();
        for p in &b.shortcut {
            count += p.filter.num_elements() + p.bias.num_elements();
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_a_small_step_without_executing() {
        let step = trace_resnet_training_step(ResNetConfig::resnet8_cifar(), 4, 16, 16);
        assert!(
            step.graph.len() > 100,
            "full step trace: {}",
            step.graph.len()
        );
        assert!(!step.graph.outputs.is_empty());
        assert!(step.trace_seconds > 0.0);
        // ResNet-8 CIFAR: stem (448+16+32) + 3 blocks + head (650).
        assert!(
            step.param_count > 70_000 && step.param_count < 90_000,
            "{}",
            step.param_count
        );
        // The graph compiles (passes run) even though we never execute it.
        let exe = s4tf_xla::compile(&step.graph);
        assert!(exe.kernel_count() > 0);
    }

    /// A LeNet training step's trace, recorded like the ResNet one above.
    fn lenet_step_graph() -> HloGraph {
        let device = Device::lazy();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut model = s4tf_models::LeNet::new(&device, &mut rng);
        let images = DTensor::from_tensor(Tensor::zeros(&[8, 28, 28, 1]), &device);
        let labels: Vec<usize> = (0..8).collect();
        let labels = DTensor::from_tensor(Tensor::one_hot(&labels, 10), &device);
        record_training_step(&mut model, &images, &labels);
        let Device::Lazy(ctx) = &device else {
            unreachable!()
        };
        let graph = ctx.snapshot_trace();
        ctx.abandon_trace();
        graph
    }

    /// The simulated accelerator and the profiler's roofline read one
    /// cost model: on every node of the compiled LeNet and ResNet-8 step
    /// graphs, `sim::cost::node_cost` is `xla::op_cost` — in particular a
    /// fused kernel costs its compiled IR, not `elements × insts.len()`.
    #[test]
    fn simulated_node_cost_is_the_roofline_op_cost() {
        let resnet = trace_resnet_training_step(ResNetConfig::resnet8_cifar(), 4, 16, 16).graph;
        for graph in [lenet_step_graph(), resnet] {
            let exe = s4tf_xla::compile(&graph);
            let graph = exe.graph();
            let mut fused = 0;
            for node in &graph.nodes {
                let inputs: Vec<_> = node.inputs.iter().map(|&i| &graph.node(i).shape).collect();
                let want = s4tf_xla::op_cost(&node.op, &inputs, &node.shape);
                assert_eq!(s4tf_runtime::sim::cost::node_cost(graph, node), want);
                if let s4tf_xla::HloOp::Fused { insts, .. } = &node.op {
                    fused += 1;
                    // A `reduce_to` kernel runs over its inputs' extent.
                    let extent = s4tf_xla::op::fused_extent(&inputs).num_elements();
                    let raw = (extent * insts.len()) as u64;
                    assert!(want.flops < raw, "{} vs raw count {raw}", want.flops);
                }
            }
            assert!(fused > 0, "a training step has fused kernels");
        }
    }

    /// What fusion left of a graph: `(kernels, transcendentals, largest
    /// elementwise node still outside a fused kernel)`. Transcendentals
    /// are counted wherever they sit — plain nodes and fused programs —
    /// so a duplicated one shows as a higher count.
    fn fusion_structure(graph: &HloGraph) -> (usize, usize, usize) {
        use s4tf_xla::op::FusedInst;
        use s4tf_xla::{ElemBinary as B, ElemUnary as U, HloOp};
        let costly_unary = |u: &U| matches!(u, U::Exp | U::Ln | U::Tanh | U::Sigmoid);
        let (mut kernels, mut transcendentals, mut largest_unfused) = (0, 0, 0);
        for node in &graph.nodes {
            kernels += usize::from(!matches!(node.op, HloOp::Parameter(_) | HloOp::Constant(_)));
            match &node.op {
                HloOp::Unary(_) | HloOp::Binary(_) => {
                    largest_unfused = largest_unfused.max(node.shape.num_elements());
                }
                _ => {}
            }
            transcendentals += match &node.op {
                HloOp::Unary(u) => usize::from(costly_unary(u)),
                HloOp::Binary(B::Pow) => 1,
                HloOp::Fused { insts, .. } => insts
                    .iter()
                    .filter(|inst| match inst {
                        FusedInst::Unary(u, _) => costly_unary(u),
                        FusedInst::Binary(b, _, _) => *b == B::Pow,
                        _ => false,
                    })
                    .count(),
                _ => 0,
            };
        }
        (kernels, transcendentals, largest_unfused)
    }

    /// Asserts the fusion contract on `graph` and returns its optimized
    /// kernel count: no elementwise node of a full activation's size is
    /// left outside a fused kernel, and producer duplication recomputes no
    /// transcendental.
    fn assert_fused_where_no_value_must_exist(graph: &HloGraph) -> usize {
        use s4tf_xla::passes;
        let mut g = graph.clone();
        passes::constant_fold(&mut g);
        passes::cse(&mut g);
        passes::algebraic_simplify(&mut g);
        passes::dce(&mut g);
        let (_, transcendentals_before, _) = fusion_structure(&g);
        let mut optimized = graph.clone();
        passes::optimize(&mut optimized);
        let (kernels, transcendentals, largest_unfused) = fusion_structure(&optimized);
        assert!(
            largest_unfused < 4096,
            "a {largest_unfused}-element elementwise node stayed unfused"
        );
        assert_eq!(
            transcendentals, transcendentals_before,
            "a transcendental was duplicated"
        );
        kernels
    }

    /// Batch-norm forward + pullback is the pattern the duplication rule
    /// and the reduction epilogue exist for. Pinned at 11 kernels: six
    /// passes over the activation — `mean` (a plain reduction: its operand
    /// is the input), `var` with `(x − μ)²` as its epilogue input, `y`,
    /// `dβ`, `dγ` and `dx`, each recomputing `x − μ` and `x̂` instead of
    /// reading them — and five `[C]`-sized ones.
    #[test]
    fn batchnorm_step_fuses_to_a_pinned_kernel_count() {
        use s4tf_nn::layers::BatchNorm;
        let device = Device::lazy();
        let layer = BatchNorm::new(8, &device);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x = DTensor::from_tensor(Tensor::randn(&[4, 16, 16, 8], &mut rng), &device);
        let (y, pullback) = layer.forward_with_pullback(&x);
        let (tangent, dx) = pullback(&y.relu());
        let Device::Lazy(ctx) = &device else {
            unreachable!()
        };
        // Only what a training step keeps: the output and the gradients.
        drop(pullback);
        let graph = ctx.snapshot_trace();
        ctx.abandon_trace();
        drop((y, tangent, dx));
        let unfused = s4tf_xla::compile_unoptimized(&graph).kernel_count();
        let kernels = assert_fused_where_no_value_must_exist(&graph);
        assert_eq!(
            (unfused, kernels),
            (22, 11),
            "batch-norm kernel count moved"
        );
    }

    /// The step asks for the parameters' gradient only: its trace holds no
    /// stem `conv2d_bwd_input` for the unfused count to include.
    #[test]
    fn resnet8_step_fuses_to_a_pinned_kernel_count() {
        let step = trace_resnet_training_step(ResNetConfig::resnet8_cifar(), 16, 32, 32);
        let unfused = s4tf_xla::compile_unoptimized(&step.graph).kernel_count();
        let kernels = assert_fused_where_no_value_must_exist(&step.graph);
        assert_eq!(
            (unfused, kernels),
            (317, 168),
            "ResNet-8 step kernel count moved"
        );
    }
}
