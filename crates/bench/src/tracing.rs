//! Shared tracing helpers: record a full training step of a model on the
//! lazy device and snapshot the trace for compilation/simulation, without
//! executing it — this is how the datacenter-scale experiments feed *real*
//! traces of *real* (ImageNet-geometry) models through the real compiler
//! while only the kernel clock is simulated.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf_models::{ResNet, ResNetConfig};
use s4tf_nn::loss::softmax_cross_entropy;
use s4tf_nn::optimizer::{Optimizer, Sgd};
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

/// The exact body of `train_classifier_step`, minus the barrier: on a lazy
/// device it only appends to the trace.
fn record_training_step<L: Layer>(model: &mut L, images: &DTensor, labels: &DTensor)
where
    Sgd<L>: Optimizer<L>,
{
    let (logits, pullback) = model.forward_with_pullback(images);
    let (loss, loss_pullback) = softmax_cross_entropy(&logits, labels);
    let dlogits = loss_pullback(&loss.scalar_like(1.0));
    let (gradients, _) = pullback(&dlogits);
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
                    let raw = (node.shape.num_elements() * insts.len()) as u64;
                    assert!(want.flops < raw, "{} vs raw count {raw}", want.flops);
                }
            }
            assert!(fused > 0, "a training step has fused kernels");
        }
    }
}
