//! The roofline accelerator model, over the one analytic cost model
//! ([`s4tf_xla::op_cost`]) the profiler's roofline also reads.

use s4tf_tensor::OpCost;
use s4tf_xla::graph::{HloGraph, HloNode};
use s4tf_xla::HloOp;

/// The cost of one node, given its (shape-inferred) graph context.
pub fn node_cost(graph: &HloGraph, node: &HloNode) -> OpCost {
    let inputs: Vec<_> = node.inputs.iter().map(|&i| &graph.node(i).shape).collect();
    s4tf_xla::op_cost(&node.op, &inputs, &node.shape)
}

/// A roofline accelerator: each kernel takes
/// `max(flops/peak·eff, bytes/bandwidth) + launch_overhead`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorModel {
    /// Peak FLOP/s.
    pub peak_flops: f64,
    /// Sustained fraction of peak achieved by compiled kernels.
    pub efficiency: f64,
    /// Device-memory bandwidth, bytes/s.
    pub mem_bandwidth: f64,
    /// Fixed cost per kernel launch, seconds.
    pub launch_overhead: f64,
}

impl AcceleratorModel {
    /// A TPUv3-core-like model. Constants are calibrated so a ResNet-50
    /// training step at the paper's per-core batch lands near Table 1's
    /// per-core throughput (see EXPERIMENTS.md for the calibration note).
    pub fn tpu_v3_core() -> Self {
        AcceleratorModel {
            peak_flops: 61.0e12, // half a 123-TFLOP TPUv3 chip
            efficiency: 0.35,    // MLPerf-era ResNet-50 MXU utilization
            mem_bandwidth: 450.0e9,
            launch_overhead: 1.5e-6,
        }
    }

    /// A GTX-1080-like model (Table 3's device).
    pub fn gtx_1080() -> Self {
        AcceleratorModel {
            peak_flops: 8.9e12,
            efficiency: 0.25,
            mem_bandwidth: 320.0e9,
            launch_overhead: 8.0e-6,
        }
    }

    /// Time for one kernel.
    pub fn kernel_time(&self, cost: OpCost) -> f64 {
        let compute = cost.flops as f64 / (self.peak_flops * self.efficiency);
        let memory = cost.bytes as f64 / self.mem_bandwidth;
        compute.max(memory) + self.launch_overhead
    }

    /// Time for a whole compiled program (kernels run back-to-back).
    pub fn program_time(&self, graph: &HloGraph) -> f64 {
        let mut total = 0.0;
        for node in &graph.nodes {
            if matches!(
                node.op,
                HloOp::Parameter(_) | HloOp::Constant(_) | HloOp::Reshape(_)
            ) {
                continue;
            }
            total += self.kernel_time(node_cost(graph, node));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_xla::{compile, compile_unoptimized, ElemUnary, HloGraph};

    fn chain_graph(n_ops: usize, dim: usize) -> HloGraph {
        let mut g = HloGraph::new();
        let mut x = g.parameter(0, &[dim]);
        for _ in 0..n_ops {
            x = g.unary(ElemUnary::Tanh, x);
        }
        g.mark_output(x);
        g
    }

    #[test]
    fn matmul_flops() {
        let mut g = HloGraph::new();
        let a = g.parameter(0, &[16, 32]);
        let b = g.parameter(1, &[32, 8]);
        let m = g.add(
            s4tf_xla::HloOp::MatMul {
                t_lhs: false,
                t_rhs: false,
            },
            &[a, b],
        );
        g.mark_output(m);
        let node = g.node(m);
        let c = node_cost(&g, node);
        assert_eq!(c.flops, 2 * 16 * 32 * 8);
        assert_eq!(c.bytes, (16 * 32 + 32 * 8 + 16 * 8) * 4);
    }

    #[test]
    fn conv_flops() {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[2, 8, 8, 3]);
        let w = g.parameter(1, &[3, 3, 3, 16]);
        let c = g.add(
            s4tf_xla::HloOp::Conv2D {
                strides: (1, 1),
                padding: s4tf_tensor::Padding::Same,
            },
            &[x, w],
        );
        g.mark_output(c);
        let cost = node_cost(&g, g.node(c));
        let out_elems = 2 * 8 * 8 * 16;
        assert_eq!(cost.flops, out_elems * 2 * 27);
    }

    #[test]
    fn fusion_reduces_modeled_time() {
        let g = chain_graph(8, 1 << 16);
        let model = AcceleratorModel::gtx_1080();
        let fused = compile(&g);
        let unfused = compile_unoptimized(&g);
        let t_fused = model.program_time(fused.graph());
        let t_unfused = model.program_time(unfused.graph());
        assert!(
            t_fused < t_unfused / 2.0,
            "fusion must cut launch + traffic costs: {t_fused} vs {t_unfused}"
        );
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let g = chain_graph(10, 4);
        let model = AcceleratorModel::gtx_1080();
        let t = model.program_time(&g);
        assert!(t >= 10.0 * model.launch_overhead);
        assert!(t < 10.0 * model.launch_overhead * 1.5);
    }

    #[test]
    fn roofline_picks_the_max() {
        let m = AcceleratorModel {
            peak_flops: 1e12,
            efficiency: 1.0,
            mem_bandwidth: 1e9,
            launch_overhead: 0.0,
        };
        // Memory-bound kernel.
        let t = m.kernel_time(OpCost {
            flops: 1_000_000,
            bytes: 1_000_000_000,
        });
        assert!((t - 1.0).abs() < 1e-9);
        // Compute-bound kernel.
        let t = m.kernel_time(OpCost {
            flops: 1_000_000_000_000,
            bytes: 1000,
        });
        assert!((t - 1.0).abs() < 1e-9);
    }
}
