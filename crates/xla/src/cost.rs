//! Maps each [`HloOp`] to its analytic [`OpCost`] (FLOPs + bytes moved),
//! using the kernel-family formulas in [`s4tf_tensor::cost`].
//!
//! Every dispatch path (naive, eager, compiled/lazy) calls [`op_cost`]
//! with the operand and output shapes it already has from shape
//! inference, and feeds the result into the profiler's per-op work
//! accounting — the denominator for achieved-GFLOP/s, GB/s and roofline
//! reporting.

use crate::op::{HloOp, ReduceKind};
use s4tf_tensor::cost as formulas;
use s4tf_tensor::{OpCost, Shape};

/// The analytic cost of one invocation of `op` over `inputs`, producing
/// `out`. Shape-only ops (reshape) and leaves cost zero; a fused kernel
/// costs the sum of its constituent instructions over the output extent,
/// with bytes counting only the fused inputs and the single output (no
/// intermediates — the fusion payoff the roofline should credit).
pub fn op_cost(op: &HloOp, inputs: &[&Shape], out: &Shape) -> OpCost {
    let in_elems = || inputs.iter().map(|s| s.num_elements()).sum::<usize>();
    let out_elems = out.num_elements();
    match op {
        HloOp::Parameter(_) | HloOp::Constant(_) => OpCost::ZERO,
        HloOp::Unary(_) | HloOp::Binary(_) => formulas::elementwise(out_elems, in_elems(), 1),
        HloOp::MatMul { t_lhs, t_rhs } => {
            let (m, k) = if *t_lhs {
                (inputs[0].dim(1), inputs[0].dim(0))
            } else {
                (inputs[0].dim(0), inputs[0].dim(1))
            };
            let n = if *t_rhs {
                inputs[1].dim(0)
            } else {
                inputs[1].dim(1)
            };
            formulas::matmul(m, k, n)
        }
        HloOp::Conv2D { .. } => {
            let (i, f) = (inputs[0], inputs[1]);
            formulas::conv2d(
                i.dim(0),
                f.dim(2),
                f.dim(0),
                f.dim(1),
                f.dim(3),
                out.dim(1),
                out.dim(2),
                i.num_elements(),
            )
        }
        // Gradients: operands are (filter, grad_out) / (input, grad_out);
        // the MAC volume matches the forward conv over grad_out's spatial
        // extent.
        HloOp::Conv2DBackwardInput { .. } => {
            let (f, g) = (inputs[0], inputs[1]);
            formulas::conv2d_grad(
                g.dim(0),
                f.dim(2),
                f.dim(0),
                f.dim(1),
                f.dim(3),
                g.dim(1),
                g.dim(2),
                in_elems(),
                out_elems,
            )
        }
        HloOp::Conv2DBackwardFilter { filter_dims, .. } => {
            let g = inputs[1];
            formulas::conv2d_grad(
                g.dim(0),
                filter_dims[2],
                filter_dims[0],
                filter_dims[1],
                filter_dims[3],
                g.dim(1),
                g.dim(2),
                in_elems(),
                out_elems,
            )
        }
        HloOp::AvgPool { pool, .. } | HloOp::MaxPool { pool, .. } => {
            formulas::pool2d(inputs[0].num_elements(), out_elems, pool.0 * pool.1)
        }
        // Pooling gradients route each output-gradient element back to its
        // window: the same combine volume as the forward pool.
        HloOp::AvgPoolGrad { pool, .. } | HloOp::MaxPoolGrad { pool, .. } => {
            formulas::pool2d(in_elems(), out_elems, pool.0 * pool.1)
        }
        HloOp::GatherRows => {
            formulas::data_movement(inputs[1].num_elements() + out_elems, out_elems)
        }
        HloOp::GatherRowsGrad { .. } => formulas::scatter_add(inputs[1].num_elements(), out_elems),
        HloOp::Reduce { kind, .. } => formulas::reduce(
            inputs[0].num_elements(),
            out_elems,
            matches!(kind, ReduceKind::Mean),
        ),
        // Reshape shares storage — no elements move.
        HloOp::Reshape(_) => OpCost::ZERO,
        HloOp::Transpose(_) | HloOp::Broadcast(_) => {
            formulas::data_movement(inputs[0].num_elements(), out_elems)
        }
        HloOp::ReduceToShape(_) => formulas::reduce(inputs[0].num_elements(), out_elems, false),
        HloOp::Fused {
            insts, reduce_to, ..
        } => {
            // Recount against the compiled IR: constant-folded, dead and
            // peephole-absorbed instructions do no per-element work, and
            // inputs the IR never reads move no bytes — summing the raw
            // instruction list overstates fused roofline intensity.
            let k = crate::codegen::peek_or_compile(insts);
            let live_in: usize = inputs
                .iter()
                .enumerate()
                .filter(|&(i, _)| k.input_live(i))
                .map(|(_, s)| s.num_elements())
                .sum();
            let ops = k.flops_per_elem() as usize;
            match reduce_to {
                None => formulas::elementwise(out_elems, live_in, ops),
                // The program runs over the inputs' extent, one more add
                // per element folds it away, and only the sums are stored.
                Some(_) => OpCost {
                    flops: (crate::op::fused_extent(inputs).num_elements() * (ops + 1)) as u64,
                    bytes: formulas::elementwise(out_elems, live_in, 0).bytes,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{ElemBinary, ElemUnary, FusedInst};

    fn s(dims: &[usize]) -> Shape {
        Shape::new(dims)
    }

    #[test]
    fn matmul_variants_agree_with_hand_count() {
        let a = s(&[5, 3]);
        let b = s(&[3, 7]);
        let out = s(&[5, 7]);
        let mm = HloOp::MatMul {
            t_lhs: false,
            t_rhs: false,
        };
        let c = op_cost(&mm, &[&a, &b], &out);
        assert_eq!(c.flops, 2 * 5 * 3 * 7);
        assert_eq!(c.bytes, 4 * (15 + 21 + 35));
        // Transposed operands describe the same product.
        let tn = HloOp::MatMul {
            t_lhs: true,
            t_rhs: false,
        };
        assert_eq!(op_cost(&tn, &[&s(&[3, 5]), &b], &out).flops, c.flops);
        let nt = HloOp::MatMul {
            t_lhs: false,
            t_rhs: true,
        };
        assert_eq!(op_cost(&nt, &[&a, &s(&[7, 3])], &out).flops, c.flops);
    }

    #[test]
    fn conv2d_flops_match_im2col_gemm() {
        let i = s(&[2, 28, 28, 1]);
        let f = s(&[5, 5, 1, 6]);
        let out = s(&[2, 28, 28, 6]);
        let conv = HloOp::Conv2D {
            strides: (1, 1),
            padding: s4tf_tensor::Padding::Same,
        };
        let c = op_cost(&conv, &[&i, &f], &out);
        // im2col GEMM: (2·28·28) x (5·5·1) x 6, 2 FLOPs per MAC.
        assert_eq!(c.flops, 2 * (2 * 28 * 28) as u64 * 25 * 6);
        // Both gradients carry the same MAC volume.
        let bwd_in = HloOp::Conv2DBackwardInput {
            input_dims: vec![2, 28, 28, 1],
            strides: (1, 1),
            padding: s4tf_tensor::Padding::Same,
        };
        assert_eq!(op_cost(&bwd_in, &[&f, &out], &i).flops, c.flops);
        let bwd_f = HloOp::Conv2DBackwardFilter {
            filter_dims: vec![5, 5, 1, 6],
            strides: (1, 1),
            padding: s4tf_tensor::Padding::Same,
        };
        assert_eq!(op_cost(&bwd_f, &[&i, &out], &f).flops, c.flops);
    }

    #[test]
    fn reduction_hand_counts() {
        let x = s(&[4, 25]);
        let sum_all = HloOp::Reduce {
            kind: ReduceKind::Sum,
            axis: None,
        };
        assert_eq!(op_cost(&sum_all, &[&x], &Shape::scalar()).flops, 99);
        let mean_all = HloOp::Reduce {
            kind: ReduceKind::Mean,
            axis: None,
        };
        assert_eq!(op_cost(&mean_all, &[&x], &Shape::scalar()).flops, 100);
        let sum_axis = HloOp::Reduce {
            kind: ReduceKind::Sum,
            axis: Some(1),
        };
        assert_eq!(op_cost(&sum_axis, &[&x], &s(&[4])).flops, 96);
    }

    #[test]
    fn fused_cost_is_sum_of_constituents() {
        // sigmoid built from 4 elementwise ops: neg → exp → add 1 → recip.
        let n = 1000usize;
        let x = s(&[n]);
        let insts = vec![
            FusedInst::Input(0),
            FusedInst::Unary(ElemUnary::Neg, 0),
            FusedInst::Unary(ElemUnary::Exp, 1),
            FusedInst::Imm(1.0),
            FusedInst::Binary(ElemBinary::Add, 2, 3),
            FusedInst::Unary(ElemUnary::Recip, 4),
        ];
        let fused = HloOp::Fused {
            insts,
            n_inputs: 1,
            reduce_to: None,
        };
        let fused_cost = op_cost(&fused, &[&x], &x);
        // FLOPs: exactly the sum of the four constituent elementwise ops.
        let constituents: u64 = (0..4)
            .map(|_| op_cost(&HloOp::Unary(ElemUnary::Neg), &[&x], &x).flops)
            .sum();
        assert_eq!(fused_cost.flops, constituents);
        assert_eq!(fused_cost.flops, 4 * n as u64);
        // Bytes: one input + one output — strictly less than the unfused
        // chain's 4 reads + 4 writes. This asymmetry IS the fusion win.
        assert_eq!(fused_cost.bytes, 4 * (n + n) as u64);
        let unfused_bytes: u64 = (0..4)
            .map(|_| op_cost(&HloOp::Unary(ElemUnary::Neg), &[&x], &x).bytes)
            .sum();
        assert!(fused_cost.bytes < unfused_bytes);
    }

    #[test]
    fn fused_cost_counts_compiled_ir_not_raw_instructions() {
        // Raw list: 5 arithmetic instructions. Compiled IR: the 2·3
        // product folds to a constant, the dead exp is eliminated, and
        // mul+add collapse into one MulBin — 2 FLOPs/element, and only
        // the two live inputs move bytes.
        let n = 1000usize;
        let x = s(&[n]);
        let y = s(&[n]);
        let dead = s(&[n]);
        let insts = vec![
            FusedInst::Input(0), // x
            FusedInst::Imm(2.0),
            FusedInst::Imm(3.0),
            FusedInst::Binary(ElemBinary::Mul, 1, 2), // folds to 6
            FusedInst::Input(2),                      // never reaches the output
            FusedInst::Unary(ElemUnary::Exp, 4),      // dead
            FusedInst::Binary(ElemBinary::Mul, 0, 3), // x·6
            FusedInst::Input(1),                      // y
            FusedInst::Binary(ElemBinary::Add, 7, 6), // y + x·6 → MulBin
        ];
        let fused = HloOp::Fused {
            insts,
            n_inputs: 3,
            reduce_to: None,
        };
        let c = op_cost(&fused, &[&x, &y, &dead], &x);
        assert_eq!(c.flops, 2 * n as u64, "one MulBin = 2 FLOPs/element");
        assert_eq!(
            c.bytes,
            4 * (n + n + n) as u64,
            "two live inputs + output; the dead input moves nothing"
        );
    }

    #[test]
    fn fused_cost_counts_merged_instruction_forms() {
        // Each merged instruction counts every scalar op it replaced: a
        // binary with an activation epilogue 2, two products combined 3,
        // and the epilogue on top of that 4 FLOPs per element.
        let (n, c) = (1200usize, 6usize);
        let (x, v, bias) = (s(&[n / c, c]), s(&[n / c, c]), s(&[c]));
        let cost = |insts: Vec<FusedInst>, inputs: &[&Shape]| {
            let fused = HloOp::Fused {
                insts,
                n_inputs: inputs.len(),
                reduce_to: None,
            };
            op_cost(&fused, inputs, &x)
        };
        let bias_relu = vec![
            FusedInst::Input(0),
            FusedInst::Input(1),
            FusedInst::Binary(ElemBinary::Add, 0, 1),
            FusedInst::Unary(ElemUnary::Relu, 2),
        ];
        let c1 = cost(bias_relu, &[&x, &bias]);
        assert_eq!(c1.flops, 2 * n as u64);
        assert_eq!(c1.bytes, 4 * (n + c + n) as u64, "x and bias in, one out");
        let momentum = vec![
            FusedInst::Input(0),
            FusedInst::Imm(0.9),
            FusedInst::Binary(ElemBinary::Mul, 0, 1),
            FusedInst::Input(1),
            FusedInst::Imm(-0.01),
            FusedInst::Binary(ElemBinary::Mul, 3, 4),
            FusedInst::Binary(ElemBinary::Add, 2, 5),
        ];
        let c2 = cost(momentum.clone(), &[&v, &x]);
        assert_eq!(c2.flops, 3 * n as u64);
        assert_eq!(c2.bytes, 4 * (n + n + n) as u64);
        let mut relu_momentum = momentum;
        relu_momentum.push(FusedInst::Unary(ElemUnary::Relu, 6));
        assert_eq!(cost(relu_momentum, &[&v, &x]).flops, 4 * n as u64);
    }

    #[test]
    fn shape_ops_cost_no_flops() {
        let x = s(&[2, 3]);
        assert_eq!(
            op_cost(&HloOp::Reshape(vec![6]), &[&x], &s(&[6])),
            OpCost::ZERO
        );
        let t = op_cost(&HloOp::Transpose(vec![1, 0]), &[&x], &s(&[3, 2]));
        assert_eq!(t.flops, 0);
        assert_eq!(t.bytes, 4 * 12);
    }
}
