//! The HLO-like operation set and its shape inference.

use s4tf_tensor::{Padding, Shape, Tensor};

/// Elementwise unary operations (fusable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemUnary {
    /// `-x`
    Neg,
    /// `e^x`
    Exp,
    /// `ln x`
    Ln,
    /// `√x`
    Sqrt,
    /// `tanh x`
    Tanh,
    /// logistic sigmoid
    Sigmoid,
    /// `max(x, 0)`
    Relu,
    /// `x²`
    Square,
    /// `1/x`
    Recip,
}

impl ElemUnary {
    /// Applies the operation to one element.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ElemUnary::Neg => -x,
            ElemUnary::Exp => x.exp(),
            ElemUnary::Ln => x.ln(),
            ElemUnary::Sqrt => x.sqrt(),
            ElemUnary::Tanh => x.tanh(),
            ElemUnary::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ElemUnary::Relu => x.max(0.0),
            ElemUnary::Square => x * x,
            ElemUnary::Recip => 1.0 / x,
        }
    }
}

/// Elementwise binary operations (fusable when shapes agree; broadcast
/// otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemBinary {
    /// `a + b`
    Add,
    /// `a − b`
    Sub,
    /// `a · b`
    Mul,
    /// `a / b`
    Div,
    /// `max(a, b)`
    Max,
    /// `min(a, b)`
    Min,
    /// `1.0 if a > b else 0.0`
    GreaterMask,
    /// `a^b`
    Pow,
}

impl ElemBinary {
    /// Applies the operation to one element pair.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            ElemBinary::Add => a + b,
            ElemBinary::Sub => a - b,
            ElemBinary::Mul => a * b,
            ElemBinary::Div => a / b,
            ElemBinary::Max => a.max(b),
            ElemBinary::Min => a.min(b),
            ElemBinary::GreaterMask => {
                if a > b {
                    1.0
                } else {
                    0.0
                }
            }
            ElemBinary::Pow => a.powf(b),
        }
    }
}

/// Expands `$body` once per [`ElemUnary`] variant with `$f` bound to a
/// *distinct closure type* over the literal variant — each arm's loop
/// monomorphizes with the scalar op inlined. A closure over a runtime
/// variant (`move |x| u.apply(x)`) would match on it per element and not
/// vectorize; a function pointer would cost an indirect call per
/// element. The scalar expression is the enum's own `apply`, so every
/// kernel that dispatches here — fused, unfused, folded — agrees bit for
/// bit.
macro_rules! with_unary {
    ($u:expr, $f:ident => $body:expr) => {
        match $u {
            ElemUnary::Neg => {
                let $f = |x: f32| ElemUnary::Neg.apply(x);
                $body
            }
            ElemUnary::Exp => {
                let $f = |x: f32| ElemUnary::Exp.apply(x);
                $body
            }
            ElemUnary::Ln => {
                let $f = |x: f32| ElemUnary::Ln.apply(x);
                $body
            }
            ElemUnary::Sqrt => {
                let $f = |x: f32| ElemUnary::Sqrt.apply(x);
                $body
            }
            ElemUnary::Tanh => {
                let $f = |x: f32| ElemUnary::Tanh.apply(x);
                $body
            }
            ElemUnary::Sigmoid => {
                let $f = |x: f32| ElemUnary::Sigmoid.apply(x);
                $body
            }
            ElemUnary::Relu => {
                let $f = |x: f32| ElemUnary::Relu.apply(x);
                $body
            }
            ElemUnary::Square => {
                let $f = |x: f32| ElemUnary::Square.apply(x);
                $body
            }
            ElemUnary::Recip => {
                let $f = |x: f32| ElemUnary::Recip.apply(x);
                $body
            }
        }
    };
}
pub(crate) use with_unary;

/// Binary counterpart of [`with_unary!`].
macro_rules! with_binary {
    ($b:expr, $f:ident => $body:expr) => {
        match $b {
            ElemBinary::Add => {
                let $f = |x: f32, y: f32| ElemBinary::Add.apply(x, y);
                $body
            }
            ElemBinary::Sub => {
                let $f = |x: f32, y: f32| ElemBinary::Sub.apply(x, y);
                $body
            }
            ElemBinary::Mul => {
                let $f = |x: f32, y: f32| ElemBinary::Mul.apply(x, y);
                $body
            }
            ElemBinary::Div => {
                let $f = |x: f32, y: f32| ElemBinary::Div.apply(x, y);
                $body
            }
            ElemBinary::Max => {
                let $f = |x: f32, y: f32| ElemBinary::Max.apply(x, y);
                $body
            }
            ElemBinary::Min => {
                let $f = |x: f32, y: f32| ElemBinary::Min.apply(x, y);
                $body
            }
            ElemBinary::GreaterMask => {
                let $f = |x: f32, y: f32| ElemBinary::GreaterMask.apply(x, y);
                $body
            }
            ElemBinary::Pow => {
                let $f = |x: f32, y: f32| ElemBinary::Pow.apply(x, y);
                $body
            }
        }
    };
}
pub(crate) use with_binary;

/// Reduction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum.
    Max,
}

/// One instruction of a fused elementwise kernel (register machine over
/// per-element values).
#[derive(Debug, Clone, PartialEq)]
pub enum FusedInst {
    /// Load fused-kernel input `i` at the current element.
    Input(usize),
    /// A scalar immediate.
    Imm(f32),
    /// Unary over a register.
    Unary(ElemUnary, usize),
    /// Binary over two registers.
    Binary(ElemBinary, usize, usize),
}

/// One HLO operation. Operands are positional graph edges; static
/// configuration lives in the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum HloOp {
    /// The `i`-th runtime input.
    Parameter(usize),
    /// An embedded constant.
    Constant(Tensor<f32>),
    /// Elementwise unary.
    Unary(ElemUnary),
    /// Elementwise binary with NumPy broadcasting.
    Binary(ElemBinary),
    /// Matrix product, with optional implicit transposes.
    MatMul {
        /// Transpose the left operand.
        t_lhs: bool,
        /// Transpose the right operand.
        t_rhs: bool,
    },
    /// 2-D convolution (operands: input, filter).
    Conv2D {
        /// Spatial strides.
        strides: (usize, usize),
        /// Padding strategy.
        padding: Padding,
    },
    /// Gradient of conv2d w.r.t. input (operands: filter, grad_out).
    Conv2DBackwardInput {
        /// The forward input's dims.
        input_dims: Vec<usize>,
        /// Spatial strides.
        strides: (usize, usize),
        /// Padding strategy.
        padding: Padding,
    },
    /// Gradient of conv2d w.r.t. filter (operands: input, grad_out).
    Conv2DBackwardFilter {
        /// The filter's dims.
        filter_dims: Vec<usize>,
        /// Spatial strides.
        strides: (usize, usize),
        /// Padding strategy.
        padding: Padding,
    },
    /// Average pooling (operand: input).
    AvgPool {
        /// Window.
        pool: (usize, usize),
        /// Strides.
        strides: (usize, usize),
        /// Padding strategy.
        padding: Padding,
    },
    /// Gradient of average pooling (operands: input, grad_out).
    AvgPoolGrad {
        /// Window.
        pool: (usize, usize),
        /// Strides.
        strides: (usize, usize),
        /// Padding strategy.
        padding: Padding,
    },
    /// Max pooling (operand: input).
    MaxPool {
        /// Window.
        pool: (usize, usize),
        /// Strides.
        strides: (usize, usize),
        /// Padding strategy.
        padding: Padding,
    },
    /// Gradient of max pooling (operands: input, grad_out).
    MaxPoolGrad {
        /// Window.
        pool: (usize, usize),
        /// Strides.
        strides: (usize, usize),
        /// Padding strategy.
        padding: Padding,
    },
    /// Row gather (operands: table `[R, d…]`, indices `[B]` carried as a
    /// float tensor, rounded at execution) → `[B, d…]`. Indices are a
    /// runtime *parameter*, so per-batch index changes keep the trace
    /// fingerprint (and the program cache entry) stable.
    GatherRows,
    /// Gradient of [`HloOp::GatherRows`]: scatter-add (operands: indices
    /// `[B]`, grad `[B, d…]`) → `[table_rows, d…]`.
    GatherRowsGrad {
        /// Number of rows of the forward table.
        table_rows: usize,
    },
    /// Reduction over all elements (rank-0 result) or one axis.
    Reduce {
        /// Reduction kind.
        kind: ReduceKind,
        /// `None` = all elements; `Some(axis)` reduces one axis
        /// (not keeping it).
        axis: Option<usize>,
    },
    /// Shape change (same element count).
    Reshape(Vec<usize>),
    /// Dimension permutation.
    Transpose(Vec<usize>),
    /// Materialized broadcast to dims.
    Broadcast(Vec<usize>),
    /// Sum-reduce a gradient back to dims (inverse of broadcast).
    ReduceToShape(Vec<usize>),
    /// A fused elementwise kernel (created by the fusion pass). The
    /// kernel's extent is the broadcast of its input shapes; every input
    /// has that shape or is a trailing suffix of it, indexed `e % len`
    /// (rank-0 constants fold to immediates).
    Fused {
        /// The register program; the last instruction is the output.
        insts: Vec<FusedInst>,
        /// Number of kernel inputs.
        n_inputs: usize,
        /// `Some(dims)`: the program's value is not stored but summed
        /// onto `dims`, a trailing suffix of the kernel extent, in the
        /// order of `s4tf_tensor::ops::reduce::column_sums` — a
        /// [`HloOp::ReduceToShape`] fused onto its producer.
        reduce_to: Option<Vec<usize>>,
    },
}

/// The extent a fused kernel runs over: the broadcast of its input
/// shapes (rank 0 for a program of immediates only).
///
/// # Panics
/// Panics if the shapes are not broadcast-compatible.
pub fn fused_extent(inputs: &[&Shape]) -> Shape {
    inputs.iter().fold(Shape::scalar(), |acc, s| {
        Shape::broadcast(&acc, s).unwrap_or_else(|e| panic!("{e}"))
    })
}

impl HloOp {
    /// A short mnemonic for display/DOT.
    pub fn mnemonic(&self) -> String {
        match self {
            HloOp::Parameter(i) => format!("param{i}"),
            HloOp::Constant(t) => {
                if t.rank() == 0 {
                    format!("const {}", t.scalar_value())
                } else {
                    format!("const {}", t.shape())
                }
            }
            HloOp::Unary(u) => format!("{u:?}").to_lowercase(),
            HloOp::Binary(b) => format!("{b:?}").to_lowercase(),
            HloOp::MatMul { t_lhs, t_rhs } => match (t_lhs, t_rhs) {
                (false, false) => "matmul".into(),
                (true, false) => "matmul_tn".into(),
                (false, true) => "matmul_nt".into(),
                (true, true) => "matmul_tt".into(),
            },
            HloOp::Conv2D { .. } => "conv2d".into(),
            HloOp::Conv2DBackwardInput { .. } => "conv2d_bwd_input".into(),
            HloOp::Conv2DBackwardFilter { .. } => "conv2d_bwd_filter".into(),
            HloOp::AvgPool { .. } => "avg_pool".into(),
            HloOp::AvgPoolGrad { .. } => "avg_pool_grad".into(),
            HloOp::MaxPool { .. } => "max_pool".into(),
            HloOp::MaxPoolGrad { .. } => "max_pool_grad".into(),
            HloOp::GatherRows => "gather_rows".into(),
            HloOp::GatherRowsGrad { .. } => "gather_rows_grad".into(),
            HloOp::Reduce { kind, axis } => match axis {
                Some(a) => format!("{kind:?}[{a}]").to_lowercase(),
                None => format!("{kind:?}").to_lowercase(),
            },
            HloOp::Reshape(d) => format!("reshape{d:?}"),
            HloOp::Transpose(p) => format!("transpose{p:?}"),
            HloOp::Broadcast(d) => format!("broadcast{d:?}"),
            HloOp::ReduceToShape(d) => format!("reduce_to{d:?}"),
            HloOp::Fused {
                insts, reduce_to, ..
            } => {
                // Name the constituent ops, not just the count: error
                // attribution and trace dumps both read this.
                let ops: Vec<String> = insts
                    .iter()
                    .filter_map(|inst| match inst {
                        FusedInst::Unary(u, _) => Some(format!("{u:?}").to_lowercase()),
                        FusedInst::Binary(b, _, _) => Some(format!("{b:?}").to_lowercase()),
                        _ => None,
                    })
                    .collect();
                match reduce_to {
                    Some(d) => format!("fused[{}]→reduce_to{d:?}", ops.join(",")),
                    None => format!("fused[{}]", ops.join(",")),
                }
            }
        }
    }

    /// Coarse kernel-family name: the aggregation key for roofline and
    /// critical-path reporting (where `mnemonic()` would split hairs —
    /// and allocate — per instance).
    pub fn family(&self) -> &'static str {
        match self {
            HloOp::Parameter(_) => "param",
            HloOp::Constant(_) => "const",
            HloOp::Unary(_) | HloOp::Binary(_) => "elementwise",
            HloOp::MatMul { .. } => "matmul",
            HloOp::Conv2D { .. } => "conv2d",
            HloOp::Conv2DBackwardInput { .. } => "conv2d_bwd_input",
            HloOp::Conv2DBackwardFilter { .. } => "conv2d_bwd_filter",
            HloOp::AvgPool { .. } | HloOp::MaxPool { .. } => "pool",
            HloOp::AvgPoolGrad { .. } | HloOp::MaxPoolGrad { .. } => "pool_grad",
            HloOp::GatherRows => "gather",
            HloOp::GatherRowsGrad { .. } => "gather_grad",
            HloOp::Reduce { .. } | HloOp::ReduceToShape(_) => "reduce",
            HloOp::Reshape(_) | HloOp::Transpose(_) | HloOp::Broadcast(_) => "shape",
            HloOp::Fused { .. } => "fused",
        }
    }

    /// Infers the output shape from operand shapes.
    ///
    /// # Panics
    /// Panics on operand-count or shape mismatches — the graph builder
    /// surfaces these at trace-record time, mirroring how shape errors in
    /// the lazy backend appear when the op is recorded, not when the trace
    /// runs.
    pub fn infer_shape(&self, operands: &[&Shape]) -> Shape {
        let expect = |n: usize| {
            assert_eq!(
                operands.len(),
                n,
                "{} expects {n} operands, got {}",
                self.mnemonic(),
                operands.len()
            );
        };
        match self {
            HloOp::Parameter(_) | HloOp::Constant(_) => {
                unreachable!("leaf shapes are set at construction")
            }
            HloOp::Unary(_) => {
                expect(1);
                operands[0].clone()
            }
            HloOp::Binary(_) => {
                expect(2);
                Shape::broadcast(operands[0], operands[1]).unwrap_or_else(|e| panic!("{e}"))
            }
            HloOp::MatMul { t_lhs, t_rhs } => {
                expect(2);
                assert_eq!(operands[0].rank(), 2, "matmul lhs must be rank 2");
                assert_eq!(operands[1].rank(), 2, "matmul rhs must be rank 2");
                let (m, k1) = if *t_lhs {
                    (operands[0].dim(1), operands[0].dim(0))
                } else {
                    (operands[0].dim(0), operands[0].dim(1))
                };
                let (k2, n) = if *t_rhs {
                    (operands[1].dim(1), operands[1].dim(0))
                } else {
                    (operands[1].dim(0), operands[1].dim(1))
                };
                assert_eq!(k1, k2, "matmul inner dims differ");
                Shape::new(&[m, n])
            }
            HloOp::Conv2D { strides, padding } => {
                expect(2);
                let (i, f) = (operands[0], operands[1]);
                assert_eq!(i.rank(), 4, "conv2d input must be NHWC");
                assert_eq!(f.rank(), 4, "conv2d filter must be HWIO");
                assert_eq!(i.dim(3), f.dim(2), "conv2d channel mismatch");
                Shape::new(&[
                    i.dim(0),
                    padding.output_dim(i.dim(1), f.dim(0), strides.0),
                    padding.output_dim(i.dim(2), f.dim(1), strides.1),
                    f.dim(3),
                ])
            }
            HloOp::Conv2DBackwardInput { input_dims, .. } => {
                expect(2);
                Shape::new(input_dims)
            }
            HloOp::Conv2DBackwardFilter { filter_dims, .. } => {
                expect(2);
                Shape::new(filter_dims)
            }
            HloOp::AvgPool {
                pool,
                strides,
                padding,
            }
            | HloOp::MaxPool {
                pool,
                strides,
                padding,
            } => {
                expect(1);
                let i = operands[0];
                assert_eq!(i.rank(), 4, "pooling input must be NHWC");
                Shape::new(&[
                    i.dim(0),
                    padding.output_dim(i.dim(1), pool.0, strides.0),
                    padding.output_dim(i.dim(2), pool.1, strides.1),
                    i.dim(3),
                ])
            }
            HloOp::AvgPoolGrad { .. } | HloOp::MaxPoolGrad { .. } => {
                expect(2);
                operands[0].clone()
            }
            HloOp::GatherRows => {
                expect(2);
                let (table, indices) = (operands[0], operands[1]);
                assert!(table.rank() >= 1, "gather table must be rank >= 1");
                assert_eq!(indices.rank(), 1, "gather indices must be rank 1");
                let mut dims = vec![indices.dim(0)];
                dims.extend_from_slice(&table.dims()[1..]);
                Shape::new(&dims)
            }
            HloOp::GatherRowsGrad { table_rows } => {
                expect(2);
                let (indices, grad) = (operands[0], operands[1]);
                assert_eq!(indices.rank(), 1, "gather indices must be rank 1");
                assert_eq!(indices.dim(0), grad.dim(0), "one gradient row per index");
                let mut dims = vec![*table_rows];
                dims.extend_from_slice(&grad.dims()[1..]);
                Shape::new(&dims)
            }
            HloOp::Reduce { axis, .. } => {
                expect(1);
                match axis {
                    None => Shape::scalar(),
                    Some(a) => operands[0].removing(*a),
                }
            }
            HloOp::Reshape(dims) => {
                expect(1);
                let s = Shape::new(dims);
                assert_eq!(
                    s.num_elements(),
                    operands[0].num_elements(),
                    "reshape element count mismatch"
                );
                s
            }
            HloOp::Transpose(perm) => {
                expect(1);
                assert_eq!(perm.len(), operands[0].rank(), "transpose perm rank");
                Shape::new(&perm.iter().map(|&p| operands[0].dim(p)).collect::<Vec<_>>())
            }
            HloOp::Broadcast(dims) => {
                expect(1);
                let target = Shape::new(dims);
                let out = Shape::broadcast(operands[0], &target).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(out, target, "operand does not broadcast to {target}");
                target
            }
            HloOp::ReduceToShape(dims) => {
                expect(1);
                Shape::new(dims)
            }
            HloOp::Fused {
                n_inputs,
                reduce_to,
                ..
            } => {
                expect(*n_inputs);
                match reduce_to {
                    Some(dims) => Shape::new(dims),
                    None => fused_extent(operands),
                }
            }
        }
    }

    /// True if the op is a fusable elementwise operation.
    pub fn is_elementwise(&self) -> bool {
        matches!(self, HloOp::Unary(_) | HloOp::Binary(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_apply() {
        assert_eq!(ElemUnary::Relu.apply(-2.0), 0.0);
        assert_eq!(ElemUnary::Neg.apply(3.0), -3.0);
        assert_eq!(ElemUnary::Square.apply(3.0), 9.0);
        assert_eq!(ElemUnary::Recip.apply(4.0), 0.25);
        assert_eq!(ElemBinary::Add.apply(1.0, 2.0), 3.0);
        assert_eq!(ElemBinary::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(ElemBinary::GreaterMask.apply(3.0, 2.0), 1.0);
        assert_eq!(ElemBinary::GreaterMask.apply(1.0, 2.0), 0.0);
        assert_eq!(ElemBinary::Pow.apply(2.0, 3.0), 8.0);
    }

    #[test]
    fn shape_inference_elementwise() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[3]);
        assert_eq!(HloOp::Unary(ElemUnary::Exp).infer_shape(&[&a]), a);
        assert_eq!(HloOp::Binary(ElemBinary::Add).infer_shape(&[&a, &b]), a);
    }

    #[test]
    fn shape_inference_matmul_variants() {
        let a = Shape::new(&[5, 3]);
        let b = Shape::new(&[3, 7]);
        let mm = |tl, tr| HloOp::MatMul {
            t_lhs: tl,
            t_rhs: tr,
        };
        assert_eq!(mm(false, false).infer_shape(&[&a, &b]), Shape::new(&[5, 7]));
        assert_eq!(
            mm(true, false).infer_shape(&[&Shape::new(&[3, 5]), &b]),
            Shape::new(&[5, 7])
        );
        assert_eq!(
            mm(false, true).infer_shape(&[&a, &Shape::new(&[7, 3])]),
            Shape::new(&[5, 7])
        );
    }

    #[test]
    fn shape_inference_conv_and_pool() {
        let i = Shape::new(&[2, 28, 28, 1]);
        let f = Shape::new(&[5, 5, 1, 6]);
        let conv = HloOp::Conv2D {
            strides: (1, 1),
            padding: Padding::Same,
        };
        assert_eq!(conv.infer_shape(&[&i, &f]), Shape::new(&[2, 28, 28, 6]));
        let pool = HloOp::AvgPool {
            pool: (2, 2),
            strides: (2, 2),
            padding: Padding::Valid,
        };
        let o = Shape::new(&[2, 28, 28, 6]);
        assert_eq!(pool.infer_shape(&[&o]), Shape::new(&[2, 14, 14, 6]));
    }

    #[test]
    fn shape_inference_reduce_and_shapes() {
        let a = Shape::new(&[2, 3, 4]);
        assert_eq!(
            HloOp::Reduce {
                kind: ReduceKind::Sum,
                axis: None
            }
            .infer_shape(&[&a]),
            Shape::scalar()
        );
        assert_eq!(
            HloOp::Reduce {
                kind: ReduceKind::Max,
                axis: Some(1)
            }
            .infer_shape(&[&a]),
            Shape::new(&[2, 4])
        );
        assert_eq!(
            HloOp::Reshape(vec![6, 4]).infer_shape(&[&a]),
            Shape::new(&[6, 4])
        );
        assert_eq!(
            HloOp::Transpose(vec![2, 0, 1]).infer_shape(&[&a]),
            Shape::new(&[4, 2, 3])
        );
        assert_eq!(
            HloOp::Broadcast(vec![5, 2, 3, 4]).infer_shape(&[&a]),
            Shape::new(&[5, 2, 3, 4])
        );
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_mismatch_panics() {
        HloOp::MatMul {
            t_lhs: false,
            t_rhs: false,
        }
        .infer_shape(&[&Shape::new(&[2, 3]), &Shape::new(&[4, 5])]);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(HloOp::Parameter(2).mnemonic(), "param2");
        assert_eq!(HloOp::Unary(ElemUnary::Relu).mnemonic(), "relu");
        assert_eq!(
            HloOp::MatMul {
                t_lhs: true,
                t_rhs: false
            }
            .mnemonic(),
            "matmul_tn"
        );
        assert!(HloOp::Unary(ElemUnary::Exp).is_elementwise());
        assert!(!HloOp::Reshape(vec![1]).is_elementwise());
    }
}
