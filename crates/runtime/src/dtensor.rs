//! [`DTensor`]: one tensor type, three execution strategies.
//!
//! The paper's central usability claim (§3.3) is that the lazy backend
//! preserves "the illusion of eager execution": as long as the program
//! does not observe a tensor's contents, it cannot tell when an operation
//! actually executes. `DTensor` makes that concrete — the same value-
//! semantic, eagerly-shape-checked API dispatches to direct kernels, an
//! asynchronous pipeline, or a recorded trace, depending on the device the
//! data lives on.
//!
//! `DTensor` also implements the `s4tf-core` differentiable-programming
//! protocol ([`Differentiable`], [`AdditiveArithmetic`], …), so models in
//! `s4tf-nn` train unchanged on every backend.

use crate::device::Device;
use crate::eager::EagerTensor;
use crate::fault::FaultSite;
use crate::lazy::LazyTensor;
use s4tf_core::{AdditiveArithmetic, Differentiable, LossValue, VectorSpace};
use s4tf_tensor::{Padding, RuntimeError, Shape, Tensor};
use s4tf_xla::scope::{injected_fault, KernelScope};
use s4tf_xla::{ElemBinary, ElemUnary, HloOp, ReduceKind};
use std::sync::Arc;

/// A poisoned value: the shape the failed op would have produced plus
/// the attributed error that killed it.
#[derive(Debug)]
pub struct Poison {
    dims: Vec<usize>,
    error: RuntimeError,
}

/// A tensor bound to an execution device.
#[derive(Clone, Debug)]
pub enum DTensor {
    /// Materialized on the host, operated on synchronously.
    Cpu(Tensor<f32>),
    /// Pipelined on an eager device.
    Eager(EagerTensor),
    /// Recorded on a lazy device.
    Lazy(LazyTensor),
    /// Poisoned on the naive device: a kernel fault was captured and
    /// attached to the value (paper §4); it propagates through downstream
    /// ops and surfaces at an observation point. (The asynchronous
    /// devices poison inside their own handle states instead.)
    Poisoned(Arc<Poison>),
}

impl DTensor {
    // ----------------------------------------------------------- transfer

    /// Places a host tensor on `device`.
    pub fn from_tensor(t: Tensor<f32>, device: &Device) -> DTensor {
        match device {
            Device::Naive => DTensor::Cpu(t),
            Device::Eager(q) => DTensor::Eager(EagerTensor::from_host(q, t)),
            Device::Lazy(ctx) => DTensor::Lazy(LazyTensor::from_host(ctx, t)),
        }
    }

    /// Observes the contents, forcing execution on every backend.
    ///
    /// # Panics
    /// Panics with the original attributed error if the value is
    /// poisoned; [`to_tensor_checked`](DTensor::to_tensor_checked) is the
    /// non-panicking observation point.
    pub fn to_tensor(&self) -> Tensor<f32> {
        self.to_tensor_checked()
            .unwrap_or_else(|e| panic!("tensor observation failed: {e}"))
    }

    /// Observes the contents, surfacing a poisoned value as the error
    /// that originally caused it (with op/backend attribution) — the
    /// paper-§4 observation point where deferred failures become
    /// `Result`s.
    pub fn to_tensor_checked(&self) -> Result<Tensor<f32>, RuntimeError> {
        match self {
            DTensor::Cpu(t) => Ok(t.clone()),
            DTensor::Eager(t) => t.to_host_checked(),
            DTensor::Lazy(t) => t.to_host_checked(),
            DTensor::Poisoned(p) => Err(p.error.clone()),
        }
    }

    /// The device this tensor lives on.
    pub fn device(&self) -> Device {
        match self {
            DTensor::Cpu(_) | DTensor::Poisoned(_) => Device::Naive,
            DTensor::Eager(t) => Device::Eager(t.queue().clone()),
            DTensor::Lazy(t) => Device::Lazy(t.context().clone()),
        }
    }

    /// The tensor's dims (known without forcing execution).
    pub fn dims(&self) -> Vec<usize> {
        match self {
            DTensor::Cpu(t) => t.dims().to_vec(),
            DTensor::Eager(t) => t.shape().dims().to_vec(),
            DTensor::Lazy(t) => t.shape().dims().to_vec(),
            DTensor::Poisoned(p) => p.dims.clone(),
        }
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.dims().iter().product()
    }

    /// A scalar constant on this tensor's device. On the lazy device the
    /// scalar embeds into the trace as a *constant* (stable fingerprint,
    /// eligible for constant folding and fusion immediates) rather than a
    /// runtime parameter.
    pub fn scalar_like(&self, v: f32) -> DTensor {
        match self {
            DTensor::Lazy(l) => DTensor::Lazy(LazyTensor::constant_from_host(
                l.context(),
                Tensor::scalar(v),
            )),
            _ => DTensor::from_tensor(Tensor::scalar(v), &self.device()),
        }
    }

    /// A zeros tensor with this tensor's shape and device.
    pub fn zeros_like(&self) -> DTensor {
        DTensor::from_tensor(Tensor::zeros(&self.dims()), &self.device())
    }

    /// A ones tensor with this tensor's shape and device.
    pub fn ones_like(&self) -> DTensor {
        DTensor::from_tensor(Tensor::ones(&self.dims()), &self.device())
    }

    // ----------------------------------------------------------- dispatch

    /// Applies one operation, dispatching by device. Mixed-device inputs
    /// are allowed only when the extras are CPU-resident (they are
    /// transferred) — this is what lets the device-agnostic scalar
    /// [`AdditiveArithmetic::zero`] combine with any tensor.
    ///
    /// # Panics
    /// Panics on shape mismatches or genuinely mixed (eager+lazy) devices.
    pub fn apply(op: HloOp, inputs: &[&DTensor]) -> DTensor {
        // Pick the governing device: the first non-CPU one.
        let device = inputs
            .iter()
            .map(|t| t.device())
            .find(|d| !matches!(d, Device::Naive))
            .unwrap_or(Device::Naive);
        match &device {
            Device::Naive => Self::apply_naive(op, inputs),
            Device::Eager(q) => {
                let lifted: Vec<EagerTensor> = inputs
                    .iter()
                    .map(|t| match t {
                        DTensor::Eager(e) => {
                            assert!(e.queue().same_queue(q), "eager tensors must share a device");
                            e.clone()
                        }
                        DTensor::Cpu(c) => EagerTensor::from_host(q, c.clone()),
                        DTensor::Poisoned(p) => EagerTensor::poisoned(q, &p.dims, p.error.clone()),
                        DTensor::Lazy(_) => panic!("cannot mix lazy and eager tensors"),
                    })
                    .collect();
                let refs: Vec<&EagerTensor> = lifted.iter().collect();
                DTensor::Eager(EagerTensor::dispatch_op(q, op, &refs))
            }
            Device::Lazy(ctx) => {
                let lifted: Vec<LazyTensor> = inputs
                    .iter()
                    .map(|t| match t {
                        DTensor::Lazy(l) => l.clone(),
                        DTensor::Cpu(c) => LazyTensor::from_host(ctx, c.clone()),
                        DTensor::Poisoned(p) => LazyTensor::poisoned(ctx, &p.dims, p.error.clone()),
                        DTensor::Eager(_) => panic!("cannot mix eager and lazy tensors"),
                    })
                    .collect();
                let refs: Vec<&LazyTensor> = lifted.iter().collect();
                DTensor::Lazy(LazyTensor::record_op(ctx, op, &refs))
            }
        }
    }

    /// The naive (synchronous) dispatch arm, with poison propagation,
    /// injection, and kernel-panic capture.
    fn apply_naive(op: HloOp, inputs: &[&DTensor]) -> DTensor {
        let input_shapes =
            || -> Vec<Shape> { inputs.iter().map(|t| Shape::new(&t.dims())).collect() };
        // Output dims the failed op *would* have produced (poison keeps
        // the shape so downstream shape inference stays accurate).
        let infer_dims = || -> Vec<usize> {
            let shapes = input_shapes();
            let refs: Vec<&Shape> = shapes.iter().collect();
            op.infer_shape(&refs).dims().to_vec()
        };
        let poisoned = |error: RuntimeError| {
            let dims = infer_dims();
            DTensor::Poisoned(Arc::new(Poison { dims, error }))
        };
        let poison = inputs.iter().find_map(|t| match t {
            DTensor::Poisoned(p) => Some(p.error.clone()),
            _ => None,
        });
        if let Some(error) = poison {
            // Propagate the *first* error; the shape still checks out.
            return poisoned(error);
        }
        let scope = KernelScope::enqueue("naive");
        if let Some(error) = injected_fault(FaultSite::Dispatch, &op, "naive") {
            return poisoned(error);
        }
        // Operands move into the kernel: `eval_op_owned` releases each
        // buffer as soon as it is consumed, and runs elementwise kernels
        // in place when a buffer turns out to be uniquely owned.
        let tensors: Vec<Tensor<f32>> = inputs.iter().map(|t| t.to_tensor()).collect();
        let result = scope.run(
            &op,
            || s4tf_xla::eval_op_owned(&op, tensors),
            // Host values carry no producing op: the only edge is the
            // lane's, to the op before on this thread.
            || (input_shapes(), Vec::new()),
            // Nothing checked these operands before the kernel did: if
            // shape inference rejects them too, the panic was the caller's
            // shape error, and those stay synchronous (paper §4).
            || drop(infer_dims()),
        );
        match result {
            Ok((result, _)) => {
                scope.scan(&op, &result);
                DTensor::Cpu(result)
            }
            Err(error) => poisoned(error),
        }
    }

    fn unary(&self, op: ElemUnary) -> DTensor {
        DTensor::apply(HloOp::Unary(op), &[self])
    }

    fn binary(&self, op: ElemBinary, rhs: &DTensor) -> DTensor {
        DTensor::apply(HloOp::Binary(op), &[self, rhs])
    }

    // -------------------------------------------------------- elementwise

    /// Element-wise sum with broadcasting.
    pub fn add(&self, rhs: &DTensor) -> DTensor {
        self.binary(ElemBinary::Add, rhs)
    }

    /// Element-wise difference with broadcasting.
    pub fn sub(&self, rhs: &DTensor) -> DTensor {
        self.binary(ElemBinary::Sub, rhs)
    }

    /// Element-wise product with broadcasting.
    pub fn mul(&self, rhs: &DTensor) -> DTensor {
        self.binary(ElemBinary::Mul, rhs)
    }

    /// Element-wise quotient with broadcasting.
    pub fn div(&self, rhs: &DTensor) -> DTensor {
        self.binary(ElemBinary::Div, rhs)
    }

    /// Element-wise maximum with broadcasting.
    pub fn max_elements(&self, rhs: &DTensor) -> DTensor {
        self.binary(ElemBinary::Max, rhs)
    }

    /// `1.0 where self > rhs else 0.0`.
    pub fn greater_mask(&self, rhs: &DTensor) -> DTensor {
        self.binary(ElemBinary::GreaterMask, rhs)
    }

    /// Negation.
    pub fn neg(&self) -> DTensor {
        self.unary(ElemUnary::Neg)
    }

    /// ReLU.
    pub fn relu(&self) -> DTensor {
        self.unary(ElemUnary::Relu)
    }

    /// `e^x`.
    pub fn exp(&self) -> DTensor {
        self.unary(ElemUnary::Exp)
    }

    /// Natural logarithm.
    pub fn ln(&self) -> DTensor {
        self.unary(ElemUnary::Ln)
    }

    /// Square root.
    pub fn sqrt(&self) -> DTensor {
        self.unary(ElemUnary::Sqrt)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> DTensor {
        self.unary(ElemUnary::Tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> DTensor {
        self.unary(ElemUnary::Sigmoid)
    }

    /// Element-wise square.
    pub fn square(&self) -> DTensor {
        self.unary(ElemUnary::Square)
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, v: f32) -> DTensor {
        let s = self.scalar_like(v);
        self.add(&s)
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, v: f32) -> DTensor {
        let s = self.scalar_like(v);
        self.mul(&s)
    }

    /// Divides by a scalar.
    pub fn div_scalar(&self, v: f32) -> DTensor {
        let s = self.scalar_like(v);
        self.div(&s)
    }

    // ------------------------------------------------------------- linalg

    /// Matrix product `[m,k] × [k,n]`.
    pub fn matmul(&self, rhs: &DTensor) -> DTensor {
        DTensor::apply(
            HloOp::MatMul {
                t_lhs: false,
                t_rhs: false,
            },
            &[self, rhs],
        )
    }

    /// `selfᵀ × rhs`.
    pub fn matmul_tn(&self, rhs: &DTensor) -> DTensor {
        DTensor::apply(
            HloOp::MatMul {
                t_lhs: true,
                t_rhs: false,
            },
            &[self, rhs],
        )
    }

    /// `self × rhsᵀ`.
    pub fn matmul_nt(&self, rhs: &DTensor) -> DTensor {
        DTensor::apply(
            HloOp::MatMul {
                t_lhs: false,
                t_rhs: true,
            },
            &[self, rhs],
        )
    }

    // -------------------------------------------------------- conv & pool

    /// 2-D convolution (NHWC ⊛ HWIO).
    pub fn conv2d(&self, filter: &DTensor, strides: (usize, usize), padding: Padding) -> DTensor {
        DTensor::apply(HloOp::Conv2D { strides, padding }, &[self, filter])
    }

    /// Gradient of conv2d w.r.t. its input (`self` provides the input's
    /// shape).
    pub fn conv2d_backward_input(
        &self,
        filter: &DTensor,
        grad_out: &DTensor,
        strides: (usize, usize),
        padding: Padding,
    ) -> DTensor {
        DTensor::apply(
            HloOp::Conv2DBackwardInput {
                input_dims: self.dims(),
                strides,
                padding,
            },
            &[filter, grad_out],
        )
    }

    /// Gradient of conv2d w.r.t. its filter (`self` is the forward input).
    pub fn conv2d_backward_filter(
        &self,
        filter_dims: &[usize],
        grad_out: &DTensor,
        strides: (usize, usize),
        padding: Padding,
    ) -> DTensor {
        DTensor::apply(
            HloOp::Conv2DBackwardFilter {
                filter_dims: filter_dims.to_vec(),
                strides,
                padding,
            },
            &[self, grad_out],
        )
    }

    /// Average pooling.
    pub fn avg_pool2d(
        &self,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> DTensor {
        DTensor::apply(
            HloOp::AvgPool {
                pool,
                strides,
                padding,
            },
            &[self],
        )
    }

    /// Gradient of average pooling (`self` is the forward input).
    pub fn avg_pool2d_backward(
        &self,
        grad_out: &DTensor,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> DTensor {
        DTensor::apply(
            HloOp::AvgPoolGrad {
                pool,
                strides,
                padding,
            },
            &[self, grad_out],
        )
    }

    /// Max pooling.
    pub fn max_pool2d(
        &self,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> DTensor {
        DTensor::apply(
            HloOp::MaxPool {
                pool,
                strides,
                padding,
            },
            &[self],
        )
    }

    /// Gradient of max pooling (`self` is the forward input).
    pub fn max_pool2d_backward(
        &self,
        grad_out: &DTensor,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> DTensor {
        DTensor::apply(
            HloOp::MaxPoolGrad {
                pool,
                strides,
                padding,
            },
            &[self, grad_out],
        )
    }

    // ------------------------------------------------------------- gather

    /// Gathers rows of `self` (`[rows, d…]`) at `indices` (`[batch]`,
    /// float-encoded row numbers) → `[batch, d…]`. Indices travel as a
    /// runtime input, so on the lazy device per-batch index changes reuse
    /// the cached program.
    pub fn gather_rows(&self, indices: &DTensor) -> DTensor {
        DTensor::apply(HloOp::GatherRows, &[self, indices])
    }

    /// Gradient of [`DTensor::gather_rows`]: scatter-adds `grad_out`
    /// (`[batch, d…]`) at `indices` into a zero table with `self`'s row
    /// count (`self` is the forward table; only its leading dim is used).
    pub fn gather_rows_backward(&self, indices: &DTensor, grad_out: &DTensor) -> DTensor {
        DTensor::scatter_rows(self.dims()[0], indices, grad_out)
    }

    /// [`DTensor::gather_rows_backward`] from the table's row count alone:
    /// scatter-adds `grad_out` at `indices` into a zero `[table_rows, d…]`
    /// table. A pullback that keeps only the count does not hold the
    /// forward table alive, so updating the table in place does not copy
    /// it.
    pub fn scatter_rows(table_rows: usize, indices: &DTensor, grad_out: &DTensor) -> DTensor {
        DTensor::apply(HloOp::GatherRowsGrad { table_rows }, &[indices, grad_out])
    }

    // -------------------------------------------- reductions & shape ops

    /// Sum of all elements (rank-0 result).
    pub fn sum(&self) -> DTensor {
        DTensor::apply(
            HloOp::Reduce {
                kind: ReduceKind::Sum,
                axis: None,
            },
            &[self],
        )
    }

    /// Mean of all elements (rank-0 result).
    pub fn mean(&self) -> DTensor {
        DTensor::apply(
            HloOp::Reduce {
                kind: ReduceKind::Mean,
                axis: None,
            },
            &[self],
        )
    }

    /// Sum along `axis` (axis removed).
    pub fn sum_axis(&self, axis: usize) -> DTensor {
        DTensor::apply(
            HloOp::Reduce {
                kind: ReduceKind::Sum,
                axis: Some(axis),
            },
            &[self],
        )
    }

    /// Maximum along `axis`, keeping the axis with extent 1.
    pub fn max_axis_keep(&self, axis: usize) -> DTensor {
        let reduced = DTensor::apply(
            HloOp::Reduce {
                kind: ReduceKind::Max,
                axis: Some(axis),
            },
            &[self],
        );
        let mut dims = self.dims();
        dims[axis] = 1;
        reduced.reshape(&dims)
    }

    /// Reshape (same element count).
    pub fn reshape(&self, dims: &[usize]) -> DTensor {
        DTensor::apply(HloOp::Reshape(dims.to_vec()), &[self])
    }

    /// Materialized broadcast.
    pub fn broadcast_to(&self, dims: &[usize]) -> DTensor {
        DTensor::apply(HloOp::Broadcast(dims.to_vec()), &[self])
    }

    /// Sum-reduce a gradient back to `dims` (inverse of broadcast).
    pub fn reduce_to_shape(&self, dims: &[usize]) -> DTensor {
        DTensor::apply(HloOp::ReduceToShape(dims.to_vec()), &[self])
    }

    /// Dimension permutation.
    pub fn transpose(&self, perm: &[usize]) -> DTensor {
        DTensor::apply(HloOp::Transpose(perm.to_vec()), &[self])
    }

    // --------------------------------------------------------- composites

    /// Numerically stable softmax along the last axis.
    pub fn softmax(&self) -> DTensor {
        let axis = self.dims().len() - 1;
        let m = self.max_axis_keep(axis);
        let shifted = self.sub(&m);
        let exps = shifted.exp();
        let mut keep = self.dims();
        keep[axis] = 1;
        let sums = exps.sum_axis(axis).reshape(&keep);
        exps.div(&sums)
    }

    /// Numerically stable log-softmax along the last axis.
    pub fn log_softmax(&self) -> DTensor {
        let axis = self.dims().len() - 1;
        let m = self.max_axis_keep(axis);
        let shifted = self.sub(&m);
        let mut keep = self.dims();
        keep[axis] = 1;
        let log_sum = shifted.exp().sum_axis(axis).reshape(&keep).ln();
        shifted.sub(&log_sum)
    }

    // ------------------------------------------- mutable value semantics

    /// `self += alpha·rhs` — the optimizer update through a unique borrow
    /// (paper §4.2). In-place on the CPU backend; a value rebinding on the
    /// asynchronous backends (semantically identical, paper Figure 8).
    pub fn scaled_add_assign(&mut self, alpha: f32, rhs: &DTensor) {
        match (self, rhs) {
            (DTensor::Cpu(t), DTensor::Cpu(r)) => t.scaled_add_assign(alpha, r),
            (this, rhs) => {
                let update = rhs.mul_scalar(alpha);
                *this = this.add(&update);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Differentiable-programming protocol (used by s4tf-nn on every backend).
// ---------------------------------------------------------------------

impl PartialEq for DTensor {
    /// Value equality (forces execution on asynchronous backends).
    fn eq(&self, other: &Self) -> bool {
        self.to_tensor() == other.to_tensor()
    }
}

impl AdditiveArithmetic for DTensor {
    /// A device-agnostic scalar zero (broadcast on combination).
    fn zero() -> Self {
        DTensor::Cpu(Tensor::scalar(0.0))
    }

    fn adding(&self, rhs: &Self) -> Self {
        self.add(rhs)
    }

    fn subtracting(&self, rhs: &Self) -> Self {
        self.sub(rhs)
    }

    fn is_zero(&self) -> bool {
        self.to_tensor().as_slice().iter().all(|&x| x == 0.0)
    }
}

impl VectorSpace for DTensor {
    fn scaled_by(&self, factor: f64) -> Self {
        self.mul_scalar(factor as f32)
    }

    /// Computed host-side: observing the value forces materialization, so
    /// on the lazy device call this only at a natural trace cut (the
    /// training loop computes grad norms after its barrier).
    fn norm_squared(&self) -> f64 {
        self.to_tensor()
            .as_slice()
            .iter()
            .map(|&x| {
                let v = x as f64;
                v * v
            })
            .sum()
    }

    fn scale_assign(&mut self, factor: f64) {
        match self {
            // In-place on the CPU backend (copy-on-write: free when the
            // buffer is uniquely owned).
            DTensor::Cpu(t) => t.mul_scalar_assign(factor as f32),
            this => *this = this.mul_scalar(factor as f32),
        }
    }

    fn add_scaled_assign(&mut self, alpha: f64, rhs: &Self) {
        match (self, rhs) {
            (DTensor::Cpu(t), DTensor::Cpu(r)) if t.shape() == r.shape() => {
                t.scaled_add_assign(alpha as f32, r);
            }
            (this, rhs) => *this = this.adding(&rhs.scaled_by(alpha)),
        }
    }
}

impl Differentiable for DTensor {
    type TangentVector = DTensor;

    fn move_along(&mut self, direction: &DTensor) {
        self.scaled_add_assign(1.0, direction);
    }

    fn move_along_scaled(&mut self, direction: &DTensor, alpha: f64) {
        VectorSpace::add_scaled_assign(self, alpha, direction);
    }

    fn zero_tangent(&self) -> DTensor {
        self.zeros_like()
    }
}

/// A device tensor is a single leaf for collective traversal: the
/// distributed all-reduce flattens model tangents down to `DTensor`s.
impl s4tf_core::VisitTangent<DTensor> for DTensor {
    fn visit_leaves(&self, f: &mut dyn FnMut(&DTensor)) {
        f(self);
    }

    fn visit_leaves_mut(&mut self, f: &mut dyn FnMut(&mut DTensor)) {
        f(self);
    }
}

impl s4tf_core::PointwiseMath for DTensor {
    fn pointwise_mul(&self, rhs: &Self) -> Self {
        self.mul(rhs)
    }
    fn pointwise_div(&self, rhs: &Self) -> Self {
        self.div(rhs)
    }
    fn pointwise_sqrt(&self) -> Self {
        self.sqrt()
    }
    fn adding_scalar(&self, v: f64) -> Self {
        self.add_scalar(v as f32)
    }
}

impl LossValue for DTensor {
    fn unit_tangent(&self) -> DTensor {
        self.ones_like()
    }

    fn loss_value(&self) -> f64 {
        self.to_tensor().loss_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices() -> Vec<Device> {
        vec![Device::naive(), Device::eager(), Device::lazy()]
    }

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims)
    }

    #[test]
    fn same_results_on_every_device() {
        let x = t(&[1.0, -2.0, 3.0, -4.0], &[2, 2]);
        let w = t(&[1.0, 0.5, -0.5, 1.0], &[2, 2]);
        let reference = {
            let h = x.relu().matmul(&w);
            h.add(&Tensor::scalar(1.0)).tanh()
        };
        for d in devices() {
            let xd = DTensor::from_tensor(x.clone(), &d);
            let wd = DTensor::from_tensor(w.clone(), &d);
            let y = xd.relu().matmul(&wd).add_scalar(1.0).tanh();
            assert!(
                y.to_tensor().allclose(&reference, 1e-6),
                "device {} diverged",
                d.kind()
            );
        }
    }

    #[test]
    fn softmax_composite_on_every_device() {
        let x = t(&[1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let reference = x.softmax();
        let ref_log = x.log_softmax();
        for d in devices() {
            let xd = DTensor::from_tensor(x.clone(), &d);
            assert!(xd.softmax().to_tensor().allclose(&reference, 1e-6));
            assert!(xd.log_softmax().to_tensor().allclose(&ref_log, 1e-5));
        }
    }

    #[test]
    fn conv_pool_on_every_device() {
        let x = Tensor::<f32>::from_fn(&[1, 4, 4, 1], |i| i as f32);
        let f = Tensor::<f32>::ones(&[2, 2, 1, 1]);
        let reference =
            x.conv2d(&f, (1, 1), Padding::Same)
                .max_pool2d((2, 2), (2, 2), Padding::Valid);
        for d in devices() {
            let xd = DTensor::from_tensor(x.clone(), &d);
            let fd = DTensor::from_tensor(f.clone(), &d);
            let y =
                xd.conv2d(&fd, (1, 1), Padding::Same)
                    .max_pool2d((2, 2), (2, 2), Padding::Valid);
            assert_eq!(y.dims(), vec![1, 2, 2, 1]);
            assert!(y.to_tensor().allclose(&reference, 1e-6));
        }
    }

    #[test]
    fn reductions_and_shapes_on_every_device() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        for d in devices() {
            let xd = DTensor::from_tensor(x.clone(), &d);
            assert_eq!(xd.sum().to_tensor().scalar_value(), 21.0);
            assert_eq!(xd.mean().to_tensor().scalar_value(), 3.5);
            assert_eq!(xd.sum_axis(0).to_tensor().as_slice(), &[5.0, 7.0, 9.0]);
            assert_eq!(xd.max_axis_keep(1).dims(), vec![2, 1]);
            assert_eq!(xd.reshape(&[3, 2]).dims(), vec![3, 2]);
            assert_eq!(xd.transpose(&[1, 0]).dims(), vec![3, 2]);
            let b = xd.sum_axis(0).broadcast_to(&[2, 3]);
            assert_eq!(
                b.reduce_to_shape(&[3]).to_tensor().as_slice(),
                &[10.0, 14.0, 18.0]
            );
        }
    }

    #[test]
    fn backward_kernels_on_every_device() {
        let x = Tensor::<f32>::from_fn(&[1, 4, 4, 2], |i| (i as f32) * 0.1);
        let w = Tensor::<f32>::from_fn(&[3, 3, 2, 2], |i| (i as f32) * 0.01);
        let refs = {
            let y = x.conv2d(&w, (1, 1), Padding::Same);
            let dy = Tensor::ones(y.dims());
            (
                x.conv2d_backward_input(&w, &dy, (1, 1), Padding::Same),
                x.conv2d_backward_filter(w.dims(), &dy, (1, 1), Padding::Same),
            )
        };
        for d in devices() {
            let xd = DTensor::from_tensor(x.clone(), &d);
            let wd = DTensor::from_tensor(w.clone(), &d);
            let y = xd.conv2d(&wd, (1, 1), Padding::Same);
            let dy = y.ones_like();
            let dx = xd.conv2d_backward_input(&wd, &dy, (1, 1), Padding::Same);
            let dw = xd.conv2d_backward_filter(&[3, 3, 2, 2], &dy, (1, 1), Padding::Same);
            assert!(dx.to_tensor().allclose(&refs.0, 1e-5));
            assert!(dw.to_tensor().allclose(&refs.1, 1e-5));
        }
    }

    #[test]
    fn value_semantics_of_scaled_add_assign() {
        for d in devices() {
            let a = DTensor::from_tensor(t(&[1.0, 2.0], &[2]), &d);
            let mut b = a.clone();
            b.scaled_add_assign(10.0, &DTensor::from_tensor(t(&[1.0, 1.0], &[2]), &d));
            assert_eq!(
                a.to_tensor().as_slice(),
                &[1.0, 2.0],
                "{}: mutation leaked through a copy",
                d.kind()
            );
            assert_eq!(b.to_tensor().as_slice(), &[11.0, 12.0]);
        }
    }

    #[test]
    fn differentiable_protocol() {
        for d in devices() {
            let mut x = DTensor::from_tensor(t(&[1.0, 2.0], &[2]), &d);
            let g = DTensor::from_tensor(t(&[0.5, -0.5], &[2]), &d);
            x.move_along(&g.scaled_by(2.0));
            assert_eq!(x.to_tensor().as_slice(), &[2.0, 1.0]);
            assert!(x.zero_tangent().is_zero());
            assert_eq!(x.unit_tangent().to_tensor().as_slice(), &[1.0, 1.0]);
            // Device-agnostic zero combines with any device tensor.
            let z = DTensor::zero();
            assert_eq!(z.adding(&x), x);
        }
    }

    #[test]
    fn lazy_fusion_is_observable_in_cache_kernels() {
        let d = Device::lazy();
        let x = DTensor::from_tensor(t(&[1.0, -1.0, 2.0], &[3]), &d);
        // 4-op elementwise chain: fuses to one kernel on the lazy device.
        let y = x.relu().mul_scalar(2.0).add_scalar(1.0).tanh();
        let _ = y.to_tensor();
        if let Device::Lazy(ctx) = &d {
            assert_eq!(ctx.cache().stats().misses, 1);
        }
    }

    #[test]
    fn gather_and_scatter_on_every_device() {
        let table = Tensor::<f32>::from_fn(&[4, 2], |i| i as f32);
        // Indices round to the nearest row, halves away from zero: 2.5 is
        // row 3 (the last), 2.4999 row 2, −0.0 row 0.
        let idx = Tensor::from_vec(vec![2.0f32, 0.0, 2.0, 2.5, 2.4999, -0.0, 3.0], &[7]);
        for d in devices() {
            let td = DTensor::from_tensor(table.clone(), &d);
            let id = DTensor::from_tensor(idx.clone(), &d);
            let g = td.gather_rows(&id);
            assert_eq!(g.dims(), vec![7, 2]);
            assert_eq!(
                g.to_tensor().as_slice(),
                &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 4.0, 5.0, 0.0, 1.0, 6.0, 7.0],
                "{}",
                d.kind()
            );
            // Scatter-add the ones gradient back: each row counts its
            // lookups.
            let back = td.gather_rows_backward(&id, &g.ones_like());
            let bt = back.to_tensor();
            assert_eq!(bt.dims(), &[4, 2]);
            assert_eq!(
                bt.as_slice(),
                &[2.0, 2.0, 0.0, 0.0, 3.0, 3.0, 2.0, 2.0],
                "{}",
                d.kind()
            );
            // One-element rows (bias tables) take the same indices.
            let bias = DTensor::from_tensor(Tensor::from_fn(&[4, 1], |i| i as f32), &d);
            assert_eq!(
                bias.gather_rows(&id).to_tensor().as_slice(),
                &[2.0, 0.0, 2.0, 3.0, 2.0, 0.0, 3.0],
                "{}",
                d.kind()
            );
        }
    }

    #[test]
    fn lazy_gather_reuses_program_across_index_changes() {
        let d = Device::lazy();
        let table = DTensor::from_tensor(Tensor::<f32>::from_fn(&[8, 3], |i| i as f32), &d);
        for batch in [vec![0.0f32, 3.0], vec![7.0, 1.0], vec![5.0, 5.0]] {
            let idx = DTensor::from_tensor(Tensor::from_vec(batch, &[2]), &d);
            let _ = table.gather_rows(&idx).sum().to_tensor();
        }
        if let Device::Lazy(ctx) = &d {
            let stats = ctx.cache().stats();
            assert_eq!(stats.misses, 1, "index values are runtime inputs");
            assert_eq!(stats.hits, 2);
        }
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixing_lazy_and_eager_panics() {
        let a = DTensor::from_tensor(t(&[1.0], &[1]), &Device::lazy());
        let b = DTensor::from_tensor(t(&[1.0], &[1]), &Device::eager());
        let _ = a.add(&b);
    }
}
