//! The memory subsystem must be invisible in the numbers: the buffer
//! pool and the memory planner only change where bytes live, never what
//! is computed. Neither has an off-switch, so random programs are checked
//! against references that need none:
//!
//! * **poisoned pool vs. cold pool** — the free lists are pre-loaded with
//!   NaN-filled buffers of every bucket size a program can reach, then
//!   emptied; both runs must match *bitwise*. A kernel that reads a
//!   recycled buffer before writing it computes on NaN and fails here.
//! * **devices vs. a host fold** — every backend (owned dispatch, stolen
//!   eager operands, planned in-place and fused execution) must match
//!   `xla::eval_op` applied op by op over borrowed operands, which never
//!   reuses an input buffer.
//!
//! Lives in its own integration-test binary because the pool is
//! process-wide; a mutex keeps one property's poisoned buffers out of the
//! other's runs.

use proptest::prelude::*;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::pool::give_vec;
use s4tf_tensor::{clear_pools, pool_stats, Tensor};
use s4tf_xla::{eval_op, ElemBinary, ElemUnary, HloOp, ReduceKind};
use std::sync::Mutex;

static POOL: Mutex<()> = Mutex::new(());

/// One step of a random program over two live values (subset of the
/// cross-backend consistency fuzz, plus fusion-friendly chains so the
/// planner's in-place fused path is exercised).
#[derive(Debug, Clone)]
enum Op {
    Relu,
    Tanh,
    Square,
    Neg,
    AddScalar(f32),
    MulScalar(f32),
    AddPair,
    MulPair,
    Matmul,
    Softmax,
    Observe,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Relu),
        Just(Op::Tanh),
        Just(Op::Square),
        Just(Op::Neg),
        (-2.0f32..2.0).prop_map(Op::AddScalar),
        (-1.5f32..1.5).prop_map(Op::MulScalar),
        Just(Op::AddPair),
        Just(Op::MulPair),
        Just(Op::Matmul),
        Just(Op::Softmax),
        Just(Op::Observe),
    ]
}

fn run(ops: &[Op], a0: &Tensor<f32>, b0: &Tensor<f32>, device: &Device) -> Tensor<f32> {
    let mut a = DTensor::from_tensor(a0.clone(), device);
    let b = DTensor::from_tensor(b0.clone(), device);
    for op in ops {
        a = match op {
            Op::Relu => a.relu(),
            Op::Tanh => a.tanh(),
            Op::Square => a.square(),
            Op::Neg => a.neg(),
            Op::AddScalar(s) => a.add_scalar(*s),
            Op::MulScalar(s) => a.mul_scalar(*s),
            Op::AddPair => a.add(&b),
            Op::MulPair => a.mul(&b),
            Op::Matmul => a.matmul(&b).tanh(),
            Op::Softmax => a.softmax(),
            Op::Observe => {
                let _ = a.to_tensor();
                a
            }
        };
    }
    a.to_tensor()
}

/// The same program as a fold of [`eval_op`] over host tensors, with
/// `DTensor`'s decomposition of the composite ops.
fn run_on_host(ops: &[Op], a0: &Tensor<f32>, b0: &Tensor<f32>) -> Tensor<f32> {
    let unary = |u: ElemUnary, x: &Tensor<f32>| eval_op(&HloOp::Unary(u), &[x]);
    let binary =
        |b: ElemBinary, x: &Tensor<f32>, y: &Tensor<f32>| eval_op(&HloOp::Binary(b), &[x, y]);
    let reduce_rows = |kind: ReduceKind, x: &Tensor<f32>| {
        let axis = Some(1);
        let reduced = eval_op(&HloOp::Reduce { kind, axis }, &[x]);
        eval_op(&HloOp::Reshape(vec![x.dims()[0], 1]), &[&reduced])
    };
    let mut a = a0.clone();
    for op in ops {
        a = match op {
            Op::Relu => unary(ElemUnary::Relu, &a),
            Op::Tanh => unary(ElemUnary::Tanh, &a),
            Op::Square => unary(ElemUnary::Square, &a),
            Op::Neg => unary(ElemUnary::Neg, &a),
            Op::AddScalar(s) => binary(ElemBinary::Add, &a, &Tensor::scalar(*s)),
            Op::MulScalar(s) => binary(ElemBinary::Mul, &a, &Tensor::scalar(*s)),
            Op::AddPair => binary(ElemBinary::Add, &a, b0),
            Op::MulPair => binary(ElemBinary::Mul, &a, b0),
            Op::Matmul => {
                let (t_lhs, t_rhs) = (false, false);
                let product = eval_op(&HloOp::MatMul { t_lhs, t_rhs }, &[&a, b0]);
                unary(ElemUnary::Tanh, &product)
            }
            Op::Softmax => {
                let shifted = binary(ElemBinary::Sub, &a, &reduce_rows(ReduceKind::Max, &a));
                let exps = unary(ElemUnary::Exp, &shifted);
                binary(ElemBinary::Div, &exps, &reduce_rows(ReduceKind::Sum, &exps))
            }
            Op::Observe => a,
        };
    }
    a
}

/// Parks NaN-filled `f32` buffers in every bucket from one element up to
/// 64 KiB — scalars, the 4×4 values, kernel scratch — several per bucket
/// so every take during one program finds one.
fn poison_pool() {
    clear_pools();
    for bucket in 2..=16 {
        for _ in 0..8 {
            assert!(give_vec(vec![f32::NAN; (1usize << bucket) / 4]));
        }
    }
}

fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn devices() -> [Device; 3] {
    [Device::naive(), Device::eager(), Device::lazy()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recycled_buffers_are_never_read_before_written(
        ops in proptest::collection::vec(op_strategy(), 1..10),
        a in proptest::collection::vec(-2.0f32..2.0, 16),
        b in proptest::collection::vec(-2.0f32..2.0, 16),
    ) {
        let _g = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let a0 = Tensor::from_vec(a, &[4, 4]);
        let b0 = Tensor::from_vec(b, &[4, 4]);
        for device in devices() {
            poison_pool();
            let hits = pool_stats().hits;
            let over_poison = run(&ops, &a0, &b0, &device);
            prop_assert!(pool_stats().hits > hits, "the run took no poisoned buffer");
            clear_pools();
            let cold = run(&ops, &a0, &b0, &device);
            prop_assert_eq!(
                bits(&over_poison),
                bits(&cold),
                "a recycled buffer's old contents reached a result on {}", device.kind()
            );
        }
        clear_pools();
    }

    #[test]
    fn every_backend_matches_the_host_fold(
        ops in proptest::collection::vec(op_strategy(), 1..10),
        a in proptest::collection::vec(-2.0f32..2.0, 16),
        b in proptest::collection::vec(-2.0f32..2.0, 16),
    ) {
        let _g = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let a0 = Tensor::from_vec(a, &[4, 4]);
        let b0 = Tensor::from_vec(b, &[4, 4]);
        let reference = run_on_host(&ops, &a0, &b0);
        for device in devices() {
            prop_assert_eq!(
                bits(&run(&ops, &a0, &b0, &device)),
                bits(&reference),
                "in-place and planned execution must be bit-transparent on {}", device.kind()
            );
        }
    }
}
