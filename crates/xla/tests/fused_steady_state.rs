//! Steady state for the fused-kernel executor: once a program has warmed
//! the pool at a length, a launch takes its output, its register rows and
//! its `reduce_to` block from the pool — no allocator call the memory
//! ledger counts, no pool miss. The first launch also compiles; both
//! suites warm through `s4tf_tensor::pool::assert_steady`, and the tensor
//! kernels' cases live in `s4tf-tensor`'s `kernel_steady_state.rs`.

use s4tf_tensor::pool::assert_steady;
use s4tf_tensor::Tensor;
use s4tf_xla::op::FusedInst::{Binary, Input, Unary};
use s4tf_xla::{eval_op, ElemBinary, ElemUnary, HloOp};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

/// `exp(x · b) + x` over `[rows, 40]` with a `[40]` bias `b`: the
/// broadcast input gets a register row, and the product a second one.
#[test]
fn register_rows_and_reduce_to_recycle() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let insts = vec![
        Input(0),
        Input(1),
        Binary(ElemBinary::Mul, 0, 1),
        Unary(ElemUnary::Exp, 2),
        Binary(ElemBinary::Add, 3, 0),
    ];
    // 3 000 rows × 40 puts the column sums past one fused grain.
    for rows in [16, 3_000] {
        let x = Tensor::<f32>::from_fn(&[rows, 40], |i| (i % 17) as f32 * 0.01);
        let b = Tensor::<f32>::from_fn(&[40], |i| i as f32 * -0.02);
        let fused = |reduce_to: Option<Vec<usize>>| HloOp::Fused {
            insts: insts.clone(),
            n_inputs: 2,
            reduce_to,
        };
        let (stored, reduced) = (fused(None), fused(Some(vec![40])));
        assert_steady(&format!("fused rows [{rows}, 40]"), || {
            eval_op(&stored, &[&x, &b])
        });
        assert_steady(&format!("fused reduce_to [{rows}, 40] -> [40]"), || {
            eval_op(&reduced, &[&x, &b])
        });
    }
}
