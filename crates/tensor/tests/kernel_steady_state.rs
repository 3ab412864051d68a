//! Steady state per kernel: once a kernel has warmed the pool at a shape,
//! a call at that shape takes every output and scratch buffer from the
//! pool. It makes no allocator call the memory ledger counts
//! (`memory_stats().allocs`) and no pool take misses (`pool::stats()`),
//! on every dispatch path a training step reaches. `pool::assert_steady`
//! says how many calls warming takes and what bounds it.

use s4tf_tensor::ops::reduce::column_sums;
use s4tf_tensor::pool::assert_steady;
use s4tf_tensor::{Padding, Tensor};
use std::sync::Mutex;

// The counters are process-global; concurrent tests would tear each
// other's baselines.
static SERIAL: Mutex<()> = Mutex::new(());

fn rand(dims: &[usize], seed: u64) -> Tensor<f32> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Tensor::rand_uniform(dims, -1.0, 1.0, &mut rng)
}

/// Every conv lowering: LeNet's first layer (one input channel: the lane
/// kernels over a padded plane), its second (the packed GEMM reading
/// patches in place, `dx` with lanes along the batch), a ResNet-8 3×3
/// (patches from a padded plane, `dx` as the convolution of `dy` with the
/// rotated filter) and its stride-2 downsampling 3×3 (`dx` by the col2im
/// scatter).
#[test]
fn conv2d_and_both_gradients() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cases = [
        (
            "single-channel",
            [4, 28, 28, 1],
            [5, 5, 1, 6],
            1,
            Padding::Same,
        ),
        ("gemm", [4, 14, 14, 6], [5, 5, 6, 16], 1, Padding::Valid),
        ("resnet", [4, 16, 16, 32], [3, 3, 32, 32], 1, Padding::Same),
        (
            "resnet /2",
            [4, 32, 32, 16],
            [3, 3, 16, 32],
            2,
            Padding::Same,
        ),
    ];
    for (path, x_dims, w_dims, s, padding) in cases {
        let (x, w) = (rand(&x_dims, 1), rand(&w_dims, 2));
        let y = x.conv2d(&w, (s, s), padding);
        let dy = rand(y.dims(), 3);
        assert_steady(&format!("conv2d {path}"), || x.conv2d(&w, (s, s), padding));
        assert_steady(&format!("conv2d dx {path}"), || {
            x.conv2d_backward_input(&w, &dy, (s, s), padding)
        });
        assert_steady(&format!("conv2d dw {path}"), || {
            x.conv2d_backward_filter(&w_dims, &dy, (s, s), padding)
        });
    }
}

/// The packed GEMM, for each operand layout, on a product that runs as one
/// inline task and on one split across the pool; and the matvec.
#[test]
fn matmul_variants() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (m, k, n) in [(4, 8, 6), (64, 96, 80)] {
        let (a, b) = (rand(&[m, k], 4), rand(&[k, n], 5));
        let (at, bt, v) = (a.t(), b.t(), b.slice_axis(1, 0, 1).reshape(&[k]));
        assert_steady("matmul", || a.matmul(&b));
        assert_steady("matmul_tn", || at.matmul_tn(&b));
        assert_steady("matmul_nt", || a.matmul_nt(&bt));
        assert_steady("matvec", || a.matvec(&v));
    }
}

#[test]
fn pooling_and_gradients() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let x = rand(&[4, 28, 28, 6], 6);
    let dy = rand(&[4, 14, 14, 6], 7);
    let (pool, strides, padding) = ((2, 2), (2, 2), Padding::Valid);
    assert_steady("avg_pool2d", || x.avg_pool2d(pool, strides, padding));
    assert_steady("avg_pool2d_backward", || {
        x.avg_pool2d_backward(&dy, pool, strides, padding)
    });
    assert_steady("max_pool2d", || x.max_pool2d(pool, strides, padding));
    assert_steady("max_pool2d_backward", || {
        x.max_pool2d_backward(&dy, pool, strides, padding)
    });
}

#[test]
fn reductions() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let x = rand(&[256, 40], 8);
    assert_steady("sum", || x.sum());
    assert_steady("max_axis", || x.max_axis(1, false));
    let src = x.as_slice();
    assert_steady("column_sums", || {
        column_sums(src.len(), 40, |range, acc| acc.push(&src[range]))
    });
}

#[test]
fn broadcast_one_hot_slice_and_transpose() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let x = rand(&[32, 16], 9);
    let bias = rand(&[16], 10);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    assert_steady("add [32,16]+[16]", || x.add(&bias));
    assert_steady("one_hot", || Tensor::<f32>::one_hot(&labels, 10));
    assert_steady("slice_axis", || x.slice_axis(1, 3, 8));
    assert_steady("transpose", || x.transpose(&[1, 0]));
}
