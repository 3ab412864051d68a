//! Thread-count consistency for every parallelized kernel: each property
//! computes the same op with the pool pinned to 1 thread and to 4 threads
//! (the convolutions also to 2) and compares.
//!
//! The determinism contract (DESIGN.md §"CPU parallelism"):
//!
//! - GEMM (all matmul variants), conv2d forward, conv2d_backward_input,
//!   elementwise maps and axis reductions are **bit-identical** across
//!   thread counts — the parallel split never reorders any per-element
//!   summation.
//! - Broadcasting binary kernels, `broadcast_to` and column sums
//!   (`reduce_to_shape` onto a trailing suffix, `sum_axis(0)`) are
//!   **bit-identical** too: the column-sum chunking is fixed by the shape,
//!   not by the pool width.
//! - Full reductions (`sum`, `dot`) and `conv2d_backward_filter` combine
//!   per-chunk partials, so f32 results may differ by rounding (bounded
//!   here by a tolerance scaled to the magnitude of the operands) while
//!   integer results stay exact (integer addition is associative).
//!
//! The pool's thread count is process-global, so every comparison holds
//! one mutex across its thread-count flips.

mod common;

use common::{bits, broadcast_shape_pairs, column_sums_oracle, operand, randn_f32};
use proptest::prelude::*;
use s4tf_tensor::Tensor;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes every `set_num_threads` flip in this test binary.
fn pool_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f` single-threaded, then with a 4-thread pool; restores 1.
fn one_vs_four<R>(f: impl Fn() -> R) -> (R, R) {
    let _guard = pool_lock();
    s4tf_threads::set_num_threads(1);
    let serial = f();
    s4tf_threads::set_num_threads(4);
    let parallel = f();
    s4tf_threads::set_num_threads(1);
    (serial, parallel)
}

fn randi(dims: &[usize], seed: u64) -> Tensor<i32> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let n: usize = dims.iter().product();
    let data: Vec<i32> = Tensor::<f32>::randn(&[n.max(1)], &mut rng)
        .as_slice()
        .iter()
        .map(|&v| (v * 100.0) as i32)
        .collect();
    Tensor::from_vec(data, dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Spans the packed GEMM's one-task size (2^16 multiply-accumulates,
    // about 40^3), so products that run inline and products split across
    // the pool both get compared.
    #[test]
    fn matmul_variants_bit_identical(m in 16usize..=48, k in 16usize..=64,
                                     n in 16usize..=48, seed in any::<u64>()) {
        let a = randn_f32(&[m, k], seed);
        let b = randn_f32(&[k, n], seed ^ 1);
        let at = randn_f32(&[k, m], seed ^ 2);
        let bt = randn_f32(&[n, k], seed ^ 3);
        let (s, p) = one_vs_four(|| {
            (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt))
        });
        prop_assert_eq!(s.0.as_slice(), p.0.as_slice());
        prop_assert_eq!(s.1.as_slice(), p.1.as_slice());
        prop_assert_eq!(s.2.as_slice(), p.2.as_slice());
    }

    #[test]
    fn matmul_i32_bit_identical(m in 16usize..=48, k in 16usize..=64,
                                n in 16usize..=48, seed in any::<u64>()) {
        let a = randi(&[m, k], seed);
        let b = randi(&[k, n], seed ^ 1);
        let (s, p) = one_vs_four(|| a.matmul(&b));
        prop_assert_eq!(s.as_slice(), p.as_slice());
    }

    #[test]
    fn matvec_bit_identical(m in 64usize..=300, k in 16usize..=128,
                            seed in any::<u64>()) {
        let a = randn_f32(&[m, k], seed);
        let v = randn_f32(&[k], seed ^ 1);
        let (s, p) = one_vs_four(|| a.matvec(&v));
        prop_assert_eq!(s.as_slice(), p.as_slice());
    }

    // Spans ELEMWISE_GRAIN = 4096.
    #[test]
    fn elementwise_bit_identical(n in 1usize..=12_000, seed in any::<u64>()) {
        let a = randn_f32(&[n], seed);
        let b = randn_f32(&[n], seed ^ 1);
        let (s, p) = one_vs_four(|| {
            let mapped = a.map(|v| v.mul_add(0.25, -1.5));
            let zipped = a.mul(&b);
            let mut assigned = a.clone();
            assigned.scaled_add_assign(0.5, &b);
            (mapped, zipped, assigned)
        });
        prop_assert_eq!(s.0.as_slice(), p.0.as_slice());
        prop_assert_eq!(s.1.as_slice(), p.1.as_slice());
        prop_assert_eq!(s.2.as_slice(), p.2.as_slice());
    }

    // Spans REDUCE_GRAIN = 4096.
    #[test]
    fn axis_reductions_bit_identical(rows in 2usize..=40, cols in 2usize..=200,
                                     seed in any::<u64>()) {
        let t = randn_f32(&[rows, cols], seed);
        let (s, p) = one_vs_four(|| {
            (t.sum_axis(0, false), t.sum_axis(1, false), t.argmax_axis(1))
        });
        prop_assert_eq!(s.0.as_slice(), p.0.as_slice());
        prop_assert_eq!(s.1.as_slice(), p.1.as_slice());
        prop_assert_eq!(s.2.as_slice(), p.2.as_slice());
    }

    #[test]
    fn full_reductions_within_tolerance(n in 1usize..=20_000, seed in any::<u64>()) {
        let a = randn_f32(&[n], seed);
        let b = randn_f32(&[n], seed ^ 1);
        let (s, p) = one_vs_four(|| {
            (a.sum().scalar_value(), a.dot(&b), a.max().scalar_value())
        });
        // Chunk-order rounding, bounded relative to operand magnitude.
        let scale: f32 = a.as_slice().iter().map(|v| v.abs()).sum::<f32>() + 1.0;
        prop_assert!((s.0 - p.0).abs() <= 1e-5 * scale, "sum diverged");
        prop_assert!((s.1 - p.1).abs() <= 1e-5 * scale * 4.0, "dot diverged");
        // max is exact: combining maxima is associative.
        prop_assert_eq!(s.2, p.2);
    }

    #[test]
    fn integer_full_sum_exact(n in 1usize..=20_000, seed in any::<u64>()) {
        let a = randi(&[n], seed);
        let (s, p) = one_vs_four(|| a.sum().scalar_value());
        prop_assert_eq!(s, p);
    }
}

/// conv2d and both gradients on the GEMM path, over the shared shape
/// sweep (every stride, padding, channel width and strip length the
/// im2col / col2im walks and the micro-kernel tiles distinguish).
/// Broadcasting kernels (every route, out of place and in place),
/// `broadcast_to` and the column-sum routine: bit-identical at 1 and 4
/// threads — each output element has one writer, and column sums add
/// fixed chunks in chunk order whatever the pool width.
#[test]
fn broadcast_kernels_and_column_sums_bit_identical() {
    for (case, (da, db)) in broadcast_shape_pairs().into_iter().enumerate() {
        let a = operand(&da, case as u64, case % 2 == 1);
        let b = operand(&db, case as u64 ^ 0x55, false);
        let (s, p) = one_vs_four(|| {
            let out = a.div(&b);
            let mut left = a.broadcast_to(out.dims());
            left.zip_apply_assign(&b, |x, y| x / y);
            (bits(&out), bits(&left), bits(&out.reduce_to_shape(&db)))
        });
        assert_eq!(s, p, "{da:?} / {db:?}");
        assert_eq!(
            s.0, s.1,
            "in place differs from out of place: {da:?} / {db:?}"
        );
    }
    // Past several column-sum chunks and the parallel grain.
    for cols in [1usize, 3, 16, 17, 600] {
        let t = operand(&[9000 / cols.min(90), cols], cols as u64, false);
        let (s, p) = one_vs_four(|| bits(&t.reduce_to_shape(&[cols])));
        assert_eq!(s, p, "column sums, cols={cols}");
        let want: Vec<u32> = column_sums_oracle(t.as_slice(), cols)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(s, want, "column sums vs oracle, cols={cols}");
    }
}

/// The pooling kernels and their gradients on the pools LeNet and ResNet
/// run: bit-identical at 1 and 4 threads.
#[test]
fn pooling_bit_identical() {
    for case in common::model_pool_cases() {
        let (s, p) = one_vs_four(|| case.run().map(|t| bits(&t)));
        assert_eq!(s, p, "{}", case.label());
    }
}

/// conv2d and both gradients over the shared shape sweep at 1, 2 and 4
/// threads (2 is what the ResNet step benchmark runs).
#[test]
fn conv2d_and_gradients_consistent() {
    let _guard = pool_lock();
    for case in common::conv_cases() {
        s4tf_threads::set_num_threads(1);
        let s = case.run();
        for threads in [2usize, 4] {
            s4tf_threads::set_num_threads(threads);
            let p = case.run();
            let what = format!("{} @{threads}T", case.label());
            // Forward and input gradient never reorder a summation.
            assert_eq!(s.0.as_slice(), p.0.as_slice(), "y {what}");
            assert_eq!(s.1.as_slice(), p.1.as_slice(), "dx {what}");
            // Filter gradient combines per-task partials: relative tolerance
            // (allclose is absolute; dw entries accumulate batch*out_h*out_w
            // products, so scale 1e-5 by the gradient's own magnitude).
            let scale = s.2.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            assert!(
                s.2.allclose(&p.2, 1e-5 * f64::from(scale)),
                "dw {what} diverged beyond relative 1e-5"
            );
        }
    }
    s4tf_threads::set_num_threads(1);
}

/// LeNet's first convolution on the single-channel direct kernels: the
/// forward output and the input gradient bit-identical at 1, 2, 3 and 4
/// threads (each image's outputs are computed whole by one task), the
/// filter gradient within rounding of the task partials.
#[test]
fn lenet_c1_bit_identical_at_one_to_four_threads() {
    let _guard = pool_lock();
    let case = common::conv_case(
        [16, 28, 28, 1],
        (5, 6),
        (1, 1),
        s4tf_tensor::Padding::Same,
        7,
    );
    s4tf_threads::set_num_threads(1);
    let (y, dx, dw) = case.run();
    for threads in 2..=4 {
        s4tf_threads::set_num_threads(threads);
        let p = case.run();
        assert_eq!(bits(&y), bits(&p.0), "y @{threads}T");
        assert_eq!(bits(&dx), bits(&p.1), "dx @{threads}T");
        let scale = dw.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        assert!(dw.allclose(&p.2, 1e-5 * f64::from(scale)), "dw @{threads}T");
    }
    s4tf_threads::set_num_threads(1);
}

/// A layer of 8 × 8 images — each image one block — still splits evenly:
/// the forward conv of ResNet-8's last stage at 2 threads runs as 2 tasks
/// (one handed to the pool, one on the caller), never inline.
#[test]
fn whole_image_blocks_still_split_across_two_threads() {
    let _guard = pool_lock();
    let case = common::conv_case(
        [16, 8, 8, 64],
        (3, 64),
        (1, 1),
        s4tf_tensor::Padding::Same,
        1,
    );
    s4tf_threads::set_num_threads(2);
    let before = s4tf_threads::pool_stats();
    let y = case.x.conv2d(&case.w, case.strides, case.padding);
    let after = s4tf_threads::pool_stats();
    s4tf_threads::set_num_threads(1);
    assert_eq!(y.dims(), [16, 8, 8, 64]);
    assert_eq!(after.chunks_dispatched - before.chunks_dispatched, 1);
    assert_eq!(after.inline_runs, before.inline_runs);
}

/// The 4-thread halves above must actually split work: pin the pool to 4
/// threads and check the chunking decision for a post-grain size.
#[test]
fn four_thread_runs_exercise_the_pool() {
    let _guard = pool_lock();
    s4tf_threads::set_num_threads(4);
    assert!(s4tf_threads::effective_chunks(20_000, 4096) > 1);
    assert_eq!(s4tf_threads::effective_chunks(64, 4096), 1);
    s4tf_threads::set_num_threads(1);
}
