//! Scalar-vs-SIMD consistency for every kernel the lane engine rewrote.
//!
//! The dispatch contract (`s4tf_tensor::simd` module docs, DESIGN.md
//! §6g):
//!
//! - Elementwise maps/zips/assigns, fused-loop bodies, axis reductions
//!   and `max`/`min` are **bit-identical** across dispatch paths — the
//!   lane path only changes codegen (`vectorize` is a target-feature
//!   wrapper), never the arithmetic order.
//! - GEMM (all matmul variants), `matvec` and `conv2d` use fused
//!   multiply-add accumulators on the lane path, so f32 results may
//!   differ from the scalar reference by FMA rounding (bounded here
//!   relative to operand magnitude) — but each path is individually
//!   deterministic and thread-count invariant.
//! - `sum`/`dot` use a fixed lane-striped combine order on the SIMD path
//!   (different from the scalar left-to-right order), so they carry the
//!   same rounding tolerance.
//! - Integer and f64 tensors never take the lane path: results are the
//!   same code path, hence exactly equal.
//!
//! Sizes deliberately straddle the kernel geometry: the 8-wide lane
//! (n = 7, 8, 9), the 16-wide GEMM panel (n = 15, 16, 17), and the
//! 6-row micro-tile (m = 5, 6, 7), plus every comparison runs under a
//! 1-thread and a 4-thread pool. The dispatch switch and the pool are
//! process-global, so each comparison holds a mutex.

mod common;

use common::{bits, broadcast_shape_pairs, operand, randn_f32};
use proptest::prelude::*;
use s4tf_tensor::{set_simd_enabled, simd_supported, Padding, Tensor};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes every dispatch-path / thread-count flip in this binary.
fn dispatch_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f` on the scalar path and on the SIMD path (when the CPU has
/// it), at the given pool width; restores SIMD-on and 1 thread.
fn scalar_vs_simd<R>(threads: usize, f: impl Fn() -> R) -> (R, R) {
    let _guard = dispatch_lock();
    s4tf_threads::set_num_threads(threads);
    set_simd_enabled(false);
    let scalar = f();
    set_simd_enabled(true); // no-op on CPUs without the features
    let simd = f();
    s4tf_threads::set_num_threads(1);
    (scalar, simd)
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

/// Relative FMA-rounding bound: `k` products of randn values per output.
fn fma_tol(k: usize) -> f64 {
    1e-5 * (k as f64).sqrt().max(1.0)
}

fn assert_close(scalar: &Tensor<f32>, simd: &Tensor<f32>, k: usize, what: &str) {
    let scale = scalar.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    assert!(
        scalar.allclose(simd, fma_tol(k) * f64::from(scale)),
        "{what}: scalar and simd paths diverged beyond FMA tolerance"
    );
}

/// Remainder sweep: every matmul variant at sizes straddling the lane
/// width (8), the packed-panel width (16) and both micro-tile heights
/// (scalar 4, simd 6), under 1 and 4 threads.
#[test]
fn gemm_remainders_match_scalar_reference() {
    for &threads in &[1usize, 4] {
        for &m in &[1usize, 5, 6, 7, 13] {
            for &k in &[1usize, 7, 9, 33] {
                for &n in &[1usize, 7, 8, 9, 15, 16, 17, 31, 33] {
                    let a = randn_f32(&[m, k], (m * 31 + k * 7 + n) as u64);
                    let b = randn_f32(&[k, n], (m + k + n * 13) as u64);
                    let at = randn_f32(&[k, m], (m * 3 + n) as u64);
                    let bt = randn_f32(&[n, k], (k * 5 + m) as u64);
                    let (s, v) = scalar_vs_simd(threads, || {
                        (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt))
                    });
                    let what = format!("matmul {m}x{k}x{n} @{threads}T");
                    assert_close(&s.0, &v.0, k, &what);
                    assert_close(&s.1, &v.1, k, &format!("tn {what}"));
                    assert_close(&s.2, &v.2, k, &format!("nt {what}"));
                }
            }
        }
    }
}

/// conv2d and both gradients (the GEMM lowering and the single-channel
/// kernels), over the shared shape sweep, under 1 and 4 threads: the lane
/// kernels differ from the scalar reference by FMA rounding only, bounded
/// by each output's product count.
#[test]
fn conv2d_paths_agree() {
    for case in common::conv_cases() {
        let (kdim, out_c) = (case.w.num_elements() / case.w.dims()[3], case.w.dims()[3]);
        let positions = case.dy.num_elements() / out_c;
        for &threads in &[1usize, 4] {
            let (s, v) = scalar_vs_simd(threads, || case.run());
            let what = format!("{} @{threads}T", case.label());
            assert_close(&s.0, &v.0, kdim, &format!("y {what}"));
            assert_close(&s.1, &v.1, kdim * out_c, &format!("dx {what}"));
            assert_close(&s.2, &v.2, positions, &format!("dw {what}"));
        }
    }
}

/// Elementwise kernels at sizes straddling the lane width and the
/// parallel grain: bit-identical across paths by contract.
#[test]
fn elementwise_remainders_bit_identical() {
    for &threads in &[1usize, 4] {
        for &n in &[1usize, 7, 8, 9, 15, 17, 4095, 4097, 8193] {
            let a = randn_f32(&[n], n as u64);
            let b = randn_f32(&[n], (n ^ 1) as u64);
            let (s, v) = scalar_vs_simd(threads, || {
                let mapped = a.map(|x| x.mul_add(0.25, -1.5));
                let zipped = a.mul(&b);
                let mut assigned = a.clone();
                assigned.scaled_add_assign(0.5, &b);
                (mapped, zipped, assigned)
            });
            assert_eq!(s.0.as_slice(), v.0.as_slice(), "map n={n} @{threads}T");
            assert_eq!(s.1.as_slice(), v.1.as_slice(), "zip n={n} @{threads}T");
            assert_eq!(s.2.as_slice(), v.2.as_slice(), "assign n={n} @{threads}T");
        }
    }
}

/// Broadcasting kernels on every route, `broadcast_to` and column sums:
/// `vectorize` only changes their codegen, never the per-element
/// arithmetic or a column's summation order — bit-identical across paths.
#[test]
fn broadcast_kernels_and_column_sums_bit_identical() {
    for &threads in &[1usize, 2] {
        for (case, (da, db)) in broadcast_shape_pairs().into_iter().enumerate() {
            let a = operand(&da, case as u64, case % 2 == 0);
            let b = operand(&db, case as u64 ^ 0x33, false);
            let (s, v) = scalar_vs_simd(threads, || {
                let out = a.sub(&b);
                let mut right = b.broadcast_to(out.dims());
                right.zip_apply_assign_rev(&a, |x, y| x - y);
                (bits(&out), bits(&right), bits(&out.reduce_to_shape(&db)))
            });
            assert_eq!(s, v, "{da:?} - {db:?} @{threads}T");
            assert_eq!(s.0, s.1, "in place differs: {da:?} - {db:?}");
        }
    }
}

/// The pooling kernels and their gradients on the pools LeNet and ResNet
/// run: adds, multiplies, comparisons and selects only, so the two
/// dispatch paths agree bit for bit.
#[test]
fn pooling_bit_identical() {
    for case in common::model_pool_cases() {
        let (s, v) = scalar_vs_simd(1, || case.run().map(|t| bits(&t)));
        assert_eq!(s, v, "{}", case.label());
    }
}

/// Reductions at lane-remainder and stripe-remainder sizes (the SIMD
/// `sum` walks 32-element stripes with 4 accumulators): `sum`/`dot`
/// within rounding tolerance, `max`/`min`/argmax and axis reductions
/// bit-identical.
#[test]
fn reduction_remainders_follow_contract() {
    for &threads in &[1usize, 4] {
        for &n in &[1usize, 7, 8, 9, 31, 32, 33, 63, 65, 4097] {
            let a = randn_f32(&[n], n as u64 + 100);
            let b = randn_f32(&[n], n as u64 + 200);
            let (s, v) = scalar_vs_simd(threads, || {
                (
                    a.sum().scalar_value(),
                    a.dot(&b),
                    a.max().scalar_value(),
                    a.min().scalar_value(),
                )
            });
            let scale: f32 = a.as_slice().iter().map(|x| x.abs()).sum::<f32>() + 1.0;
            assert!(
                (s.0 - v.0).abs() <= 1e-5 * scale,
                "sum n={n} @{threads}T diverged"
            );
            assert!(
                (s.1 - v.1).abs() <= 4e-5 * scale,
                "dot n={n} @{threads}T diverged"
            );
            assert_eq!(s.2, v.2, "max n={n} @{threads}T");
            assert_eq!(s.3, v.3, "min n={n} @{threads}T");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Spans the packed GEMM's one-chunk size (2^16 MACs).
    #[test]
    fn matmul_paths_agree(m in 1usize..=48, k in 1usize..=64,
                          n in 1usize..=48, threads in 1usize..=4,
                          seed in any::<u64>()) {
        let a = randn_f32(&[m, k], seed);
        let b = randn_f32(&[k, n], seed ^ 1);
        let (s, v) = scalar_vs_simd(threads, || a.matmul(&b));
        let scale = s.as_slice().iter().fold(1.0f32, |acc, x| acc.max(x.abs()));
        prop_assert!(s.allclose(&v, fma_tol(k) * f64::from(scale)),
                     "matmul paths diverged beyond FMA tolerance");
    }

    #[test]
    fn matmul_i32_paths_exact(m in 1usize..=24, k in 1usize..=32,
                              n in 1usize..=24, seed in any::<u64>()) {
        let a = randi(&[m, k], seed);
        let b = randi(&[k, n], seed ^ 1);
        let (s, v) = scalar_vs_simd(1, || a.matmul(&b));
        prop_assert_eq!(s.as_slice(), v.as_slice());
    }

    #[test]
    fn matvec_paths_agree(m in 1usize..=80, k in 1usize..=128,
                          threads in 1usize..=4, seed in any::<u64>()) {
        let a = randn_f32(&[m, k], seed);
        let x = randn_f32(&[k], seed ^ 1);
        let (s, v) = scalar_vs_simd(threads, || a.matvec(&x));
        let scale = s.as_slice().iter().fold(1.0f32, |acc, y| acc.max(y.abs()));
        prop_assert!(s.allclose(&v, fma_tol(k) * f64::from(scale)),
                     "matvec paths diverged beyond FMA tolerance");
    }

    // Small geometries, down to a few hundred MACs; out_c straddles both
    // the lane width and the GEMM's narrow 6×8 panel.
    #[test]
    fn conv2d_small_paths_agree(batch in 1usize..=2, hw in 5usize..=12,
                                in_c in 1usize..=4, out_c in 1usize..=9,
                                threads in 1usize..=4, seed in any::<u64>()) {
        let x = randn_f32(&[batch, hw, hw, in_c], seed);
        let w = randn_f32(&[3, 3, in_c, out_c], seed ^ 1);
        let (s, v) = scalar_vs_simd(threads, || {
            x.conv2d(&w, (1, 1), Padding::Same)
        });
        let k = 9 * in_c;
        let scale = s.as_slice().iter().fold(1.0f32, |acc, y| acc.max(y.abs()));
        prop_assert!(s.allclose(&v, fma_tol(k) * f64::from(scale)),
                     "conv2d paths diverged beyond FMA tolerance");
    }

    // Axis reductions keep their k-order on both paths: bit-identical.
    #[test]
    fn axis_reductions_paths_bit_identical(rows in 1usize..=40, cols in 1usize..=100,
                                           seed in any::<u64>()) {
        let t = randn_f32(&[rows, cols], seed);
        let (s, v) = scalar_vs_simd(1, || {
            (t.sum_axis(0, false), t.sum_axis(1, false), t.argmax_axis(1))
        });
        prop_assert_eq!(s.0.as_slice(), v.0.as_slice());
        prop_assert_eq!(s.1.as_slice(), v.1.as_slice());
        prop_assert_eq!(s.2.as_slice(), v.2.as_slice());
    }

    // f64 never takes the lane path: exactly equal by construction.
    #[test]
    fn f64_paths_exact(n in 1usize..=5000, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::<f64>::randn(&[n], &mut rng);
        let (s, v) = scalar_vs_simd(1, || {
            (a.map(|x| x * 1.5 + 0.5), a.sum().scalar_value())
        });
        prop_assert_eq!(s.0.as_slice(), v.0.as_slice());
        prop_assert_eq!(s.1, v.1);
    }
}

/// `simd_supported()` and the dispatch switch agree: forcing the path on
/// only reports SIMD when the CPU actually has the features.
#[test]
fn dispatch_respects_cpu_support() {
    let _guard = dispatch_lock();
    set_simd_enabled(true);
    assert_eq!(s4tf_tensor::simd_enabled(), simd_supported());
    assert_eq!(
        s4tf_tensor::path_label(),
        if simd_supported() { "simd8" } else { "scalar" }
    );
    assert_eq!(
        s4tf_tensor::lane_width(),
        if simd_supported() { 8 } else { 1 }
    );
    set_simd_enabled(false);
    assert_eq!(s4tf_tensor::path_label(), "scalar");
    assert_eq!(s4tf_tensor::lane_width(), 1);
    set_simd_enabled(true);
}
