//! Property-based tests for the tensor substrate: broadcast algebra,
//! copy-on-write invariants, shape round-trips and kernel identities.

mod common;

use common::{
    bits, broadcast_shape_pairs, column_sums_oracle, conv_case, conv_strips, materialize,
    materialized_binary, operand,
};
use proptest::prelude::*;
use s4tf_tensor::{Padding, Shape, Tensor};

/// Strategy: a small shape (rank ≤ 4, dims ≤ 5, non-empty).
fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=5, 0..=4)
}

/// Strategy: a tensor with the given dims and values in [-10, 10].
fn tensor_with(dims: Vec<usize>) -> impl Strategy<Value = Tensor<f64>> {
    let n: usize = dims.iter().product::<usize>().max(1);
    prop::collection::vec(-10.0f64..10.0, n..=n).prop_map(move |data| Tensor::from_vec(data, &dims))
}

fn arb_tensor() -> impl Strategy<Value = Tensor<f64>> {
    small_shape().prop_flat_map(tensor_with)
}

proptest! {
    // ------------------------------------------------------ broadcast algebra

    #[test]
    fn broadcast_is_commutative(a in small_shape(), b in small_shape()) {
        let sa = Shape::new(&a);
        let sb = Shape::new(&b);
        let ab = Shape::broadcast(&sa, &sb);
        let ba = Shape::broadcast(&sb, &sa);
        prop_assert_eq!(ab.is_ok(), ba.is_ok());
        if let (Ok(x), Ok(y)) = (ab, ba) {
            prop_assert_eq!(x, y);
        }
    }

    #[test]
    fn broadcast_with_self_is_identity(a in small_shape()) {
        let s = Shape::new(&a);
        prop_assert_eq!(Shape::broadcast(&s, &s).unwrap(), s);
    }

    #[test]
    fn broadcast_with_scalar_is_identity(a in small_shape()) {
        let s = Shape::new(&a);
        prop_assert_eq!(Shape::broadcast(&s, &Shape::scalar()).unwrap(), s);
    }

    #[test]
    fn flat_multi_index_round_trip(a in small_shape(), flat_seed in any::<usize>()) {
        let s = Shape::new(&a);
        let flat = flat_seed % s.num_elements().max(1);
        prop_assert_eq!(s.flat_index(&s.multi_index(flat)), flat);
    }

    // --------------------------------------------------------- value semantics

    #[test]
    fn mutation_never_observed_through_clone(t in arb_tensor(), delta in -5.0f64..5.0) {
        let before = t.clone();
        let mut mutated = t.clone();
        mutated.add_scalar_assign(delta);
        prop_assert_eq!(&t, &before, "mutation leaked through a copy");
        if delta != 0.0 && t.num_elements() > 0 {
            prop_assert!(!mutated.shares_storage_with(&t));
        }
    }

    #[test]
    fn reshape_preserves_data_and_shares_storage(t in arb_tensor()) {
        let n = t.num_elements();
        let flat = t.reshape(&[n]);
        prop_assert_eq!(flat.as_slice(), t.as_slice());
        prop_assert!(flat.shares_storage_with(&t));
    }

    // ------------------------------------------------------- kernel identities

    #[test]
    fn add_commutes(dims in small_shape(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::<f64>::randn(&dims, &mut rng);
        let b = Tensor::<f64>::randn(&dims, &mut rng);
        prop_assert!(a.add(&b).allclose(&b.add(&a), 1e-12));
    }

    #[test]
    fn sub_then_add_round_trips(t in arb_tensor(), delta in -5.0f64..5.0) {
        let d = Tensor::full(delta, t.dims());
        let round = t.sub(&d).add(&d);
        prop_assert!(round.allclose(&t, 1e-9));
    }

    #[test]
    fn relu_is_idempotent(t in arb_tensor()) {
        let r = t.relu();
        prop_assert_eq!(r.relu(), r);
    }

    #[test]
    fn softmax_rows_are_distributions(dims in prop::collection::vec(1usize..=5, 1..=3),
                                      seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t = Tensor::<f64>::randn(&dims, &mut rng);
        let s = t.softmax();
        prop_assert!(s.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
        let sums = s.sum_axis(dims.len() - 1, false);
        for &x in sums.as_slice() {
            prop_assert!((x - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sum_axis_totals_match_full_sum(t in arb_tensor()) {
        if t.rank() == 0 { return Ok(()); }
        for axis in 0..t.rank() {
            let partial = t.sum_axis(axis, false).sum().scalar_value();
            prop_assert!((partial - t.sum().scalar_value()).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_is_involutive(dims in prop::collection::vec(1usize..=5, 2..=4),
                               seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t = Tensor::<f64>::randn(&dims, &mut rng);
        prop_assert_eq!(t.t().t(), t);
    }

    #[test]
    fn matmul_identity_both_sides(n in 1usize..8, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::<f64>::randn(&[n, n], &mut rng);
        let i = Tensor::<f64>::eye(n);
        prop_assert!(a.matmul(&i).allclose(&a, 1e-12));
        prop_assert!(i.matmul(&a).allclose(&a, 1e-12));
    }

    #[test]
    fn matmul_distributes_over_add(m in 1usize..5, k in 1usize..5, n in 1usize..5,
                                   seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::<f64>::randn(&[m, k], &mut rng);
        let b = Tensor::<f64>::randn(&[k, n], &mut rng);
        let c = Tensor::<f64>::randn(&[k, n], &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-9));
    }

    #[test]
    fn pad_unpad_round_trip(t in arb_tensor(),
                            pads_seed in prop::collection::vec((0usize..3, 0usize..3), 0..=4)) {
        let pads: Vec<(usize, usize)> =
            (0..t.rank()).map(|i| *pads_seed.get(i).unwrap_or(&(0, 0))).collect();
        let p = t.pad(&pads);
        prop_assert_eq!(p.unpad(&pads), t);
    }

    #[test]
    fn concat_slice_round_trip(dims in prop::collection::vec(1usize..=4, 1..=3),
                               seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let a = Tensor::<f64>::randn(&dims, &mut rng);
        let b = Tensor::<f64>::randn(&dims, &mut rng);
        for (axis, &d) in dims.iter().enumerate() {
            let c = Tensor::concat(&[&a, &b], axis);
            prop_assert_eq!(c.slice_axis(axis, 0, d), a.clone());
            prop_assert_eq!(c.slice_axis(axis, d, d), b.clone());
        }
    }

    #[test]
    fn broadcast_to_then_reduce_is_scaling(dims in prop::collection::vec(1usize..=4, 1..=3),
                                           lead in 1usize..4, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let t = Tensor::<f64>::randn(&dims, &mut rng);
        let mut target = vec![lead];
        target.extend_from_slice(&dims);
        let b = t.broadcast_to(&target);
        let reduced = b.reduce_to_shape(&dims);
        prop_assert!(reduced.allclose(&t.mul_scalar(lead as f64), 1e-9));
    }

    // ------------------------------------------- broadcasts are never materialized

    /// The indexed broadcast kernel, its in-place forms and the
    /// run-copying `broadcast_to` against the materializing
    /// implementation they replaced: equal bits on every route, NaN
    /// operands included.
    #[test]
    fn broadcast_kernels_match_the_materializing_oracle(
        case in 0..broadcast_shape_pairs().len(),
        seed in any::<u64>(),
        nans in any::<bool>(),
    ) {
        let (da, db) = &broadcast_shape_pairs()[case];
        let a = operand(da, seed, nans);
        let b = operand(db, seed ^ 1, nans);
        let out = Shape::broadcast(a.shape(), b.shape()).unwrap();
        prop_assert_eq!(bits(&a.broadcast_to(out.dims())), bits(&materialize(&a, out.dims())));
        prop_assert_eq!(bits(&b.broadcast_to(out.dims())), bits(&materialize(&b, out.dims())));
        // Non-commutative ops, so a swapped operand order shows.
        let sub = |x: f32, y: f32| x - y;
        let got = a.zip_broadcast(&b, sub);
        prop_assert_eq!(got.dims(), out.dims());
        prop_assert_eq!(bits(&got), bits(&materialized_binary(&a, &b, sub)));
        prop_assert_eq!(bits(&a.div(&b)), bits(&materialized_binary(&a, &b, |x, y| x / y)));
        prop_assert_eq!(
            bits(&a.greater_mask(&b)),
            bits(&materialized_binary(&a, &b, |x, y| if x > y { 1.0 } else { 0.0 }))
        );
        // In place, on whichever side already has the output's shape.
        if a.shape() == &out {
            let mut t = a.clone();
            t.zip_apply_assign(&b, sub);
            prop_assert_eq!(bits(&t), bits(&got));
            prop_assert_eq!(bits(&a), bits(&operand(da, seed, nans)), "value semantics");
        }
        if b.shape() == &out {
            let mut t = b.clone();
            t.zip_apply_assign_rev(&a, sub);
            prop_assert_eq!(bits(&t), bits(&got));
        }
    }

    /// `reduce_to_shape` onto a trailing suffix and `sum_axis(0)` are the
    /// column-sum routine: equal bits with a scalar left-to-right loop
    /// over its documented chunk order.
    #[test]
    fn column_sums_follow_their_documented_order(
        rows in 0usize..=700,
        cols_ix in 0usize..7,
        seed in any::<u64>(),
        nans in any::<bool>(),
    ) {
        let cols = [1usize, 3, 6, 8, 16, 17, 600][cols_ix];
        let t = operand(&[rows, cols], seed, nans);
        let want: Vec<u32> = column_sums_oracle(t.as_slice(), cols)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        prop_assert_eq!(bits(&t.reduce_to_shape(&[cols])), want.clone());
        prop_assert_eq!(bits(&t.reduce_to_shape(&[1, cols])), want.clone());
        prop_assert_eq!(bits(&t.sum_axis(0, false)), want.clone());
        prop_assert_eq!(bits(&t.reshape(&[rows, 1, cols]).reduce_to_shape(&[cols])), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // ------------------------------------------------ conv blocks vs. strips

    /// The block kernels against the strip-at-a-time kernels they
    /// replaced, over the geometries the scratch walks, the block cut and
    /// the micro-kernel's tile and panel edges distinguish: every stride
    /// pattern and padding, `in_c` on both sides of the single-channel rule and
    /// the lane width, `out_c` across the narrow and the full panel,
    /// `out_w` across the 6-row tile, 1×1 stride-2 included, images of one
    /// block and of two unequal ones (`out_h` 27 at `out_w` 13 and ≥ 16
    /// channels), and an odd batch, so no thread count divides it.
    /// Forward and `dx` must match bit for bit — same sums, same order —
    /// and `dw`, whose reduction is now cut per block, to 1e-4 of its
    /// largest entry; a `dx` that runs as a convolution of `dy` matches the
    /// strips on the rotated problem bit for bit instead
    /// ([`assert_matches_strips`]).
    #[test]
    fn conv_blocks_match_the_strip_kernels(
        stride_ix in 0usize..3,
        same in any::<bool>(),
        k_ix in 0usize..3,
        in_c_ix in 0usize..5,
        out_c_ix in 0usize..7,
        out_w_ix in 0usize..5,
        out_h_ix in 0usize..5,
        seed in any::<u64>(),
    ) {
        let (sh, sw) = [(1usize, 1usize), (2, 2), (2, 1)][stride_ix];
        let padding = if same { Padding::Same } else { Padding::Valid };
        let k = [1usize, 3, 5][k_ix];
        let in_c = [1usize, 2, 3, 16, 17][in_c_ix];
        let out_c = [1usize, 6, 8, 9, 16, 17, 33][out_c_ix];
        let out_w = [1usize, 5, 6, 7, 13][out_w_ix];
        let out_h = [1usize, 2, 7, 9, 27][out_h_ix];
        // The input extent that yields `out` outputs.
        let extent = |out: usize, s: usize| if same { out * s } else { (out - 1) * s + k };
        let img_macs = out_h * out_w * out_c * k * k * in_c;
        let batch = (1usize << 15).div_ceil(img_macs).max(3) | 1;
        prop_assume!(batch * img_macs <= 6 << 20);
        let case = conv_case(
            [batch, extent(out_h, sh), extent(out_w, sw), in_c],
            (k, out_c),
            (sh, sw),
            padding,
            seed,
        );
        assert_matches_strips(&case);
    }

    /// The single-channel direct kernels against the same strips, over
    /// what their tiles distinguish: `out_w` across the 8-lane chunk, the
    /// 16-column forward tile and the 32-column `dx` tile, `out_c` across
    /// the 6-channel group, row strides 1 and 2, 1×1 to 5×5 kernels, both
    /// paddings and an odd batch.
    #[test]
    fn single_channel_kernels_match_the_strip_kernels(
        sh in 1usize..=2,
        same in any::<bool>(),
        k_ix in 0usize..3,
        out_c_ix in 0usize..6,
        out_w_ix in 0usize..9,
        out_h in 1usize..=9,
        seed in any::<u64>(),
    ) {
        let padding = if same { Padding::Same } else { Padding::Valid };
        let k = [1usize, 3, 5][k_ix];
        let out_c = [1usize, 5, 6, 7, 12, 13][out_c_ix];
        let out_w = [1usize, 7, 8, 9, 15, 16, 17, 28, 33][out_w_ix];
        let extent = |out: usize, s: usize| if same { out * s } else { (out - 1) * s + k };
        let img_macs = out_h * out_w * out_c * k * k;
        let batch = (1usize << 15).div_ceil(img_macs).max(3) | 1;
        let x_dims = [batch, extent(out_h, sh), extent(out_w, 1), 1];
        assert_matches_strips(&conv_case(x_dims, (k, out_c), (sh, 1), padding, seed));
    }
}

/// An input gradient with an infinite and a NaN weight: the taps the
/// strips skip at the image's edges must stay skipped (not `∞·0`), so
/// every cell matches the strips, NaNs compared as NaN.
fn assert_non_finite_dx_matches_the_strips(x_dims: [usize; 4], filter: (usize, usize)) {
    for padding in [Padding::Same, Padding::Valid] {
        let mut case = conv_case(x_dims, filter, (1, 1), padding, 9);
        case.w.as_mut_slice()[3] = f32::INFINITY;
        case.w.as_mut_slice()[40] = f32::NAN;
        let common::ConvCase {
            x, w, dy, strides, ..
        } = &case;
        let dx = x.conv2d_backward_input(w, dy, *strides, padding);
        let strips = conv_strips::backward_input(x, w, dy, *strides, padding);
        assert_eq!(
            common::float_bits(&dx),
            common::float_bits(&strips),
            "{}",
            case.label()
        );
    }
}

/// The single-channel lane kernel masks the taps outside the image.
#[test]
fn single_channel_dx_with_non_finite_weights_matches_the_strips() {
    assert_non_finite_dx_matches_the_strips([5, 12, 20, 1], (5, 6));
}

/// LeNet c2's input gradient sums only the taps inside the image (lanes
/// along the batch), so a non-finite weight needs no masking there.
#[test]
fn lenet_c2_dx_with_non_finite_weights_matches_the_strips() {
    assert_non_finite_dx_matches_the_strips([9, 14, 14, 6], (5, 16));
}

/// A ResNet-geometry input gradient, which with finite weights runs as a
/// convolution over a zero-padded `dy`: a non-finite weight sends it back
/// to the col2im scatter, which never multiplies the padding.
#[test]
fn resnet_dx_with_non_finite_weights_matches_the_strips() {
    assert_non_finite_dx_matches_the_strips([5, 16, 16, 16], (3, 16));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    // --------------------------------------------- pooling rows vs. loops

    /// The row-walking pooling kernels against the per-element loops they
    /// replaced, bit for bit: square, 1×1 and non-square windows, strides
    /// equal to the pool and overlapping (1, 1), both paddings, images of
    /// any size (so not divisible by the stride), channel counts below, at
    /// and past every lane block, in f32 and f64 — over plain values,
    /// values rounded to halves (tied maxima, ±0), and NaN/±∞ cells.
    #[test]
    fn pool_rows_match_the_loops(
        pool_ix in 0usize..4,
        overlap in any::<bool>(),
        same in any::<bool>(),
        ch_ix in 0usize..6,
        batch in 1usize..=3,
        in_h in 0usize..=10,
        in_w in 0usize..=10,
        values in 0u8..3,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pool = [(1usize, 1usize), (2, 2), (3, 3), (2, 3)][pool_ix];
        let strides = if overlap { (1, 1) } else { pool };
        let padding = if same { Padding::Same } else { Padding::Valid };
        let ch = [1usize, 3, 6, 8, 16, 17][ch_ix];
        // Valid needs the image to hold the pool; Same also pools images
        // narrower than the window, clipped on both sides.
        let extent = |k: usize, extra: usize| if same { 1 + extra } else { k + extra };
        let x_dims = [batch, extent(pool.0, in_h), extent(pool.1, in_w), ch];
        let case = common::pool_case(x_dims, pool, strides, padding, seed);
        let case = common::PoolCase {
            x: with_values(&case.x, values),
            dy: with_values(&case.dy, values),
            ..case
        };
        if wide {
            assert_pool_matches_loops(&common::PoolCase {
                x: case.x.map(f64::from),
                dy: case.dy.map(f64::from),
                pool,
                strides,
                padding,
            });
        } else {
            assert_pool_matches_loops(&case);
        }
    }
}

/// `t` as plain randn values (`values == 0`), rounded to halves so maxima
/// tie and small values become ±0 (`1`), or with every 5th cell NaN, every
/// 7th +∞ and every 11th −∞ (`2`).
fn with_values(t: &Tensor<f32>, values: u8) -> Tensor<f32> {
    let mut t = t.clone();
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        *v = match values {
            0 => *v,
            1 => (*v * 2.0).round() / 2.0,
            _ if i % 5 == 0 => f32::NAN,
            _ if i % 7 == 0 => f32::INFINITY,
            _ if i % 11 == 0 => f32::NEG_INFINITY,
            _ => *v,
        };
    }
    t
}

fn assert_pool_matches_loops<T: s4tf_tensor::Float>(case: &common::PoolCase<T>) {
    let names = ["avg", "avg dx", "max", "max dx"];
    let loops = case.run_loops();
    for ((name, got), want) in names.iter().zip(case.run()).zip(loops) {
        assert_eq!(got.dims(), want.dims(), "{name} {}", case.label());
        let (g, w) = (common::float_bits(&got), common::float_bits(&want));
        let first = g.iter().zip(&w).position(|(a, b)| a != b);
        assert!(
            first.is_none(),
            "{name} {}: first difference at {first:?}: {:?} vs {:?}",
            case.label(),
            first.map(|i| got.as_slice()[i]),
            first.map(|i| want.as_slice()[i]),
        );
    }
}

/// The pools LeNet and ResNet run, against the loops.
#[test]
fn model_pool_shapes_match_the_loops() {
    for case in common::model_pool_cases() {
        assert_pool_matches_loops(&case);
    }
}

/// Forward bit for bit and `dw` to 1e-4 of its largest entry against the
/// strip-at-a-time kernels. `dx` bit for bit too, except where it runs as
/// the forward convolution of `dy` with the rotated filter: then bit for
/// bit against the forward strips on that rotated problem, and to 1e-4 of
/// its largest entry against the strips' own `dx`, whose scatter adds the
/// same products in another order.
fn assert_matches_strips(case: &common::ConvCase) {
    let (y, dx, dw) = case.run();
    let what = case.label();
    let common::ConvCase {
        x,
        w,
        dy,
        strides,
        padding,
    } = case;
    let strips = conv_strips::forward(x, w, *strides, *padding);
    assert_eq!(y.dims(), strips.dims(), "{what}");
    assert!(bits(&y) == bits(&strips), "y {what}");
    let strips = conv_strips::backward_input(x, w, dy, *strides, *padding);
    if conv_strips::dx_runs_as_conv(w, *strides) {
        let rotated = conv_strips::backward_input_as_conv(x.dims(), w, dy, *padding);
        assert!(bits(&dx) == bits(&rotated), "dx as conv {what}");
        let scale = strips.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
        assert!(dx.allclose(&strips, 1e-4 * f64::from(scale)), "dx {what}");
    } else {
        assert!(bits(&dx) == bits(&strips), "dx {what}");
    }
    let strips = conv_strips::backward_filter(x, w.dims(), dy, *strides, *padding);
    let scale = strips.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    assert!(dw.allclose(&strips, 1e-4 * f64::from(scale)), "dw {what}");
}

/// The shapes ResNet-8 runs and the images cut into unequal blocks, in
/// both scratch layouts — fixed cases, since the property above draws a
/// multi-block geometry only now and then.
#[test]
fn resnet_conv_shapes_match_the_strip_kernels() {
    for case in common::resnet_conv_cases() {
        assert_matches_strips(&case);
    }
}
