//! Cases and oracles shared by the property, thread-count and
//! dispatch-path suites: the conv2d shape sweep, and the broadcast-kernel
//! and column-sum oracles.

// Each test binary uses its own subset.
#![allow(dead_code)]

use s4tf_tensor::{Padding, Tensor};

pub struct ConvCase {
    pub x: Tensor<f32>,
    pub w: Tensor<f32>,
    pub dy: Tensor<f32>,
    pub strides: (usize, usize),
    pub padding: Padding,
}

impl ConvCase {
    /// Forward output and both gradients.
    pub fn run(&self) -> (Tensor<f32>, Tensor<f32>, Tensor<f32>) {
        let ConvCase {
            x,
            w,
            dy,
            strides,
            padding,
        } = self;
        (
            x.conv2d(w, *strides, *padding),
            x.conv2d_backward_input(w, dy, *strides, *padding),
            x.conv2d_backward_filter(w.dims(), dy, *strides, *padding),
        )
    }

    pub fn label(&self) -> String {
        format!(
            "{:?}*{:?} /{} {:?}",
            self.x.dims(),
            self.w.dims(),
            self.strides.1,
            self.padding
        )
    }
}

pub fn randn_f32(dims: &[usize], seed: u64) -> Tensor<f32> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    Tensor::randn(dims, &mut rng)
}

/// stride ∈ {1, 2} × {Same, Valid} × `in_c` ∈ {1, 3, 6} (single-channel
/// k-major dx, odd, LeNet-c2) × `out_c` straddling the 8-wide lane and
/// the 16-column panel × `out_w` straddling the 6-row micro-tile, 5×5
/// kernels. The batch is sized so every case is past the direct-loop
/// threshold (2^15 MACs) and splits into several chunks at the kernels'
/// 2^16-MAC grain.
pub fn conv_cases() -> Vec<ConvCase> {
    const K: usize = 5;
    const IN_H: usize = 12;
    let mut cases = Vec::new();
    for stride in [1usize, 2] {
        for padding in [Padding::Same, Padding::Valid] {
            for in_c in [1usize, 3, 6] {
                for out_c in [7usize, 8, 9, 16, 17] {
                    for out_w in [5usize, 6, 7] {
                        let in_w = match padding {
                            Padding::Same => out_w * stride,
                            Padding::Valid => (out_w - 1) * stride + K,
                        };
                        let out_h = padding.output_dim(IN_H, K, stride);
                        let img_macs = out_h * out_w * out_c * K * K * in_c;
                        let batch = (1usize << 17).div_ceil(img_macs).max(4);
                        let seed = cases.len() as u64;
                        cases.push(ConvCase {
                            x: randn_f32(&[batch, IN_H, in_w, in_c], seed),
                            w: randn_f32(&[K, K, in_c, out_c], seed ^ 0x100),
                            dy: randn_f32(&[batch, out_h, out_w, out_c], seed ^ 0x200),
                            strides: (stride, stride),
                            padding,
                        });
                    }
                }
            }
        }
    }
    cases
}

// ------------------------------------------------- broadcast kernel oracles

/// `t` broadcast to `dims` the way the kernels did it before they indexed
/// broadcasts in place — a multi-index walk per output element into a
/// full-size buffer. Kept as the oracle the run-copying `broadcast_to`
/// and the non-materializing binary kernel are compared against.
pub fn materialize(t: &Tensor<f32>, dims: &[usize]) -> Tensor<f32> {
    let target = s4tf_tensor::Shape::new(dims);
    let offset = dims.len() - t.rank();
    let strides = t.shape().strides();
    Tensor::from_fn(dims, |flat| {
        let index = target.multi_index(flat);
        let src: usize = (0..t.rank())
            .map(|j| match t.dims()[j] {
                1 => 0,
                _ => index[j + offset] * strides[j],
            })
            .sum();
        t.as_slice()[src]
    })
}

/// `f` over both operands materialized at the broadcast shape.
pub fn materialized_binary(
    a: &Tensor<f32>,
    b: &Tensor<f32>,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Tensor<f32> {
    let out = s4tf_tensor::Shape::broadcast(a.shape(), b.shape()).expect("compatible operands");
    materialize(a, out.dims()).zip_map(&materialize(b, out.dims()), f)
}

/// Operand-shape pairs covering every route of the broadcasting kernel:
/// a trailing suffix of `c` channels (below, at and past the lane width
/// and the tile period) under outer extents on both sides of the
/// parallel grain, a leading `[B,1]` column, a two-sided pair for the
/// stride walk, one-element operands, and zero-extent dims.
pub fn broadcast_shape_pairs() -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut pairs = Vec::new();
    for c in [1usize, 3, 6, 8, 16, 17] {
        for outer in [[1usize, 5], [3, 7], [40, 61]] {
            pairs.push((vec![outer[0], outer[1], c], vec![c]));
            pairs.push((vec![1, c], vec![outer[0], outer[1], c]));
        }
    }
    pairs.push((vec![4, 300], vec![300]));
    pairs.push((vec![2, 3, 700], vec![3, 700]));
    for (b, k) in [(5usize, 1usize), (7, 10), (900, 9)] {
        pairs.push((vec![b, k], vec![b, 1]));
        pairs.push((vec![b, 1], vec![b, k]));
    }
    pairs.push((vec![2, 3, 4, 5], vec![2, 3, 1, 1]));
    pairs.push((vec![3, 1], vec![1, 4]));
    pairs.push((vec![70, 1, 9], vec![1, 80, 1]));
    pairs.push((vec![4, 1, 3], vec![4, 2, 3]));
    pairs.push((vec![6, 7], vec![]));
    pairs.push((vec![], vec![5000]));
    pairs.push((vec![1, 1], vec![3]));
    pairs.push((vec![0, 3], vec![3]));
    pairs.push((vec![2, 0], vec![2, 1]));
    pairs.push((vec![3, 0, 2], vec![1, 2]));
    pairs
}

/// A tensor of `dims` with every 7th element NaN when `nans` is set.
pub fn operand(dims: &[usize], seed: u64, nans: bool) -> Tensor<f32> {
    let mut t = randn_f32(dims, seed);
    if nans {
        for x in t.as_mut_slice().iter_mut().step_by(7) {
            *x = f32::NAN;
        }
    }
    t
}

/// Bit patterns, for comparisons that must tell `-0.0` from `0.0` and
/// treat a NaN as equal to itself.
pub fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `column_sums`' documented order, spelled out: rows in chunks of
/// `max(8, 4096 / cols)`, each chunk summed top to bottom from zero,
/// chunk partials added in order onto zero — one scalar loop.
pub fn column_sums_oracle(xs: &[f32], cols: usize) -> Vec<f32> {
    let chunk_rows = (4096 / cols.max(1)).max(8);
    let mut total = vec![0.0f32; cols];
    for chunk in xs.chunks(chunk_rows * cols) {
        let mut partial = vec![0.0f32; cols];
        for row in chunk.chunks(cols) {
            for (p, &x) in partial.iter_mut().zip(row) {
                *p += x;
            }
        }
        for (t, &p) in total.iter_mut().zip(&partial) {
            *t += p;
        }
    }
    total
}
