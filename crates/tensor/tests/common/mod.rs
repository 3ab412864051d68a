//! Cases and oracles shared by the property, thread-count and
//! dispatch-path suites: the conv2d shape sweep and the strip-at-a-time
//! conv kernels the block kernels replaced, the models' pooling shapes and
//! the per-element pooling loops the row walks replaced, and the
//! broadcast-kernel and column-sum oracles.

// Each test binary uses its own subset.
#![allow(dead_code)]

use s4tf_tensor::{Float, Padding, Tensor};

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

/// One case: `x` of `x_dims` ⊛ a `k × k` filter to `out_c` channels, with
/// a `dy` of the output's shape; tensors seeded from `seed`.
pub fn conv_case(
    x_dims: [usize; 4],
    (k, out_c): (usize, usize),
    strides: (usize, usize),
    padding: Padding,
    seed: u64,
) -> ConvCase {
    let [batch, in_h, in_w, in_c] = x_dims;
    let out_h = padding.output_dim(in_h, k, strides.0);
    let out_w = padding.output_dim(in_w, k, strides.1);
    ConvCase {
        x: randn_f32(&x_dims, seed),
        w: randn_f32(&[k, k, in_c, out_c], seed ^ 0x100),
        dy: randn_f32(&[batch, out_h, out_w, out_c], seed ^ 0x200),
        strides,
        padding,
    }
}

/// stride ∈ {1, 2} × {Same, Valid} × `in_c` ∈ {1, 3, 6} (single-channel
/// direct kernels, odd, LeNet-c2) × `out_c` straddling the 8-wide lane and
/// the 16-column panel × `out_w` straddling the 6-row micro-tile, 5×5
/// kernels; then the shapes ResNet-8 runs — 3×3 at 16 and 32 input
/// channels, stride 1 and 2, and its 1×1 stride-2 shortcut — an image
/// taller than a GEMM block (`in_c` 64 at `out_w` 24 fits 3 rows of a
/// 20-row image in the kernels' 192 KiB of scratch) and a single-channel
/// 51 × 45 image; then the single-channel sweep
/// ([`single_channel_conv_cases`]). The batch is sized so every case
/// splits into several chunks at the kernels' 2^16-MAC grain.
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
                        let x_dims = [batch, IN_H, in_w, in_c];
                        cases.push(conv_case(
                            x_dims,
                            (K, out_c),
                            (stride, stride),
                            padding,
                            seed,
                        ));
                    }
                }
            }
        }
    }
    cases.extend(resnet_conv_cases());
    cases.extend(single_channel_conv_cases());
    cases
}

/// Single-channel inputs at column stride 1, the direct lane kernels'
/// geometry: `out_w` straddling the 8-lane chunk, the 16-column forward
/// tile and the 32-column `dx` tile, in both paddings, with `out_c`
/// straddling the 6-channel group, row strides 1 and 2 and kernels 1, 3
/// and 5 cycled through them, at an odd batch that splits into several
/// chunks.
pub fn single_channel_conv_cases() -> Vec<ConvCase> {
    const OUT_H: usize = 9;
    let mut cases = Vec::new();
    for (i, out_w) in [1usize, 7, 8, 9, 15, 16, 17, 28, 33]
        .into_iter()
        .enumerate()
    {
        for (j, padding) in [Padding::Same, Padding::Valid].into_iter().enumerate() {
            let at = 2 * i + j;
            let out_c = [1usize, 5, 6, 7, 12, 13][at % 6];
            let k = [1usize, 3, 5][at % 3];
            let sh = 1 + at % 2;
            let extent = |out: usize, s: usize| match padding {
                Padding::Same => out * s,
                Padding::Valid => (out - 1) * s + k,
            };
            let img_macs = OUT_H * out_w * out_c * k * k;
            let batch = (1usize << 15).div_ceil(img_macs).max(3) | 1;
            let x_dims = [batch, extent(OUT_H, sh), extent(out_w, 1), 1];
            let seed = 0x3000 + at as u64;
            cases.push(conv_case(x_dims, (k, out_c), (sh, 1), padding, seed));
        }
    }
    cases
}

/// ResNet-8's shapes — every stage's 3×3 at stride 1, the stage-2 and
/// stage-3 3×3/2 downsampling convs and their 1×1/2 shortcuts — an image
/// taller than a GEMM block, a large single-channel image, an even kernel
/// at stride 1 (Same pads one side more than the other, so the rotated
/// input gradient pads the other side more) and a Valid stride-1 conv
/// with 8 input channels (its rotated input gradient pads `k − 1` on every
/// side).
pub fn resnet_conv_cases() -> Vec<ConvCase> {
    let same = Padding::Same;
    let shapes = [
        ([5, 32, 32, 16], (3, 16), 1, same),
        ([5, 32, 32, 16], (3, 32), 2, same),
        ([5, 16, 16, 32], (3, 32), 1, same),
        ([5, 32, 32, 16], (1, 32), 2, same),
        ([5, 16, 16, 32], (3, 64), 2, same),
        ([5, 16, 16, 32], (1, 64), 2, same),
        ([5, 8, 8, 64], (3, 64), 1, same),
        ([3, 20, 24, 64], (3, 8), 1, same),
        ([3, 51, 45, 1], (5, 6), 1, same),
        ([4, 12, 14, 16], (4, 16), 1, same),
        ([4, 14, 13, 8], (5, 16), 1, Padding::Valid),
    ];
    let case = |(i, (x_dims, filter, stride, padding))| {
        conv_case(x_dims, filter, (stride, stride), padding, 0x1000 + i as u64)
    };
    shapes.into_iter().enumerate().map(case).collect()
}

// ------------------------------------------------- conv strip-kernel oracle

/// The conv kernels as they ran before they moved to blocks: one
/// `(image, output row)` strip at a time around a k-major im2col scratch
/// filled element by element, with the packed GEMM replaced by the sum it
/// computes per element. Kept as the oracle for the block kernels and the
/// single-channel direct kernels, which must give the forward output and
/// the input gradient the same bits and the filter gradient the same value
/// up to rounding.
pub mod conv_strips {
    use s4tf_tensor::{Padding, Tensor};

    struct Geom {
        batch: usize,
        in_h: usize,
        in_w: usize,
        in_c: usize,
        k_h: usize,
        k_w: usize,
        out_c: usize,
        out_h: usize,
        out_w: usize,
        pad_top: usize,
        pad_left: usize,
        stride: (usize, usize),
    }

    impl Geom {
        fn new(x: &[usize], w: &[usize], stride: (usize, usize), padding: Padding) -> Geom {
            Geom {
                batch: x[0],
                in_h: x[1],
                in_w: x[2],
                in_c: x[3],
                k_h: w[0],
                k_w: w[1],
                out_c: w[3],
                out_h: padding.output_dim(x[1], w[0], stride.0),
                out_w: padding.output_dim(x[2], w[1], stride.1),
                pad_top: padding.amounts(x[1], w[0], stride.0).0,
                pad_left: padding.amounts(x[2], w[1], stride.1).0,
                stride,
            }
        }

        fn kdim(&self) -> usize {
            self.k_h * self.k_w * self.in_c
        }

        /// Output columns whose tap at `off = kx − pad_left` is inside.
        fn ox_range(&self, off: isize) -> (usize, usize) {
            let sw = self.stride.1;
            let ox_lo = if off >= 0 {
                0
            } else {
                ((-off) as usize).div_ceil(sw).min(self.out_w)
            };
            let ox_hi = if (self.in_w as isize) <= off {
                ox_lo
            } else {
                ((self.in_w as isize - off) as usize)
                    .div_ceil(sw)
                    .clamp(ox_lo, self.out_w)
            };
            (ox_lo, ox_hi)
        }
    }

    /// `acc + a·b` the way the active dispatch path's micro-kernel does it:
    /// fused on the lane path, two roundings on the scalar path.
    fn mac(acc: f32, a: f32, b: f32) -> f32 {
        if s4tf_tensor::simd_enabled() {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    }

    /// `c[i, j] += Σ_kk a(i, kk) · b(kk, j)`: a register sum from zero in
    /// k-order, then one add into `c` — the packed engine's arithmetic.
    fn gemm_acc(
        (m, k, n): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        c: &mut [f32],
    ) {
        for i in 0..m {
            for j in 0..n {
                let sum = (0..k).fold(0.0f32, |acc, kk| mac(acc, a(i, kk), b(kk, j)));
                c[i * n + j] += sum;
            }
        }
    }

    /// `kdim × out_w`, k-major: the patch matrix of output row `oy`.
    fn im2col_strip_t(x: &[f32], g: &Geom, n: usize, oy: usize, colt: &mut [f32]) {
        let (sh, sw) = g.stride;
        colt.fill(0.0);
        for ky in 0..g.k_h {
            let iy = (oy * sh + ky) as isize - g.pad_top as isize;
            if iy < 0 || iy as usize >= g.in_h {
                continue;
            }
            let row_base = (n * g.in_h + iy as usize) * g.in_w * g.in_c;
            for kx in 0..g.k_w {
                let off = kx as isize - g.pad_left as isize;
                let (ox_lo, ox_hi) = g.ox_range(off);
                for ic in 0..g.in_c {
                    let row = &mut colt[((ky * g.k_w + kx) * g.in_c + ic) * g.out_w..][..g.out_w];
                    for (ox, slot) in row.iter_mut().enumerate().take(ox_hi).skip(ox_lo) {
                        let ix = ((ox * sw) as isize + off) as usize;
                        *slot = x[row_base + ix * g.in_c + ic];
                    }
                }
            }
        }
    }

    /// Scatter-adds patch-major `dcol` (`out_w × kdim`) into `dx_img`.
    fn col2im_strip(dcol: &[f32], g: &Geom, oy: usize, dx_img: &mut [f32]) {
        let (sh, sw) = g.stride;
        let krow = g.k_w * g.in_c;
        for ky in 0..g.k_h {
            let iy = (oy * sh + ky) as isize - g.pad_top as isize;
            if iy < 0 || iy as usize >= g.in_h {
                continue;
            }
            let row = iy as usize * g.in_w * g.in_c;
            for ox in 0..g.out_w {
                let ix0 = (ox * sw) as isize - g.pad_left as isize;
                let kx_lo = (-ix0).clamp(0, g.k_w as isize) as usize;
                let kx_hi = (g.in_w as isize - ix0).clamp(kx_lo as isize, g.k_w as isize) as usize;
                let src = &dcol[ox * g.kdim() + ky * krow..][kx_lo * g.in_c..kx_hi * g.in_c];
                let dst0 = row + (ix0 + kx_lo as isize) as usize * g.in_c;
                for (d, &s) in dx_img[dst0..dst0 + src.len()].iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }

    /// [`col2im_strip`] for k-major `dcolt` (`kdim × out_w`) of a
    /// single-channel stride-1 input: one row add per `(ky, kx)`.
    fn col2im_strip_t(dcolt: &[f32], g: &Geom, oy: usize, dx_img: &mut [f32]) {
        for ky in 0..g.k_h {
            let iy = (oy * g.stride.0 + ky) as isize - g.pad_top as isize;
            if iy < 0 || iy as usize >= g.in_h {
                continue;
            }
            for kx in 0..g.k_w {
                let off = kx as isize - g.pad_left as isize;
                let (ox_lo, ox_hi) = g.ox_range(off);
                // A kernel column wholly outside a narrow image adds nothing.
                if ox_lo == ox_hi {
                    continue;
                }
                let src = &dcolt[(ky * g.k_w + kx) * g.out_w..][ox_lo..ox_hi];
                let dst0 = iy as usize * g.in_w + (ox_lo as isize + off) as usize;
                for (d, &s) in dx_img[dst0..dst0 + src.len()].iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }

    pub fn forward(
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        stride: (usize, usize),
        padding: Padding,
    ) -> Tensor<f32> {
        let g = Geom::new(x.dims(), w.dims(), stride, padding);
        let (xs, ws) = (x.as_slice(), w.as_slice());
        let (kdim, strip) = (g.kdim(), g.out_w * g.out_c);
        let mut out = vec![0.0f32; g.batch * g.out_h * strip];
        let mut colt = vec![0.0f32; kdim * g.out_w];
        for (id, y) in out.chunks_mut(strip).enumerate() {
            im2col_strip_t(xs, &g, id / g.out_h, id % g.out_h, &mut colt);
            gemm_acc(
                (g.out_w, kdim, g.out_c),
                |ox, kk| colt[kk * g.out_w + ox],
                |kk, oc| ws[kk * g.out_c + oc],
                y,
            );
        }
        Tensor::from_vec(out, &[g.batch, g.out_h, g.out_w, g.out_c])
    }

    pub fn backward_input(
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        dy: &Tensor<f32>,
        stride: (usize, usize),
        padding: Padding,
    ) -> Tensor<f32> {
        let g = Geom::new(x.dims(), w.dims(), stride, padding);
        let (ws, dys) = (w.as_slice(), dy.as_slice());
        let (kdim, img) = (g.kdim(), g.in_h * g.in_w * g.in_c);
        let mut dx = vec![0.0f32; g.batch * img];
        let mut dcol = vec![0.0f32; g.out_w * kdim];
        for (n, dx_img) in dx.chunks_mut(img).enumerate() {
            for oy in 0..g.out_h {
                let dy_strip = &dys[(n * g.out_h + oy) * g.out_w * g.out_c..][..g.out_w * g.out_c];
                dcol.fill(0.0);
                if g.in_c == 1 && g.stride.1 == 1 {
                    // dcolᵀ[kdim, out_w] = W · dy_stripᵀ
                    gemm_acc(
                        (kdim, g.out_c, g.out_w),
                        |kk, oc| ws[kk * g.out_c + oc],
                        |oc, ox| dy_strip[ox * g.out_c + oc],
                        &mut dcol,
                    );
                    col2im_strip_t(&dcol, &g, oy, dx_img);
                } else {
                    // dcol[out_w, kdim] = dy_strip · Wᵀ
                    gemm_acc(
                        (g.out_w, g.out_c, kdim),
                        |ox, oc| dy_strip[ox * g.out_c + oc],
                        |oc, kk| ws[kk * g.out_c + oc],
                        &mut dcol,
                    );
                    col2im_strip(&dcol, &g, oy, dx_img);
                }
            }
        }
        Tensor::from_vec(dx, x.dims())
    }

    /// Whether the kernels run this input gradient as the forward
    /// convolution of `dy` with the rotated filter: stride (1, 1), at least
    /// 8 input channels and every weight finite.
    pub fn dx_runs_as_conv(w: &Tensor<f32>, stride: (usize, usize)) -> bool {
        stride == (1, 1) && w.dims()[2] >= 8 && w.as_slice().iter().all(|v| v.is_finite())
    }

    /// The stride-(1, 1) input gradient as [`forward`] computes it on the
    /// rotated problem: `dy` zero-padded by `k − 1 − pad` on each edge
    /// (`pad` the forward's padding there), ⊛ `rot180(W)ᵀ`, Valid.
    pub fn backward_input_as_conv(
        x_dims: &[usize],
        w: &Tensor<f32>,
        dy: &Tensor<f32>,
        padding: Padding,
    ) -> Tensor<f32> {
        let g = Geom::new(x_dims, w.dims(), (1, 1), padding);
        let (pad_bottom, pad_right) = (
            padding.amounts(g.in_h, g.k_h, 1).1,
            padding.amounts(g.in_w, g.k_w, 1).1,
        );
        let (top, left) = (g.k_h - 1 - g.pad_top, g.k_w - 1 - g.pad_left);
        let dims = [
            g.batch,
            top + g.out_h + g.k_h - 1 - pad_bottom,
            left + g.out_w + g.k_w - 1 - pad_right,
            g.out_c,
        ];
        let dys = dy.as_slice();
        let padded = Tensor::from_fn(&dims, |i| {
            let (c, px) = (i % g.out_c, i / g.out_c);
            let (col, px) = (px % dims[2], px / dims[2]);
            let (row, n) = (px % dims[1], px / dims[1]);
            match (row.checked_sub(top), col.checked_sub(left)) {
                (Some(oy), Some(ox)) if oy < g.out_h && ox < g.out_w => {
                    dys[((n * g.out_h + oy) * g.out_w + ox) * g.out_c + c]
                }
                _ => 0.0,
            }
        });
        let (taps, ws) = (g.k_h * g.k_w, w.as_slice());
        let rotated = Tensor::from_fn(&[g.k_h, g.k_w, g.out_c, g.in_c], |i| {
            let (ic, rest) = (i % g.in_c, i / g.in_c);
            let (oc, tap) = (rest % g.out_c, rest / g.out_c);
            ws[((taps - 1 - tap) * g.in_c + ic) * g.out_c + oc]
        });
        forward(&padded, &rotated, (1, 1), Padding::Valid)
    }

    pub fn backward_filter(
        x: &Tensor<f32>,
        w_dims: &[usize],
        dy: &Tensor<f32>,
        stride: (usize, usize),
        padding: Padding,
    ) -> Tensor<f32> {
        let g = Geom::new(x.dims(), w_dims, stride, padding);
        let (xs, dys) = (x.as_slice(), dy.as_slice());
        let kdim = g.kdim();
        let mut dw = vec![0.0f32; kdim * g.out_c];
        let mut colt = vec![0.0f32; kdim * g.out_w];
        for id in 0..g.batch * g.out_h {
            im2col_strip_t(xs, &g, id / g.out_h, id % g.out_h, &mut colt);
            let dy_strip = &dys[id * g.out_w * g.out_c..][..g.out_w * g.out_c];
            // dw[kdim, out_c] += colt · dy_strip
            gemm_acc(
                (kdim, g.out_w, g.out_c),
                |kk, ox| colt[kk * g.out_w + ox],
                |ox, oc| dy_strip[ox * g.out_c + oc],
                &mut dw,
            );
        }
        Tensor::from_vec(dw, w_dims)
    }
}

// ---------------------------------------------------- pooling loop oracle

/// One pooling case: `x` pooled by `pool` at `strides`, and a `dy` of the
/// output's shape.
pub struct PoolCase<T: Float> {
    pub x: Tensor<T>,
    pub dy: Tensor<T>,
    pub pool: (usize, usize),
    pub strides: (usize, usize),
    pub padding: Padding,
}

impl<T: Float> PoolCase<T> {
    /// Average and max pooling and both gradients, in that order.
    pub fn run(&self) -> [Tensor<T>; 4] {
        let PoolCase {
            x,
            dy,
            pool,
            strides,
            padding,
        } = self;
        let (p, s, pad) = (*pool, *strides, *padding);
        [
            x.avg_pool2d(p, s, pad),
            x.avg_pool2d_backward(dy, p, s, pad),
            x.max_pool2d(p, s, pad),
            x.max_pool2d_backward(dy, p, s, pad),
        ]
    }

    /// [`PoolCase::run`] through the per-element loops of [`pool_loops`].
    pub fn run_loops(&self) -> [Tensor<T>; 4] {
        let PoolCase {
            x,
            dy,
            pool,
            strides,
            padding,
        } = self;
        let (p, s, pad) = (*pool, *strides, *padding);
        [
            pool_loops::avg_pool2d(x, p, s, pad),
            pool_loops::avg_pool2d_backward(x, dy, p, s, pad),
            pool_loops::max_pool2d(x, p, s, pad),
            pool_loops::max_pool2d_backward(x, dy, p, s, pad),
        ]
    }

    pub fn label(&self) -> String {
        format!(
            "{:?} pool {:?} /{:?} {:?}",
            self.x.dims(),
            self.pool,
            self.strides,
            self.padding
        )
    }
}

/// An f32 pooling case with randn `x` and `dy`, seeded from `seed`.
pub fn pool_case(
    x_dims: [usize; 4],
    pool: (usize, usize),
    strides: (usize, usize),
    padding: Padding,
    seed: u64,
) -> PoolCase<f32> {
    let [batch, in_h, in_w, ch] = x_dims;
    let out_h = padding.output_dim(in_h, pool.0, strides.0);
    let out_w = padding.output_dim(in_w, pool.1, strides.1);
    PoolCase {
        x: randn_f32(&x_dims, seed),
        dy: randn_f32(&[batch, out_h, out_w, ch], seed ^ 0x300),
        pool,
        strides,
        padding,
    }
}

/// The pools the two training workloads run, at small batches: LeNet's
/// two 2×2/2 average pools (6 and 16 channels), ResNet-8's global average
/// pool (8×8 over 64 channels), the ImageNet stem's 3×3/2 `Same` max pool
/// and an overlapping 3×3/1 `Same` window.
pub fn model_pool_cases() -> Vec<PoolCase<f32>> {
    let valid = Padding::Valid;
    let same = Padding::Same;
    [
        ([3, 28, 28, 6], (2, 2), (2, 2), valid),
        ([3, 10, 10, 16], (2, 2), (2, 2), valid),
        ([3, 8, 8, 64], (8, 8), (1, 1), valid),
        ([2, 32, 32, 16], (3, 3), (2, 2), same),
        ([2, 16, 16, 16], (3, 3), (1, 1), same),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (x, pool, strides, padding))| pool_case(x, pool, strides, padding, 0x2000 + i as u64))
    .collect()
}

/// The pooling kernels as they ran before they walked rows: every output
/// element visits its window cell by cell, testing each against the
/// padding. Kept as the oracle the row walks must match bit for bit.
pub mod pool_loops {
    use s4tf_tensor::{Float, Padding, Tensor};

    struct Geom {
        batch: usize,
        in_h: usize,
        in_w: usize,
        ch: usize,
        k_h: usize,
        k_w: usize,
        out_h: usize,
        out_w: usize,
        pad_top: usize,
        pad_left: usize,
        stride: (usize, usize),
    }

    fn geometry(x: &[usize], pool: (usize, usize), stride: (usize, usize), p: Padding) -> Geom {
        Geom {
            batch: x[0],
            in_h: x[1],
            in_w: x[2],
            ch: x[3],
            k_h: pool.0,
            k_w: pool.1,
            out_h: p.output_dim(x[1], pool.0, stride.0),
            out_w: p.output_dim(x[2], pool.1, stride.1),
            pad_top: p.amounts(x[1], pool.0, stride.0).0,
            pad_left: p.amounts(x[2], pool.1, stride.1).0,
            stride,
        }
    }

    impl Geom {
        fn out_dims(&self) -> [usize; 4] {
            [self.batch, self.out_h, self.out_w, self.ch]
        }

        /// Flat input indices (channel 0) of the in-image cells of output
        /// `(n, oy, ox)`'s window, ky-major.
        fn cells(&self, n: usize, oy: usize, ox: usize) -> Vec<usize> {
            let mut cells = Vec::new();
            for ky in 0..self.k_h {
                let iy = (oy * self.stride.0 + ky) as isize - self.pad_top as isize;
                if iy < 0 || iy as usize >= self.in_h {
                    continue;
                }
                for kx in 0..self.k_w {
                    let ix = (ox * self.stride.1 + kx) as isize - self.pad_left as isize;
                    if ix < 0 || ix as usize >= self.in_w {
                        continue;
                    }
                    cells.push(((n * self.in_h + iy as usize) * self.in_w + ix as usize) * self.ch);
                }
            }
            cells
        }

        /// Every output `(flat index of channel 0, window cells)` in
        /// raster order.
        fn windows(&self) -> impl Iterator<Item = (usize, Vec<usize>)> + '_ {
            (0..self.batch * self.out_h * self.out_w).map(move |id| {
                let (n, rest) = (
                    id / (self.out_h * self.out_w),
                    id % (self.out_h * self.out_w),
                );
                (
                    id * self.ch,
                    self.cells(n, rest / self.out_w, rest % self.out_w),
                )
            })
        }
    }

    pub fn avg_pool2d<T: Float>(
        x: &Tensor<T>,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(x.dims(), pool, strides, padding);
        let xs = x.as_slice();
        let mut out = vec![T::zero(); g.out_dims().iter().product()];
        for (o, cells) in g.windows() {
            for &cell in &cells {
                for c in 0..g.ch {
                    out[o + c] += xs[cell + c];
                }
            }
            let inv = T::one() / T::from_usize(cells.len().max(1));
            for c in 0..g.ch {
                out[o + c] *= inv;
            }
        }
        Tensor::from_vec(out, &g.out_dims())
    }

    pub fn avg_pool2d_backward<T: Float>(
        x: &Tensor<T>,
        dy: &Tensor<T>,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(x.dims(), pool, strides, padding);
        let dys = dy.as_slice();
        let mut dx = vec![T::zero(); x.num_elements()];
        for (o, cells) in g.windows() {
            let inv = T::one() / T::from_usize(cells.len().max(1));
            for &cell in &cells {
                for c in 0..g.ch {
                    dx[cell + c] += dys[o + c] * inv;
                }
            }
        }
        Tensor::from_vec(dx, x.dims())
    }

    pub fn max_pool2d<T: Float>(
        x: &Tensor<T>,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(x.dims(), pool, strides, padding);
        let xs = x.as_slice();
        let mut out = vec![T::neg_infinity(); g.out_dims().iter().product()];
        for (o, cells) in g.windows() {
            for &cell in &cells {
                for c in 0..g.ch {
                    out[o + c] = out[o + c].maximum(xs[cell + c]);
                }
            }
        }
        Tensor::from_vec(out, &g.out_dims())
    }

    pub fn max_pool2d_backward<T: Float>(
        x: &Tensor<T>,
        dy: &Tensor<T>,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(x.dims(), pool, strides, padding);
        let (xs, dys) = (x.as_slice(), dy.as_slice());
        let mut dx = vec![T::zero(); x.num_elements()];
        for (o, cells) in g.windows() {
            for c in 0..g.ch {
                let mut best = T::neg_infinity();
                let mut best_flat = None;
                for &cell in &cells {
                    if xs[cell + c] > best {
                        best = xs[cell + c];
                        best_flat = Some(cell + c);
                    }
                }
                if let Some(flat) = best_flat {
                    dx[flat] += dys[o + c];
                }
            }
        }
        Tensor::from_vec(dx, x.dims())
    }
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

/// [`bits`] for either float type (widening to f64 is exact and keeps the
/// sign of a zero), with every NaN as one value: which NaN `∞ − ∞ + NaN`
/// yields depends on the operand order the compiler picks for a
/// commutative add, in the kernels and in the oracles alike.
pub fn float_bits<T: Float>(t: &Tensor<T>) -> Vec<u64> {
    let bits = |x: f64| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    t.as_slice().iter().map(|x| bits(x.to_f64())).collect()
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
