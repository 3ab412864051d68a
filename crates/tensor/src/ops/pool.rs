//! 2-D pooling kernels (NHWC): average and max pooling with their gradient
//! kernels — the paper's `AvgPool2D` in the LeNet-5 model (Figure 6),
//! ResNet's global average pool and `MaxPool2D`.
//!
//! **Walks over rows, a window fold in registers.** The forward kernels walk
//! output rows: per output, the window's rows inside the image come from
//! [`ConvGeom::ky_range`] and its columns from [`ConvGeom::kx_range`] — the
//! convolution kernels' clipping, once per row and once per call for the
//! columns, so no cell is tested against the padding — and the window's
//! cells are folded into a register block of [`LANES`] channels
//! ([`Walk::windows`]). The gradients walk input rows: per input cell, the
//! outputs whose windows cover it are a few rows times a few columns
//! ([`covering`]), folded into a register block and stored once
//! ([`Walk::gather`]). Nothing scatters, so no gradient is read back; where
//! windows do not overlap, a cell has one covering output and the gather is
//! one load per cell.
//!
//! **Lane blocks.** A chunk of `ch` channels is read and written in blocks
//! of 8 lanes at channel offsets 0, 8, … and `ch − 8` (the last one
//! overlaps its predecessor and recomputes the same values). A
//! chunk of fewer than 8 channels is one block whose extra lanes belong to
//! the next chunk: they are computed from whatever follows and stored over
//! it, then overwritten when that chunk is stored, as chunks are stored in
//! ascending order. So each output row is built in a scratch line with a
//! block of slack and appended whole ([`build_rows`]: nothing is
//! zero-filled first), and inputs the kernels do not own are read through
//! [`Rows`], which pads a copy of their last rows. LeNet's 6-channel chunk
//! is one vector operation per window cell, not six scalar ones.
//!
//! **Order, and why results are bit-identical to the per-element loops
//! these replaced** (kept as the oracle in `tests/common`):
//!
//! * forward — every output starts from zero (average) or −∞ (max) and
//!   takes its window's cells ky-major, kx-minor; an average is then
//!   multiplied by `1/count`, `count` being the window's cells inside the
//!   image. Max is [`crate::Scalar::maximum`] folded in that order.
//! * average gradient — each input cell is zero plus `dy · 1/count` of the
//!   windows covering it, in output-raster order: the order in which the
//!   loops scattered into it.
//! * max gradient — each output's gradient goes to the first cell of its
//!   window (ky-major, kx-minor) strictly greater than every cell before it
//!   (so NaN and −∞ windows route nothing and ties go to the first cell).
//!   An input cell is zero plus, in output-raster order, the gradient of
//!   each covering window routed to it and `+0` for the others.
//!
//! Adding `+0` leaves a sum that started at `+0` unchanged bit for bit
//! (only `−0 + −0` is `−0`), which lets the gather pad every cell's
//! covering outputs to the same count with a zero term. Adds, multiplies,
//! comparisons and selects only, so both dispatch paths agree bit for bit.
//! The walks are `inline(always)` methods called from `inline(always)`
//! closures inside [`crate::simd::vectorize`], whose frame they must land in
//! to be compiled 8 lanes wide.

use std::ops::Range;

use super::conv::{self, ConvGeom};
use crate::dtype::{Float, Scalar};
use crate::pool::Scratch;
use crate::simd::LANES;
use crate::tensor::Tensor;
use crate::Padding;

/// One register block of lanes.
type Lanes<T> = [T; LANES];

/// The lane block of `row` from `at`.
#[inline(always)]
fn lanes<T: Copy>(row: &[T], at: usize) -> &Lanes<T> {
    row[at..at + LANES].try_into().expect("a lane block")
}

/// Stores a lane block into `line` from `at`.
#[inline(always)]
fn put<T: Copy>(line: &mut [T], at: usize, v: &Lanes<T>) {
    line[at..at + LANES].copy_from_slice(v);
}

/// Builds an output of `rows` rows of `row_len` values, in order: `fill`
/// stores row `r`'s lane blocks into a scratch line with a lane block of
/// slack past the row, and the row is appended from there — so a block
/// may run past its chunk, and no output is zero-filled first.
#[inline(always)]
fn build_rows<T: Copy + Default>(
    out: &mut Vec<T>,
    (rows, row_len): (usize, usize),
    mut fill: impl FnMut(usize, &mut [T]),
) {
    let mut line = vec![T::default(); row_len + LANES];
    for r in 0..rows {
        fill(r, &mut line);
        out.extend_from_slice(&line[..row_len]);
    }
}

/// Row views of a buffer the kernel does not own, each good for lane-block
/// reads starting less than `reach` past the view's start: `from(start)` is
/// `src[start..]`, or — where a block could run past the end — the same
/// values from a zero-padded copy of the end.
struct Rows<'a, T> {
    src: &'a [T],
    tail: Vec<T>,
    tail_start: usize,
}

impl<'a, T: Scalar> Rows<'a, T> {
    fn new(src: &'a [T], reach: usize) -> Self {
        let tail_start = src.len().saturating_sub(reach + LANES);
        let mut tail = src[tail_start..].to_vec();
        tail.resize(tail.len() + LANES, T::zero());
        Rows {
            src,
            tail,
            tail_start,
        }
    }

    #[inline(always)]
    fn from(&self, start: usize) -> &[T] {
        if start < self.tail_start {
            &self.src[start..]
        } else {
            &self.tail[start - self.tail_start..]
        }
    }
}

/// The outputs `lo..hi` (stride `stride`, `pad` cells of leading padding)
/// whose `k`-wide window covers input index `i`, i.e. `o·stride − pad ≤ i
/// < o·stride − pad + k`, among `out` outputs.
fn covering(i: usize, stride: usize, pad: usize, k: usize, out: usize) -> Range<usize> {
    let hi = ((i + pad) / stride + 1).min(out);
    let lo = (i + pad + 1).saturating_sub(k).div_ceil(stride).min(hi);
    lo..hi
}

/// One pooling call: the geometry and the per-column table its walks share.
struct Walk {
    g: ConvGeom,
    ch: usize,
    /// The channel offsets of a chunk's lane blocks: `0, 8, …` and a last
    /// block ending at `ch`; a single block at 0 when `ch ≤ 8`.
    blocks: Vec<usize>,
    /// Per output column: its window's first in-image input column and
    /// kernel column, and how many columns are inside the image.
    cols: Vec<(usize, usize, usize)>,
}

impl Walk {
    fn new<T: Float>(
        input: &Tensor<T>,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Walk {
        assert_eq!(input.rank(), 4, "pooling input must be NHWC (rank 4)");
        assert!(pool.0 > 0 && pool.1 > 0, "pool size must be positive");
        let ch = input.dims()[3];
        let g = conv::geometry(input.dims(), &[pool.0, pool.1, ch, ch], strides, padding);
        let cols = (0..g.out_w)
            .map(|ox| {
                let (kx_lo, kx_hi, ix0) = g.kx_range(ox);
                (ix0, kx_lo, kx_hi - kx_lo)
            })
            .collect();
        let last = ch.saturating_sub(LANES);
        let blocks = (0..ch.div_ceil(LANES).max(1))
            .map(|b| (b * LANES).min(last))
            .collect();
        Walk {
            g,
            ch,
            blocks,
            cols,
        }
    }

    fn out_dims(&self) -> [usize; 4] {
        [self.g.batch, self.g.out_h, self.g.out_w, self.ch]
    }

    fn out_len(&self) -> usize {
        self.out_dims().iter().product()
    }

    fn check_grad_out<T: Float>(&self, grad_out: &Tensor<T>) {
        assert_eq!(grad_out.dims(), self.out_dims(), "grad_out shape mismatch");
    }

    /// `1 / count` for every window size `count` up to the whole pool.
    fn inv_counts<T: Float>(&self) -> Vec<T> {
        (0..=self.g.k_h * self.g.k_w)
            .map(|count| T::one() / T::from_usize(count.max(1)))
            .collect()
    }

    /// Values past the end of the gradient terms [`Walk::gather`] reads:
    /// a chunk of zeros (the padding term) that whole lane blocks can read.
    fn zeros_len(&self) -> usize {
        self.ch.max(LANES)
    }

    /// Folds every in-image cell of each output's window, ky-major and
    /// kx-minor, into an accumulator per lane block, starting from `init`:
    /// `fold(acc, cell, tap)` with `tap = ky·k_w + kx` as a `T` (exact:
    /// windows have far fewer than 2^24 cells). Appends `finish(acc,
    /// count)` — `count` being the window's cells inside the image — to
    /// `out` as the output's lanes, in the output's layout.
    #[inline(always)]
    fn windows<T: Float, A: Copy>(
        &self,
        x: &[T],
        out: &mut Vec<T>,
        (init, fold): (A, impl Fn(&mut A, &Lanes<T>, T)),
        finish: impl Fn(A, usize) -> Lanes<T>,
    ) {
        let g = &self.g;
        let (ch, k_w) = (self.ch, g.k_w);
        let (in_row, out_row) = (g.in_w * ch, g.out_w * ch);
        let x = Rows::new(x, g.k_h * in_row);
        build_rows(
            out,
            (g.batch * g.out_h, out_row),
            #[inline(always)]
            |r, line| {
                let (n, oy) = (r / g.out_h, r % g.out_h);
                let (ky_lo, ky_hi, iy0) = g.ky_range(oy);
                let xs = x.from((n * g.in_h + iy0) * in_row);
                for &c0 in &self.blocks {
                    for (ox, &(ix0, kx_lo, width)) in self.cols.iter().enumerate() {
                        let mut acc = init;
                        let mut at_y = ix0 * ch + c0;
                        for ky in ky_lo..ky_hi {
                            let (mut at, mut tap) = (at_y, T::from_usize(ky * k_w + kx_lo));
                            for _ in 0..width {
                                fold(&mut acc, lanes(xs, at), tap);
                                (at, tap) = (at + ch, tap + T::one());
                            }
                            at_y += in_row;
                        }
                        let count = (ky_hi - ky_lo) * width;
                        put(line, ox * ch + c0, &finish(acc, count));
                    }
                }
            },
        );
    }

    /// Appends the input gradient to `dx` cell by cell: zero plus, in
    /// output-raster order, `term(at, tap)` for each output whose window
    /// covers the cell — `at` being the output's offset plus the lane
    /// block's channel offset, `tap` the cell's place in that window as in
    /// [`Walk::windows`]. Cells with fewer covering outputs than the most
    /// any cell has are padded with `term(zeros + c0, _)`, which must be a
    /// zero block.
    #[inline(always)]
    fn gather<T: Float>(&self, dx: &mut Vec<T>, zeros: usize, term: impl Fn(usize, T) -> Lanes<T>) {
        let g = &self.g;
        let most = |extent, stride, pad, k, out| {
            (0..extent)
                .map(|i| covering(i, stride, pad, k, out).len())
                .fold(1, usize::max)
        };
        let most = (
            most(g.in_h, g.stride.0, g.pad_top, g.k_h, g.out_h),
            most(g.in_w, g.stride.1, g.pad_left, g.k_w, g.out_w),
        );
        // With one covering output per cell at most (windows that do not
        // overlap), the constant lets the loops below fold away.
        if most == (1, 1) {
            self.gather_covers(dx, zeros, (1, 1), term);
        } else {
            self.gather_covers(dx, zeros, most, term);
        }
    }

    #[inline(always)]
    fn gather_covers<T: Float>(
        &self,
        dx: &mut Vec<T>,
        zeros: usize,
        (cy, cx): (usize, usize),
        term: impl Fn(usize, T) -> Lanes<T>,
    ) {
        let g = &self.g;
        let ((sh, sw), k_w, ch) = (g.stride, g.k_w, self.ch);
        let (in_row, out_row) = (g.in_w * ch, g.out_w * ch);
        // Per input row and column, its covering outputs padded to `cy`
        // and `cx`: the output row's (column's) offset and the cell's
        // ky·k_w (kx) in its window; `(zeros, 0)` pads. Real offsets
        // sum below `zeros`, and any sum with a pad is at least `zeros`.
        let mut rows = vec![(zeros, T::zero()); g.in_h * cy];
        for iy in 0..g.in_h {
            for (y, oy) in covering(iy, sh, g.pad_top, g.k_h, g.out_h).enumerate() {
                let ky = iy + g.pad_top - oy * sh;
                rows[iy * cy + y] = (oy * out_row, T::from_usize(ky * k_w));
            }
        }
        let mut cols = vec![(zeros, T::zero()); g.in_w * cx];
        for ix in 0..g.in_w {
            for (x, ox) in covering(ix, sw, g.pad_left, k_w, g.out_w).enumerate() {
                cols[ix * cx + x] = (ox * ch, T::from_usize(ix + g.pad_left - ox * sw));
            }
        }
        build_rows(
            dx,
            (g.batch * g.in_h, in_row),
            #[inline(always)]
            |row, line| {
                let (n, iy) = (row / g.in_h, row % g.in_h);
                let image = n * g.out_h * out_row;
                let rows = &rows[iy * cy..][..cy];
                for &c0 in &self.blocks {
                    for (ix, cols) in cols.chunks_exact(cx).enumerate() {
                        let mut acc = [T::zero(); LANES];
                        for &(ro, rt) in rows {
                            for &(co, ct) in cols {
                                let at = (image + ro + co).min(zeros) + c0;
                                let term = term(at, rt + ct);
                                for (a, t) in acc.iter_mut().zip(term) {
                                    *a += t;
                                }
                            }
                        }
                        put(line, ix * ch + c0, &acc);
                    }
                }
            },
        );
    }

    /// Appends `dy · 1/count` of every output to `terms`, laid out like
    /// `dy`: the average pool's gradient terms.
    #[inline(always)]
    fn scaled<T: Float>(&self, dy: &[T], terms: &mut Vec<T>) {
        let g = &self.g;
        let (ch, out_row) = (self.ch, g.out_w * self.ch);
        let (inv, dy) = (self.inv_counts::<T>(), Rows::new(dy, out_row));
        build_rows(
            terms,
            (g.batch * g.out_h, out_row),
            #[inline(always)]
            |r, line| {
                let (ky_lo, ky_hi, _) = g.ky_range(r % g.out_h);
                let src = dy.from(r * out_row);
                for &c0 in &self.blocks {
                    for (ox, &(_, _, width)) in self.cols.iter().enumerate() {
                        let inv = inv[(ky_hi - ky_lo) * width];
                        let at = ox * ch + c0;
                        put(line, at, &lanes(src, at).map(|d| d * inv));
                    }
                }
            },
        );
    }
}

impl<T: Float> Tensor<T> {
    /// Average pooling over `[N,H,W,C]`. Padded cells are excluded from the
    /// mean (count-include-pad = false), so `Same` padding never biases edge
    /// averages toward zero.
    ///
    /// # Panics
    /// Panics on rank mismatch, zero pool/stride, or (for
    /// [`Padding::Valid`]) pools larger than the input.
    pub fn avg_pool2d(
        &self,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let w = Walk::new(self, pool, strides, padding);
        let inv = w.inv_counts::<T>();
        let add = |acc: &mut Lanes<T>, v: &Lanes<T>, _| {
            for (a, &v) in acc.iter_mut().zip(v) {
                *a += v;
            }
        };
        let scale = |acc: Lanes<T>, count: usize| {
            let inv = inv[count];
            acc.map(|a| a * inv)
        };
        let zero = [T::zero(); LANES];
        Tensor::build_pushed(&w.out_dims(), |out| {
            crate::simd::vectorize(
                #[inline(always)]
                || w.windows(self.as_slice(), out, (zero, add), scale),
            );
        })
    }

    /// Gradient of [`Tensor::avg_pool2d`] with respect to its input.
    ///
    /// # Panics
    /// Panics on geometry mismatches.
    pub fn avg_pool2d_backward(
        &self,
        grad_out: &Tensor<T>,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let w = Walk::new(self, pool, strides, padding);
        w.check_grad_out(grad_out);
        Tensor::build_pushed(self.dims(), |dx| {
            // The gradient terms, then the zeros that pad each cell's.
            let zeros = w.out_len();
            let mut terms = Scratch::<T>::with_capacity(zeros + w.zeros_len());
            let terms: &mut Vec<T> = &mut terms;
            crate::simd::vectorize(
                #[inline(always)]
                || {
                    w.scaled(grad_out.as_slice(), terms);
                    terms.resize(zeros + w.zeros_len(), T::zero());
                    w.gather(dx, zeros, |at, _| *lanes(terms, at));
                },
            );
        })
    }

    /// Max pooling over `[N,H,W,C]`.
    ///
    /// # Panics
    /// See [`Tensor::avg_pool2d`].
    pub fn max_pool2d(
        &self,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let w = Walk::new(self, pool, strides, padding);
        let max = |acc: &mut Lanes<T>, v: &Lanes<T>, _| {
            for (a, &v) in acc.iter_mut().zip(v) {
                *a = a.maximum(v);
            }
        };
        let init = [T::neg_infinity(); LANES];
        Tensor::build_pushed(&w.out_dims(), |out| {
            crate::simd::vectorize(
                #[inline(always)]
                || w.windows(self.as_slice(), out, (init, max), |acc, _| acc),
            );
        })
    }

    /// Gradient of [`Tensor::max_pool2d`]: routes each output gradient to
    /// the (first) argmax cell of its window.
    ///
    /// # Panics
    /// Panics on geometry mismatches.
    pub fn max_pool2d_backward(
        &self,
        grad_out: &Tensor<T>,
        pool: (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let w = Walk::new(self, pool, strides, padding);
        w.check_grad_out(grad_out);
        // Per output, the tap of its window's first strictly greatest cell
        // (−1 for none) and the output's gradient; then a pad that routes
        // nothing.
        let zeros = w.out_len();
        let none = -T::one();
        let first_max = |(best, arg): &mut (Lanes<T>, Lanes<T>), v: &Lanes<T>, tap| {
            for ((b, a), &v) in best.iter_mut().zip(arg.iter_mut()).zip(v) {
                if v > *b {
                    *b = v;
                    *a = tap;
                }
            }
        };
        let init = ([T::neg_infinity(); LANES], [none; LANES]);
        Tensor::build_pushed(self.dims(), |dx| {
            let mut args = Scratch::<T>::with_capacity(zeros + w.zeros_len());
            let mut dys = Scratch::<T>::with_capacity(zeros + w.zeros_len());
            let (args, dys): (&mut Vec<T>, &mut Vec<T>) = (&mut args, &mut dys);
            dys.extend_from_slice(grad_out.as_slice());
            dys.resize(zeros + w.zeros_len(), T::zero());
            crate::simd::vectorize(
                #[inline(always)]
                || {
                    w.windows(self.as_slice(), args, (init, first_max), |(_, a), _| a);
                    args.resize(zeros + w.zeros_len(), none);
                    w.gather(dx, zeros, |at, tap| {
                        let (args, dys) = (lanes(args, at), lanes(dys, at));
                        let mut term = *dys;
                        for (t, &a) in term.iter_mut().zip(args) {
                            *t = if a == tap { *t } else { T::zero() };
                        }
                        term
                    });
                },
            );
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn avg_pool_known() {
        let x = Tensor::from_vec(
            vec![
                1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 4, 4, 1],
        );
        let y = x.avg_pool2d((2, 2), (2, 2), Padding::Valid);
        assert_eq!(y.dims(), &[1, 2, 2, 1]);
        assert_eq!(y.as_slice(), &[3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn max_pool_known() {
        let x = Tensor::from_vec(
            vec![
                1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 4, 4, 1],
        );
        let y = x.max_pool2d((2, 2), (2, 2), Padding::Valid);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn avg_pool_same_excludes_padding() {
        let x = Tensor::<f32>::ones(&[1, 3, 3, 1]);
        let y = x.avg_pool2d((2, 2), (1, 1), Padding::Same);
        assert_eq!(y.dims(), &[1, 3, 3, 1]);
        // Every average over ones must be exactly 1 when pad cells are
        // excluded from the count.
        assert!(y.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn avg_pool_gradient_matches_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = Tensor::<f64>::randn(&[1, 4, 4, 2], &mut rng);
        let y = x.avg_pool2d((2, 2), (2, 2), Padding::Valid);
        let dy = Tensor::<f64>::ones(y.dims());
        let dx = x.avg_pool2d_backward(&dy, (2, 2), (2, 2), Padding::Valid);
        let eps = 1e-6;
        for flat in 0..x.num_elements() {
            let mut xp = x.clone();
            xp.as_mut_slice()[flat] += eps;
            let num = (xp
                .avg_pool2d((2, 2), (2, 2), Padding::Valid)
                .sum()
                .scalar_value()
                - y.sum().scalar_value())
                / eps;
            assert!((num - dx.as_slice()[flat]).abs() < 1e-4);
        }
    }

    #[test]
    fn max_pool_gradient_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0f32, 9.0, 2.0, 3.0], &[1, 2, 2, 1]);
        let y = x.max_pool2d((2, 2), (2, 2), Padding::Valid);
        assert_eq!(y.scalar_value(), 9.0);
        let dy = Tensor::<f32>::ones(&[1, 1, 1, 1]);
        let dx = x.max_pool2d_backward(&dy, (2, 2), (2, 2), Padding::Valid);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn pool_stride_one() {
        let x = Tensor::<f32>::from_fn(&[1, 3, 3, 1], |i| i as f32);
        let y = x.max_pool2d((2, 2), (1, 1), Padding::Valid);
        assert_eq!(y.dims(), &[1, 2, 2, 1]);
        assert_eq!(y.as_slice(), &[4.0, 5.0, 7.0, 8.0]);
    }

    /// Covering ranges invert the window clipping: output `o` covers input
    /// `i` exactly when `i` is one of `o`'s in-image window cells.
    #[test]
    fn covering_inverts_the_window() {
        for (extent, k, stride, padding) in [
            (7, 3, 1, Padding::Same),
            (9, 2, 2, Padding::Valid),
            (5, 3, 2, Padding::Same),
            (2, 5, 1, Padding::Same),
            (10, 2, 3, Padding::Valid),
        ] {
            let out = padding.output_dim(extent, k, stride);
            let (pad, _) = padding.amounts(extent, k, stride);
            for i in 0..extent {
                let want: Vec<usize> = (0..out)
                    .filter(|&o| (o * stride..o * stride + k).contains(&(i + pad)))
                    .collect();
                let got: Vec<usize> = covering(i, stride, pad, k, out).collect();
                assert_eq!(got, want, "i={i} extent={extent} k={k} s={stride}");
            }
        }
    }
}
