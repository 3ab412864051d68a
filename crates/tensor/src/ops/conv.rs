//! 2-D convolution kernels (NHWC layout, HWIO filters — TensorFlow's
//! convention, which the paper's `Conv2D` layer uses) and the two gradient
//! kernels the `Conv2D` pullback needs.
//!
//! Past [`DIRECT_MAX_MACS`] all three kernels lower to the packed GEMM in
//! [`super::gemm`], one *block* of output rows at a time: as many rows of
//! one image as fit [`BLOCK_SCRATCH_BYTES`] of im2col scratch, `P`
//! positions × `kdim = k_h·k_w·in_c` patch elements, one GEMM per block.
//!
//! **Scratch layout.** Patch-major `col[P, kdim]` ([`im2col_block`]):
//! position `p`'s patch is `k_h` runs of `k_w·in_c` input floats, each one
//! `copy_from_slice` clipped at the image's left and right edge —
//! [`col2im_strip`] is the same walk run backwards, and the two share the
//! clipping ([`ConvGeom::kx_range`]). Single-channel stride-1 inputs
//! (LeNet's first layer), whose runs would be `k_w` floats long, keep the
//! k-major `colt[kdim, P]` instead ([`im2col_block_t`]), where each
//! `(ky, kx)` of an output row is one `out_w`-long row copy. The GEMM reads
//! either through a [`Layout`]; the layout changes neither the values nor
//! any element's summation order.
//!
//! * **forward** — HWIO filters flatten row-major to exactly the
//!   `[kdim, out_c]` B operand; each block is `col[P, kdim] · W`.
//! * **input gradient** — `dcol[P, kdim] = dy_block[P, out_c] · Wᵀ` (`Wᵀ`
//!   packed once per call, the NHWC `dy` rows read in place), then
//!   [`col2im_strip`] scatter-adds `dcol` into the image's `dx` rows, one
//!   output row at a time in row order. The k-major case computes
//!   `dcolᵀ = W · dy_blockᵀ` and scatters whole rows ([`col2im_strip_t`]).
//! * **filter gradient** — `dw += colᵀ[kdim, P] · dy_block[P, out_c]`: the
//!   reduction runs over the block's `P` positions in registers, with `dy`
//!   packed once per block.
//!
//! Scratch is one block per task, taken from and returned to
//! [`crate::pool`]. Smaller problems run the direct loops below, which are
//! also the unit tests' oracle. Work splits across the thread pool over
//! `batch × out_h` output rows (forward) and over images (both gradients);
//! blocks are cut inside a task's share, so the block height never limits
//! how evenly a layer splits.

use std::ops::Range;

use super::gemm::{self, Layout, PackedB};
use crate::dtype::Float;
use crate::tensor::Tensor;
use crate::Padding;

/// Below this many multiply-accumulates the direct loops beat the
/// im2col + GEMM lowering (scratch setup dominates).
const DIRECT_MAX_MACS: usize = 1 << 15;

/// Target multiply-accumulates per parallel task.
const CHUNK_MACS: usize = 1 << 16;

/// Upper bound on one block's im2col scratch. Blocks of 4 rows, 8 rows and
/// a whole 32×32×16 image measured within 4 % of each other, so the bound
/// only keeps a task's scratch inside L2 next to the packed filter.
const BLOCK_SCRATCH_BYTES: usize = 192 << 10;

/// Validated geometry for one conv2d application — and, with `k_h × k_w`
/// the pool and `in_c == out_c` the channels, for one pooling window
/// ([`super::pool`] clips its windows with the same methods).
#[derive(Debug, Clone, Copy)]
pub(super) struct ConvGeom {
    pub(super) batch: usize,
    pub(super) in_h: usize,
    pub(super) in_w: usize,
    pub(super) in_c: usize,
    pub(super) k_h: usize,
    pub(super) k_w: usize,
    pub(super) out_c: usize,
    pub(super) out_h: usize,
    pub(super) out_w: usize,
    pub(super) pad_top: usize,
    pub(super) pad_left: usize,
    pub(super) stride: (usize, usize),
}

/// The taps `lo..hi` of a `k`-wide window at output index `o` (stride
/// `stride`, `pad` cells of leading padding) that read inside `[0, extent)`,
/// and the input index of tap `lo`. Never empty for either padding: the
/// window's first cell is above `−k` and below `extent`.
fn clip_window(
    o: usize,
    stride: usize,
    pad: usize,
    k: usize,
    extent: usize,
) -> (usize, usize, usize) {
    let i0 = (o * stride) as isize - pad as isize;
    let lo = (-i0).clamp(0, k as isize) as usize;
    let hi = (extent as isize - i0).clamp(lo as isize, k as isize) as usize;
    (lo, hi, (i0 + lo as isize) as usize)
}

impl ConvGeom {
    /// im2col row width: the GEMM reduction dimension.
    fn kdim(&self) -> usize {
        self.k_h * self.k_w * self.in_c
    }

    /// Multiply-accumulates of the forward pass (and of each gradient).
    fn macs(&self) -> usize {
        self.batch * self.out_h * self.out_w * self.out_c * self.kdim()
    }

    /// The output columns `ox_lo..ox_hi` whose kernel tap at horizontal
    /// offset `off = kx − pad_left` reads inside the image, i.e.
    /// `ix = ox·sw + off ∈ [0, in_w)`; empty as `ox_lo == ox_hi`.
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

    /// The kernel columns `kx_lo..kx_hi` whose tap for output column `ox`
    /// reads inside the image, i.e. `ix = ox·sw − pad_left + kx ∈
    /// [0, in_w)`, and the first such `ix`. Never empty: `−k_w < ix0 <
    /// in_w` for both paddings.
    pub(super) fn kx_range(&self, ox: usize) -> (usize, usize, usize) {
        clip_window(ox, self.stride.1, self.pad_left, self.k_w, self.in_w)
    }

    /// [`ConvGeom::kx_range`] for rows: the kernel rows `ky_lo..ky_hi`
    /// whose tap for output row `oy` reads inside the image, and the first
    /// such `iy`.
    pub(super) fn ky_range(&self, oy: usize) -> (usize, usize, usize) {
        clip_window(oy, self.stride.0, self.pad_top, self.k_h, self.in_h)
    }

    /// Whether the scratch is k-major: single-channel stride-1 inputs,
    /// where a k-major row is one contiguous copy of an input row.
    fn k_major(&self) -> bool {
        self.in_c == 1 && self.stride.1 == 1
    }

    /// Output rows per block: the most that fit [`BLOCK_SCRATCH_BYTES`],
    /// evened out over the image so the last block is not a sliver.
    fn block_rows<T>(&self) -> usize {
        let row_bytes = (self.out_w * self.kdim() * std::mem::size_of::<T>()).max(1);
        let fit = (BLOCK_SCRATCH_BYTES / row_bytes).max(1);
        let blocks = self.out_h.div_ceil(fit).max(1);
        self.out_h.div_ceil(blocks).max(1)
    }

    /// Output rows per parallel task of the forward kernel.
    fn grain_rows(&self) -> usize {
        CHUNK_MACS
            .div_ceil((self.out_w * self.out_c * self.kdim()).max(1))
            .max(1)
    }

    /// Images per parallel task of the gradient kernels.
    fn grain_imgs(&self) -> usize {
        self.grain_rows().div_ceil(self.out_h.max(1)).max(1)
    }
}

/// Cuts the output rows `rows` (global ids `n·out_h + oy`) into blocks of
/// at most `block_rows` rows of one image: `(n, oy range)` in order.
fn blocks(
    g: &ConvGeom,
    rows: Range<usize>,
    block_rows: usize,
) -> impl Iterator<Item = (usize, Range<usize>)> {
    let out_h = g.out_h;
    let mut id = rows.start;
    std::iter::from_fn(move || {
        (id < rows.end).then(|| {
            let (n, oy) = (id / out_h, id % out_h);
            let len = block_rows.min(out_h - oy).min(rows.end - id);
            id += len;
            (n, oy..oy + len)
        })
    })
}

pub(super) fn geometry(
    input: &[usize],
    filter: &[usize],
    strides: (usize, usize),
    padding: Padding,
) -> ConvGeom {
    assert_eq!(input.len(), 4, "conv2d input must be NHWC (rank 4)");
    assert_eq!(filter.len(), 4, "conv2d filter must be HWIO (rank 4)");
    let (batch, in_h, in_w, in_c) = (input[0], input[1], input[2], input[3]);
    let (k_h, k_w, f_in, out_c) = (filter[0], filter[1], filter[2], filter[3]);
    assert_eq!(
        in_c, f_in,
        "conv2d channel mismatch: input has {in_c}, filter expects {f_in}"
    );
    assert!(strides.0 > 0 && strides.1 > 0, "strides must be positive");
    let out_h = padding.output_dim(in_h, k_h, strides.0);
    let out_w = padding.output_dim(in_w, k_w, strides.1);
    let (pad_top, _) = padding.amounts(in_h, k_h, strides.0);
    let (pad_left, _) = padding.amounts(in_w, k_w, strides.1);
    ConvGeom {
        batch,
        in_h,
        in_w,
        in_c,
        k_h,
        k_w,
        out_c,
        out_h,
        out_w,
        pad_top,
        pad_left,
        stride: strides,
    }
}

/// Fills patch-major `col` (`P × kdim`, `P = oys.len()·out_w`) with the
/// patch matrix of output rows `oys` of image `n`; padded positions become
/// zeros. Each `(position, ky)` is one run of `k_w·in_c` consecutive input
/// floats, clipped at the image's left and right edge.
fn im2col_block<T: Float>(x: &[T], g: &ConvGeom, n: usize, oys: Range<usize>, col: &mut [T]) {
    let kdim = g.kdim();
    let krow = g.k_w * g.in_c;
    let x_row = g.in_w * g.in_c;
    for (oy, col_strip) in oys.zip(col.chunks_exact_mut(g.out_w * kdim)) {
        let iy0 = (oy * g.stride.0) as isize - g.pad_top as isize;
        for (ox, patch) in col_strip.chunks_exact_mut(kdim).enumerate() {
            let (kx_lo, kx_hi, ix) = g.kx_range(ox);
            let (lo, hi) = (kx_lo * g.in_c, kx_hi * g.in_c);
            for (ky, run) in patch.chunks_exact_mut(krow).enumerate() {
                let iy = iy0 + ky as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    run.fill(T::zero());
                    continue;
                }
                let src0 = (n * g.in_h + iy as usize) * x_row + ix * g.in_c;
                run[..lo].fill(T::zero());
                run[hi..].fill(T::zero());
                run[lo..hi].copy_from_slice(&x[src0..src0 + (hi - lo)]);
            }
        }
    }
}

/// [`im2col_block`] for the k-major case ([`ConvGeom::k_major`]): fills
/// `colt` (`kdim × P`) so that each `(ky, kx)` row holds, per output row of
/// the block, one `out_w`-long copy of an input row.
fn im2col_block_t<T: Float>(x: &[T], g: &ConvGeom, n: usize, oys: Range<usize>, colt: &mut [T]) {
    let p = oys.len() * g.out_w;
    for (r, oy) in oys.enumerate() {
        for ky in 0..g.k_h {
            let iy = (oy * g.stride.0 + ky) as isize - g.pad_top as isize;
            let inside = iy >= 0 && (iy as usize) < g.in_h;
            for kx in 0..g.k_w {
                let at = (ky * g.k_w + kx) * p + r * g.out_w;
                let row = &mut colt[at..at + g.out_w];
                let off = kx as isize - g.pad_left as isize;
                // A kernel column wholly outside a narrow image is empty.
                let (ox_lo, ox_hi) = if inside { g.ox_range(off) } else { (0, 0) };
                row[..ox_lo].fill(T::zero());
                row[ox_hi..].fill(T::zero());
                if ox_lo < ox_hi {
                    let src0 =
                        (n * g.in_h + iy as usize) * g.in_w + (ox_lo as isize + off) as usize;
                    row[ox_lo..ox_hi].copy_from_slice(&x[src0..src0 + (ox_hi - ox_lo)]);
                }
            }
        }
    }
}

/// Scatter-adds `dcol` (`out_w × kdim`, patch-major: the gradient of
/// output row `oy`'s im2col matrix) into one image's `dx` rows — the
/// inverse of [`im2col_block`]'s walk for one output row, run by run, so
/// every stride and both paddings go through the same clipping.
///
/// `inline(always)` so the add loops compile inside the caller's
/// [`crate::simd::vectorize`] frame (8-wide on the lane path; plain adds,
/// so the values are the same on both paths).
#[inline(always)]
fn col2im_strip<T: Float>(dcol: &[T], g: &ConvGeom, oy: usize, dx_img: &mut [T]) {
    let kdim = g.kdim();
    let krow = g.k_w * g.in_c;
    for ky in 0..g.k_h {
        let iy = (oy * g.stride.0 + ky) as isize - g.pad_top as isize;
        if iy < 0 || iy as usize >= g.in_h {
            continue;
        }
        let row = iy as usize * g.in_w * g.in_c;
        let dx_row = &mut dx_img[row..row + g.in_w * g.in_c];
        for ox in 0..g.out_w {
            let (kx_lo, kx_hi, ix) = g.kx_range(ox);
            let src = &dcol[ox * kdim + ky * krow..][kx_lo * g.in_c..kx_hi * g.in_c];
            let dst0 = ix * g.in_c;
            for (d, &s) in dx_row[dst0..dst0 + src.len()].iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

/// [`col2im_strip`] for the k-major case: `dcolt` is the block's
/// `kdim × p` gradient and `r` the output row's index inside the block.
/// The exact inverse of [`im2col_block_t`]'s copies, one contiguous add
/// per `(ky, kx)` row.
fn col2im_strip_t<T: Float>(
    dcolt: &[T],
    (p, r): (usize, usize),
    g: &ConvGeom,
    oy: usize,
    dx_img: &mut [T],
) {
    for ky in 0..g.k_h {
        let iy = (oy * g.stride.0 + ky) as isize - g.pad_top as isize;
        if iy < 0 || iy as usize >= g.in_h {
            continue;
        }
        let dx_row = &mut dx_img[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
        for kx in 0..g.k_w {
            let off = kx as isize - g.pad_left as isize;
            let (ox_lo, ox_hi) = g.ox_range(off);
            if ox_lo == ox_hi {
                continue;
            }
            let src = &dcolt[(ky * g.k_w + kx) * p + r * g.out_w..][ox_lo..ox_hi];
            let dst0 = (ox_lo as isize + off) as usize;
            for (d, &s) in dx_row[dst0..dst0 + src.len()].iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

/// Fills the scratch for one block in the geometry's layout and returns
/// the [`Layout`] under which it reads as the logical `[P, kdim]` patch
/// matrix.
fn im2col<T: Float>(x: &[T], g: &ConvGeom, n: usize, oys: Range<usize>, col: &mut [T]) -> Layout {
    if g.k_major() {
        let p = oys.len() * g.out_w;
        im2col_block_t(x, g, n, oys, col);
        Layout::transposed(p)
    } else {
        im2col_block(x, g, n, oys, col);
        Layout::row_major(g.kdim())
    }
}

/// The original direct (no-scratch) forward loops, kept for small
/// problems where im2col setup costs more than it saves.
fn conv2d_direct<T: Float>(x: &[T], w: &[T], out: &mut [T], g: &ConvGeom) {
    for n in 0..g.batch {
        for oy in 0..g.out_h {
            for ox in 0..g.out_w {
                let out_base = ((n * g.out_h + oy) * g.out_w + ox) * g.out_c;
                for ky in 0..g.k_h {
                    let iy = (oy * g.stride.0 + ky) as isize - g.pad_top as isize;
                    if iy < 0 || iy as usize >= g.in_h {
                        continue;
                    }
                    for kx in 0..g.k_w {
                        let ix = (ox * g.stride.1 + kx) as isize - g.pad_left as isize;
                        if ix < 0 || ix as usize >= g.in_w {
                            continue;
                        }
                        let in_base = ((n * g.in_h + iy as usize) * g.in_w + ix as usize) * g.in_c;
                        let w_base = (ky * g.k_w + kx) * g.in_c * g.out_c;
                        for ic in 0..g.in_c {
                            let xv = x[in_base + ic];
                            let wrow = &w[w_base + ic * g.out_c..w_base + (ic + 1) * g.out_c];
                            let orow = &mut out[out_base..out_base + g.out_c];
                            for (ov, &wv) in orow.iter_mut().zip(wrow) {
                                *ov += xv * wv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Input-gradient loops for one image; `dx_img` is that image's
/// `in_h × in_w × in_c` slice.
fn backward_input_image<T: Float>(dy: &[T], w: &[T], dx_img: &mut [T], g: &ConvGeom, n: usize) {
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            let out_base = ((n * g.out_h + oy) * g.out_w + ox) * g.out_c;
            for ky in 0..g.k_h {
                let iy = (oy * g.stride.0 + ky) as isize - g.pad_top as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    continue;
                }
                for kx in 0..g.k_w {
                    let ix = (ox * g.stride.1 + kx) as isize - g.pad_left as isize;
                    if ix < 0 || ix as usize >= g.in_w {
                        continue;
                    }
                    let in_base = ((iy as usize) * g.in_w + ix as usize) * g.in_c;
                    let w_base = (ky * g.k_w + kx) * g.in_c * g.out_c;
                    for ic in 0..g.in_c {
                        let wrow = &w[w_base + ic * g.out_c..w_base + (ic + 1) * g.out_c];
                        let dyrow = &dy[out_base..out_base + g.out_c];
                        let mut acc = T::zero();
                        for (&wv, &dyv) in wrow.iter().zip(dyrow) {
                            acc += wv * dyv;
                        }
                        dx_img[in_base + ic] += acc;
                    }
                }
            }
        }
    }
}

/// Filter-gradient loops for one image, accumulated into `dw`.
fn backward_filter_image<T: Float>(x: &[T], dy: &[T], dw: &mut [T], g: &ConvGeom, n: usize) {
    for oy in 0..g.out_h {
        for ox in 0..g.out_w {
            let out_base = ((n * g.out_h + oy) * g.out_w + ox) * g.out_c;
            for ky in 0..g.k_h {
                let iy = (oy * g.stride.0 + ky) as isize - g.pad_top as isize;
                if iy < 0 || iy as usize >= g.in_h {
                    continue;
                }
                for kx in 0..g.k_w {
                    let ix = (ox * g.stride.1 + kx) as isize - g.pad_left as isize;
                    if ix < 0 || ix as usize >= g.in_w {
                        continue;
                    }
                    let in_base = ((n * g.in_h + iy as usize) * g.in_w + ix as usize) * g.in_c;
                    let w_base = (ky * g.k_w + kx) * g.in_c * g.out_c;
                    for ic in 0..g.in_c {
                        let xv = x[in_base + ic];
                        let dyrow = &dy[out_base..out_base + g.out_c];
                        let dwrow = &mut dw[w_base + ic * g.out_c..w_base + (ic + 1) * g.out_c];
                        for (dwv, &dyv) in dwrow.iter_mut().zip(dyrow) {
                            *dwv += xv * dyv;
                        }
                    }
                }
            }
        }
    }
}

impl<T: Float> Tensor<T> {
    /// 2-D convolution: input `[N,H,W,Cin]` ⊛ filter `[Kh,Kw,Cin,Cout]` →
    /// `[N,H',W',Cout]`.
    ///
    /// Large problems run as im2col + packed GEMM, a block of output rows
    /// at a time, parallel over `batch × out_h` output rows; every output
    /// element is one k-order sum, so results are bit-identical for every
    /// thread count and block height.
    ///
    /// # Panics
    /// Panics on rank or channel mismatches, zero strides, or (for
    /// [`Padding::Valid`]) kernels larger than the input.
    pub fn conv2d(
        &self,
        filter: &Tensor<T>,
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(self.dims(), filter.dims(), strides, padding);
        let x = self.as_slice();
        let w = filter.as_slice();
        let (mut out, out_recycled) =
            crate::pool::zeroed_vec::<T>(g.batch * g.out_h * g.out_w * g.out_c);
        let kdim = g.kdim();
        if g.macs() < DIRECT_MAX_MACS {
            conv2d_direct(x, w, &mut out, &g);
        } else {
            // HWIO row-major is already the [kdim, out_c] GEMM operand.
            let wp = gemm::pack_b(w, Layout::row_major(g.out_c), kdim, g.out_c);
            let strip = g.out_w * g.out_c;
            let block_rows = g.block_rows::<T>();
            s4tf_threads::parallel_chunks_mut(
                &mut out,
                strip,
                g.grain_rows() * strip,
                |start, chunk| {
                    // One im2col scratch per task, reused across blocks;
                    // every slot a GEMM reads is written first.
                    let (mut col, _) = crate::pool::zeroed_vec::<T>(block_rows * g.out_w * kdim);
                    let row0 = start / strip;
                    for (n, oys) in blocks(&g, row0..row0 + chunk.len() / strip, block_rows) {
                        let p = oys.len() * g.out_w;
                        let y0 = ((n * g.out_h + oys.start) * g.out_w) * g.out_c - start;
                        let y = &mut chunk[y0..y0 + p * g.out_c];
                        let col = &mut col[..p * kdim];
                        let la = im2col(x, &g, n, oys, col);
                        gemm::gemm_rows(col, la, &wp, y, g.out_c, 0..p);
                    }
                    crate::pool::give_vec(col);
                },
            );
        }
        Tensor::from_pooled_vec((out, out_recycled), &[g.batch, g.out_h, g.out_w, g.out_c])
    }

    /// Gradient of [`Tensor::conv2d`] with respect to its *input*,
    /// parallel over images (each image's `dx` slice is disjoint).
    ///
    /// Large problems run as one packed GEMM per block of output rows, then
    /// col2im per row in row order (see the module docs); every `dx`
    /// element's summation order is fixed by its image alone, so results
    /// are bit-identical for every thread count and block height.
    ///
    /// `self` is the input (only its shape matters for geometry); `grad_out`
    /// has the forward output's shape.
    ///
    /// # Panics
    /// Panics on geometry mismatches.
    pub fn conv2d_backward_input(
        &self,
        filter: &Tensor<T>,
        grad_out: &Tensor<T>,
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(self.dims(), filter.dims(), strides, padding);
        assert_eq!(
            grad_out.dims(),
            &[g.batch, g.out_h, g.out_w, g.out_c],
            "grad_out shape mismatch"
        );
        let dy = grad_out.as_slice();
        let w = filter.as_slice();
        let (mut dx, dx_recycled) =
            crate::pool::zeroed_vec::<T>(g.batch * g.in_h * g.in_w * g.in_c);
        let img = g.in_h * g.in_w * g.in_c;
        let kdim = g.kdim();
        let use_gemm = g.macs() >= DIRECT_MAX_MACS;
        // k-major: dcolᵀ = W · dyᵀ, scattered row-wise. Otherwise Wᵀ is the
        // [out_c, kdim] B operand, packed once per call.
        let wtp = (use_gemm && !g.k_major())
            .then(|| gemm::pack_b(w, Layout::transposed(g.out_c), g.out_c, kdim));
        let block_rows = g.block_rows::<T>();
        s4tf_threads::parallel_chunks_mut(&mut dx, img, g.grain_imgs() * img, |start, chunk| {
            let n0 = start / img;
            if !use_gemm {
                for (u, dx_img) in chunk.chunks_mut(img).enumerate() {
                    backward_input_image(dy, w, dx_img, &g, n0 + u);
                }
                return;
            }
            // One patch-gradient scratch per task, reused across blocks.
            let (mut dcol, _) = crate::pool::zeroed_vec::<T>(block_rows * g.out_w * kdim);
            let mut dyt = PackedB::empty();
            let rows = n0 * g.out_h..(n0 + chunk.len() / img) * g.out_h;
            for (n, oys) in blocks(&g, rows, block_rows) {
                let dx_img = &mut chunk[(n - n0) * img..(n - n0 + 1) * img];
                let p = oys.len() * g.out_w;
                let pos0 = (n * g.out_h + oys.start) * g.out_w;
                let dcol = &mut dcol[..p * kdim];
                dcol.fill(T::zero());
                if let Some(wtp) = &wtp {
                    let la = Layout::row_major(g.out_c);
                    gemm::gemm_rows(dy, la, wtp, dcol, kdim, pos0..pos0 + p);
                    crate::simd::vectorize(|| {
                        for (oy, dcol_strip) in oys.zip(dcol.chunks_exact(g.out_w * kdim)) {
                            col2im_strip(dcol_strip, &g, oy, dx_img);
                        }
                    });
                } else {
                    let dy_block = &dy[pos0 * g.out_c..(pos0 + p) * g.out_c];
                    dyt.repack(dy_block, Layout::transposed(g.out_c), g.out_c, p);
                    gemm::gemm_rows(w, Layout::row_major(g.out_c), &dyt, dcol, p, 0..kdim);
                    for (r, oy) in oys.enumerate() {
                        col2im_strip_t(dcol, (p, r), &g, oy, dx_img);
                    }
                }
            }
            crate::pool::give_vec(dcol);
        });
        Tensor::from_pooled_vec((dx, dx_recycled), &[g.batch, g.in_h, g.in_w, g.in_c])
    }

    /// Gradient of [`Tensor::conv2d`] with respect to its *filter*,
    /// parallel over images: each task accumulates a private partial
    /// `dw`, combined in task order afterwards. Large problems add one
    /// im2col GEMM per block of output rows to the partial (see the module
    /// docs), so the summation order is per block per task: fixed for a
    /// given thread count, and different thread counts differ by rounding
    /// only.
    ///
    /// # Panics
    /// Panics on geometry mismatches.
    pub fn conv2d_backward_filter(
        &self,
        filter_dims: &[usize],
        grad_out: &Tensor<T>,
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(self.dims(), filter_dims, strides, padding);
        assert_eq!(
            grad_out.dims(),
            &[g.batch, g.out_h, g.out_w, g.out_c],
            "grad_out shape mismatch"
        );
        let x = self.as_slice();
        let dy = grad_out.as_slice();
        let kdim = g.kdim();
        let dw_len = kdim * g.out_c;
        let use_gemm = g.macs() >= DIRECT_MAX_MACS;
        let block_rows = g.block_rows::<T>();
        let partials = s4tf_threads::parallel_map_chunks(0..g.batch, g.grain_imgs(), |imgs| {
            let (mut partial, _) = crate::pool::zeroed_vec::<T>(dw_len);
            if !use_gemm {
                for n in imgs {
                    backward_filter_image(x, dy, &mut partial, &g, n);
                }
                return partial;
            }
            let (mut col, _) = crate::pool::zeroed_vec::<T>(block_rows * g.out_w * kdim);
            let mut dyp = PackedB::empty();
            for (n, oys) in blocks(&g, imgs.start * g.out_h..imgs.end * g.out_h, block_rows) {
                let p = oys.len() * g.out_w;
                let dy0 = (n * g.out_h + oys.start) * g.out_w * g.out_c;
                let dy_block = &dy[dy0..dy0 + p * g.out_c];
                dyp.repack(dy_block, Layout::row_major(g.out_c), p, g.out_c);
                let col = &mut col[..p * kdim];
                // A is the patch matrix transposed: [kdim, P].
                let la = im2col(x, &g, n, oys, col).t();
                gemm::gemm_rows(col, la, &dyp, &mut partial, g.out_c, 0..kdim);
            }
            crate::pool::give_vec(col);
            partial
        });
        let (mut dw, dw_recycled) = crate::pool::zeroed_vec::<T>(dw_len);
        for partial in partials {
            for (acc, &p) in dw.iter_mut().zip(&partial) {
                *acc += p;
            }
            crate::pool::give_vec(partial);
        }
        Tensor::from_pooled_vec((dw, dw_recycled), filter_dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn conv_identity_filter() {
        // 1x1 filter with weight 1 is the identity.
        let x = Tensor::<f32>::from_fn(&[1, 3, 3, 1], |i| i as f32);
        let f = Tensor::<f32>::ones(&[1, 1, 1, 1]);
        assert_eq!(x.conv2d(&f, (1, 1), Padding::Valid), x);
    }

    #[test]
    fn conv_known_values_valid() {
        // 2x2 box filter over a 3x3 image.
        let x = Tensor::from_vec(
            vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            &[1, 3, 3, 1],
        );
        let f = Tensor::<f32>::ones(&[2, 2, 1, 1]);
        let y = x.conv2d(&f, (1, 1), Padding::Valid);
        assert_eq!(y.dims(), &[1, 2, 2, 1]);
        assert_eq!(y.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv_same_padding_shape() {
        let x = Tensor::<f32>::ones(&[2, 5, 5, 3]);
        let f = Tensor::<f32>::ones(&[3, 3, 3, 4]);
        let y = x.conv2d(&f, (1, 1), Padding::Same);
        assert_eq!(y.dims(), &[2, 5, 5, 4]);
        // center output = 3*3*3 = 27; corner = 2*2*3 = 12
        assert_eq!(y.at(&[0, 2, 2, 0]), 27.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 12.0);
    }

    #[test]
    fn conv_stride() {
        let x = Tensor::<f32>::from_fn(&[1, 4, 4, 1], |i| i as f32);
        let f = Tensor::<f32>::ones(&[2, 2, 1, 1]);
        let y = x.conv2d(&f, (2, 2), Padding::Valid);
        assert_eq!(y.dims(), &[1, 2, 2, 1]);
        assert_eq!(y.as_slice(), &[10.0, 18.0, 42.0, 50.0]);
    }

    #[test]
    fn conv_multi_channel() {
        // Input 2 channels, filter routes channel sums to 1 output channel.
        let x = Tensor::from_vec(vec![1.0f32, 10.0], &[1, 1, 1, 2]);
        let f = Tensor::from_vec(vec![2.0f32, 3.0], &[1, 1, 2, 1]);
        let y = x.conv2d(&f, (1, 1), Padding::Valid);
        assert_eq!(y.as_slice(), &[32.0]);
    }

    /// The GEMM paths (sizes past `DIRECT_MAX_MACS`) must match the direct
    /// loops, for every stride/padding/channel combination the im2col and
    /// the two col2im walks and the panel widths distinguish — down to
    /// one-pixel-wide images, where whole kernel columns clip away.
    #[test]
    fn conv_gemm_paths_match_direct_loops() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut check = |x_dims: &[usize], (k, out_c): (usize, usize), strides, padding| {
            let in_c = x_dims[3];
            let x = Tensor::<f32>::randn(x_dims, &mut rng);
            let w = Tensor::<f32>::randn(&[k, k, in_c, out_c], &mut rng);
            let g = geometry(x.dims(), w.dims(), strides, padding);
            let what = format!("{x_dims:?} k={k} out_c={out_c} {strides:?} {padding:?}");
            assert!(
                g.macs() >= DIRECT_MAX_MACS,
                "{what} must take the GEMM path"
            );
            // dw sums ~10³ products per entry: keep them O(1) so the
            // absolute tolerance bounds rounding, not magnitude.
            let dy = Tensor::<f32>::randn(&[g.batch, g.out_h, g.out_w, g.out_c], &mut rng)
                .mul_scalar(0.03);

            let y = x.conv2d(&w, strides, padding);
            let mut direct = vec![0.0f32; y.num_elements()];
            conv2d_direct(x.as_slice(), w.as_slice(), &mut direct, &g);
            let direct = Tensor::from_vec(direct, y.dims());
            assert!(y.allclose(&direct, 1e-4), "y {what}");

            let dx = x.conv2d_backward_input(&w, &dy, strides, padding);
            let mut direct = vec![0.0f32; x.num_elements()];
            let img = g.in_h * g.in_w * g.in_c;
            for (n, dx_img) in direct.chunks_mut(img).enumerate() {
                backward_input_image(dy.as_slice(), w.as_slice(), dx_img, &g, n);
            }
            let direct = Tensor::from_vec(direct, x.dims());
            assert!(dx.allclose(&direct, 1e-4), "dx {what}");

            let dw = x.conv2d_backward_filter(w.dims(), &dy, strides, padding);
            let mut direct = vec![0.0f32; w.num_elements()];
            for n in 0..g.batch {
                backward_filter_image(x.as_slice(), dy.as_slice(), &mut direct, &g, n);
            }
            let direct = Tensor::from_vec(direct, w.dims());
            assert!(dw.allclose(&direct, 1e-4), "dw {what}");
        };
        for (in_c, filter) in [
            (1, (5, 6)),
            (3, (3, 17)),
            (4, (3, 8)),
            (6, (3, 16)),
            (16, (1, 9)),
        ] {
            for strides in [(1, 1), (2, 2), (2, 1)] {
                for padding in [Padding::Same, Padding::Valid] {
                    check(&[4, 20, 22, in_c], filter, strides, padding);
                }
            }
        }
        for in_c in [1, 3] {
            for strides in [(1, 1), (1, 2)] {
                check(&[8, 40, 1, in_c], (5, 32), strides, Padding::Same);
            }
        }
    }

    /// Finite-difference check of both gradient kernels, on a shape that
    /// runs the direct loops and one past `DIRECT_MAX_MACS` (f64 takes the
    /// scalar GEMM kernel there).
    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (x_dims, w_dims) in [([2, 5, 5, 2], [3, 3, 2, 3]), ([3, 13, 12, 3], [3, 3, 3, 8])] {
            let x = Tensor::<f64>::randn(&x_dims, &mut rng);
            let w = Tensor::<f64>::randn(&w_dims, &mut rng);
            for padding in [Padding::Same, Padding::Valid] {
                let strides = (2, 1);
                let gemm_path =
                    geometry(&x_dims, &w_dims, strides, padding).macs() >= DIRECT_MAX_MACS;
                assert_eq!(gemm_path, x_dims[0] == 3, "shapes must cover both paths");
                let y = x.conv2d(&w, strides, padding);
                // loss = sum(y); dL/dy = ones
                let dy = Tensor::<f64>::ones(y.dims());
                let dx = x.conv2d_backward_input(&w, &dy, strides, padding);
                let dw = x.conv2d_backward_filter(w.dims(), &dy, strides, padding);
                let eps = 1e-5;
                // Check a sample of input coordinates.
                for flat in [0usize, 7, 23, 49] {
                    let mut xp = x.clone();
                    xp.as_mut_slice()[flat] += eps;
                    let mut xm = x.clone();
                    xm.as_mut_slice()[flat] -= eps;
                    let num = (xp.conv2d(&w, strides, padding).sum().scalar_value()
                        - xm.conv2d(&w, strides, padding).sum().scalar_value())
                        / (2.0 * eps);
                    assert!(
                        (num - dx.as_slice()[flat]).abs() < 1e-5,
                        "dx[{flat}] fd={num} ad={}",
                        dx.as_slice()[flat]
                    );
                }
                for flat in [0usize, 5, 17, 53] {
                    let mut wp = w.clone();
                    wp.as_mut_slice()[flat] += eps;
                    let mut wm = w.clone();
                    wm.as_mut_slice()[flat] -= eps;
                    let num = (x.conv2d(&wp, strides, padding).sum().scalar_value()
                        - x.conv2d(&wm, strides, padding).sum().scalar_value())
                        / (2.0 * eps);
                    assert!(
                        (num - dw.as_slice()[flat]).abs() < 1e-5,
                        "dw[{flat}] fd={num} ad={}",
                        dw.as_slice()[flat]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_channel_mismatch_panics() {
        let x = Tensor::<f32>::ones(&[1, 3, 3, 2]);
        let f = Tensor::<f32>::ones(&[2, 2, 3, 1]);
        x.conv2d(&f, (1, 1), Padding::Valid);
    }
}
