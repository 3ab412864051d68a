//! 2-D convolution kernels (NHWC layout, HWIO filters — TensorFlow's
//! convention, which the paper's `Conv2D` layer uses) and the two gradient
//! kernels the `Conv2D` pullback needs.
//!
//! Past [`DIRECT_MAX_MACS`] all three kernels lower to the packed GEMM in
//! [`super::gemm`], one `(image, output row)` strip at a time, around the
//! same k-major im2col scratch ([`im2col_strip_t`], `kdim × out_w` with
//! `kdim = k_h·k_w·in_c`):
//!
//! * **forward** — HWIO filters flatten row-major to exactly the
//!   `[kdim, out_c]` B operand; each strip is `col[out_w, kdim] · W`.
//! * **input gradient** — `dcol[out_w, kdim] = dy_strip[out_w, out_c] · Wᵀ`
//!   (`Wᵀ` packed once per call, the NHWC `dy` rows read in place), then
//!   [`col2im_strip`] scatter-adds `dcol` into the image's `dx` rows: the
//!   inverse of the im2col index walk, so every stride and both paddings
//!   share one routine. Single-channel stride-1 inputs (LeNet's first
//!   layer) take the transposed product `dcolᵀ = W · dy_stripᵀ` instead,
//!   whose k-major result scatters as whole contiguous rows
//!   ([`col2im_strip_t`]) rather than `k_w`-element runs.
//! * **filter gradient** — `dw += colt[kdim, out_w] · dy_strip[out_w, out_c]`:
//!   the k-major scratch is already the row-major A operand, accumulated
//!   over strips with the engine's `C +=`.
//!
//! Scratch is one strip per task for every kernel. Smaller problems run
//! the direct loops below, which are also the tests' oracle. Work splits
//! across the thread pool over `batch × out_h` strips (forward) and over
//! images (both gradients).

use super::gemm::{self, Layout, PackedB};
use crate::dtype::Float;
use crate::tensor::Tensor;
use crate::Padding;

/// Below this many multiply-accumulates the direct loops beat the
/// im2col + GEMM lowering (scratch setup dominates).
const DIRECT_MAX_MACS: usize = 1 << 15;

/// Target multiply-accumulates per parallel chunk.
const CHUNK_MACS: usize = 1 << 16;

/// Validated geometry for one conv2d application.
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
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

    /// Images per parallel chunk for the gradient kernels.
    fn grain_imgs(&self) -> usize {
        (CHUNK_MACS / (self.macs() / self.batch.max(1)).max(1)).max(1)
    }
}

fn geometry(
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

/// Fills `colt` (`kdim × out_w`, *k-major*) with the transposed patch
/// matrix for output row `oy` of image `n`; padded positions become
/// zeros.
///
/// k-major layout makes each `(ky, kx, ic)` scratch row a strided walk
/// along one input row, so single-channel stride-1 convolutions (the
/// LeNet c1 shape) fill a whole row with one `copy_from_slice` instead
/// of `out_w` single-element copies — the scratch fill was the dominant
/// cost of small-channel strips, not the GEMM. The GEMM reads the
/// scratch through a transposed [`Layout`] (stride swap), which changes
/// neither the values nor any element's summation order.
fn im2col_strip_t<T: Float>(x: &[T], g: &ConvGeom, n: usize, oy: usize, colt: &mut [T]) {
    let (sh, sw) = g.stride;
    let krow = g.in_c * g.out_w;
    for ky in 0..g.k_h {
        let iy = (oy * sh + ky) as isize - g.pad_top as isize;
        let krows = &mut colt[ky * g.k_w * krow..(ky + 1) * g.k_w * krow];
        if iy < 0 || iy as usize >= g.in_h {
            krows.fill(T::zero());
            continue;
        }
        let row_base = (n * g.in_h + iy as usize) * g.in_w * g.in_c;
        for kx in 0..g.k_w {
            let off = kx as isize - g.pad_left as isize;
            let (ox_lo, ox_hi) = g.ox_range(off);
            let rows = &mut krows[kx * krow..(kx + 1) * krow];
            if g.in_c == 1 && sw == 1 {
                rows[..ox_lo].fill(T::zero());
                rows[ox_hi..].fill(T::zero());
                // A kernel column wholly outside a narrow image is empty.
                if ox_lo < ox_hi {
                    let src0 = (row_base as isize + ox_lo as isize + off) as usize;
                    rows[ox_lo..ox_hi].copy_from_slice(&x[src0..src0 + (ox_hi - ox_lo)]);
                }
            } else {
                for ic in 0..g.in_c {
                    let row = &mut rows[ic * g.out_w..(ic + 1) * g.out_w];
                    row[..ox_lo].fill(T::zero());
                    row[ox_hi..].fill(T::zero());
                    for (ox, slot) in row[ox_lo..ox_hi].iter_mut().enumerate() {
                        let ix = ((ox_lo + ox) * sw) as isize + off;
                        *slot = x[row_base + ix as usize * g.in_c + ic];
                    }
                }
            }
        }
    }
}

/// Scatter-adds `dcol` (`out_w × kdim`, patch-major: the gradient of
/// output row `oy`'s im2col matrix) into one image's `dx` rows — the
/// inverse of [`im2col_strip_t`]'s index walk, so every stride and both
/// paddings go through the same clipping.
///
/// Patch-major makes each `(ox, ky)` a single run: the `k_w × in_c`
/// gradient values of one kernel row land on consecutive `(ix, ic)`
/// input positions, clipped at the image's left and right edge.
///
/// `inline(always)` so the add loops compile inside the caller's
/// [`crate::simd::vectorize`] frame (8-wide on the lane path; plain adds,
/// so the values are the same on both paths).
#[inline(always)]
fn col2im_strip<T: Float>(dcol: &[T], g: &ConvGeom, oy: usize, dx_img: &mut [T]) {
    let (sh, sw) = g.stride;
    let kdim = g.kdim();
    let krow = g.k_w * g.in_c;
    for ky in 0..g.k_h {
        let iy = (oy * sh + ky) as isize - g.pad_top as isize;
        if iy < 0 || iy as usize >= g.in_h {
            continue;
        }
        let row = iy as usize * g.in_w * g.in_c;
        let dx_row = &mut dx_img[row..row + g.in_w * g.in_c];
        for ox in 0..g.out_w {
            // `ix = ix0 + kx` must stay in `[0, in_w)`; never empty, as
            // `-k_w < ix0 < in_w` for both paddings.
            let ix0 = (ox * sw) as isize - g.pad_left as isize;
            let kx_lo = (-ix0).clamp(0, g.k_w as isize) as usize;
            let kx_hi = (g.in_w as isize - ix0).clamp(kx_lo as isize, g.k_w as isize) as usize;
            let src = &dcol[ox * kdim + ky * krow..][kx_lo * g.in_c..kx_hi * g.in_c];
            let dst0 = (ix0 + kx_lo as isize) as usize * g.in_c;
            for (d, &s) in dx_row[dst0..dst0 + src.len()].iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

/// [`col2im_strip`] for a k-major `dcolt` (`kdim × out_w`) of a
/// single-channel stride-1 input: the exact inverse of
/// [`im2col_strip_t`]'s `copy_from_slice` fast path, one contiguous
/// add per `(ky, kx)` row.
fn col2im_strip_t<T: Float>(dcolt: &[T], g: &ConvGeom, oy: usize, dx_img: &mut [T]) {
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
            let src = &dcolt[(ky * g.k_w + kx) * g.out_w..][ox_lo..ox_hi];
            let dst0 = (ox_lo as isize + off) as usize;
            for (d, &s) in dx_row[dst0..dst0 + src.len()].iter_mut().zip(src) {
                *d += s;
            }
        }
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
    /// Large problems run as im2col + packed GEMM, parallel over
    /// `batch × out_h` strips; results are bit-identical for every
    /// thread count.
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
            let strip_macs = (strip * kdim).max(1);
            let grain_strips = (CHUNK_MACS / strip_macs).max(1);
            s4tf_threads::parallel_chunks_mut(
                &mut out,
                strip,
                grain_strips * strip,
                |start, chunk| {
                    // One im2col scratch per chunk, reused across strips.
                    let mut colt = vec![T::zero(); g.out_w * kdim];
                    let strip0 = start / strip;
                    for (u, cslice) in chunk.chunks_mut(strip).enumerate() {
                        let id = strip0 + u;
                        let (n, oy) = (id / g.out_h, id % g.out_h);
                        im2col_strip_t(x, &g, n, oy, &mut colt);
                        gemm::gemm_rows(
                            &colt,
                            Layout::transposed(g.out_w),
                            &wp,
                            cslice,
                            g.out_c,
                            0..g.out_w,
                        );
                    }
                },
            );
        }
        Tensor::from_pooled_vec((out, out_recycled), &[g.batch, g.out_h, g.out_w, g.out_c])
    }

    /// Gradient of [`Tensor::conv2d`] with respect to its *input*,
    /// parallel over images (each image's `dx` slice is disjoint).
    ///
    /// Large problems run as packed GEMM + col2im per output row (see the
    /// module docs); every `dx` element's summation order is fixed by its
    /// image alone, so results are bit-identical for every thread count.
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
        // Single-channel stride-1: dcolᵀ = W · dyᵀ, scattered row-wise.
        let k_major = g.in_c == 1 && g.stride.1 == 1;
        // Otherwise Wᵀ is the [out_c, kdim] B operand, packed once per call.
        let wtp = (use_gemm && !k_major)
            .then(|| gemm::pack_b(w, Layout::transposed(g.out_c), g.out_c, kdim));
        s4tf_threads::parallel_chunks_mut(&mut dx, img, g.grain_imgs() * img, |start, chunk| {
            let n0 = start / img;
            if !use_gemm {
                for (u, dx_img) in chunk.chunks_mut(img).enumerate() {
                    backward_input_image(dy, w, dx_img, &g, n0 + u);
                }
                return;
            }
            // One patch-gradient scratch per chunk, reused across strips.
            let mut dcol = vec![T::zero(); g.out_w * kdim];
            let mut dyt = PackedB::empty();
            for (u, dx_img) in chunk.chunks_mut(img).enumerate() {
                for oy in 0..g.out_h {
                    let row0 = ((n0 + u) * g.out_h + oy) * g.out_w;
                    dcol.fill(T::zero());
                    if let Some(wtp) = &wtp {
                        gemm::gemm_rows(
                            dy,
                            Layout::row_major(g.out_c),
                            wtp,
                            &mut dcol,
                            kdim,
                            row0..row0 + g.out_w,
                        );
                        crate::simd::vectorize(|| col2im_strip(&dcol, &g, oy, dx_img));
                    } else {
                        dyt.repack(
                            &dy[row0 * g.out_c..(row0 + g.out_w) * g.out_c],
                            Layout::transposed(g.out_c),
                            g.out_c,
                            g.out_w,
                        );
                        gemm::gemm_rows(
                            w,
                            Layout::row_major(g.out_c),
                            &dyt,
                            &mut dcol,
                            g.out_w,
                            0..kdim,
                        );
                        col2im_strip_t(&dcol, &g, oy, dx_img);
                    }
                }
            }
        });
        Tensor::from_pooled_vec((dx, dx_recycled), &[g.batch, g.in_h, g.in_w, g.in_c])
    }

    /// Gradient of [`Tensor::conv2d`] with respect to its *filter*,
    /// parallel over images: each chunk accumulates a private partial
    /// `dw`, combined in chunk order afterwards (so within every chunk
    /// the summation order is the serial one, and thread counts differ by
    /// rounding only). Large problems accumulate each partial as one
    /// im2col GEMM per output row (see the module docs).
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
        let partials = s4tf_threads::parallel_map_chunks(0..g.batch, g.grain_imgs(), |imgs| {
            let mut partial = vec![T::zero(); dw_len];
            if !use_gemm {
                for n in imgs {
                    backward_filter_image(x, dy, &mut partial, &g, n);
                }
                return partial;
            }
            // The k-major im2col scratch is the row-major [kdim, out_w] A
            // operand; the strip's dy rows are the [out_w, out_c] B operand.
            let mut colt = vec![T::zero(); kdim * g.out_w];
            let strip = g.out_w * g.out_c;
            let mut dyp = PackedB::empty();
            for n in imgs {
                for oy in 0..g.out_h {
                    im2col_strip_t(x, &g, n, oy, &mut colt);
                    let dy0 = (n * g.out_h + oy) * strip;
                    dyp.repack(
                        &dy[dy0..dy0 + strip],
                        Layout::row_major(g.out_c),
                        g.out_w,
                        g.out_c,
                    );
                    gemm::gemm_rows(
                        &colt,
                        Layout::row_major(g.out_w),
                        &dyp,
                        &mut partial,
                        g.out_c,
                        0..kdim,
                    );
                }
            }
            partial
        });
        let (mut dw, dw_recycled) = crate::pool::zeroed_vec::<T>(dw_len);
        for partial in partials {
            for (acc, p) in dw.iter_mut().zip(partial) {
                *acc += p;
            }
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
