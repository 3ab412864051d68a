//! 2-D convolution kernels (NHWC layout, HWIO filters — TensorFlow's
//! convention, which the paper's `Conv2D` layer uses) and the two gradient
//! kernels the `Conv2D` pullback needs.
//!
//! Every geometry takes one of two lowerings, whatever its size; the
//! direct loops the unit tests hold them to are compiled for tests only.
//!
//! **Single-channel inputs** with column stride 1 (LeNet's first layer,
//! [`ConvGeom::single_channel`]) run direct lane kernels. Each image is
//! copied once into a zero-padded plane, so every `(ky, kx)` tap of an
//! output row is one unaligned lane load at column offset `kx`: no patch
//! matrix, no packed operand. Lanes run along output columns.
//!
//! * **forward** — a register tile of 6 channels × 16 columns. Each output
//!   element is one multiply-add chain from zero over the taps in `kk`
//!   order, stored into the zeroed output: the GEMM's arithmetic, so the
//!   bits are the GEMM lowering's.
//! * **input gradient** — `dy` transposed into zero-bordered channel rows.
//!   A 32-column tile of a padded `dx` row stays in registers while each
//!   `kx`, in order, adds its tap's sum over channels (a chain from zero in
//!   channel order) read through shifted lane loads: per `dx` cell, the
//!   order the GEMM lowering's scatter added the same sums in, so the bits
//!   are unchanged.
//! * **filter gradient** — `dy` transposed into 8-column chunks; a
//!   register tile of 2 taps × 6 channels reduced over an image, then one
//!   horizontal sum into the task's partial: a new summation order,
//!   different by rounding only.
//!
//! **Everything else** lowers to the packed GEMM in [`super::gemm`], whose
//! A operand is indexed ([`gemm::Index`]): no patch matrix is built. Each
//! image's rows that a task's output rows read are copied once into a
//! zero-padded plane ([`patches`]); Valid and 1×1 windows, which never
//! reach padding, read the image itself ([`ConvGeom::in_place`]). Output
//! position `p`'s patch is then `k_h` runs of `k_w·in_c` floats at fixed
//! offsets in the plane ([`ConvGeom::patch_walks`]), and the GEMM reads
//! them where they lie. Every output element keeps its sum over its whole
//! window in k-order, the padding's zeros included.
//!
//! * **forward** — HWIO filters flatten row-major to exactly the
//!   `[kdim, out_c]` B operand (`kdim = k_h·k_w·in_c`); one GEMM per image
//!   share of a task, split over `batch × out_h` output rows
//!   ([`forward_patches`]).
//! * **input gradient** — for stride (1, 1) and at least [`LANES`] input
//!   channels ([`ConvGeom::dx_as_conv`]), the forward lowering run on the
//!   transposed problem `dx = dy ⊛ rot180(W)ᵀ` ([`ConvGeom::transposed`],
//!   [`rotated_filter`]): `dy` padded by `k − 1 − pad` on each side, split
//!   over `batch × in_h` rows of `dx`. Each `dx` cell is one k-order sum
//!   over `(ky, kx, out_c)` of its window, a summation order of its own
//!   (the scatter below added the same products per tap). A filter with a
//!   non-finite weight takes the scatter, which never multiplies padding.
//!   Inputs with fewer than [`LANES`] channels ([`ConvGeom::dx_in_batch_lanes`],
//!   LeNet's c2) run [`dx_batch_lanes`]: lanes along the batch, each `dx`
//!   cell summed over the taps inside the image only, in the scatter's
//!   order, so the bits are the scatter's. Strided geometries with at
//!   least [`LANES`] channels keep `dcol[P, kdim] = dy_block[P, out_c] ·
//!   Wᵀ` per block of output rows (`Wᵀ` packed once per call, the NHWC `dy`
//!   rows read in place), then [`col2im_strip`] scatter-adds `dcol` into
//!   the image's `dx` rows, one output row at a time in row order, split
//!   over images.
//! * **filter gradient** — `dw += colᵀ[kdim, P] · dy_block[P, out_c]` with
//!   `colᵀ` the forward's two walks with their roles swapped: the rows are
//!   taps and the reduction runs over the block's `P` positions, one run
//!   per output row, with `dy` packed once per block; split over images.
//!
//! [`ConvGeom::lowering`] and [`ConvGeom::dx_lowering`] name the path each
//! geometry takes.
//!
//! Scratch (planes, `dcol` blocks, the rotated filter, batch-lane `dy`
//! and `dx`, packed operands) is per task or per call, taken from and
//! returned to [`crate::pool`].

use std::any::TypeId;
use std::ops::Range;

use super::gemm::{self, Index, Layout, PackedB, Walk};
use crate::dtype::Float;
use crate::pool::Scratch;
use crate::simd::{self, L8, LANES};
use crate::tensor::Tensor;
use crate::Padding;

/// Target multiply-accumulates per parallel task.
const CHUNK_MACS: usize = 1 << 16;

/// Upper bound on the patch matrix one block of the filter gradient, or of
/// the col2im input gradient, reduces over or scatters (`P × kdim`
/// elements). Blocks of 4 rows, 8 rows and a whole 32×32×16 image measured
/// within 4 % of each other, so the bound only keeps a task's working set
/// inside L2 next to the packed operand.
const BLOCK_SCRATCH_BYTES: usize = 192 << 10;

/// How a kernel runs one geometry: what [`ConvGeom::lowering`] picks for
/// the forward pass and the filter gradient, and [`ConvGeom::dx_lowering`]
/// for the input gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lowering {
    /// The single-channel lane kernels ([`ConvGeom::single_channel`]).
    SingleChannel,
    /// The packed GEMM reading patches in place, from a zero-padded plane
    /// or from the image itself ([`ConvGeom::in_place`]).
    Patches,
    /// The input gradient as [`Lowering::Patches`] on `dy` and the rotated
    /// filter ([`ConvGeom::dx_as_conv`]).
    RotatedConv,
    /// The input gradient of inputs narrower than a lane
    /// ([`ConvGeom::dx_in_batch_lanes`]): each `dx` cell summed over the
    /// taps inside the image, lanes along the batch ([`dx_batch_lanes`]).
    BatchLanes,
    /// The input gradient as `dcol = dy · Wᵀ`, block by block, then the
    /// [`col2im_strip`] scatter.
    Col2im,
}

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
    /// Patch length: the GEMM reduction dimension.
    fn kdim(&self) -> usize {
        self.k_h * self.k_w * self.in_c
    }

    /// Multiply-accumulates of the forward pass (and of each gradient).
    /// Zero for an empty batch, image, window or channel set: every
    /// output is empty or zero, and the kernels return it before any
    /// lowering sizes a plane or a block (they assume a row to read).
    fn macs(&self) -> usize {
        self.batch * self.out_h * self.out_w * self.out_c * self.kdim()
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

    /// Whether the single-channel direct kernels run this geometry: one
    /// input channel and column stride 1, so a tap of an output row reads
    /// consecutive columns of one padded input row.
    fn single_channel(&self) -> bool {
        self.in_c == 1 && self.stride.1 == 1
    }

    /// The lowering of the forward pass and the filter gradient.
    fn lowering(&self) -> Lowering {
        if self.single_channel() {
            Lowering::SingleChannel
        } else {
            Lowering::Patches
        }
    }

    /// The lowering of the input gradient for finite weights (a filter with
    /// a non-finite weight takes [`Lowering::Col2im`] instead of
    /// [`Lowering::RotatedConv`]: see [`Tensor::conv2d_backward_input`]).
    fn dx_lowering(&self) -> Lowering {
        match self.lowering() {
            Lowering::Patches if self.dx_in_batch_lanes() => Lowering::BatchLanes,
            Lowering::Patches if self.dx_as_conv() => Lowering::RotatedConv,
            Lowering::Patches => Lowering::Col2im,
            other => other,
        }
    }

    /// Whether the input gradient runs with lanes along the batch
    /// ([`dx_batch_lanes`]): fewer than [`LANES`] input channels, too few
    /// to fill a lane of any GEMM's N. Each cell sums only the taps inside
    /// the image, so no multiply-add is spent on padding. LeNet's c2
    /// (`in_c` 6) read 0.3× its forward's GFLOP/s on the col2im scatter,
    /// whose `dcol` GEMM runs at K = 16, and would double its
    /// multiply-adds as a transposed conv with full padding; lanes along
    /// its columns (10 of 16 useful per tap) reached 0.5×. Here it reads
    /// 0.6–0.7×, in 0.62× the scatter's time (batch 16, 1 thread).
    fn dx_in_batch_lanes(&self) -> bool {
        self.in_c < LANES
    }

    /// Whether the input gradient runs as the forward convolution of `dy`
    /// with the rotated, transposed filter ([`ConvGeom::transposed`]):
    /// stride (1, 1), so every `dx` cell is one window of the padded `dy`,
    /// and at least [`LANES`] input channels, so the transposed GEMM's N
    /// fills a lane (narrower inputs take [`ConvGeom::dx_in_batch_lanes`]:
    /// LeNet's Valid c2, `in_c` 6, ran no faster as a transposed conv,
    /// 0.9–1.3× the scatter's time, whose full padding doubles its
    /// multiply-adds and whose 6 channels fill 6 of a lane's 8). Strided
    /// geometries keep the col2im scatter.
    fn dx_as_conv(&self) -> bool {
        self.stride == (1, 1) && self.in_c >= LANES
    }

    /// The geometry of `dx = dy ⊛ rot180(W)ᵀ` at stride (1, 1): `dy` is the
    /// input, `in_c` the output channels, and each edge is padded by
    /// `k − 1 − pad` (`pad` the forward's padding there), so that the window
    /// of `dx` cell `i` covers every `dy` cell whose window covered `i`.
    fn transposed(&self) -> ConvGeom {
        debug_assert_eq!(self.stride, (1, 1));
        ConvGeom {
            batch: self.batch,
            in_h: self.out_h,
            in_w: self.out_w,
            in_c: self.out_c,
            k_h: self.k_h,
            k_w: self.k_w,
            out_c: self.in_c,
            out_h: self.in_h,
            out_w: self.in_w,
            pad_top: self.k_h - 1 - self.pad_top,
            pad_left: self.k_w - 1 - self.pad_left,
            stride: (1, 1),
        }
    }

    /// Columns of the GEMM lowering's padded plane: every column an output
    /// column's window reads, padding included (`pad_left` of it).
    fn patch_cols(&self) -> usize {
        (self.out_w - 1) * self.stride.1 + self.k_w
    }

    /// Rows of the padded plane that `rows` output rows read.
    fn patch_rows(&self, rows: usize) -> usize {
        (rows - 1) * self.stride.0 + self.k_h
    }

    /// Whether every window lies inside the image (no padding reached, as
    /// for Valid and 1×1 convolutions), so the GEMM lowering reads its
    /// patches from the input itself, with no plane to fill. Filling the
    /// plane anyway, at batch 16 on 1 thread (min of 100 calls, 10
    /// alternating runs), cost ResNet's 1×1/2 shortcuts 21–34 % of their
    /// forward and filter gradient (the plane copies the strided rows
    /// whole) and LeNet's Valid c2 1–2 %.
    fn in_place(&self) -> bool {
        self.pad_top == 0
            && self.pad_left == 0
            && self.patch_rows(self.out_h) <= self.in_h
            && self.patch_cols() <= self.in_w
    }

    /// Elements of one row of what the GEMM lowering reads patches from:
    /// the input image when [`ConvGeom::in_place`], else its padded plane.
    fn patch_row(&self) -> usize {
        if self.in_place() {
            self.in_w * self.in_c
        } else {
            self.patch_cols() * self.in_c
        }
    }

    /// Elements of the padded plane that `rows` output rows read.
    fn patch_plane(&self, rows: usize) -> usize {
        self.patch_rows(rows) * self.patch_row()
    }

    /// The two walks over the rows patches are read from ([`patches`])
    /// when the first is the first window's: output position `p` starts
    /// `p / out_w` output rows and `p % out_w` columns in, and patch
    /// element `(ky, kx, ic)` lies `ky` rows and `kx·in_c + ic` elements
    /// past it — `k_h` runs of `k_w·in_c` floats.
    fn patch_walks(&self) -> (Walk, Walk) {
        let row = self.patch_row();
        let position = Walk {
            len: self.out_w,
            step: self.stride.1 * self.in_c,
            outer: self.stride.0 * row,
        };
        let tap = Walk {
            len: self.k_w * self.in_c,
            step: 1,
            outer: row,
        };
        (position, tap)
    }

    /// Columns the single-channel kernels compute per output row: `out_w`
    /// in whole register tiles.
    fn tile_cols(&self) -> usize {
        self.out_w.next_multiple_of(COLS)
    }

    /// Channel rows of a transposed `dy` chunk ([`transpose_dy_chunks`]):
    /// `out_c` in whole groups.
    fn dy_chans(&self) -> usize {
        self.out_c.next_multiple_of(GROUP)
    }

    /// Rows of the padded plane: every input row an output row reads,
    /// padding included (`pad_top` of it above the image).
    fn plane_h(&self) -> usize {
        (self.out_h - 1) * self.stride.0 + self.k_h
    }

    /// Elements of the padded plane's scratch: [`ConvGeom::plane_h`] rows
    /// and a row stride of slack, so that every tap's walk over the output
    /// rows reads whole strides.
    fn plane_len(&self) -> usize {
        (self.plane_h() + self.stride.0) * self.plane_w()
    }

    /// Columns of the padded plane: every tap of every computed column.
    fn plane_w(&self) -> usize {
        self.tile_cols() + self.k_w - 1
    }

    /// Columns of the padded `dx` plane: the image and its left padding,
    /// in whole `dx` tiles.
    fn dx_plane_w(&self) -> usize {
        (self.pad_left + self.in_w).next_multiple_of(DX_COLS)
    }

    /// Elements of one channel row of the `dx` kernel's transposed `dy`
    /// ([`transpose_dy_rows`]): a `k_w − 1` border, then every column a
    /// shifted tap reads.
    fn dy_row_w(&self) -> usize {
        self.k_w - 1 + self.dx_plane_w()
    }

    /// Output rows per gradient block: the most whose patch matrix fits
    /// [`BLOCK_SCRATCH_BYTES`], evened out over the image so the last block
    /// is not a sliver.
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

    /// Images per parallel task of the gradient kernels split over images.
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

/// What output rows `oys` of image `x_img` read their patches from, first
/// row first ([`ConvGeom::patch_walks`]): the image itself when
/// [`ConvGeom::in_place`], else `plane` filled with the input rows they
/// read, zeros in the padding around them.
fn patches<'a, T: Float>(
    x_img: &'a [T],
    g: &ConvGeom,
    oys: Range<usize>,
    plane: &'a mut Scratch<T>,
) -> &'a [T] {
    let row = g.patch_row();
    if g.in_place() {
        return &x_img[oys.start * g.stride.0 * row..];
    }
    let plane = &mut plane[..g.patch_plane(oys.len())];
    let x_row = g.in_w * g.in_c;
    // The image columns some window reads.
    let (lo, hi) = (
        g.pad_left * g.in_c,
        (g.pad_left + g.in_w).min(g.patch_cols()) * g.in_c,
    );
    let y0 = oys.start * g.stride.0;
    for (r, p_row) in plane.chunks_exact_mut(row).enumerate() {
        match (y0 + r).checked_sub(g.pad_top).filter(|&iy| iy < g.in_h) {
            Some(iy) => {
                p_row[..lo].fill(T::zero());
                p_row[lo..hi].copy_from_slice(&x_img[iy * x_row..][..hi - lo]);
                p_row[hi..].fill(T::zero());
            }
            None => p_row.fill(T::zero()),
        }
    }
    plane
}

/// Scratch for [`patches`] over at most `rows` output rows: none when the
/// geometry reads in place.
fn plane_scratch<T: Float>(g: &ConvGeom, rows: usize) -> Scratch<T> {
    if g.in_place() {
        Scratch::default()
    } else {
        Scratch::zeroed(g.patch_plane(rows))
    }
}

/// `out += x ⊛ W` on the packed GEMM, `wp` the `[kdim, out_c]` filter:
/// split over `batch × out_h` output rows, each task copies the input rows
/// its share of an image reads into a padded plane (unless the windows lie
/// inside the image, [`patches`]) and multiplies the patches, read in
/// place, by `wp` in one GEMM. Every output element is one k-order sum over
/// its whole window, the padding's zeros included, whatever the split.
fn forward_patches<T: Float>(x: &[T], wp: &PackedB<T>, out: &mut [T], g: &ConvGeom) {
    let (img, strip) = (g.in_h * g.in_w * g.in_c, g.out_w * g.out_c);
    let (position, tap) = g.patch_walks();
    let ia = Index {
        row: position,
        red: tap,
    };
    s4tf_threads::parallel_chunks_mut(out, strip, g.grain_rows() * strip, |start, chunk| {
        let rows = start / strip..(start + chunk.len()) / strip;
        let mut plane = plane_scratch(g, rows.len().min(g.out_h));
        for (n, oys) in blocks(g, rows, g.out_h) {
            let p = oys.len() * g.out_w;
            let y0 = (n * g.out_h + oys.start) * strip - start;
            let a = patches(&x[n * img..(n + 1) * img], g, oys, &mut plane);
            let y = &mut chunk[y0..y0 + p * g.out_c];
            gemm::gemm_rows(a, ia, wp, y, g.out_c, 0..p);
        }
    });
}

/// `rot180(W)ᵀ` in HWIO for [`ConvGeom::transposed`]: tap `(ky, kx)` holds
/// tap `(k_h − 1 − ky, k_w − 1 − kx)` of `w` with its `in_c × out_c`
/// block transposed.
fn rotated_filter<T: Float>(w: &[T], g: &ConvGeom) -> Scratch<T> {
    let (ci, co) = (g.in_c, g.out_c);
    let mut wr = Scratch::zeroed(w.len());
    for (tap, src) in wr
        .chunks_exact_mut(co * ci)
        .rev()
        .zip(w.chunks_exact(ci * co))
    {
        for (oc, dst) in tap.chunks_exact_mut(ci).enumerate() {
            for (d, s) in dst.iter_mut().zip(src.chunks_exact(co)) {
                *d = s[oc];
            }
        }
    }
    wr
}

/// Scatter-adds `dcol` (`out_w × kdim`, patch-major: the gradient of
/// output row `oy`'s patch matrix) into one image's `dx` rows, run by run:
/// each `(position, ky)` is one run of `k_w·in_c` cells, clipped at the
/// image's edges ([`ConvGeom::kx_range`]).
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

// ------------------------------------------------ single-channel kernels

/// Columns of a single-channel register tile: two lanes.
const COLS: usize = 2 * LANES;
/// Channels of a single-channel register tile: the forward's 6 × 2 lanes
/// and the `dw` tile's 2 taps × 6 are 12 vector accumulators.
const GROUP: usize = 6;
/// Taps of a `dw` register tile (× [`GROUP`] channels, one lane each).
const DW_TAPS: usize = 2;
/// Columns of a `dx` register tile: four lanes of `dx` sums and four of
/// tap sums.
const DX_COLS: usize = 4 * LANES;

/// One 8-wide row of the single-channel kernels, which are written once
/// over this trait: [`L8`] on the lane path, whose `mac` is one fused
/// multiply-add, and [`Plain`] on the scalar path, whose `mac` is
/// `acc + a·b` with two roundings — the scalar GEMM's arithmetic.
trait Lane: Copy {
    type E: Float;
    fn zero() -> Self;
    fn splat(v: Self::E) -> Self;
    /// The first [`LANES`] elements of `s`.
    fn load(s: &[Self::E]) -> Self;
    /// A mask: lane `j` set where `set[j]`.
    fn keep(set: [bool; LANES]) -> Self;
    /// The lanes the mask `m` sets, zeros in the others.
    fn and(self, m: Self) -> Self;
    /// `self + a·b`.
    fn mac(self, a: Self, b: Self) -> Self;
    fn add(self, b: Self) -> Self;
    fn store(self, s: &mut [Self::E]);
    fn to_array(self) -> [Self::E; LANES];
    /// Horizontal sum, left to right.
    fn hsum(self) -> Self::E;
}

impl Lane for L8 {
    type E = f32;
    #[inline(always)]
    fn zero() -> L8 {
        L8::zero()
    }
    #[inline(always)]
    fn splat(v: f32) -> L8 {
        L8::splat(v)
    }
    #[inline(always)]
    fn load(s: &[f32]) -> L8 {
        L8::load(s)
    }
    #[inline(always)]
    fn keep(set: [bool; LANES]) -> L8 {
        L8(std::array::from_fn(|j| {
            f32::from_bits(if set[j] { u32::MAX } else { 0 })
        }))
    }
    #[inline(always)]
    fn and(self, m: L8) -> L8 {
        L8(std::array::from_fn(|j| {
            f32::from_bits(self.0[j].to_bits() & m.0[j].to_bits())
        }))
    }
    #[inline(always)]
    fn mac(self, a: L8, b: L8) -> L8 {
        a.mul_add(b, self)
    }
    #[inline(always)]
    fn add(self, b: L8) -> L8 {
        L8::add(self, b)
    }
    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        L8::store(self, s)
    }
    #[inline(always)]
    fn to_array(self) -> [f32; LANES] {
        self.0
    }
    #[inline(always)]
    fn hsum(self) -> f32 {
        L8::hsum(self)
    }
}

/// The scalar path's [`Lane`]: eight elements of any float type with
/// plain per-element arithmetic.
#[derive(Clone, Copy)]
struct Plain<T>([T; LANES]);

impl<T: Float> Lane for Plain<T> {
    type E = T;
    #[inline(always)]
    fn zero() -> Self {
        Plain([T::zero(); LANES])
    }
    #[inline(always)]
    fn splat(v: T) -> Self {
        Plain([v; LANES])
    }
    #[inline(always)]
    fn load(s: &[T]) -> Self {
        let mut out = [T::zero(); LANES];
        out.copy_from_slice(&s[..LANES]);
        Plain(out)
    }
    #[inline(always)]
    fn keep(set: [bool; LANES]) -> Self {
        Plain(set.map(|on| if on { T::one() } else { T::zero() }))
    }
    #[inline(always)]
    fn and(self, m: Self) -> Self {
        Plain(std::array::from_fn(|j| {
            if m.0[j] != T::zero() {
                self.0[j]
            } else {
                T::zero()
            }
        }))
    }
    #[inline(always)]
    fn mac(self, a: Self, b: Self) -> Self {
        Plain(std::array::from_fn(|j| self.0[j] + a.0[j] * b.0[j]))
    }
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        Plain(std::array::from_fn(|j| self.0[j] + b.0[j]))
    }
    #[inline(always)]
    fn store(self, s: &mut [T]) {
        s[..LANES].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn to_array(self) -> [T; LANES] {
        self.0
    }
    #[inline(always)]
    fn hsum(self) -> T {
        self.0[1..].iter().fold(self.0[0], |acc, &v| acc + v)
    }
}

/// Whether `T` runs on the lane path: f32 with SIMD dispatch on.
fn lane_path<T: 'static>() -> bool {
    simd::simd_enabled() && TypeId::of::<T>() == TypeId::of::<f32>()
}

/// The HWIO filter `w` (`[kdim, out_c]`) in channel groups of [`GROUP`]:
/// group `gi` is `kdim` runs of its channels' weights, channels past
/// `out_c` repeating the last one.
fn pack_groups<T: Float>(w: &[T], g: &ConvGeom) -> Scratch<T> {
    let (kdim, out_c) = (g.kdim(), g.out_c);
    let groups = out_c.div_ceil(GROUP);
    let mut packed = Scratch::zeroed(groups * kdim * GROUP);
    for (gi, group) in packed.chunks_exact_mut(kdim * GROUP).enumerate() {
        for (w_kk, run) in w.chunks_exact(out_c).zip(group.chunks_exact_mut(GROUP)) {
            for (j, slot) in run.iter_mut().enumerate() {
                *slot = w_kk[(gi * GROUP + j).min(out_c - 1)];
            }
        }
    }
    packed
}

/// Copies single-channel image `x_img` into `plane` (`plane_h ×
/// plane_w`) at `(pad_top, pad_left)`, zeros around it; image rows no
/// output row reads are left out.
fn fill_plane<T: Float>(x_img: &[T], g: &ConvGeom, plane: &mut [T]) {
    let pw = g.plane_w();
    plane.fill(T::zero());
    let rows = plane[g.pad_top * pw..].chunks_exact_mut(pw);
    for (x_row, p_row) in x_img.chunks_exact(g.in_w).zip(rows) {
        p_row[g.pad_left..g.pad_left + g.in_w].copy_from_slice(x_row);
    }
}

/// One image's `dy` for [`dw_lanes`], in lane chunks: per output row, per
/// [`LANES`] columns, a `dy_chans × LANES` block holding each channel's
/// columns — the lanes the kernel runs along. Columns past `out_w` and
/// channels past `out_c` keep the zeros the scratch was taken with.
///
/// `inline(always)` on both transposes: called inside
/// [`simd::vectorize`], a whole six-channel chunk's fixed-size gather
/// compiles to lane shuffles.
#[inline(always)]
fn transpose_dy_chunks<T: Float>(dy_img: &[T], g: &ConvGeom, dyt: &mut [T]) {
    let block = g.dy_chans() * LANES;
    let rows = dyt.chunks_exact_mut(g.tile_cols() * g.dy_chans());
    for (dy_row, t_row) in dy_img.chunks_exact(g.out_w * g.out_c).zip(rows) {
        let chunks = dy_row.chunks(LANES * g.out_c);
        for (chunk, t_block) in chunks.zip(t_row.chunks_exact_mut(block)) {
            if let (Ok(blk), Ok(t_blk)) = (
                <&[T; LANES * GROUP]>::try_from(chunk),
                <&mut [T; LANES * GROUP]>::try_from(&mut *t_block),
            ) {
                *t_blk = std::array::from_fn(|i| blk[(i % LANES) * GROUP + i / LANES]);
                continue;
            }
            for (c, t_c) in t_block.chunks_exact_mut(LANES).take(g.out_c).enumerate() {
                for (t, px) in t_c.iter_mut().zip(chunk.chunks_exact(g.out_c)) {
                    *t = px[c];
                }
            }
        }
    }
}

/// One image's `dy` for [`dx_lanes`], as `[out_h][out_c][dy_row_w]`: each
/// output row's channels as rows of columns, `dy[ox]` at column
/// `k_w − 1 + ox`, so a tap's shifted lane load reads the zeros around it
/// where it leaves the row. Columns no `dy` lands on keep the zeros the
/// scratch was taken with.
#[inline(always)]
fn transpose_dy_rows<T: Float>(dy_img: &[T], g: &ConvGeom, dyt: &mut [T]) {
    let row_w = g.dy_row_w();
    let rows = dyt.chunks_exact_mut(g.out_c * row_w);
    for (dy_row, t_row) in dy_img.chunks_exact(g.out_w * g.out_c).zip(rows) {
        // Whole six-channel chunks first, then column by column.
        let mut done = 0;
        if g.out_c == GROUP {
            for (q, blk) in dy_row.chunks_exact(LANES * GROUP).enumerate() {
                let blk: &[T; LANES * GROUP] = blk.try_into().unwrap();
                for (c, t_c) in t_row.chunks_exact_mut(row_w).enumerate().take(GROUP) {
                    let t_c: &mut [T; LANES] = (&mut t_c[g.k_w - 1 + q * LANES..][..LANES])
                        .try_into()
                        .unwrap();
                    *t_c = std::array::from_fn(|l| blk[l * GROUP + c]);
                }
                done += LANES;
            }
        }
        for (c, t_c) in t_row.chunks_exact_mut(row_w).enumerate() {
            let t_c = &mut t_c[g.k_w - 1 + done..];
            for (t, px) in t_c
                .iter_mut()
                .zip(dy_row[done * g.out_c..].chunks_exact(g.out_c))
            {
                *t = px[c];
            }
        }
    }
}

/// Forward pass of one image: `y` (`out_h × out_w × out_c`) from its
/// padded `plane` and the channel-grouped filter `wp` ([`pack_groups`]).
/// Each tile is [`GROUP`] channels × [`COLS`] columns, and a row's last
/// tile may compute columns past `out_w`, which it does not store.
///
/// `inline(always)` here and on the two gradients: the body must land in
/// the caller's [`simd::vectorize`] frame to compile as AVX2 + FMA.
#[inline(always)]
fn forward_lanes<V: Lane>(plane: &[V::E], wp: &[V::E], y: &mut [V::E], g: &ConvGeom) {
    let (pw, kdim) = (g.plane_w(), g.kdim());
    let window = (g.k_h - 1) * pw + g.k_w - 1 + COLS;
    for (oy, y_row) in y.chunks_exact_mut(g.out_w * g.out_c).enumerate() {
        for ox0 in (0..g.out_w).step_by(COLS) {
            let win = &plane[oy * g.stride.0 * pw + ox0..][..window];
            let groups = wp.chunks_exact(kdim * GROUP);
            for (c0, wg) in (0..g.out_c).step_by(GROUP).zip(groups) {
                let mut acc = [[V::zero(); 2]; GROUP];
                for (ky, w_ky) in wg.chunks_exact(g.k_w * GROUP).enumerate() {
                    let row = &win[ky * pw..][..g.k_w - 1 + COLS];
                    for (kx, wk) in w_ky.chunks_exact(GROUP).enumerate() {
                        let xs: &[V::E; COLS] = row[kx..kx + COLS].try_into().unwrap();
                        let (x0, x1) = (V::load(xs), V::load(&xs[LANES..]));
                        let wk: &[V::E; GROUP] = wk.try_into().unwrap();
                        for (a, &wv) in acc.iter_mut().zip(wk) {
                            let wv = V::splat(wv);
                            a[0] = a[0].mac(x0, wv);
                            a[1] = a[1].mac(x1, wv);
                        }
                    }
                }
                // The output is zeroed and every chain started from zero,
                // so storing a sum is the GEMM's one add into the output.
                let tile = acc.map(|[a, b]| [a.to_array(), b.to_array()]);
                let chans = GROUP.min(g.out_c - c0);
                let pixels = y_row[ox0 * g.out_c..].chunks_exact_mut(g.out_c);
                for (ox, px) in pixels.take(COLS).enumerate() {
                    let (h, l) = (ox / LANES, ox % LANES);
                    let px = &mut px[c0..c0 + chans];
                    // A whole group stores with constant bounds.
                    if let Ok(px) = <&mut [V::E; GROUP]>::try_from(&mut *px) {
                        for (v, t) in px.iter_mut().zip(&tile) {
                            *v = t[h][l];
                        }
                    } else {
                        for (v, t) in px.iter_mut().zip(&tile) {
                            *v = t[h][l];
                        }
                    }
                }
            }
        }
    }
}

/// Input gradient of one image, accumulated into its padded `dx` plane
/// `dxp` (`plane_h × dx_plane_w`, zeroed): from its bordered transposed
/// `dyt` ([`transpose_dy_rows`]) and the HWIO filter `w`.
///
/// Per output row `oy` and kernel row `ky`, the plane row `oy·sh + ky`
/// gains, tile by tile of [`DX_COLS`] plane columns `pc`, the taps
/// `S[ky, kx][pc − kx] = Σ_c w[ky, kx, c]·dy[pc − kx, c]` for `kx` in order:
/// each a chain from zero in channel order, added into the tile's sums
/// held in registers. For each `dx` cell that is the order the GEMM
/// lowering's scatter added the same sums in. Lanes outside the image land
/// in the plane's border. Lanes whose `pc − kx` falls outside `0..out_w` —
/// taps the scatter skipped — read `dyt`'s zero border, so with finite
/// weights they sum to `+0`, and `+0` changes no bit of a sum that started
/// at `+0`. A weight of ±∞ or NaN would make them NaN (`∞·0`): then the
/// caller passes `masks` (`k_w × dx_plane_w` scratch), whose row `kx`
/// keeps only the columns with `pc − kx` inside `0..out_w`.
#[inline(always)]
fn dx_lanes<V: Lane>(
    dyt: &[V::E],
    w: &[V::E],
    masks: Option<&mut [V::E]>,
    dxp: &mut [V::E],
    g: &ConvGeom,
) {
    let (dpw, row_w) = (g.dx_plane_w(), g.dy_row_w());
    let masks = masks.map(|masks| {
        for (kx, m_row) in masks.chunks_exact_mut(dpw).enumerate() {
            for (pc0, m) in (0..dpw).step_by(LANES).zip(m_row.chunks_exact_mut(LANES)) {
                let set = std::array::from_fn(|l| (kx..g.out_w + kx).contains(&(pc0 + l)));
                V::keep(set).store(m);
            }
        }
        &*masks
    });
    for (oy, dyt_row) in dyt.chunks_exact(g.out_c * row_w).enumerate() {
        let w_rows = w.chunks_exact(g.k_w * g.out_c);
        for (ky, w_ky) in w_rows.enumerate() {
            let dx_row = &mut dxp[(oy * g.stride.0 + ky) * dpw..][..dpw];
            let tiles = (0..dpw)
                .step_by(DX_COLS)
                .zip(dx_row.chunks_exact_mut(DX_COLS));
            for (pc0, dx_tile) in tiles {
                let mut d: [V; 4] = std::array::from_fn(|q| V::load(&dx_tile[q * LANES..]));
                for (kx, wk) in w_ky.chunks_exact(g.out_c).enumerate() {
                    // Column `k_w − 1 + ox` of a channel row holds `dy[ox]`.
                    let at = g.k_w - 1 + pc0 - kx;
                    let mut s = [V::zero(); 4];
                    for (c_row, &wv) in dyt_row.chunks_exact(row_w).zip(wk) {
                        let ds: &[V::E; DX_COLS] = c_row[at..at + DX_COLS].try_into().unwrap();
                        let wv = V::splat(wv);
                        for (sq, dq) in s.iter_mut().zip(ds.chunks_exact(LANES)) {
                            *sq = sq.mac(V::load(dq), wv);
                        }
                    }
                    if let Some(masks) = masks {
                        let m = &masks[kx * dpw + pc0..][..DX_COLS];
                        for (sq, mq) in s.iter_mut().zip(m.chunks_exact(LANES)) {
                            *sq = sq.and(V::load(mq));
                        }
                    }
                    for (dq, sq) in d.iter_mut().zip(s) {
                        *dq = dq.add(sq);
                    }
                }
                for (q, dq) in d.iter().enumerate() {
                    dq.store(&mut dx_tile[q * LANES..]);
                }
            }
        }
    }
}

/// The output index whose window puts tap `k` on padded input index `i`
/// (`o·stride + k = i`), if there is one inside `0..out`. No division at
/// stride 1, where it cost more than the tap's sum.
#[inline(always)]
fn window_at(i: usize, k: usize, stride: usize, out: usize) -> Option<usize> {
    let at = i.checked_sub(k)?;
    let o = match stride {
        1 => at,
        _ if at % stride == 0 => at / stride,
        _ => return None,
    };
    (o < out).then_some(o)
}

/// Input gradient of a group of up to [`LANES`] images, lane `l` image
/// `l`: from `dyt` (`dyt[p·LANES + l]` is element `p` of image `l`'s `dy`)
/// and the filter in channel groups `wd` ([`pack_dx_groups`]), into `dxt`
/// (likewise `dx` element `p` at `p·LANES + l`).
///
/// Per `dx` cell and group of [`GROUP`] channels, the taps whose output
/// position lies inside `dy` — no others — in the order the col2im scatter
/// added them: output rows ascending (`ky` descending), then output columns
/// ascending (`kx` descending). Each tap is a chain from zero over `out_c`
/// in order, added into the cell's sums: per cell the scatter's arithmetic,
/// so the bits are the scatter's, on either dispatch path. No padding is
/// multiplied, so non-finite weights need no masking.
#[inline(always)]
fn dx_batch_lanes<V: Lane>(dyt: &[V::E], wd: &[V::E], dxt: &mut [V::E], g: &ConvGeom) {
    let groups = g.in_c.div_ceil(GROUP);
    let (w_group, pos) = (g.out_c * GROUP, g.out_c * LANES);
    for (cell, d_cell) in dxt.chunks_exact_mut(g.in_c * LANES).enumerate() {
        let (iy, ix) = (cell / g.in_w + g.pad_top, cell % g.in_w + g.pad_left);
        for (gi, d_group) in d_cell.chunks_mut(GROUP * LANES).enumerate() {
            let mut d = [V::zero(); GROUP];
            for ky in (0..g.k_h).rev() {
                let Some(oy) = window_at(iy, ky, g.stride.0, g.out_h) else {
                    continue;
                };
                for kx in (0..g.k_w).rev() {
                    let Some(ox) = window_at(ix, kx, g.stride.1, g.out_w) else {
                        continue;
                    };
                    let xs = &dyt[(oy * g.out_w + ox) * pos..][..pos];
                    let w_tap = &wd[((ky * g.k_w + kx) * groups + gi) * w_group..][..w_group];
                    let mut s = [V::zero(); GROUP];
                    for (x, wo) in xs.chunks_exact(LANES).zip(w_tap.chunks_exact(GROUP)) {
                        let x = V::load(x);
                        for (sj, &wv) in s.iter_mut().zip(wo) {
                            *sj = sj.mac(x, V::splat(wv));
                        }
                    }
                    for (dj, sj) in d.iter_mut().zip(s) {
                        *dj = dj.add(sj);
                    }
                }
            }
            for (dj, out) in d.iter().zip(d_group.chunks_exact_mut(LANES)) {
                dj.store(out);
            }
        }
    }
}

/// The HWIO filter `w` for [`dx_batch_lanes`]: per tap, per group of
/// [`GROUP`] input channels, `out_c` runs of the group's weights, channels
/// past `in_c` repeating the last one.
fn pack_dx_groups<T: Float>(w: &[T], g: &ConvGeom) -> Scratch<T> {
    let (groups, out_c) = (g.in_c.div_ceil(GROUP), g.out_c);
    let mut packed = Scratch::zeroed(g.k_h * g.k_w * groups * out_c * GROUP);
    let taps = w.chunks_exact(g.in_c * out_c);
    for (w_tap, dst) in taps.zip(packed.chunks_exact_mut(groups * out_c * GROUP)) {
        for (gi, group) in dst.chunks_exact_mut(out_c * GROUP).enumerate() {
            for (o, run) in group.chunks_exact_mut(GROUP).enumerate() {
                for (j, slot) in run.iter_mut().enumerate() {
                    *slot = w_tap[(gi * GROUP + j).min(g.in_c - 1) * out_c + o];
                }
            }
        }
    }
    packed
}

/// Filter gradient of one image, added into `partial` (`kdim × out_c`):
/// from its padded `plane` and transposed `dyt` ([`transpose_dy_chunks`]).
/// A tile of [`DW_TAPS`] taps × [`GROUP`] channels sums lane-wise over one
/// column chunk of every output row, chunk by chunk (the last chunk's
/// columns past `out_w` masked to zero), then adds one horizontal sum per
/// entry.
#[inline(always)]
fn dw_lanes<V: Lane>(plane: &[V::E], dyt: &[V::E], partial: &mut [V::E], g: &ConvGeom) {
    let (pw, kdim) = (g.plane_w(), g.kdim());
    let full = g.out_w - g.out_w % LANES;
    for t0 in (0..kdim).step_by(DW_TAPS) {
        let offs: [usize; DW_TAPS] = std::array::from_fn(|t| {
            let kk = (t0 + t).min(kdim - 1);
            (kk / g.k_w) * pw + kk % g.k_w
        });
        for c0 in (0..g.out_c).step_by(GROUP) {
            let mut acc = [[V::zero(); GROUP]; DW_TAPS];
            for ox in (0..full).step_by(LANES) {
                dw_chunk(&mut acc, (plane, &offs), dyt, (ox, c0), LANES, g);
            }
            if full < g.out_w {
                dw_chunk(&mut acc, (plane, &offs), dyt, (full, c0), g.out_w - full, g);
            }
            for (t, acc_t) in acc.iter().enumerate().take(DW_TAPS.min(kdim - t0)) {
                let dst = &mut partial[(t0 + t) * g.out_c + c0..];
                for (slot, a) in dst.iter_mut().zip(acc_t).take(GROUP.min(g.out_c - c0)) {
                    *slot += a.hsum();
                }
            }
        }
    }
}

/// The columns `ox..ox + LANES` of every output row, of which the first
/// `n` are the image's, added into the [`dw_lanes`] tile of the two taps at
/// offsets `offs` of the plane and the channels from `c0`. Each stream
/// walks whole rows of its own (the plane's slack row keeps the last one
/// whole), so a row's loads check only bounds that do not change.
#[inline(always)]
fn dw_chunk<V: Lane>(
    acc: &mut [[V; GROUP]; DW_TAPS],
    (plane, offs): (&[V::E], &[usize; DW_TAPS]),
    dyt: &[V::E],
    (ox, c0): (usize, usize),
    n: usize,
    g: &ConvGeom,
) {
    let x_step = g.stride.0 * g.plane_w();
    let d0 = ox * g.dy_chans() + c0 * LANES;
    let x0 = plane[offs[0] + ox..].chunks_exact(x_step);
    let x1 = plane[offs[1] + ox..].chunks_exact(x_step);
    let rows = x0
        .zip(x1)
        .zip(dyt.chunks_exact(g.tile_cols() * g.dy_chans()));
    let keep = V::keep(std::array::from_fn(|j| j < n));
    for ((x0, x1), d_row) in rows.take(g.out_h) {
        let x = [V::load(x0).and(keep), V::load(x1).and(keep)];
        let ds: &[V::E; GROUP * LANES] = d_row[d0..d0 + GROUP * LANES].try_into().unwrap();
        for (j, d) in ds.chunks_exact(LANES).enumerate() {
            let d = V::load(d);
            for (acc_t, &x) in acc.iter_mut().zip(&x) {
                acc_t[j] = acc_t[j].mac(x, d);
            }
        }
    }
}

/// `s` as f32, for a caller that checked [`lane_path`].
fn f32s<T: 'static>(s: &[T]) -> &[f32] {
    simd::as_f32_slice(s).expect("lane path runs f32")
}

/// `s` as mutable f32, for a caller that checked [`lane_path`].
fn f32s_mut<T: 'static>(s: &mut [T]) -> &mut [f32] {
    simd::as_f32_slice_mut(s).expect("lane path runs f32")
}

/// [`forward_lanes`] on the active dispatch path. The scalar path runs in
/// the [`simd::vectorize`] frame too (here and in the two gradients):
/// `acc + a·b` has the same bits under any codegen, and f64 gets wider
/// registers there.
fn single_channel_forward<T: Float>(plane: &[T], wp: &[T], y: &mut [T], g: &ConvGeom) {
    if lane_path::<T>() {
        let (plane, wp, y) = (f32s(plane), f32s(wp), f32s_mut(y));
        simd::vectorize(
            #[inline(always)]
            || forward_lanes::<L8>(plane, wp, y, g),
        );
    } else {
        simd::vectorize(
            #[inline(always)]
            || forward_lanes::<Plain<T>>(plane, wp, y, g),
        );
    }
}

/// [`dx_lanes`] on the active dispatch path.
fn single_channel_dx<T: Float>(
    dyt: &[T],
    w: &[T],
    masks: Option<&mut [T]>,
    dxp: &mut [T],
    g: &ConvGeom,
) {
    if lane_path::<T>() {
        let (dyt, w, dxp) = (f32s(dyt), f32s(w), f32s_mut(dxp));
        let masks = masks.map(f32s_mut);
        simd::vectorize(
            #[inline(always)]
            || dx_lanes::<L8>(dyt, w, masks, dxp, g),
        );
    } else {
        simd::vectorize(
            #[inline(always)]
            || dx_lanes::<Plain<T>>(dyt, w, masks, dxp, g),
        );
    }
}

/// [`dx_batch_lanes`] on the active dispatch path.
fn batch_lanes_dx<T: Float>(dyt: &[T], wd: &[T], dxt: &mut [T], g: &ConvGeom) {
    if lane_path::<T>() {
        let (dyt, wd, dxt) = (f32s(dyt), f32s(wd), f32s_mut(dxt));
        simd::vectorize(
            #[inline(always)]
            || dx_batch_lanes::<L8>(dyt, wd, dxt, g),
        );
    } else {
        simd::vectorize(
            #[inline(always)]
            || dx_batch_lanes::<Plain<T>>(dyt, wd, dxt, g),
        );
    }
}

/// [`dw_lanes`] on the active dispatch path.
fn single_channel_dw<T: Float>(plane: &[T], dyt: &[T], partial: &mut [T], g: &ConvGeom) {
    if lane_path::<T>() {
        let (plane, dyt, partial) = (f32s(plane), f32s(dyt), f32s_mut(partial));
        simd::vectorize(
            #[inline(always)]
            || dw_lanes::<L8>(plane, dyt, partial, g),
        );
    } else {
        simd::vectorize(
            #[inline(always)]
            || dw_lanes::<Plain<T>>(plane, dyt, partial, g),
        );
    }
}

impl<T: Float> Tensor<T> {
    /// 2-D convolution: input `[N,H,W,Cin]` ⊛ filter `[Kh,Kw,Cin,Cout]` →
    /// `[N,H',W',Cout]`.
    ///
    /// Runs the single-channel lane kernel (parallel over images) or the
    /// packed GEMM over patches read in place from a padded plane or the
    /// image itself, parallel over `batch × out_h` output rows (see the
    /// module docs); either way every output element is one k-order sum, so
    /// results are bit-identical for every thread count.
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
        let dims = [g.batch, g.out_h, g.out_w, g.out_c];
        if g.macs() == 0 {
            return Tensor::zeros(&dims);
        }
        let x = self.as_slice();
        let w = filter.as_slice();
        Tensor::build(&dims, T::zero(), |out| {
            match g.lowering() {
                Lowering::SingleChannel => {
                    let wp = pack_groups(w, &g);
                    let (img, img_out) = (g.in_h * g.in_w, g.out_h * g.out_w * g.out_c);
                    s4tf_threads::parallel_chunks_mut(
                        out,
                        img_out,
                        g.grain_imgs() * img_out,
                        |start, chunk| {
                            let mut plane = Scratch::zeroed(g.plane_len());
                            for (u, y) in chunk.chunks_exact_mut(img_out).enumerate() {
                                let n = start / img_out + u;
                                fill_plane(&x[n * img..(n + 1) * img], &g, &mut plane);
                                single_channel_forward(&plane, &wp, y, &g);
                            }
                        },
                    );
                }
                _ => {
                    // HWIO row-major is already the [kdim, out_c] GEMM operand.
                    let wp = gemm::pack_b(w, Layout::row_major(g.out_c), g.kdim(), g.out_c);
                    forward_patches(x, &wp, out, &g);
                }
            }
        })
    }

    /// Gradient of [`Tensor::conv2d`] with respect to its *input*.
    ///
    /// Takes one of four lowerings (see the module docs):
    /// - stride (1, 1) with at least 8 input channels and finite weights:
    ///   the forward GEMM lowering run on `dy` with the rotated, transposed
    ///   filter, parallel over `batch × in_h` rows of `dx`, each `dx`
    ///   element one sum over its window of the padded `dy`;
    /// - single-channel inputs at column stride 1: the lane kernel,
    ///   parallel over images;
    /// - other inputs with fewer than 8 channels: lanes along the batch,
    ///   each `dx` element a sum over the taps inside the image in the
    ///   scatter's order, parallel over groups of 8 images;
    /// - the rest (strides, a non-finite weight, which would turn the
    ///   padding's zeros into `∞·0`): one packed GEMM per block of output
    ///   rows, then col2im per row in row order, parallel over images.
    ///
    /// Every `dx` element's summation order is fixed by the geometry alone,
    /// so results are bit-identical for every thread count.
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
        Self::conv2d_backward_input_dims(self.dims(), filter, grad_out, strides, padding)
    }

    /// [`Tensor::conv2d_backward_input`] given only the forward input's
    /// dims — for callers that hold the shape, not the input.
    ///
    /// # Panics
    /// Panics on geometry mismatches.
    pub fn conv2d_backward_input_dims(
        input_dims: &[usize],
        filter: &Tensor<T>,
        grad_out: &Tensor<T>,
        strides: (usize, usize),
        padding: Padding,
    ) -> Tensor<T> {
        let g = geometry(input_dims, filter.dims(), strides, padding);
        assert_eq!(
            grad_out.dims(),
            &[g.batch, g.out_h, g.out_w, g.out_c],
            "grad_out shape mismatch"
        );
        if g.macs() == 0 {
            return Tensor::zeros(input_dims);
        }
        let dy = grad_out.as_slice();
        let w = filter.as_slice();
        let img = g.in_h * g.in_w * g.in_c;
        let kdim = g.kdim();
        let mut lowering = g.dx_lowering();
        if lowering == Lowering::RotatedConv && !w.iter().all(|v| v.to_f64().is_finite()) {
            lowering = Lowering::Col2im;
        }
        Tensor::build(
            &[g.batch, g.in_h, g.in_w, g.in_c],
            T::zero(),
            |dx| match lowering {
                Lowering::SingleChannel => {
                    let dy_img = g.out_h * g.out_w * g.out_c;
                    let dpw = g.dx_plane_w();
                    s4tf_threads::parallel_chunks_mut(
                        dx,
                        img,
                        g.grain_imgs() * img,
                        |start, chunk| {
                            let mut dyt = Scratch::zeroed(g.out_h * g.out_c * g.dy_row_w());
                            let mut dxp = Scratch::zeroed(g.plane_h() * dpw);
                            // Only a non-finite weight needs the masks (see `dx_lanes`).
                            let masked = !w.iter().all(|v| v.to_f64().is_finite());
                            let mut masks = Scratch::zeroed(g.k_w * dpw);
                            for (u, dx_img) in chunk.chunks_exact_mut(img).enumerate() {
                                let n = start / img + u;
                                let dy_n = &dy[n * dy_img..(n + 1) * dy_img];
                                simd::vectorize(
                                    #[inline(always)]
                                    || transpose_dy_rows(dy_n, &g, &mut dyt),
                                );
                                dxp.fill(T::zero());
                                let masks = masked.then_some(&mut masks[..]);
                                single_channel_dx(&dyt, w, masks, &mut dxp, &g);
                                let rows = dxp[g.pad_top * dpw..].chunks_exact(dpw);
                                for (dx_row, p_row) in dx_img.chunks_exact_mut(g.in_w).zip(rows) {
                                    dx_row.copy_from_slice(&p_row[g.pad_left..g.pad_left + g.in_w]);
                                }
                            }
                        },
                    );
                }
                Lowering::BatchLanes => {
                    let dy_img = g.out_h * g.out_w * g.out_c;
                    let wd = pack_dx_groups(w, &g);
                    // Tasks of whole lane groups where the batch allows.
                    let grain = g.grain_imgs().max(LANES) * img;
                    s4tf_threads::parallel_chunks_mut(dx, img, grain, |start, chunk| {
                        let mut dyt = Scratch::zeroed(dy_img * LANES);
                        let mut dxt = Scratch::zeroed(img * LANES);
                        for (u, lanes) in chunk.chunks_mut(LANES * img).enumerate() {
                            let n0 = start / img + u * LANES;
                            // Lanes past the batch keep stale values; their
                            // sums are never stored.
                            let imgs = dy[n0 * dy_img..].chunks_exact(dy_img);
                            for (l, dy_n) in imgs.take(lanes.len() / img).enumerate() {
                                let t = dyt[l..].iter_mut().step_by(LANES);
                                for (slot, &v) in t.zip(dy_n) {
                                    *slot = v;
                                }
                            }
                            batch_lanes_dx(&dyt, &wd, &mut dxt, &g);
                            for (l, dx_img) in lanes.chunks_exact_mut(img).enumerate() {
                                for (v, &t) in dx_img.iter_mut().zip(dxt[l..].iter().step_by(LANES))
                                {
                                    *v = t;
                                }
                            }
                        }
                    });
                }
                Lowering::RotatedConv => {
                    let gt = g.transposed();
                    let wr = rotated_filter(w, &g);
                    let wp = gemm::pack_b(&wr, Layout::row_major(g.in_c), gt.kdim(), g.in_c);
                    forward_patches(dy, &wp, dx, &gt);
                }
                Lowering::Patches | Lowering::Col2im => {
                    // Wᵀ is the [out_c, kdim] B operand, packed once per call.
                    let wtp = gemm::pack_b(w, Layout::transposed(g.out_c), g.out_c, kdim);
                    let block_rows = g.block_rows::<T>();
                    s4tf_threads::parallel_chunks_mut(
                        dx,
                        img,
                        g.grain_imgs() * img,
                        |start, chunk| {
                            let n0 = start / img;
                            // One patch-gradient scratch per task, reused across blocks.
                            let mut dcol = Scratch::zeroed(block_rows * g.out_w * kdim);
                            let rows = n0 * g.out_h..(n0 + chunk.len() / img) * g.out_h;
                            for (n, oys) in blocks(&g, rows, block_rows) {
                                let dx_img = &mut chunk[(n - n0) * img..(n - n0 + 1) * img];
                                let p = oys.len() * g.out_w;
                                let pos0 = (n * g.out_h + oys.start) * g.out_w;
                                let dcol = &mut dcol[..p * kdim];
                                dcol.fill(T::zero());
                                let la = Layout::row_major(g.out_c).into();
                                gemm::gemm_rows(dy, la, &wtp, dcol, kdim, pos0..pos0 + p);
                                simd::vectorize(|| {
                                    for (oy, dcol_strip) in
                                        oys.zip(dcol.chunks_exact(g.out_w * kdim))
                                    {
                                        col2im_strip(dcol_strip, &g, oy, dx_img);
                                    }
                                });
                            }
                        },
                    );
                }
            },
        )
    }

    /// Gradient of [`Tensor::conv2d`] with respect to its *filter*,
    /// parallel over images: each task accumulates a private partial
    /// `dw`, combined in task order afterwards. Each task adds to its
    /// partial one single-channel lane-kernel sum per image, or one GEMM
    /// per block of output rows over the patches of the image's padded
    /// plane, read in place (see the module docs), so the summation order
    /// is per image or block per task: fixed for a given thread count, and
    /// different thread counts differ by rounding only.
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
        if g.macs() == 0 {
            return Tensor::zeros(filter_dims);
        }
        let x = self.as_slice();
        let dy = grad_out.as_slice();
        let kdim = g.kdim();
        let dw_len = kdim * g.out_c;
        let lowering = g.lowering();
        let partials = s4tf_threads::parallel_map_chunks(0..g.batch, g.grain_imgs(), |imgs| {
            let mut partial = Scratch::zeroed(dw_len);
            match lowering {
                Lowering::SingleChannel => {
                    let (img, dy_img) = (g.in_h * g.in_w, g.out_h * g.out_w * g.out_c);
                    let mut plane = Scratch::zeroed(g.plane_len());
                    let mut dyt = Scratch::zeroed(g.out_h * g.tile_cols() * g.dy_chans());
                    for n in imgs {
                        fill_plane(&x[n * img..(n + 1) * img], &g, &mut plane);
                        let dy_n = &dy[n * dy_img..(n + 1) * dy_img];
                        simd::vectorize(
                            #[inline(always)]
                            || transpose_dy_chunks(dy_n, &g, &mut dyt),
                        );
                        single_channel_dw(&plane, &dyt, &mut partial, &g);
                    }
                }
                _ => {
                    // A is the patch matrix transposed, [kdim, P]: the
                    // forward's two walks with their roles swapped.
                    let (position, tap) = g.patch_walks();
                    let ia = Index {
                        row: tap,
                        red: position,
                    };
                    let img = g.in_h * g.in_w * g.in_c;
                    let block_rows = g.block_rows::<T>();
                    let mut plane = plane_scratch(&g, g.out_h);
                    let mut dyp = PackedB::empty();
                    for n in imgs {
                        let img_patches =
                            patches(&x[n * img..(n + 1) * img], &g, 0..g.out_h, &mut plane);
                        for (_, oys) in blocks(&g, n * g.out_h..(n + 1) * g.out_h, block_rows) {
                            let p = oys.len() * g.out_w;
                            let dy0 = (n * g.out_h + oys.start) * g.out_w * g.out_c;
                            let dy_block = &dy[dy0..dy0 + p * g.out_c];
                            dyp.repack(dy_block, Layout::row_major(g.out_c), p, g.out_c);
                            let a = &img_patches[oys.start * position.outer..];
                            gemm::gemm_rows(a, ia, &dyp, &mut partial, g.out_c, 0..kdim);
                        }
                    }
                }
            }
            partial
        });
        Tensor::build(filter_dims, T::zero(), |dw| {
            for partial in partials {
                for (acc, &p) in dw.iter_mut().zip(partial.iter()) {
                    *acc += p;
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The direct forward loops: the oracle the lowerings are held to.
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
                            let in_base =
                                ((n * g.in_h + iy as usize) * g.in_w + ix as usize) * g.in_c;
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

    /// `conv2d` and both gradients of one geometry against the direct
    /// loops, within 1e-4.
    fn check_against_direct<T: Float>(
        rng: &mut ChaCha8Rng,
        x_dims: &[usize],
        (k, out_c): (usize, usize),
        strides: (usize, usize),
        padding: Padding,
    ) {
        let in_c = x_dims[3];
        let x = Tensor::<T>::randn(x_dims, rng);
        let w = Tensor::<T>::randn(&[k, k, in_c, out_c], rng);
        let g = geometry(x.dims(), w.dims(), strides, padding);
        let what = format!(
            "{} {x_dims:?} k={k} out_c={out_c} {strides:?} {padding:?}",
            std::any::type_name::<T>()
        );
        // dw sums ~10³ products per entry: keep them O(1) so the
        // absolute tolerance bounds rounding, not magnitude.
        let dy = Tensor::<T>::randn(&[g.batch, g.out_h, g.out_w, g.out_c], rng)
            .mul_scalar(T::from_f64(0.03));

        let y = x.conv2d(&w, strides, padding);
        let mut direct = vec![T::zero(); y.num_elements()];
        conv2d_direct(x.as_slice(), w.as_slice(), &mut direct, &g);
        let direct = Tensor::from_vec(direct, y.dims());
        assert!(y.allclose(&direct, 1e-4), "y {what}");

        let dx = x.conv2d_backward_input(&w, &dy, strides, padding);
        let mut direct = vec![T::zero(); x.num_elements()];
        let img = g.in_h * g.in_w * g.in_c;
        for n in 0..g.batch {
            let dx_img = &mut direct[n * img..(n + 1) * img];
            backward_input_image(dy.as_slice(), w.as_slice(), dx_img, &g, n);
        }
        let direct = Tensor::from_vec(direct, x.dims());
        assert!(dx.allclose(&direct, 1e-4), "dx {what}");

        let dw = x.conv2d_backward_filter(w.dims(), &dy, strides, padding);
        let mut direct = vec![T::zero(); w.num_elements()];
        for n in 0..g.batch {
            backward_filter_image(x.as_slice(), dy.as_slice(), &mut direct, &g, n);
        }
        let direct = Tensor::from_vec(direct, w.dims());
        assert!(dw.allclose(&direct, 1e-4), "dw {what}");
    }

    /// Every lowering — the GEMM and the single-channel kernels — must
    /// match the direct loops, for every stride/padding/channel
    /// combination the patch walks, the col2im scatter, the rotated input
    /// gradient, the batch lanes, the panel widths and the single-channel
    /// tiles distinguish: down to one-pixel images, where whole kernel
    /// rows and columns clip away, and to empty batches, images, windows
    /// and channel sets.
    #[test]
    fn conv_gemm_paths_match_direct_loops() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut check = |x_dims: &[usize], filter, strides, padding| {
            check_against_direct::<f32>(&mut rng, x_dims, filter, strides, padding);
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
        // ResNet-8's stage 3: the 3×3/2 32→64 and its 1×1/2 shortcut, and
        // its 64→64 at stride 1 (the rotated input gradient).
        check(&[4, 16, 16, 32], (3, 64), (2, 2), Padding::Same);
        check(&[4, 16, 16, 32], (1, 64), (2, 2), Padding::Same);
        check(&[4, 8, 8, 64], (3, 64), (1, 1), Padding::Same);
        // Stride 1 with an even kernel (one more row and column of Same
        // padding below and right) and a Valid stride-1 with 8 channels.
        check(&[4, 12, 14, 16], (4, 16), (1, 1), Padding::Same);
        check(&[4, 14, 13, 8], (5, 16), (1, 1), Padding::Valid);

        // Tiny geometries, in f32 and f64: 1×1 and 2×2 images, kernels
        // larger than the image under Same, batch 0 and 1, no input
        // channel up to a lane of them.
        for batch in [0, 1] {
            for hw in [1, 2] {
                for in_c in [0, 1, 2, 3, 8] {
                    for k in [1, 2, 3, 5] {
                        for strides in [(1, 1), (2, 2), (2, 1)] {
                            for padding in [Padding::Same, Padding::Valid] {
                                if padding == Padding::Valid && k > hw {
                                    continue;
                                }
                                let x_dims = [batch, hw, hw, in_c];
                                let filter = (k, 3);
                                check_against_direct::<f32>(
                                    &mut rng, &x_dims, filter, strides, padding,
                                );
                                check_against_direct::<f64>(
                                    &mut rng, &x_dims, filter, strides, padding,
                                );
                            }
                        }
                    }
                }
            }
        }
        // Empty images and no output channel.
        for (x_dims, filter) in [
            ([1, 0, 3, 2], (3, 4)),
            ([2, 3, 0, 1], (3, 4)),
            ([2, 3, 3, 8], (3, 0)),
        ] {
            check_against_direct::<f32>(&mut rng, &x_dims, filter, (1, 1), Padding::Same);
            check_against_direct::<f64>(&mut rng, &x_dims, filter, (2, 1), Padding::Same);
        }
    }

    /// Finite-difference check of both gradient kernels in f64, which
    /// takes the scalar GEMM kernel and the single-channel kernels' scalar
    /// path: a tiny shape, a larger one and a single-channel one.
    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (x_dims, w_dims) in [
            ([2, 5, 5, 2], [3, 3, 2, 3]),
            ([3, 13, 12, 3], [3, 3, 3, 8]),
            ([5, 16, 16, 1], [5, 5, 1, 8]),
        ] {
            let x = Tensor::<f64>::randn(&x_dims, &mut rng);
            let w = Tensor::<f64>::randn(&w_dims, &mut rng);
            for padding in [Padding::Same, Padding::Valid] {
                let strides = (2, 1);
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

    /// The lowering of every forward, `dx` and `dw` LeNet and ResNet-8 run
    /// at batch 16, so a change to a predicate shows here by name. `dx` of
    /// LeNet c1 and of ResNet's stem is never computed in a training step
    /// (their input is the data); it is pinned all the same.
    #[test]
    fn model_convs_take_the_pinned_lowerings() {
        use Lowering::*;
        let same = Padding::Same;
        let cases = [
            (
                "lenet c1",
                [16, 28, 28, 1],
                [5, 5, 1, 6],
                1,
                same,
                SingleChannel,
                SingleChannel,
            ),
            (
                "lenet c2",
                [16, 14, 14, 6],
                [5, 5, 6, 16],
                1,
                Padding::Valid,
                Patches,
                BatchLanes,
            ),
            (
                "resnet stem",
                [16, 32, 32, 3],
                [3, 3, 3, 16],
                1,
                same,
                Patches,
                BatchLanes,
            ),
            (
                "resnet 16→16",
                [16, 32, 32, 16],
                [3, 3, 16, 16],
                1,
                same,
                Patches,
                RotatedConv,
            ),
            (
                "resnet 16→32/2",
                [16, 32, 32, 16],
                [3, 3, 16, 32],
                2,
                same,
                Patches,
                Col2im,
            ),
            (
                "resnet 1×1 16→32/2",
                [16, 32, 32, 16],
                [1, 1, 16, 32],
                2,
                same,
                Patches,
                Col2im,
            ),
            (
                "resnet 32→32",
                [16, 16, 16, 32],
                [3, 3, 32, 32],
                1,
                same,
                Patches,
                RotatedConv,
            ),
            (
                "resnet 32→64/2",
                [16, 16, 16, 32],
                [3, 3, 32, 64],
                2,
                same,
                Patches,
                Col2im,
            ),
            (
                "resnet 1×1 32→64/2",
                [16, 16, 16, 32],
                [1, 1, 32, 64],
                2,
                same,
                Patches,
                Col2im,
            ),
            (
                "resnet 64→64",
                [16, 8, 8, 64],
                [3, 3, 64, 64],
                1,
                same,
                Patches,
                RotatedConv,
            ),
        ];
        for (name, x, w, s, padding, forward, dx) in cases {
            let g = geometry(&x, &w, (s, s), padding);
            assert_eq!(g.lowering(), forward, "{name} forward and dw");
            assert_eq!(g.dx_lowering(), dx, "{name} dx");
        }
        // Valid and 1×1 windows never reach padding: read in place.
        for (x, w, s, padding, in_place) in [
            ([16, 14, 14, 6], [5, 5, 6, 16], 1, Padding::Valid, true),
            ([16, 32, 32, 16], [1, 1, 16, 32], 2, same, true),
            ([16, 32, 32, 16], [3, 3, 16, 16], 1, same, false),
        ] {
            assert_eq!(geometry(&x, &w, (s, s), padding).in_place(), in_place);
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
