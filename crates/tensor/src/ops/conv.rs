//! 2-D convolution kernels (NHWC layout, HWIO filters — TensorFlow's
//! convention, which the paper's `Conv2D` layer uses) and the two gradient
//! kernels the `Conv2D` pullback needs.
//!
//! Past [`DIRECT_MAX_MACS`] the kernels take one of two lowerings; smaller
//! problems run the direct loops below, which are also the unit tests'
//! oracle.
//!
//! **Single-channel inputs** with column stride 1 (LeNet's first layer,
//! [`ConvGeom::single_channel`]) run direct lane kernels. Each image is
//! copied once into a zero-padded plane, so every `(ky, kx)` tap of an
//! output row is one unaligned lane load at column offset `kx`: no im2col,
//! no packed operand. Lanes run along output columns.
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
//! **Everything else** lowers to the packed GEMM in [`super::gemm`], one
//! *block* of output rows at a time: as many rows of one image as fit
//! [`BLOCK_SCRATCH_BYTES`] of patch-major im2col scratch `col[P, kdim]`
//! ([`im2col_block`]), `P` positions × `kdim = k_h·k_w·in_c` patch
//! elements, one GEMM per block. Position `p`'s patch is `k_h` runs of
//! `k_w·in_c` input floats, each one `copy_from_slice` clipped at the
//! image's left and right edge — [`col2im_strip`] is the same walk run
//! backwards, and the two share the clipping ([`ConvGeom::kx_range`]).
//!
//! * **forward** — HWIO filters flatten row-major to exactly the
//!   `[kdim, out_c]` B operand; each block is `col[P, kdim] · W`.
//! * **input gradient** — `dcol[P, kdim] = dy_block[P, out_c] · Wᵀ` (`Wᵀ`
//!   packed once per call, the NHWC `dy` rows read in place), then
//!   [`col2im_strip`] scatter-adds `dcol` into the image's `dx` rows, one
//!   output row at a time in row order.
//! * **filter gradient** — `dw += colᵀ[kdim, P] · dy_block[P, out_c]`: the
//!   reduction runs over the block's `P` positions in registers, with `dy`
//!   packed once per block.
//!
//! Scratch (planes, im2col blocks, packed operands) is per task, taken
//! from and returned to [`crate::pool`]. Work splits across the thread
//! pool over images, except the GEMM forward, which splits over
//! `batch × out_h` output rows; its blocks are cut inside a task's share,
//! so the block height never limits how evenly a layer splits.

use std::any::TypeId;
use std::ops::Range;

use super::gemm::{self, Layout, PackedB};
use crate::dtype::Float;
use crate::simd::{self, L8, LANES};
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
fn pack_groups<T: Float>(w: &[T], g: &ConvGeom) -> Vec<T> {
    let (kdim, out_c) = (g.kdim(), g.out_c);
    let groups = out_c.div_ceil(GROUP);
    let (mut packed, _) = crate::pool::zeroed_vec::<T>(groups * kdim * GROUP);
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
    /// Large problems run the single-channel lane kernel (parallel over
    /// images) or im2col + packed GEMM, a block of output rows at a time,
    /// parallel over `batch × out_h` output rows (see the module docs);
    /// either way every output element is one k-order sum, so results are
    /// bit-identical for every thread count and block height.
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
        } else if g.single_channel() {
            let wp = pack_groups(w, &g);
            let (img, img_out) = (g.in_h * g.in_w, g.out_h * g.out_w * g.out_c);
            s4tf_threads::parallel_chunks_mut(
                &mut out,
                img_out,
                g.grain_imgs() * img_out,
                |start, chunk| {
                    let (mut plane, _) = crate::pool::zeroed_vec::<T>(g.plane_len());
                    for (u, y) in chunk.chunks_exact_mut(img_out).enumerate() {
                        let n = start / img_out + u;
                        fill_plane(&x[n * img..(n + 1) * img], &g, &mut plane);
                        single_channel_forward(&plane, &wp, y, &g);
                    }
                    crate::pool::give_vec(plane);
                },
            );
            crate::pool::give_vec(wp);
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
                        im2col_block(x, &g, n, oys, col);
                        gemm::gemm_rows(col, Layout::row_major(kdim), &wp, y, g.out_c, 0..p);
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
    /// Large problems run the single-channel lane kernel, or one packed
    /// GEMM per block of output rows and then col2im per row in row order
    /// (see the module docs); every `dx` element's summation order is fixed
    /// by its image alone, so results are bit-identical for every thread
    /// count and block height.
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
        let dy = grad_out.as_slice();
        let w = filter.as_slice();
        let (mut dx, dx_recycled) =
            crate::pool::zeroed_vec::<T>(g.batch * g.in_h * g.in_w * g.in_c);
        let img = g.in_h * g.in_w * g.in_c;
        let kdim = g.kdim();
        if g.macs() < DIRECT_MAX_MACS {
            s4tf_threads::parallel_chunks_mut(
                &mut dx,
                img,
                g.grain_imgs() * img,
                |start, chunk| {
                    for (u, dx_img) in chunk.chunks_mut(img).enumerate() {
                        backward_input_image(dy, w, dx_img, &g, start / img + u);
                    }
                },
            );
        } else if g.single_channel() {
            let dy_img = g.out_h * g.out_w * g.out_c;
            let dpw = g.dx_plane_w();
            s4tf_threads::parallel_chunks_mut(
                &mut dx,
                img,
                g.grain_imgs() * img,
                |start, chunk| {
                    let (mut dyt, _) =
                        crate::pool::zeroed_vec::<T>(g.out_h * g.out_c * g.dy_row_w());
                    let (mut dxp, _) = crate::pool::zeroed_vec::<T>(g.plane_h() * dpw);
                    // Only a non-finite weight needs the masks (see `dx_lanes`).
                    let masked = !w.iter().all(|v| v.to_f64().is_finite());
                    let (mut masks, _) = crate::pool::zeroed_vec::<T>(g.k_w * dpw);
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
                    for v in [dyt, dxp, masks] {
                        crate::pool::give_vec(v);
                    }
                },
            );
        } else {
            // Wᵀ is the [out_c, kdim] B operand, packed once per call.
            let wtp = gemm::pack_b(w, Layout::transposed(g.out_c), g.out_c, kdim);
            let block_rows = g.block_rows::<T>();
            s4tf_threads::parallel_chunks_mut(
                &mut dx,
                img,
                g.grain_imgs() * img,
                |start, chunk| {
                    let n0 = start / img;
                    // One patch-gradient scratch per task, reused across blocks.
                    let (mut dcol, _) = crate::pool::zeroed_vec::<T>(block_rows * g.out_w * kdim);
                    let rows = n0 * g.out_h..(n0 + chunk.len() / img) * g.out_h;
                    for (n, oys) in blocks(&g, rows, block_rows) {
                        let dx_img = &mut chunk[(n - n0) * img..(n - n0 + 1) * img];
                        let p = oys.len() * g.out_w;
                        let pos0 = (n * g.out_h + oys.start) * g.out_w;
                        let dcol = &mut dcol[..p * kdim];
                        dcol.fill(T::zero());
                        let la = Layout::row_major(g.out_c);
                        gemm::gemm_rows(dy, la, &wtp, dcol, kdim, pos0..pos0 + p);
                        simd::vectorize(|| {
                            for (oy, dcol_strip) in oys.zip(dcol.chunks_exact(g.out_w * kdim)) {
                                col2im_strip(dcol_strip, &g, oy, dx_img);
                            }
                        });
                    }
                    crate::pool::give_vec(dcol);
                },
            );
        }
        Tensor::from_pooled_vec((dx, dx_recycled), &[g.batch, g.in_h, g.in_w, g.in_c])
    }

    /// Gradient of [`Tensor::conv2d`] with respect to its *filter*,
    /// parallel over images: each task accumulates a private partial
    /// `dw`, combined in task order afterwards. Large problems add to the
    /// partial one single-channel lane-kernel sum per image, or one im2col
    /// GEMM per block of output rows (see the module docs), so the
    /// summation order is per image or block per task: fixed for a given
    /// thread count, and different thread counts differ by rounding only.
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
            if g.single_channel() {
                let (img, dy_img) = (g.in_h * g.in_w, g.out_h * g.out_w * g.out_c);
                let (mut plane, _) = crate::pool::zeroed_vec::<T>(g.plane_len());
                let (mut dyt, _) =
                    crate::pool::zeroed_vec::<T>(g.out_h * g.tile_cols() * g.dy_chans());
                for n in imgs {
                    fill_plane(&x[n * img..(n + 1) * img], &g, &mut plane);
                    let dy_n = &dy[n * dy_img..(n + 1) * dy_img];
                    simd::vectorize(
                        #[inline(always)]
                        || transpose_dy_chunks(dy_n, &g, &mut dyt),
                    );
                    single_channel_dw(&plane, &dyt, &mut partial, &g);
                }
                crate::pool::give_vec(plane);
                crate::pool::give_vec(dyt);
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
                im2col_block(x, &g, n, oys, col);
                // A is the patch matrix transposed: [kdim, P].
                let la = Layout::row_major(kdim).t();
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

    /// The lowerings past `DIRECT_MAX_MACS` — the GEMM and the
    /// single-channel kernels — must match the direct loops, for every
    /// stride/padding/channel combination the im2col and col2im walks, the
    /// panel widths and the single-channel tiles distinguish — down to
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
                "{what} must pass the direct loops"
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
    /// runs the direct loops, one past `DIRECT_MAX_MACS` (f64 takes the
    /// scalar GEMM kernel there) and a single-channel one past it (the
    /// direct lane kernels on their scalar path).
    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for (x_dims, w_dims, past_direct) in [
            ([2, 5, 5, 2], [3, 3, 2, 3], false),
            ([3, 13, 12, 3], [3, 3, 3, 8], true),
            ([5, 16, 16, 1], [5, 5, 1, 8], true),
        ] {
            let x = Tensor::<f64>::randn(&x_dims, &mut rng);
            let w = Tensor::<f64>::randn(&w_dims, &mut rng);
            for padding in [Padding::Same, Padding::Valid] {
                let strides = (2, 1);
                let g = geometry(&x_dims, &w_dims, strides, padding);
                assert_eq!(
                    g.macs() >= DIRECT_MAX_MACS,
                    past_direct,
                    "{x_dims:?} {padding:?}"
                );
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
