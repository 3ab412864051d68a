//! Shared packed-GEMM engine behind `matmul` / `matmul_tn` / `matmul_nt`
//! and the im2col convolution kernels (forward and both gradients).
//!
//! The design is the classic GotoBLAS decomposition, sized for the small
//! matrices this workload sees (Dense layers, LeNet-scale convs):
//!
//! * **Pack B once** into panels of [`NR`] columns, so the micro-kernel
//!   streams B contiguously regardless of the operand's original layout
//!   (normal or transposed — see [`Layout`]). Edge panels are
//!   zero-padded, which lets the inner loop always run full width. The
//!   packed buffer is scratch from [`crate::pool`].
//! * **Register-tile micro-kernels**: the f32 lane kernel computes a
//!   6-row × 16-column tile as 12 [`L8`] accumulators (two 8-wide lanes
//!   per row) with fused multiply-add, dropping to one lane per row on
//!   panels with at most 8 useful columns (edge panels such as `n = 84`'s
//!   last four columns) so they don't burn half the vector width on
//!   padding. Its k-loop
//!   checks nothing: the bounds of a call's A rows and B panels are
//!   established once, before the first tile, and tiles shorter than six
//!   rows run the full-height loop on clamped row indices (see
//!   `gemm_rows_lanes`). The generic scalar kernel keeps the original
//!   4×8 accumulator tile (the reference path; see `crate::simd` for the
//!   determinism contract).
//! * **Parallelize over row-blocks of C**: each chunk of C rows is
//!   written by exactly one task, with A and packed-B shared read-only.
//!
//! Determinism: splitting over *rows* never reorders the k-summation of
//! any output element, so results are bit-identical for every thread
//! count on both dispatch paths (the property
//! `tests/parallel_consistency.rs` checks). The lane kernel's FMA
//! accumulation differs from the scalar path by rounding only
//! (`tests/simd_consistency.rs` bounds it).

use std::ops::Range;

use crate::dtype::Scalar;
use crate::pool::Scratch;
use crate::simd::{self, L8, LANES};

/// Scalar micro-kernel tile height (rows of C per register tile).
pub(crate) const MR: usize = 4;
/// Packed-panel width (columns of C per panel; the lane kernel's full
/// tile width, two [`LANES`]-wide chunks).
pub(crate) const NR: usize = 16;
/// Lane micro-kernel tile height: 6 rows × 2 lanes = 12 live vector
/// accumulators, plus 2 B lanes and 1 broadcast — 15 of 16 AVX2
/// registers, the sweet spot measured on the CI host.
const MR_SIMD: usize = 6;
/// Scalar kernel accumulator strip width: the pre-SIMD panel width, kept
/// so the reference path's register tile (and its results) are unchanged.
const SR: usize = 8;

/// Multiply-accumulate count per parallel chunk: tuned so a chunk is
/// worth a queue round-trip (documented in DESIGN.md).
const GEMM_CHUNK_MACS: usize = 1 << 16;

/// Addressing scheme for an operand: element `(row, col)` of the
/// *logical* matrix lives at `data[row * rs + col * cs]`. Transposed
/// variants are handled by swapping the strides instead of
/// materializing the transpose.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub rs: usize,
    pub cs: usize,
}

impl Layout {
    /// Row-major `[rows, cols]` storage.
    pub(crate) fn row_major(cols: usize) -> Layout {
        Layout { rs: cols, cs: 1 }
    }

    /// The logical transpose of row-major `[cols, rows]` storage.
    pub(crate) fn transposed(rows: usize) -> Layout {
        Layout { rs: 1, cs: rows }
    }

    /// The same storage read as the transposed logical matrix.
    pub(crate) fn t(self) -> Layout {
        Layout {
            rs: self.cs,
            cs: self.rs,
        }
    }
}

/// B packed into `ceil(n / NR)` panels; panel `p` holds columns
/// `p*NR .. p*NR+NR` as `k` contiguous NR-wide rows (zero-padded past
/// column `n`). The buffer is kernel [`Scratch`], never tensor storage.
pub(crate) struct PackedB<T: Scalar> {
    data: Scratch<T>,
    panels: usize,
    k: usize,
}

pub(crate) fn pack_b<T: Scalar>(b: &[T], layout: Layout, k: usize, n: usize) -> PackedB<T> {
    let mut bp = PackedB::empty();
    bp.repack(b, layout, k, n);
    bp
}

impl<T: Scalar> PackedB<T> {
    /// A `0 × 0` operand holding no allocation, to [`PackedB::repack`] into.
    pub(crate) fn empty() -> PackedB<T> {
        PackedB {
            data: Scratch::default(),
            panels: 0,
            k: 0,
        }
    }

    /// Packs a new `k × n` operand into this buffer, reusing its
    /// allocation — for callers whose B changes per block (the conv
    /// filter gradient packs one block of `dy` rows at a time).
    pub(crate) fn repack(&mut self, b: &[T], layout: Layout, k: usize, n: usize) {
        let panels = n.div_ceil(NR);
        let len = panels * k * NR;
        if self.data.capacity() < len {
            self.data = Scratch::with_capacity(len);
        }
        self.data.clear();
        self.data.resize(len, T::zero());
        for p in 0..panels {
            let j0 = p * NR;
            let width = NR.min(n - j0);
            let dst = &mut self.data[p * k * NR..(p + 1) * k * NR];
            for (kk, row) in dst.chunks_exact_mut(NR).enumerate() {
                let row = &mut row[..width];
                let src0 = kk * layout.rs + j0 * layout.cs;
                if layout.cs == 1 {
                    row.copy_from_slice(&b[src0..src0 + width]);
                } else {
                    for (c, slot) in row.iter_mut().enumerate() {
                        *slot = b[src0 + c * layout.cs];
                    }
                }
            }
        }
        self.panels = panels;
        self.k = k;
    }
}

/// `C[rows, :n] += A[rows, :k] × B` for one row range.
///
/// `a` is indexed with the *global* row numbers in `rows`; `c` is the
/// destination sub-slice covering exactly those rows (`rows.len() * n`
/// elements). Works on any row split: tiles shorter than the kernel
/// height at a chunk boundary take the edge path, which computes the
/// same sums in the same k-order. f32 dispatches to the lane kernel
/// when [`crate::simd::simd_enabled`] says so.
pub(crate) fn gemm_rows<T: Scalar>(
    a: &[T],
    la: Layout,
    bp: &PackedB<T>,
    c: &mut [T],
    n: usize,
    rows: Range<usize>,
) {
    debug_assert_eq!(c.len(), rows.len() * n);
    if simd::simd_enabled() {
        if let (Some(af), Some(bf)) = (simd::as_f32_slice(a), simd::as_f32_slice(&bp.data)) {
            let cf = simd::as_f32_slice_mut(c).expect("T is f32");
            simd::vectorize(|| gemm_rows_lanes(af, la, bf, bp.panels, bp.k, cf, n, rows));
            return;
        }
    }
    gemm_rows_scalar(a, la, bp, c, n, rows);
}

/// The generic scalar reference kernel: 4-row tiles over 8-wide
/// accumulator strips. Per-element arithmetic (and therefore results)
/// are exactly the pre-SIMD engine's: each `C[i,j]` is a pure k-order
/// sum regardless of the tile or strip the element lands in.
fn gemm_rows_scalar<T: Scalar>(
    a: &[T],
    la: Layout,
    bp: &PackedB<T>,
    c: &mut [T],
    n: usize,
    rows: Range<usize>,
) {
    let k = bp.k;
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let c_base = (i - rows.start) * n;
        for p in 0..bp.panels {
            let panel = &bp.data[p * k * NR..(p + 1) * k * NR];
            for s in 0..NR / SR {
                let j0 = p * NR + s * SR;
                if j0 >= n {
                    break;
                }
                let nr = SR.min(n - j0);
                let mut acc = [[T::zero(); SR]; MR];
                if mr == MR {
                    // Full tile: fixed bounds so the 4×8 update unrolls.
                    for kk in 0..k {
                        let brow = &panel[kk * NR + s * SR..kk * NR + s * SR + SR];
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = a[(i + r) * la.rs + kk * la.cs];
                            for (slot, &bv) in accr.iter_mut().zip(brow) {
                                *slot += av * bv;
                            }
                        }
                    }
                } else {
                    for kk in 0..k {
                        let brow = &panel[kk * NR + s * SR..kk * NR + s * SR + SR];
                        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                            let av = a[(i + r) * la.rs + kk * la.cs];
                            for (slot, &bv) in accr.iter_mut().zip(brow) {
                                *slot += av * bv;
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(mr) {
                    let crow = &mut c[c_base + r * n + j0..c_base + r * n + j0 + nr];
                    for (cv, &av) in crow.iter_mut().zip(accr) {
                        *cv += av;
                    }
                }
            }
        }
        i += mr;
    }
}

/// The f32 lane micro-kernel, always called inside [`simd::vectorize`]:
/// 6×16 tiles of [`L8`] accumulators with `mul_add`, or 6×8 on panels
/// with at most [`LANES`] useful columns. Accumulation order per output
/// element is the plain k-order on every path through this function, so
/// lane results are bit-identical across thread counts and row splits.
///
/// The k-loop checks nothing. The B panel is walked as exact `NR`-wide
/// chunks, whose loads need no check, and the one bound every A read
/// relies on — the address of the last row's last k-step — is asserted
/// once per call, which is what makes the unchecked read in the loop
/// sound. A tile shorter than [`MR_SIMD`] at the end of `rows` runs the
/// same full-height loop with its missing rows clamped onto the last real
/// row (recomputing it into accumulators nobody stores) and stores only
/// its `mr` rows: one k-loop per panel width, no edge copy of it.
///
/// `inline(always)` is load-bearing: the body must land inside
/// [`simd::vectorize`]'s `#[target_feature]` frame to compile as AVX2 +
/// FMA — as a standalone (baseline-feature) function every `mul_add`
/// would be a libm call.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_rows_lanes(
    a: &[f32],
    la: Layout,
    bdata: &[f32],
    panels: usize,
    k: usize,
    c: &mut [f32],
    n: usize,
    rows: Range<usize>,
) {
    if rows.is_empty() {
        return;
    }
    let last = rows.end - 1;
    if k > 0 {
        // Element (row, kk) lives at `row·rs + kk·cs`, largest at
        // (last, k − 1): checked (so a wrapped product cannot pass) and
        // inside `a`.
        let max_index = last
            .checked_mul(la.rs)
            .zip((k - 1).checked_mul(la.cs))
            .and_then(|(r, c)| r.checked_add(c));
        assert!(
            max_index.is_some_and(|m| m < a.len()),
            "gemm A operand too short: rows ..{} × k {k} at strides ({}, {}) in {} elements",
            rows.end,
            la.rs,
            la.cs,
            a.len()
        );
    }
    let bdata = &bdata[..panels * k * NR];
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR_SIMD.min(rows.end - i);
        let row_off: [usize; MR_SIMD] = std::array::from_fn(|r| (i + r).min(last) * la.rs);
        let a_at = |off: usize, kk: usize| {
            debug_assert!(off + kk * la.cs < a.len());
            // SAFETY: `off` is `row·rs` for a row in `rows.start..=last`
            // and `kk < k` (each panel has exactly `k` chunks), so
            // `off + kk·cs ≤ last·rs + (k − 1)·cs`, which the assertion
            // at the top of this function holds below `a.len()`. Worth
            // an `unsafe`: indexed, `gemm 256³` runs at 49.6 GF/s on the
            // reference host; unchecked, at 70.9.
            L8::splat(unsafe { *a.get_unchecked(off + kk * la.cs) })
        };
        let c_base = (i - rows.start) * n;
        for p in 0..panels {
            let j0 = p * NR;
            let nr = NR.min(n - j0);
            let panel = &bdata[p * k * NR..(p + 1) * k * NR];
            if nr > LANES {
                let mut acc = [[L8::zero(); 2]; MR_SIMD];
                for (kk, brow) in panel.chunks_exact(NR).enumerate() {
                    let b0 = L8::load(brow);
                    let b1 = L8::load(&brow[LANES..]);
                    for (accr, &off) in acc.iter_mut().zip(&row_off) {
                        let av = a_at(off, kk);
                        accr[0] = av.mul_add(b0, accr[0]);
                        accr[1] = av.mul_add(b1, accr[1]);
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(mr) {
                    let mut lane = [0.0f32; NR];
                    accr[0].store(&mut lane);
                    accr[1].store(&mut lane[LANES..]);
                    let crow = &mut c[c_base + r * n + j0..c_base + r * n + j0 + nr];
                    for (cv, &av) in crow.iter_mut().zip(&lane) {
                        *cv += av;
                    }
                }
            } else {
                // Narrow panel (n ≤ 8 useful columns): one lane per row.
                let mut acc = [L8::zero(); MR_SIMD];
                for (kk, brow) in panel.chunks_exact(NR).enumerate() {
                    let b0 = L8::load(brow);
                    for (accr, &off) in acc.iter_mut().zip(&row_off) {
                        *accr = a_at(off, kk).mul_add(b0, *accr);
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(mr) {
                    let crow = &mut c[c_base + r * n + j0..c_base + r * n + j0 + nr];
                    for (cv, &av) in crow.iter_mut().zip(&accr.0) {
                        *cv += av;
                    }
                }
            }
        }
        i += mr;
    }
}

/// `C += A × B` with C pre-zeroed by the caller: packs B, then splits
/// the rows of C across the thread pool (inline when the pool is
/// single-threaded or the matrix is below the chunk grain).
pub(crate) fn gemm_parallel<T: Scalar>(
    a: &[T],
    la: Layout,
    b: &[T],
    lb: Layout,
    c: &mut [T],
    k: usize,
    n: usize,
) {
    if c.is_empty() || n == 0 {
        return;
    }
    debug_assert!(c.len().is_multiple_of(n));
    let bp = pack_b(b, lb, k, n);
    let grain_rows = (GEMM_CHUNK_MACS / (k * n).max(1)).max(1);
    s4tf_threads::parallel_chunks_mut(c, n, grain_rows * n, |start, chunk| {
        let row0 = start / n;
        gemm_rows(a, la, &bp, chunk, n, row0..row0 + chunk.len() / n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_panels_are_zero_padded() {
        // 2x3 B in row-major: one panel, columns 3..16 padded with zeros.
        let b = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let bp = pack_b(&b, Layout::row_major(3), 2, 3);
        assert_eq!(bp.panels, 1);
        let mut row0 = [0.0f32; NR];
        row0[..3].copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(&bp.data[..NR], &row0);
        assert_eq!(&bp.data[NR..NR + 4], &[4.0, 5.0, 6.0, 0.0]);
    }

    #[test]
    fn transposed_layout_packs_columns() {
        // B stored [n=2, k=2]; logical [k, n] via swapped strides.
        let b = [1.0f32, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        let bp = pack_b(&b, Layout::transposed(2), 2, 2);
        // logical B' = [[1,3],[2,4]]
        assert_eq!(&bp.data[..2], &[1.0, 3.0]);
        assert_eq!(&bp.data[NR..NR + 2], &[2.0, 4.0]);
    }

    /// Every tile height (full, each edge height, two tiles and an edge),
    /// both A layouts, panel widths on each side of the lane and the
    /// panel, and reductions from none to several, on both dispatch
    /// paths. A and C hold exactly the rows computed — no slack past the
    /// last row — so a clamped edge tile that reads one row too far, or a
    /// hoisted bound that is off by one, fails here.
    #[test]
    fn tile_edges_match_naive() {
        for m in 1..=13usize {
            for k in [0usize, 1, 7, 40] {
                for n in [1usize, 5, 8, 9, 16, 17, 33] {
                    // Logical A[i, kk], stored row-major and transposed.
                    let a_at = |i: usize, kk: usize| ((i * 31 + kk * 7) % 13) as f32 - 6.0;
                    let a_rows: Vec<f32> = (0..m * k).map(|x| a_at(x / k, x % k)).collect();
                    let a_cols: Vec<f32> = (0..m * k).map(|x| a_at(x % m, x / m)).collect();
                    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
                    let bp = pack_b(&b, Layout::row_major(n), k, n);
                    for (a, la) in [
                        (&a_rows, Layout::row_major(k)),
                        (&a_cols, Layout::transposed(m)),
                    ] {
                        for simd_on in [false, true] {
                            crate::simd::set_simd_enabled(simd_on);
                            // A second call over the upper rows only: the
                            // row range need not start at 0.
                            let split = m / 2;
                            let mut c = vec![1.0f32; m * n];
                            let (lo, hi) = c.split_at_mut(split * n);
                            gemm_rows(a, la, &bp, lo, n, 0..split);
                            gemm_rows(a, la, &bp, hi, n, split..m);
                            for (x, &got) in c.iter().enumerate() {
                                let (i, j) = (x / n, x % n);
                                let want: f32 =
                                    1.0 + (0..k).map(|kk| a_at(i, kk) * b[kk * n + j]).sum::<f32>();
                                // Small integers: every path is exact.
                                assert_eq!(
                                    got, want,
                                    "C[{i},{j}] (simd={simd_on}, {m}x{k}x{n}, {la:?})"
                                );
                            }
                        }
                        crate::simd::set_simd_enabled(crate::simd::simd_supported());
                    }
                }
            }
        }
    }
}
