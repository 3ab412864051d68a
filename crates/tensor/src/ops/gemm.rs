//! Shared packed-GEMM engine behind `matmul` / `matmul_tn` / `matmul_nt`
//! and the im2col convolution kernels (forward and both gradients).
//!
//! The design is the classic GotoBLAS decomposition, sized for the small
//! matrices this workload sees (Dense layers, LeNet-scale convs):
//!
//! * **Pack B once** into panels of [`NR`] columns, so the micro-kernel
//!   streams B contiguously regardless of the operand's original layout
//!   (normal or transposed — see [`Layout`]). Edge panels are
//!   zero-padded, which lets the inner loop always run full width.
//! * **Register-tile micro-kernels**: the f32 lane kernel computes a
//!   6-row × 16-column tile as 12 [`L8`] accumulators (two 8-wide lanes
//!   per row) with fused multiply-add, dropping to one lane per row on
//!   panels narrower than 8 useful columns so LeNet-scale `out_c = 6`
//!   convolutions don't burn half the vector width on padding. The
//!   generic scalar kernel keeps the original 4×8 accumulator tile (the
//!   reference path; see `crate::simd` for the determinism contract).
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
}

/// B packed into `ceil(n / NR)` panels; panel `p` holds columns
/// `p*NR .. p*NR+NR` as `k` contiguous NR-wide rows (zero-padded past
/// column `n`).
pub(crate) struct PackedB<T> {
    data: Vec<T>,
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
            data: Vec::new(),
            panels: 0,
            k: 0,
        }
    }

    /// Packs a new `k × n` operand into this buffer, reusing its
    /// allocation — for callers whose B changes per strip (the conv
    /// filter gradient packs one `dy` strip at a time).
    pub(crate) fn repack(&mut self, b: &[T], layout: Layout, k: usize, n: usize) {
        let panels = n.div_ceil(NR);
        self.data.clear();
        self.data.resize(panels * k * NR, T::zero());
        for p in 0..panels {
            let j0 = p * NR;
            let width = NR.min(n - j0);
            let dst = &mut self.data[p * k * NR..(p + 1) * k * NR];
            for kk in 0..k {
                let row = &mut dst[kk * NR..kk * NR + width];
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = b[kk * layout.rs + (j0 + c) * layout.cs];
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
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR_SIMD.min(rows.end - i);
        let c_base = (i - rows.start) * n;
        for p in 0..panels {
            let j0 = p * NR;
            let nr = NR.min(n - j0);
            let panel = &bdata[p * k * NR..(p + 1) * k * NR];
            if nr > LANES {
                let mut acc = [[L8::zero(); 2]; MR_SIMD];
                if mr == MR_SIMD {
                    for kk in 0..k {
                        let brow = &panel[kk * NR..kk * NR + NR];
                        let b0 = L8::load(brow);
                        let b1 = L8::load(&brow[LANES..]);
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = L8::splat(a[(i + r) * la.rs + kk * la.cs]);
                            accr[0] = av.mul_add(b0, accr[0]);
                            accr[1] = av.mul_add(b1, accr[1]);
                        }
                    }
                } else {
                    for kk in 0..k {
                        let brow = &panel[kk * NR..kk * NR + NR];
                        let b0 = L8::load(brow);
                        let b1 = L8::load(&brow[LANES..]);
                        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                            let av = L8::splat(a[(i + r) * la.rs + kk * la.cs]);
                            accr[0] = av.mul_add(b0, accr[0]);
                            accr[1] = av.mul_add(b1, accr[1]);
                        }
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
                if mr == MR_SIMD {
                    for kk in 0..k {
                        let b0 = L8::load(&panel[kk * NR..kk * NR + LANES]);
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = L8::splat(a[(i + r) * la.rs + kk * la.cs]);
                            *accr = av.mul_add(b0, *accr);
                        }
                    }
                } else {
                    for kk in 0..k {
                        let b0 = L8::load(&panel[kk * NR..kk * NR + LANES]);
                        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                            let av = L8::splat(a[(i + r) * la.rs + kk * la.cs]);
                            *accr = av.mul_add(b0, *accr);
                        }
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

    #[test]
    fn tile_edges_match_naive() {
        // Odd sizes exercise the partial-row and partial-panel paths on
        // both dispatch paths (narrow panel at n=11: the trailing panel
        // has 11 − 0 = 11 > 8 columns; n=5 exercises the ≤8 kernel).
        for (m, k, n) in [
            (7usize, 5usize, 11usize),
            (13, 9, 5),
            (6, 4, 17),
            (9, 3, 16),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
            let bp = pack_b(&b, Layout::row_major(n), k, n);
            for simd_on in [false, true] {
                crate::simd::set_simd_enabled(simd_on);
                let mut c = vec![0.0f32; m * n];
                gemm_rows(&a, Layout::row_major(k), &bp, &mut c, n, 0..m);
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = 0.0;
                        for kk in 0..k {
                            acc += a[i * k + kk] * b[kk * n + j];
                        }
                        let got = c[i * n + j];
                        assert!(
                            (got - acc).abs() <= 1e-4 * acc.abs().max(1.0),
                            "C[{i},{j}] = {got} want {acc} (simd={simd_on}, {m}x{k}x{n})"
                        );
                    }
                }
            }
            crate::simd::set_simd_enabled(crate::simd::simd_supported());
        }
    }
}
