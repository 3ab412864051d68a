//! Shared packed-GEMM engine behind `matmul` / `matmul_tn` / `matmul_nt`
//! and the convolution kernels (forward and both gradients).
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
//! * **Indexed A**: element `(i, k)` of A is read at `a[row(i) + red(k)]`
//!   ([`Index`]), each term a [`Walk`] — runs of evenly spaced elements,
//!   the runs evenly spaced too. A strided matrix is one run per term; a
//!   convolution reads its patches in place from a zero-padded image,
//!   output position `p` at `row(p)` and the patch as `k_h` runs of
//!   `k_w·in_c` floats (the filter gradient swaps the two terms). Both
//!   kernels walk a run with plain offset increments and turn to the
//!   next run between two B rows, so the k-order of every sum is the one
//!   a materialized A would give. The lane kernel has a second copy for
//!   one-run reductions (every plain matrix), free of the run loop.
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
}

/// `t ↦ (t / len)·outer + (t % len)·step`: runs of `len` elements `step`
/// apart, the runs `outer` apart. One term of an [`Index`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk {
    pub len: usize,
    pub step: usize,
    pub outer: usize,
}

impl Walk {
    /// One unbroken run of `step`-spaced elements.
    pub(crate) fn strided(step: usize) -> Walk {
        Walk {
            len: usize::MAX,
            step,
            outer: 0,
        }
    }

    #[cfg(test)]
    fn at(self, t: usize) -> usize {
        (t / self.len) * self.outer + (t % self.len) * self.step
    }

    /// The offsets of `i..i + N`, indices past `last` clamped onto it:
    /// at most one division for the tile, then a step or a run's jump per
    /// index.
    #[inline(always)]
    fn tile<const N: usize>(self, i: usize, last: usize) -> [usize; N] {
        let (mut q, mut r) = if i < self.len {
            (0, i)
        } else {
            (i / self.len, i % self.len)
        };
        let mut at = q * self.outer + r * self.step;
        let mut out = [0; N];
        for (x, slot) in out.iter_mut().enumerate() {
            *slot = at;
            if i + x < last {
                r += 1;
                if r == self.len {
                    (q, r) = (q + 1, 0);
                    at = q * self.outer;
                } else {
                    at += self.step;
                }
            }
        }
        out
    }

    /// The largest offset over the non-empty `range`, `None` on overflow.
    /// Offsets grow inside a run, and run ends grow run by run, so it is
    /// the last one or the end of the run before the last one's.
    fn max_over(self, range: Range<usize>) -> Option<usize> {
        let at = |t: usize| {
            ((t / self.len).checked_mul(self.outer))?
                .checked_add((t % self.len).checked_mul(self.step)?)
        };
        let last = range.end - 1;
        let run0 = last / self.len * self.len;
        let before = if run0 > range.start { at(run0 - 1)? } else { 0 };
        Some(at(last)?.max(before))
    }
}

/// Where element `(i, k)` of an A operand lives: `a[row.at(i) + red.at(k)]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Index {
    pub row: Walk,
    pub red: Walk,
}

impl From<Layout> for Index {
    fn from(l: Layout) -> Index {
        Index {
            row: Walk::strided(l.rs),
            red: Walk::strided(l.cs),
        }
    }
}

impl Index {
    /// Asserts that every element of rows `rows` × `0..k` lies inside `a`
    /// (`len` elements): the one check the kernels' reads rely on.
    fn check(self, rows: &Range<usize>, k: usize, len: usize) {
        if rows.is_empty() || k == 0 {
            return;
        }
        let max_index = self
            .row
            .max_over(rows.clone())
            .zip(self.red.max_over(0..k))
            .and_then(|(r, c)| r.checked_add(c));
        assert!(
            max_index.is_some_and(|m| m < len),
            "gemm A operand too short: rows {rows:?} × k {k} by {self:?} in {len} elements"
        );
    }

    /// The run length the kernels walk `k` reduction steps in: `red.len`,
    /// or `k` when one run covers them (at least 1).
    fn run(self, k: usize) -> usize {
        self.red.len.min(k).max(1)
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
/// `a` is indexed with the *global* row numbers in `rows` through `ia`;
/// `c` is the destination sub-slice covering exactly those rows
/// (`rows.len() * n` elements). Works on any row split: tiles shorter than
/// the kernel height at a chunk boundary run the full-height loop on
/// clamped row indices, which computes the same sums in the same k-order.
/// f32 dispatches to the lane kernel when [`crate::simd::simd_enabled`]
/// says so.
pub(crate) fn gemm_rows<T: Scalar>(
    a: &[T],
    ia: Index,
    bp: &PackedB<T>,
    c: &mut [T],
    n: usize,
    rows: Range<usize>,
) {
    debug_assert_eq!(c.len(), rows.len() * n);
    if simd::simd_enabled() {
        if let (Some(af), Some(bf)) = (simd::as_f32_slice(a), simd::as_f32_slice(&bp.data)) {
            let cf = simd::as_f32_slice_mut(c).expect("T is f32");
            // A plain matrix's reduction is one run: its own copy of the
            // kernel, with no run loop around the k-loop. Sharing one copy,
            // its short-K matmuls (K = 16, 32) ran 3–8 % slower than before
            // A was indexed; separate, at parity.
            if ia.red.len >= bp.k {
                simd::vectorize(
                    #[inline(always)]
                    || gemm_rows_lanes::<true>(af, ia, bf, bp.panels, bp.k, cf, n, rows),
                );
            } else {
                simd::vectorize(
                    #[inline(always)]
                    || gemm_rows_lanes::<false>(af, ia, bf, bp.panels, bp.k, cf, n, rows),
                );
            }
            return;
        }
    }
    gemm_rows_scalar(a, ia, bp, c, n, rows);
}

/// The generic scalar reference kernel: 4-row tiles over 8-wide
/// accumulator strips. Per-element arithmetic (and therefore results)
/// are exactly the pre-SIMD engine's: each `C[i,j]` is a pure k-order
/// sum regardless of the tile or strip the element lands in.
fn gemm_rows_scalar<T: Scalar>(
    a: &[T],
    ia: Index,
    bp: &PackedB<T>,
    c: &mut [T],
    n: usize,
    rows: Range<usize>,
) {
    let k = bp.k;
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR.min(rows.end - i);
        let row_off: [usize; MR] = ia.row.tile(i, rows.end - 1);
        let c_base = (i - rows.start) * n;
        for p in 0..bp.panels {
            let panel = &bp.data[p * k * NR..(p + 1) * k * NR];
            for s in 0..NR / SR {
                let j0 = p * NR + s * SR;
                if j0 >= n {
                    break;
                }
                let nr = SR.min(n - j0);
                // Fixed bounds so the 4×8 update unrolls; a short tile's
                // missing rows repeat its last one and are not stored.
                let acc =
                    over_runs::<_, false>([[T::zero(); SR]; MR], ia, k, |mut acc, ks, mut t| {
                        for brow in panel[ks.start * NR..ks.end * NR].chunks_exact(NR) {
                            let brow = &brow[s * SR..s * SR + SR];
                            for (accr, &off) in acc.iter_mut().zip(&row_off) {
                                let av = a[off + t];
                                for (slot, &bv) in accr.iter_mut().zip(brow) {
                                    *slot += av * bv;
                                }
                            }
                            t += ia.red.step;
                        }
                        acc
                    });
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
/// relies on — the largest offset of `ia` over the call's rows and `k` —
/// is asserted once per call ([`Index::check`]), which is what makes the
/// unchecked read in the loop sound. The k-loop walks `ia`'s runs: per
/// B row one shared offset step, per run one jump. A tile shorter than
/// [`MR_SIMD`] at the end of `rows` runs the same full-height loop with
/// its missing rows clamped onto the last real row (recomputing it into
/// accumulators nobody stores) and stores only its `mr` rows: one k-loop
/// per panel width, no edge copy of it.
///
/// `inline(always)` is load-bearing: the body must land inside
/// [`simd::vectorize`]'s `#[target_feature]` frame to compile as AVX2 +
/// FMA — as a standalone (baseline-feature) function every `mul_add`
/// would be a libm call.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_rows_lanes<const ONE_RUN: bool>(
    a: &[f32],
    ia: Index,
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
    ia.check(&rows, k, a.len());
    let step = ia.red.step;
    let bdata = &bdata[..panels * k * NR];
    let mut i = rows.start;
    while i < rows.end {
        let mr = MR_SIMD.min(rows.end - i);
        let row_off: [usize; MR_SIMD] = ia.row.tile(i, last);
        let a_at = |off: usize, t: usize| {
            debug_assert!(off + t < a.len());
            // SAFETY: `off` is `row.at(i)` for a row in `rows` and `t` is
            // `red.at(kk)` for a `kk < k` (each panel has exactly `k`
            // chunks, walked run by run), so `off + t` is at most the
            // bound `Index::check` held below `a.len()` at the top of this
            // function. Worth an `unsafe`: indexed, `gemm 256³` runs at
            // 49.6 GF/s on the reference host; unchecked, at 70.9.
            L8::splat(unsafe { *a.get_unchecked(off + t) })
        };
        let c_base = (i - rows.start) * n;
        for p in 0..panels {
            let j0 = p * NR;
            let nr = NR.min(n - j0);
            let panel = &bdata[p * k * NR..(p + 1) * k * NR];
            if nr > LANES {
                let acc = over_runs::<_, ONE_RUN>(
                    [[L8::zero(); 2]; MR_SIMD],
                    ia,
                    k,
                    #[inline(always)]
                    |mut acc, ks, mut t| {
                        for brow in panel[ks.start * NR..ks.end * NR].chunks_exact(NR) {
                            let b0 = L8::load(brow);
                            let b1 = L8::load(&brow[LANES..]);
                            for (accr, &off) in acc.iter_mut().zip(&row_off) {
                                let av = a_at(off, t);
                                accr[0] = av.mul_add(b0, accr[0]);
                                accr[1] = av.mul_add(b1, accr[1]);
                            }
                            t += step;
                        }
                        acc
                    },
                );
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
                let acc = over_runs::<_, ONE_RUN>(
                    [L8::zero(); MR_SIMD],
                    ia,
                    k,
                    #[inline(always)]
                    |mut acc, ks, mut t| {
                        for brow in panel[ks.start * NR..ks.end * NR].chunks_exact(NR) {
                            let b0 = L8::load(brow);
                            for (accr, &off) in acc.iter_mut().zip(&row_off) {
                                *accr = a_at(off, t).mul_add(b0, *accr);
                            }
                            t += step;
                        }
                        acc
                    },
                );
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

/// Folds `run` over the reduction steps `0..k` of `ia`, run by run, in
/// k-order: `run(acc, steps, t)` walks the steps `steps` from offset
/// `t = red.at(steps.start)` and returns the accumulators. The first run
/// starts from `zero` in registers. Between runs the accumulators pass
/// through memory ([`std::hint::black_box`]): carried in registers through
/// a loop around the k-loop, LLVM scalarizes them and rebuilds each vector
/// per step, which made the lane kernel 15× slower. A one-run walk (every
/// plain matrix) never reaches the barrier; with `ONE_RUN`, which the
/// caller sets when it has seen `red.len ≥ k`, the fold is that one call
/// and nothing else.
#[inline(always)]
fn over_runs<A: Copy, const ONE_RUN: bool>(
    zero: A,
    ia: Index,
    k: usize,
    mut run: impl FnMut(A, Range<usize>, usize) -> A,
) -> A {
    if ONE_RUN {
        return run(zero, 0..k, 0);
    }
    let len = ia.run(k);
    let mut acc = run(zero, 0..len.min(k), 0);
    let (mut k0, mut t) = (len, ia.red.outer);
    while k0 < k {
        let k1 = (k0 + len).min(k);
        acc = run(std::hint::black_box(acc), k0..k1, t);
        (k0, t) = (k1, t + ia.red.outer);
    }
    acc
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
        gemm_rows(a, la.into(), &bp, chunk, n, row0..row0 + chunk.len() / n);
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
                            gemm_rows(a, la.into(), &bp, lo, n, 0..split);
                            gemm_rows(a, la.into(), &bp, hi, n, split..m);
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

    /// An A read through multi-run walks on both terms (short runs, runs
    /// farther apart than they are long, a last run cut short, rows
    /// sharing elements) equals the naive sum over the same addresses, on
    /// both dispatch paths, from a row range that starts mid-run.
    #[test]
    fn indexed_operand_matches_naive() {
        let ia = Index {
            row: Walk {
                len: 5,
                step: 3,
                outer: 40,
            },
            red: Walk {
                len: 4,
                step: 1,
                outer: 11,
            },
        };
        for (m, k, n) in [(13usize, 10usize, 17usize), (7, 4, 8), (1, 1, 3)] {
            let len = ia.row.at(m - 1) + ia.red.at(k - 1) + 1;
            let a: Vec<f32> = (0..len).map(|x| ((x * 7) % 11) as f32 - 5.0).collect();
            let b: Vec<f32> = (0..k * n).map(|x| (x % 5) as f32 - 2.0).collect();
            let bp = pack_b(&b, Layout::row_major(n), k, n);
            for simd_on in [false, true] {
                crate::simd::set_simd_enabled(simd_on);
                let rows = m / 3..m;
                let mut c = vec![0.0f32; rows.len() * n];
                gemm_rows(&a, ia, &bp, &mut c, n, rows.clone());
                for (x, &got) in c.iter().enumerate() {
                    let (i, j) = (rows.start + x / n, x % n);
                    let want: f32 = (0..k)
                        .map(|kk| a[ia.row.at(i) + ia.red.at(kk)] * b[kk * n + j])
                        .sum();
                    assert_eq!(got, want, "C[{i},{j}] (simd={simd_on}, {m}x{k}x{n})");
                }
            }
            crate::simd::set_simd_enabled(crate::simd::simd_supported());
        }
    }

    #[test]
    #[should_panic(expected = "gemm A operand too short")]
    fn indexed_operand_past_its_slice_panics() {
        let ia = Index {
            row: Walk::strided(4),
            red: Walk {
                len: 2,
                step: 1,
                outer: 3,
            },
        };
        // Row 2's last element, 2·4 + 3 + 1 = 12, is past 12 elements.
        let a = [1.0f32; 12];
        let bp = pack_b(&[1.0f32; 4 * 2], Layout::row_major(2), 4, 2);
        let mut c = [0.0f32; 3 * 2];
        simd::vectorize(|| {
            gemm_rows_lanes::<false>(&a, ia, &bp.data, bp.panels, 4, &mut c, 2, 0..3)
        });
    }
}
