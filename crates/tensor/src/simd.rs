//! Explicit-width f32 lanes and the runtime SIMD dispatch switch.
//!
//! The hot kernels (packed GEMM, matvec, conv2d's im2col strips and
//! single-channel kernels, the elementwise engines and the full
//! reductions) are written twice:
//!
//! * a **scalar reference path** — the original per-element loops, kept
//!   byte-for-byte so `S4TF_SIMD=0` reproduces the pre-SIMD results
//!   bit-identically, and
//! * an **8-wide lane path** built on [`L8`], a `[f32; 8]` chunk the
//!   autovectorizer reliably lowers to one AVX2 register (or two NEON
//!   registers) when the surrounding function is compiled with the right
//!   target features.
//!
//! Rather than hand-writing `core::arch` intrinsics per operation, lane
//! code is plain Rust run inside [`vectorize`], a generic combinator
//! marked `#[target_feature(enable = "avx2,fma")]` on x86_64. Closures
//! monomorphize *into* the attributed function, so every loop inside
//! inherits the wider instruction set — `f32::mul_add` lowers to
//! `vfmadd` instead of a libm call, and `L8` arithmetic to full-width
//! vector ops. The combinator is only reached after
//! [`simd_supported`] has confirmed the CPU actually has those features,
//! which is what makes the `unsafe` target-feature call sound.
//!
//! ## Determinism contract (see DESIGN.md §6g)
//!
//! * Elementwise kernels (map / zip / assign, the fused XLA interpreter)
//!   apply the same scalar operation per element on both paths; enabling
//!   SIMD changes *codegen*, never arithmetic, so results are
//!   bit-identical between paths (Rust never auto-contracts `a * b + c`
//!   into an FMA, and `f32::mul_add` is single-rounding on both paths).
//! * GEMM / matvec / conv2d lane kernels use `mul_add` accumulation, so
//!   the SIMD path differs from scalar by FMA rounding (observed ≤ a few
//!   ULP relative). Within each path results stay bit-identical for
//!   every thread count: row/strip splits never reorder any element's
//!   k-summation.
//! * f32 `sum` / `dot` lane reductions reassociate into the fixed
//!   lane-striped order documented on [`sum_f32`]; deterministic for a
//!   given input length and thread count, tolerance vs. scalar is
//!   O(ulp·log n). `max` / `min` are associative and commutative, so
//!   lane reduction is bit-identical for NaN-free data.
//! * Integer kernels never take the lane path (it is f32-only), so i32 /
//!   i64 results are exact and path-independent by construction.

use crate::met;
use std::any::TypeId;
use std::sync::OnceLock;

/// Lane width of the chunked-f32 kernels (one AVX2 register).
pub const LANES: usize = 8;

/// `S4TF_SIMD`, else on: whether the lane path is *requested*.
static SIMD: met::Gate = met::Gate::new(|| met::env_gate("S4TF_SIMD", true));

/// True when this CPU can run the lane path's target features.
///
/// x86_64 requires AVX2 + FMA (detected at runtime — the crate is built
/// for baseline SSE2); aarch64 has NEON + fused multiply-add in its
/// baseline. Everywhere else the lane path is unavailable and the scalar
/// reference kernels run unconditionally.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static SUPPORTED: OnceLock<bool> = OnceLock::new();
        *SUPPORTED.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(target_arch = "aarch64")]
    {
        true
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

/// Whether kernels dispatch to the 8-wide lane path.
///
/// Controlled by [`set_simd_enabled`], else the `S4TF_SIMD` environment
/// variable (`0`/`false`/`off`/`no` disable), else on — always ANDed
/// with [`simd_supported`], so requesting SIMD on unsupported hardware
/// quietly runs the scalar reference path.
pub fn simd_enabled() -> bool {
    SIMD.on() && simd_supported()
}

/// Programmatic override of [`simd_enabled`] (takes precedence over the
/// environment). Process-wide, for tests and experiments.
pub fn set_simd_enabled(enabled: bool) {
    SIMD.set_on(enabled);
}

/// The lane width the active dispatch path computes with: [`LANES`] on
/// the SIMD path, 1 on the scalar reference path.
pub fn lane_width() -> usize {
    if simd_enabled() {
        LANES
    } else {
        1
    }
}

/// Short label of the active dispatch path (`"simd8"` / `"scalar"`),
/// recorded into profiler op events and bench artifacts so regressions
/// are attributable to path selection vs. kernel quality.
pub fn path_label() -> &'static str {
    if simd_enabled() {
        "simd8"
    } else {
        "scalar"
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn with_avx2_fma<R, F: FnOnce() -> R>(f: F) -> R {
    f()
}

/// Runs `f` compiled with the lane path's target features when SIMD
/// dispatch is on, else as plain (baseline-feature) code.
///
/// This is the single chokepoint every vectorized kernel goes through:
/// the closure body is ordinary safe Rust either way, only its codegen
/// differs.
#[inline]
pub fn vectorize<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        if simd_enabled() {
            // SAFETY: `simd_enabled` implies `simd_supported`, which
            // runtime-detected avx2 and fma on this CPU.
            return unsafe { with_avx2_fma(f) };
        }
    }
    f()
}

/// Reinterprets a `&[T]` as `&[f32]` when `T` *is* `f32` — the dispatch
/// test the generic kernels use to reach the lane path without
/// specializing their public signatures.
#[inline]
pub(crate) fn as_f32_slice<T: 'static>(s: &[T]) -> Option<&[f32]> {
    if TypeId::of::<T>() == TypeId::of::<f32>() {
        // SAFETY: T == f32 (same layout, same lifetime, same length).
        Some(unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

/// Mutable counterpart of [`as_f32_slice`].
#[inline]
pub(crate) fn as_f32_slice_mut<T: 'static>(s: &mut [T]) -> Option<&mut [f32]> {
    if TypeId::of::<T>() == TypeId::of::<f32>() {
        // SAFETY: T == f32 (same layout, same lifetime, same length).
        Some(unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f32>(), s.len()) })
    } else {
        None
    }
}

/// Writes an `f32` result back through a `&mut T` known to be `f32`.
#[inline]
pub(crate) fn write_f32<T: 'static>(dst: &mut T, v: f32) {
    debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<f32>());
    // SAFETY: caller dispatched on T == f32.
    unsafe { *(dst as *mut T).cast::<f32>() = v };
}

/// One 8-wide f32 lane: a `[f32; 8]` chunk aligned to the AVX2 register
/// width. All arithmetic is plain per-element Rust; inside [`vectorize`]
/// each method compiles to one vector instruction.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
pub(crate) struct L8(pub(crate) [f32; LANES]);

// Method-form names (`add`, not `impl Add`) on purpose: call sites read
// as kernel code, not as operator-overloaded arithmetic.
#[allow(clippy::should_implement_trait)]
impl L8 {
    #[inline(always)]
    pub fn zero() -> L8 {
        L8([0.0; LANES])
    }

    #[inline(always)]
    pub fn splat(v: f32) -> L8 {
        L8([v; LANES])
    }

    /// Loads the first [`LANES`] elements of `s`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> L8 {
        let mut out = [0.0; LANES];
        out.copy_from_slice(&s[..LANES]);
        L8(out)
    }

    /// Stores into the first [`LANES`] elements of `s`.
    #[inline(always)]
    pub fn store(self, s: &mut [f32]) {
        s[..LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    pub fn add(self, rhs: L8) -> L8 {
        let mut out = [0.0; LANES];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&rhs.0)) {
            *o = a + b;
        }
        L8(out)
    }

    /// `self * m + a`, fused per lane (one `vfmadd` inside [`vectorize`]).
    #[inline(always)]
    pub fn mul_add(self, m: L8, a: L8) -> L8 {
        let mut out = [0.0; LANES];
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.0[j].mul_add(m.0[j], a.0[j]);
        }
        L8(out)
    }

    #[inline(always)]
    pub fn max(self, rhs: L8) -> L8 {
        let mut out = [0.0; LANES];
        for (j, o) in out.iter_mut().enumerate() {
            // `Scalar::maximum` semantics (self >= other ? self : other).
            *o = if self.0[j] >= rhs.0[j] {
                self.0[j]
            } else {
                rhs.0[j]
            };
        }
        L8(out)
    }

    #[inline(always)]
    pub fn min(self, rhs: L8) -> L8 {
        let mut out = [0.0; LANES];
        for (j, o) in out.iter_mut().enumerate() {
            *o = if self.0[j] <= rhs.0[j] {
                self.0[j]
            } else {
                rhs.0[j]
            };
        }
        L8(out)
    }

    /// Horizontal sum, left-to-right over the lanes (fixed order: the
    /// deterministic tail of every lane reduction).
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let mut acc = self.0[0];
        for j in 1..LANES {
            acc += self.0[j];
        }
        acc
    }

    /// Horizontal maximum (`Scalar::maximum` fold, left-to-right).
    /// `!(acc >= x)` is deliberate, not `acc < x`: it also replaces a
    /// NaN accumulator, matching the serial fold's semantics.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    pub fn hmax(self) -> f32 {
        let mut acc = self.0[0];
        for j in 1..LANES {
            if !(acc >= self.0[j]) {
                acc = self.0[j];
            }
        }
        acc
    }
}

/// Number of [`L8`] accumulators the strip reductions run in parallel:
/// 4 × 8 = 32 independent partial sums, enough to hide FMA latency.
pub(crate) const ACCS: usize = 4;
/// Elements per unrolled reduction step.
pub(crate) const STRIPE: usize = ACCS * LANES;

/// Lane-parallel sum of `xs`, in the documented deterministic order:
///
/// 1. 32 partial accumulators; accumulator `(a, l)` sums elements with
///    index ≡ `a·8 + l` (mod 32) over the length-aligned prefix,
/// 2. the 4 lane accumulators combine pairwise: `(s0+s1) + (s2+s3)`,
/// 3. lanes reduce left-to-right ([`L8::hsum`]),
/// 4. remainder elements (len mod 32) are added serially, in order.
///
/// The order depends only on `xs.len()`, so results are deterministic;
/// it differs from the serial left-to-right sum (documented f32
/// tolerance — callers combine *chunk* partials in chunk order, so the
/// thread count never changes the result).
///
/// `inline(always)` (here and on the sibling reductions): callers invoke
/// these inside [`vectorize`], and the body must land in that
/// `#[target_feature]` frame to get AVX2/FMA codegen.
#[inline(always)]
pub(crate) fn sum_f32(xs: &[f32]) -> f32 {
    let mut acc = [L8::zero(); ACCS];
    let mut chunks = xs.chunks_exact(STRIPE);
    for chunk in &mut chunks {
        for (a, accl) in acc.iter_mut().enumerate() {
            *accl = accl.add(L8::load(&chunk[a * LANES..]));
        }
    }
    let combined = acc[0].add(acc[1]).add(acc[2].add(acc[3]));
    let mut total = combined.hsum();
    for &x in chunks.remainder() {
        total += x;
    }
    total
}

/// Lane-parallel dot product, same combine order as [`sum_f32`] with
/// fused multiply-add accumulation.
#[inline(always)]
pub(crate) fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [L8::zero(); ACCS];
    let mut ac = a.chunks_exact(STRIPE);
    let mut bc = b.chunks_exact(STRIPE);
    for (xa, xb) in (&mut ac).zip(&mut bc) {
        for (u, accl) in acc.iter_mut().enumerate() {
            *accl = L8::load(&xa[u * LANES..]).mul_add(L8::load(&xb[u * LANES..]), *accl);
        }
    }
    let combined = acc[0].add(acc[1]).add(acc[2].add(acc[3]));
    let mut total = combined.hsum();
    for (&xa, &xb) in ac.remainder().iter().zip(bc.remainder()) {
        total = xa.mul_add(xb, total);
    }
    total
}

/// Lane-parallel maximum (`Scalar::maximum` semantics). Max is
/// associative and commutative, so for NaN-free data this matches the
/// serial fold bit-identically; NaN placement may differ between paths.
///
/// # Panics
/// Panics on an empty slice.
// Negated comparisons are deliberate (see `L8::hmax`).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
pub(crate) fn max_f32(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "max of empty slice");
    if xs.len() < LANES {
        return xs
            .iter()
            .copied()
            .fold(xs[0], |a, b| if a >= b { a } else { b });
    }
    let mut acc = L8::load(xs);
    let mut chunks = xs[LANES..].chunks_exact(LANES);
    for chunk in &mut chunks {
        acc = acc.max(L8::load(chunk));
    }
    let mut best = acc.hmax();
    for &x in chunks.remainder() {
        if !(best >= x) {
            best = x;
        }
    }
    best
}

/// Lane-parallel minimum; see [`max_f32`].
///
/// # Panics
/// Panics on an empty slice.
// Negated comparisons are deliberate (see `L8::hmax`).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
pub(crate) fn min_f32(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "min of empty slice");
    if xs.len() < LANES {
        return xs
            .iter()
            .copied()
            .fold(xs[0], |a, b| if a <= b { a } else { b });
    }
    let mut acc = L8::load(xs);
    let mut chunks = xs[LANES..].chunks_exact(LANES);
    for chunk in &mut chunks {
        acc = acc.min(L8::load(chunk));
    }
    let mut best = acc.0[0];
    for j in 1..LANES {
        if !(best <= acc.0[j]) {
            best = acc.0[j];
        }
    }
    for &x in chunks.remainder() {
        if !(best <= x) {
            best = x;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_label_tracks_override() {
        let before = SIMD.raw();
        set_simd_enabled(false);
        assert_eq!(path_label(), "scalar");
        assert_eq!(lane_width(), 1);
        set_simd_enabled(true);
        if simd_supported() {
            assert_eq!(path_label(), "simd8");
            assert_eq!(lane_width(), LANES);
        } else {
            assert_eq!(path_label(), "scalar");
        }
        SIMD.set(before);
    }

    #[test]
    fn f32_slice_casts_dispatch_on_type() {
        let f = [1.0f32, 2.0];
        let d = [1.0f64, 2.0];
        let i = [1i32, 2];
        assert_eq!(as_f32_slice(&f), Some(&f[..]));
        assert!(as_f32_slice(&d).is_none());
        assert!(as_f32_slice(&i).is_none());
        let mut fm = [0.0f32; 2];
        as_f32_slice_mut(&mut fm).unwrap()[1] = 7.0;
        assert_eq!(fm[1], 7.0);
    }

    #[test]
    fn lane_reductions_match_reference() {
        // Sizes straddling the lane and stripe widths, including the
        // degenerate ones.
        for n in [0usize, 1, 7, 8, 9, 15, 17, 31, 32, 33, 63, 64, 65, 100] {
            let xs: Vec<f32> = (0..n).map(|i| ((i * 37 % 19) as f32) - 9.0).collect();
            let serial: f32 = xs.iter().sum();
            let lane = sum_f32(&xs);
            assert!(
                (lane - serial).abs() <= 1e-4 * serial.abs().max(1.0),
                "sum n={n}: {lane} vs {serial}"
            );
            let ys: Vec<f32> = (0..n).map(|i| ((i * 11 % 23) as f32) - 11.0).collect();
            let sdot: f32 = xs.iter().zip(&ys).map(|(&a, &b)| a * b).sum();
            let ldot = dot_f32(&xs, &ys);
            assert!(
                (ldot - sdot).abs() <= 1e-3 * sdot.abs().max(1.0),
                "dot n={n}: {ldot} vs {sdot}"
            );
            if n > 0 {
                let smax = xs.iter().copied().fold(xs[0], f32::max);
                let smin = xs.iter().copied().fold(xs[0], f32::min);
                assert_eq!(max_f32(&xs), smax, "max n={n}");
                assert_eq!(min_f32(&xs), smin, "min n={n}");
            }
        }
    }

    #[test]
    fn lane_type_arithmetic() {
        let a = L8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = L8::splat(2.0);
        assert_eq!(a.add(b).0[3], 6.0);
        assert_eq!(a.mul_add(b, L8::splat(1.0)).0[0], 3.0);
        assert_eq!(
            a.max(L8::splat(4.5)).0,
            [4.5, 4.5, 4.5, 4.5, 5.0, 6.0, 7.0, 8.0]
        );
        assert_eq!(a.min(L8::splat(4.5)).0[7], 4.5);
        assert_eq!(a.hsum(), 36.0);
        assert_eq!(a.hmax(), 8.0);
        let mut out = [0.0f32; 8];
        a.store(&mut out);
        assert_eq!(L8::load(&out).0, a.0);
    }

    #[test]
    fn vectorize_runs_closure_on_both_paths() {
        let before = SIMD.raw();
        for on in [false, true] {
            set_simd_enabled(on);
            // mul_add is single-rounding on both paths, so the value is
            // path-independent even though the instruction differs.
            let v = vectorize(|| 1.5f32.mul_add(2.0, 0.25));
            assert_eq!(v, 3.25);
        }
        SIMD.set(before);
    }
}
