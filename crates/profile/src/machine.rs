//! Measured machine ceilings for roofline reporting.
//!
//! [`machine_probe`] runs two short microbenchmarks — a dependent-free
//! multiply-add loop for peak single-thread f32 FLOP/s and a large
//! out-of-cache buffer copy for peak memory bandwidth — and caches the
//! result for the process lifetime. The ceilings are *practical* peaks
//! (what straightforward compiled Rust achieves on one core), which is
//! the honest denominator for kernels that are themselves straightforward
//! compiled Rust.
//!
//! The FLOP probe exists per *dispatch path* ([`machine_probe_path`]):
//! the SIMD-path probe runs the same lane-chunked `f32::mul_add` pattern
//! the vectorized kernels use, inside the same `avx2,fma` target-feature
//! frame, so kernel GFLOP/s and the roofline ceiling are measured like
//! for like. (An earlier revision probed `mul_add` *without* the
//! target-feature frame; it lowered to a libm call and under-reported
//! the ceiling ~60×, pinned by `simd_probe_ceiling_is_sane` below.)
//! This crate sits *below* `s4tf-tensor`, where the dispatch switch
//! lives, so it cannot see which path is active: [`machine_probe`]
//! reports the default (SIMD) path, and callers that know the path a
//! run took — the roofline rows' path labels, `tensor::path_label()` —
//! ask for [`machine_probe_path`].

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Measured machine ceilings, single-threaded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Peak sustained f32 GFLOP/s (fma loop, one core).
    pub peak_gflops: f64,
    /// Peak sustained memory bandwidth in GB/s (streaming copy, read +
    /// write counted, one core).
    pub peak_gbps: f64,
}

impl MachineProfile {
    /// The attainable GFLOP/s roof for a kernel of the given arithmetic
    /// intensity (FLOPs per byte): `min(peak_gflops, intensity · peak_gbps)`.
    pub fn roof_gflops(&self, intensity: f64) -> f64 {
        self.peak_gflops.min(intensity * self.peak_gbps)
    }

    /// Intensity at which the machine transitions from bandwidth-bound to
    /// compute-bound (the roofline "ridge point"), in FLOPs/byte.
    pub fn ridge_intensity(&self) -> f64 {
        if self.peak_gbps > 0.0 {
            self.peak_gflops / self.peak_gbps
        } else {
            0.0
        }
    }
}

/// True when this CPU can run the SIMD dispatch path's target features
/// (the same test `s4tf_tensor::simd_supported` performs).
pub fn simd_probe_supported() -> bool {
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

/// Probes (once per process, then cached) the machine's practical peak
/// FLOP rate and memory bandwidth on the default dispatch path: SIMD
/// where the CPU supports it (see the module docs). Costs roughly 100 ms
/// on first call.
pub fn machine_probe() -> MachineProfile {
    machine_probe_path(true)
}

/// Ceilings for one dispatch path: `simd = true` probes the lane-chunked
/// `mul_add` pattern the vectorized kernels run (falling back to the
/// scalar pattern when the CPU lacks the features), `false` the plain
/// multiply-add loop of the scalar reference kernels. Cached per path.
pub fn machine_probe_path(simd: bool) -> MachineProfile {
    static SCALAR: OnceLock<MachineProfile> = OnceLock::new();
    static SIMD: OnceLock<MachineProfile> = OnceLock::new();
    let simd = simd && simd_probe_supported();
    let cell = if simd { &SIMD } else { &SCALAR };
    *cell.get_or_init(|| MachineProfile {
        peak_gflops: if simd {
            probe_flops_simd()
        } else {
            probe_flops_scalar()
        },
        peak_gbps: probe_bandwidth(),
    })
}

/// Peak scalar-path f32 FLOP/s: 64 independent accumulators of `a*s + b`
/// (2 FLOPs each), wide enough to autovectorize and hide arithmetic
/// latency. Deliberately a plain multiply-add, not `f32::mul_add`:
/// without fused codegen the latter lowers to a libm call and would
/// report a ceiling far below what the scalar kernels (plain mul + add)
/// achieve.
fn probe_flops_scalar() -> f64 {
    let mut acc = [1.0f32; 64];
    let scale = black_box(1.000_000_1f32);
    let bias = black_box(1.0e-9f32);
    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..512 {
            for a in acc.iter_mut() {
                *a = *a * scale + bias;
            }
        }
        passes += 512;
        if start.elapsed() >= Duration::from_millis(40) {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(acc);
    (passes as f64 * acc.len() as f64 * 2.0) / secs / 1e9
}

/// The SIMD-path probe body: 12 independent 8-wide lanes of
/// `f32::mul_add` — the exact accumulator pattern of the 6×16 GEMM
/// micro-kernel. Must be inlined into a target-feature frame to compile
/// as `vfmadd` (see [`probe_flops_simd`]).
#[inline(always)]
fn probe_flops_lanes_body() -> f64 {
    const LANES: usize = 8;
    const ACCS: usize = 12;
    let mut acc = [[1.0f32; LANES]; ACCS];
    let scale = black_box([1.000_000_1f32; LANES]);
    let bias = black_box([1.0e-9f32; LANES]);
    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..512 {
            for a in acc.iter_mut() {
                for j in 0..LANES {
                    a[j] = a[j].mul_add(scale[j], bias[j]);
                }
            }
        }
        passes += 512;
        if start.elapsed() >= Duration::from_millis(40) {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    black_box(acc);
    (passes as f64 * (ACCS * LANES) as f64 * 2.0) / secs / 1e9
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn probe_flops_lanes_x86() -> f64 {
    probe_flops_lanes_body()
}

/// Peak SIMD-path f32 FLOP/s. Callers guarantee [`simd_probe_supported`].
fn probe_flops_simd() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: gated on runtime detection in `machine_probe_path`.
        unsafe { probe_flops_lanes_x86() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        probe_flops_lanes_body()
    }
}

/// Peak memory bandwidth: stream-copy a 32 MiB f32 buffer (large enough
/// to defeat last-level caches), counting each pass as read + write.
fn probe_bandwidth() -> f64 {
    const ELEMS: usize = 8 << 20; // 8 Mi f32 = 32 MiB per buffer
    let src = vec![1.0f32; ELEMS];
    let mut dst = vec![0.0f32; ELEMS];
    dst.copy_from_slice(&src); // warm the pages
    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        passes += 1;
        if start.elapsed() >= Duration::from_millis(60) {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (passes as f64 * (2 * ELEMS * 4) as f64) / secs / 1e9
}

/// A stable fingerprint of the benchmarking host, recorded into bench
/// artifacts so the CI regression gate can refuse to compare numbers
/// from unlike machines.
pub fn machine_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{}-{}-{}c",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cores
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roof_is_min_of_ceilings() {
        let m = MachineProfile {
            peak_gflops: 10.0,
            peak_gbps: 5.0,
        };
        // ridge at 2 FLOPs/byte
        assert!((m.ridge_intensity() - 2.0).abs() < 1e-12);
        // below the ridge: bandwidth-bound
        assert!((m.roof_gflops(1.0) - 5.0).abs() < 1e-12);
        // above the ridge: compute-bound
        assert!((m.roof_gflops(4.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_mentions_arch() {
        assert!(machine_fingerprint().contains(std::env::consts::ARCH));
    }

    /// Pins the PR 6 probe bug: `f32::mul_add` outside a fused-codegen
    /// frame lowers to a libm call and under-reported the ceiling ~60×.
    /// The lane probe now runs inside the kernels' target-feature frame,
    /// so where the SIMD path exists its ceiling must be at least
    /// comparable to the scalar probe (in practice it is ~2× higher —
    /// FMA doubles FLOPs per instruction).
    #[test]
    fn simd_probe_ceiling_is_sane() {
        // A performance assertion: at opt-level 0 the `#[inline(always)]`
        // lane contract does not hold, so it means nothing in debug builds
        // (the release bench gate pins the ceiling there).
        if !simd_probe_supported() || cfg!(debug_assertions) {
            return;
        }
        let scalar = machine_probe_path(false).peak_gflops;
        let simd = machine_probe_path(true).peak_gflops;
        assert!(
            simd >= 0.8 * scalar,
            "simd-path probe ({simd:.2} GF/s) far below scalar probe \
             ({scalar:.2} GF/s): mul_add is compiling as a libm call again"
        );
    }
}
