//! Statistically rigorous micro-benchmark measurement: warmup runs,
//! repeated trials, median + IQR-based outlier rejection, and a machine
//! fingerprint for the recorded artifacts.
//!
//! Best-of-N (the previous harness) under-reports variance and is at the
//! mercy of one lucky run; mean-of-N is at the mercy of one unlucky one
//! (a GC pause, a scheduler preemption). The standard remedy — median of
//! many trials with Tukey-fence outlier rejection — is robust to both,
//! and the reported IQR makes regression gating principled: a change
//! inside the interquartile range is noise, not a regression.

use serde::Value;
use std::time::Instant;

/// Robust statistics over one benchmark case's trials (milliseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStats {
    /// Median wall time of the retained trials.
    pub median_ms: f64,
    /// Interquartile range of the retained trials (the noise scale).
    pub iqr_ms: f64,
    /// Mean of the retained trials.
    pub mean_ms: f64,
    /// Fastest retained trial.
    pub min_ms: f64,
    /// Trials that were run.
    pub trials: usize,
    /// Trials rejected as outliers (outside the 1.5×IQR Tukey fences).
    pub rejected: usize,
}

impl TrialStats {
    /// Achieved GFLOP/s at the median trial time.
    pub fn gflops(&self, flops: u64) -> f64 {
        if self.median_ms <= 0.0 {
            0.0
        } else {
            flops as f64 / 1e6 / self.median_ms
        }
    }

    /// Achieved GB/s at the median trial time.
    pub fn gbps(&self, bytes: u64) -> f64 {
        if self.median_ms <= 0.0 {
            0.0
        } else {
            bytes as f64 / 1e6 / self.median_ms
        }
    }
}

/// Times each of `fs` over `trials` runs after `warmup` unmeasured runs,
/// rejecting outliers outside the Tukey fences (`[q1 − 1.5·IQR, q3 +
/// 1.5·IQR]`). The runs are interleaved: each warmup round and each trial
/// runs every function once, in order, so a drift in the host's speed
/// lands on all of them alike and the ratios between their medians hold
/// up.
pub fn measure_interleaved(
    warmup: usize,
    trials: usize,
    fs: &mut [&mut dyn FnMut()],
) -> Vec<TrialStats> {
    assert!(trials > 0, "at least one trial");
    for _ in 0..warmup {
        for f in fs.iter_mut() {
            f();
        }
    }
    let mut times_ms = vec![Vec::with_capacity(trials); fs.len()];
    for _ in 0..trials {
        for (f, times) in fs.iter_mut().zip(&mut times_ms) {
            let start = Instant::now();
            f();
            times.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    times_ms
        .into_iter()
        .map(|mut times| {
            times.sort_by(|a, b| a.total_cmp(b));
            stats_of_sorted(&times)
        })
        .collect()
}

/// The robust statistics of an already-sorted sample.
pub fn stats_of_sorted(sorted_ms: &[f64]) -> TrialStats {
    let q1 = quantile(sorted_ms, 0.25);
    let q3 = quantile(sorted_ms, 0.75);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    let kept: Vec<f64> = sorted_ms
        .iter()
        .copied()
        .filter(|&t| t >= lo && t <= hi)
        .collect();
    let kept = if kept.is_empty() {
        sorted_ms.to_vec() // degenerate fences (all-equal samples) keep all
    } else {
        kept
    };
    TrialStats {
        median_ms: quantile(&kept, 0.5),
        iqr_ms: quantile(&kept, 0.75) - quantile(&kept, 0.25),
        mean_ms: kept.iter().sum::<f64>() / kept.len() as f64,
        min_ms: kept[0],
        trials: sorted_ms.len(),
        rejected: sorted_ms.len() - kept.len(),
    }
}

/// Linear-interpolated quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The benchmarking host described as a JSON object: fingerprint, probed
/// peak FLOP rate and bandwidth. Recorded into every artifact so the CI
/// regression gate can refuse to compare numbers from unlike machines.
///
/// `peak_gflops`/`peak_gbps` are the ceilings of the *active* dispatch
/// path (what the kernels in this process actually run); the per-path
/// `peak_gflops_scalar`/`peak_gflops_simd` ceilings are recorded
/// alongside so a `S4TF_SIMD=0` artifact still documents the headroom
/// the machine offers.
pub fn machine_value() -> Value {
    let simd = s4tf_tensor::simd_enabled();
    let probe = s4tf_profile::machine_probe_path(simd);
    let scalar = s4tf_profile::machine_probe_path(false);
    let mut fields = vec![
        (
            "fingerprint".to_string(),
            Value::Str(s4tf_profile::machine_fingerprint()),
        ),
        (
            "cores".to_string(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        (
            "path".to_string(),
            Value::Str(s4tf_tensor::path_label().to_string()),
        ),
        (
            "lane_width".to_string(),
            Value::UInt(s4tf_tensor::lane_width() as u64),
        ),
        ("peak_gflops".to_string(), Value::Float(probe.peak_gflops)),
        ("peak_gbps".to_string(), Value::Float(probe.peak_gbps)),
        (
            "peak_gflops_scalar".to_string(),
            Value::Float(scalar.peak_gflops),
        ),
    ];
    if s4tf_profile::simd_probe_supported() {
        fields.push((
            "peak_gflops_simd".to_string(),
            Value::Float(s4tf_profile::machine_probe_path(true).peak_gflops),
        ));
    }
    Value::Object(fields.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn outliers_are_rejected() {
        // 9 tight samples and one 100x straggler: the straggler must not
        // drag the median or mean.
        let mut s: Vec<f64> = vec![1.0, 1.01, 1.02, 0.99, 1.0, 1.03, 0.98, 1.01, 1.0, 100.0];
        s.sort_by(|a, b| a.total_cmp(b));
        let stats = stats_of_sorted(&s);
        assert_eq!(stats.rejected, 1);
        assert!(stats.median_ms < 1.05);
        assert!(stats.mean_ms < 1.05);
    }

    #[test]
    fn identical_samples_keep_everything() {
        let s = [2.0; 5];
        let stats = stats_of_sorted(&s);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.median_ms, 2.0);
        assert_eq!(stats.iqr_ms, 0.0);
    }

    #[test]
    fn throughput_conversions() {
        let stats = TrialStats {
            median_ms: 2.0,
            iqr_ms: 0.0,
            mean_ms: 2.0,
            min_ms: 2.0,
            trials: 3,
            rejected: 0,
        };
        // 2e9 FLOPs in 2 ms = 1000 GFLOP/s.
        assert!((stats.gflops(2_000_000_000) - 1000.0).abs() < 1e-9);
        assert!((stats.gbps(2_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn measure_runs_and_reports() {
        let mut calls = 0u32;
        let stats = measure_interleaved(2, 5, &mut [&mut || calls += 1]).remove(0);
        assert_eq!(calls, 7);
        assert_eq!(stats.trials, 5);
        assert!(stats.median_ms >= 0.0);
    }

    #[test]
    fn interleaved_runs_alternate() {
        let order = std::cell::RefCell::new(Vec::new());
        let (mut a, mut b) = (
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        let stats = measure_interleaved(1, 3, &mut [&mut a, &mut b]);
        assert_eq!(order.into_inner(), "abababab".chars().collect::<Vec<_>>());
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.trials == 3));
    }
}
