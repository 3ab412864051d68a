//! Pillar 4b: the training telemetry stream.
//!
//! With `S4TF_METRICS_FILE=<path>` (or [`set_metrics_path`]) the
//! training loop appends one JSON object per optimization step:
//!
//! ```json
//! {"kind":"step","step":1,"loss":2.3025,"grad_norm":0.4812,
//!  "examples_per_sec":15873.0,"peak_bytes":1048576,"live_bytes":524288,
//!  "backend":"lazy"}
//! ```
//!
//! The sink itself (path resolution, the append-per-write file handling)
//! lives in `s4tf-metrics`, which shares the same file with its periodic
//! registry snapshots (`"kind":"snapshot"` lines) — one file, one
//! schema, discriminated by `kind`.

use crate::push_json_f64;
use std::sync::atomic::{AtomicU64, Ordering};

static STEP: AtomicU64 = AtomicU64::new(0);

/// Whether a metrics sink is configured — the one-relaxed-load branch
/// the training loop takes before computing gradient norms or timings —
/// and the override of `S4TF_METRICS_FILE` (`None` disables).
pub use s4tf_metrics::{jsonl_enabled as metrics_enabled, set_jsonl_path as set_metrics_path};

/// Next 1-based global step number (process-wide, shared by every
/// training loop so the stream stays monotonic).
pub fn next_step() -> u64 {
    STEP.fetch_add(1, Ordering::Relaxed) + 1
}

/// Rewinds the global step counter (tests).
pub fn reset_step_counter() {
    STEP.store(0, Ordering::Relaxed);
}

/// One training step's telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// 1-based step number (usually from [`next_step`]).
    pub step: u64,
    /// Scalar loss.
    pub loss: f64,
    /// Global L2 norm of the parameter gradient.
    pub grad_norm: f64,
    /// Batch size divided by wall-clock step time.
    pub examples_per_sec: f64,
    /// Peak tensor-storage bytes (see [`crate::memory_stats`]).
    pub peak_bytes: u64,
    /// Live tensor-storage bytes at the end of the step.
    pub live_bytes: u64,
    /// Device the step ran on (`naive` / `eager` / `lazy`).
    pub backend: &'static str,
}

impl StepRecord {
    /// The JSONL rendering (no trailing newline). The `kind`
    /// discriminator separates step records from the registry's
    /// `"kind":"snapshot"` lines in the shared stream.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"kind\":\"step\",\"step\":");
        out.push_str(&self.step.to_string());
        out.push_str(",\"loss\":");
        push_json_f64(&mut out, self.loss);
        out.push_str(",\"grad_norm\":");
        push_json_f64(&mut out, self.grad_norm);
        out.push_str(",\"examples_per_sec\":");
        push_json_f64(&mut out, self.examples_per_sec);
        out.push_str(",\"peak_bytes\":");
        out.push_str(&self.peak_bytes.to_string());
        out.push_str(",\"live_bytes\":");
        out.push_str(&self.live_bytes.to_string());
        out.push_str(",\"backend\":\"");
        out.push_str(self.backend);
        out.push_str("\"}");
        out
    }
}

/// Appends `record` to the metrics file (no-op when no sink is set).
pub fn record_step(record: &StepRecord) {
    if !metrics_enabled() {
        return;
    }
    s4tf_metrics::append_jsonl(&record.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_record_json_shape() {
        let r = StepRecord {
            step: 3,
            loss: 0.5,
            grad_norm: 1.25,
            examples_per_sec: 100.0,
            peak_bytes: 2048,
            live_bytes: 1024,
            backend: "naive",
        };
        assert_eq!(
            r.to_json(),
            "{\"kind\":\"step\",\"step\":3,\"loss\":0.5,\"grad_norm\":1.25,\
             \"examples_per_sec\":100,\
             \"peak_bytes\":2048,\"live_bytes\":1024,\"backend\":\"naive\"}"
        );
    }
}
