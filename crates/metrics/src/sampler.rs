//! The periodic sampler: JSONL snapshots + Chrome-trace counter tracks.
//!
//! Started by `S4TF_METRICS_INTERVAL` (e.g. `250ms`, `1s`, or a number
//! of seconds) or [`start_sampler`]. Each tick:
//!
//! 1. appends a counter snapshot to the rate ring (powers
//!    [`crate::rate_per_sec`]);
//! 2. refreshes the memory gauges from the ledger (gauges forward every
//!    `set` to the profiler, so this is also what samples peak and
//!    per-site bytes into the Chrome trace's counter tracks);
//! 3. appends one `"kind":"snapshot"` line to the JSONL sink, when one
//!    is configured.
//!
//! [`sample_now`] runs one tick synchronously — tests and short-lived
//! examples use it to flush a snapshot without waiting out an interval.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Runs one sampler tick synchronously.
pub fn sample_now() {
    crate::mem::publish();
    crate::rate::tick();
    if crate::jsonl_enabled() {
        crate::append_jsonl(&crate::snapshot_json());
    }
}

/// Spawns the detached sampler thread (idempotent; the first interval
/// wins).
pub fn start_sampler(interval: Duration) {
    static STARTED: AtomicBool = AtomicBool::new(false);
    if STARTED.swap(true, Ordering::Relaxed) {
        return;
    }
    let interval = interval.max(Duration::from_millis(1));
    let _ = std::thread::Builder::new()
        .name("s4tf-metrics-sampler".to_string())
        .spawn(move || loop {
            std::thread::sleep(interval);
            sample_now();
        });
}

/// Parses `S4TF_METRICS_INTERVAL`: `250ms`, `2s`, or a bare (possibly
/// fractional) number of seconds.
pub(crate) fn parse_interval(s: &str) -> Option<Duration> {
    let s = s.trim();
    let (number, scale) = if let Some(ms) = s.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(secs) = s.strip_suffix('s') {
        (secs, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = number.trim().parse().ok()?;
    (v.is_finite() && v > 0.0).then(|| Duration::from_secs_f64(v * scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_parsing() {
        assert_eq!(parse_interval("250ms"), Some(Duration::from_millis(250)));
        assert_eq!(parse_interval("2s"), Some(Duration::from_secs(2)));
        assert_eq!(parse_interval("0.5"), Some(Duration::from_millis(500)));
        assert_eq!(parse_interval(" 1 "), Some(Duration::from_secs(1)));
        assert_eq!(parse_interval("0"), None);
        assert_eq!(parse_interval("-1s"), None);
        assert_eq!(parse_interval("soon"), None);
    }
}
