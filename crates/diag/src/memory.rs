//! Pillar 3: tensor-storage memory tracking — a view of the one ledger
//! in `s4tf-metrics`, which `tensor::storage` books every buffer into
//! through [`track_alloc`]/[`track_free`].
//!
//! What this module adds is the event: when the event log is on,
//! crossing a new high-water mark by at least [`HIGH_WATER_STEP`] bytes
//! emits `mem.high_water` — enough to see the allocation envelope
//! without flooding the ring. (The ledger sits below this crate and
//! cannot raise events itself.)

use crate::events;
use std::sync::atomic::{AtomicU64, Ordering};

pub use s4tf_metrics::{mem_free as track_free, memory_stats, MemoryStats};

/// Minimum peak growth between `mem.high_water` events.
pub const HIGH_WATER_STEP: u64 = 64 * 1024;

/// The peak the last `mem.high_water` event reported (event throttle).
static LAST_REPORTED_PEAK: AtomicU64 = AtomicU64::new(0);

/// Books a buffer of `bytes` into the ledger — `fresh` from the
/// allocator, or recycled from the pool — and returns the site to hand
/// back to [`track_free`].
#[inline]
pub fn track_alloc(bytes: usize, fresh: bool) -> &'static str {
    let (site, new_peak) = s4tf_metrics::mem_alloc(bytes, fresh);
    if let Some(live) = new_peak {
        if events::events_enabled()
            && live >= LAST_REPORTED_PEAK.load(Ordering::Relaxed) + HIGH_WATER_STEP
        {
            LAST_REPORTED_PEAK.store(live, Ordering::Relaxed);
            crate::event!("mem.high_water", live_bytes = live);
        }
    }
    site
}

/// Restarts the peak-bytes watermark — the total's and every site's —
/// from the current live bytes (e.g. per training step, so per-step
/// peaks are meaningful).
pub fn reset_peak_bytes() {
    LAST_REPORTED_PEAK.store(s4tf_metrics::reset_peak_bytes(), Ordering::Relaxed);
}
