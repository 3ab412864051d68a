//! Windowed rate derivation over the counter registry.
//!
//! The sampler (or any [`crate::sample_now`] call) appends a timestamped
//! snapshot of every counter to a bounded ring. [`rate_per_sec`] then
//! answers "how fast is this counter moving" by diffing the counter's
//! current value against the oldest in-window sample — ops/sec,
//! bytes/sec over a sliding window, without the instruments themselves
//! carrying any timing state.

use crate::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Ring capacity: at the default 1 s sampling cadence this holds over
/// two minutes of history.
const RING_CAP: usize = 128;

type Sample = (u64, Vec<(&'static str, u64)>);

fn ring() -> &'static Mutex<VecDeque<Sample>> {
    static RING: OnceLock<Mutex<VecDeque<Sample>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Appends one timestamped counter snapshot (sampler tick).
pub(crate) fn tick() {
    let sample = (crate::now_unix_us(), crate::counter_values());
    let mut ring = lock_unpoisoned(ring());
    if ring.len() == RING_CAP {
        ring.pop_front();
    }
    ring.push_back(sample);
}

/// The counter's average rate per second over the trailing `window`
/// (`None` until a sample at least that old — but at least one tick —
/// exists). The newest endpoint is the counter's *current* value, so the
/// rate reflects activity since the last tick too.
pub fn rate_per_sec(name: &str, window: Duration) -> Option<f64> {
    let now = crate::now_unix_us();
    let current = crate::counter_values()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)?;
    let floor = now.saturating_sub(window.as_micros() as u64);
    let ring = lock_unpoisoned(ring());
    // Oldest sample still inside the window; fall back to the newest
    // sample older than it so short histories still answer.
    let base = ring
        .iter()
        .find(|(ts, _)| *ts >= floor)
        .or_else(|| ring.back())?;
    let dt_us = now.saturating_sub(base.0);
    if dt_us == 0 {
        return None;
    }
    let then = base
        .1
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0);
    Some(current.saturating_sub(then) as f64 * 1e6 / dt_us as f64)
}

/// `(name, rate/sec)` for every counter that moved within the window
/// (the snapshot export view; empty before the first tick).
pub(crate) fn all_rates(window: Duration) -> Vec<(&'static str, f64)> {
    let now = crate::now_unix_us();
    let floor = now.saturating_sub(window.as_micros() as u64);
    let base = {
        let ring = lock_unpoisoned(ring());
        match ring
            .iter()
            .find(|(ts, _)| *ts >= floor)
            .or_else(|| ring.back())
        {
            Some(s) => s.clone(),
            None => return Vec::new(),
        }
    };
    let dt_us = now.saturating_sub(base.0);
    if dt_us == 0 {
        return Vec::new();
    }
    crate::counter_values()
        .into_iter()
        .filter_map(|(name, current)| {
            let then = base
                .1
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            let delta = current.saturating_sub(then);
            (delta > 0).then(|| (name, delta as f64 * 1e6 / dt_us as f64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_tracks_counter_movement() {
        crate::set_enabled(true);
        let c = crate::counter("s4tf_test_rate_total", "test");
        tick();
        c.add(1000);
        std::thread::sleep(Duration::from_millis(20));
        let r =
            rate_per_sec("s4tf_test_rate_total", Duration::from_secs(60)).expect("a tick exists");
        // 1000 increments over ≥20 ms → at most 50k/sec, and definitely
        // positive.
        assert!(r > 0.0 && r <= 60_000.0, "{r}");
    }
}
