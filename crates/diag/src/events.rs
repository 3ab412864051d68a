//! Pillar 4a: a bounded structured event log.
//!
//! A process-wide ring buffer (capacity [`RING_CAPACITY`]) of timestamped
//! records — op dispatches, compile start/finish, cache hits/misses,
//! numerics violations, allocation high-water marks — exportable as
//! JSONL via [`events_jsonl`]. Recording is gated (`S4TF_DIAG_EVENTS=1`
//! or [`set_events_enabled`]); numerics violations bypass the gate so a
//! violation is never lost just because event streaming was off.

use crate::{env_gate, lock_unpoisoned, now_us, push_json_string, FieldList, Gate};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Upper bound on retained events; the oldest are dropped first.
pub const RING_CAPACITY: usize = 4096;

static GATE: Gate = Gate::new(|| env_gate("S4TF_DIAG_EVENTS", false));

/// Whether the event log is recording (one relaxed load). The
/// [`event!`](crate::event!) macro checks this before evaluating any of
/// its field expressions.
#[inline]
pub fn events_enabled() -> bool {
    GATE.on()
}

/// Turns event recording on or off, overriding `S4TF_DIAG_EVENTS`.
pub fn set_events_enabled(on: bool) {
    GATE.set_on(on);
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Microseconds on the profiler's clock (`s4tf_profile::now_us`), so
    /// events line up with the spans of a Chrome trace.
    pub ts_us: u64,
    /// Event kind, e.g. `op.dispatch`, `xla.compile.finish`,
    /// `numerics.violation`, `mem.high_water`.
    pub kind: &'static str,
    /// Key/value payload.
    pub fields: Vec<(std::borrow::Cow<'static, str>, String)>,
}

static RING: Mutex<VecDeque<EventRecord>> = Mutex::new(VecDeque::new());

/// Appends an event, evicting the oldest past [`RING_CAPACITY`]. Most
/// call sites use the [`event!`](crate::event!) macro instead, which
/// skips field construction entirely when recording is off.
pub fn record_event(kind: &'static str, fields: FieldList) {
    if !events_enabled() {
        return;
    }
    record_forced(kind, fields);
}

/// Appends regardless of the gate — used for events that must not be
/// lost (numerics violations) once their own pillar is active.
pub(crate) fn record_forced(kind: &'static str, fields: FieldList) {
    let record = EventRecord {
        ts_us: now_us(),
        kind,
        fields,
    };
    let mut ring = lock_unpoisoned(&RING);
    if ring.len() == RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(record);
}

/// Snapshot of the ring, oldest first.
pub fn events() -> Vec<EventRecord> {
    lock_unpoisoned(&RING).iter().cloned().collect()
}

/// Renders the ring as JSON Lines: one object per event with `ts_us`,
/// `kind`, and the payload keys flattened in.
pub fn events_jsonl() -> String {
    let ring = lock_unpoisoned(&RING);
    let mut out = String::new();
    for e in ring.iter() {
        out.push_str("{\"ts_us\":");
        out.push_str(&e.ts_us.to_string());
        out.push_str(",\"kind\":");
        push_json_string(&mut out, e.kind);
        for (k, v) in &e.fields {
            out.push(',');
            push_json_string(&mut out, k);
            out.push(':');
            push_json_string(&mut out, v);
        }
        out.push_str("}\n");
    }
    out
}

/// Empties the ring (the gate is left unchanged).
pub fn clear_events() {
    lock_unpoisoned(&RING).clear();
}

/// Records a structured event — `event!("kind", key = value, ...)` —
/// into the diagnostics ring buffer.
///
/// Field values are formatted with `Display`. When recording is off the
/// whole expansion is one relaxed atomic load: none of the field
/// expressions are evaluated.
///
/// ```
/// s4tf_diag::set_events_enabled(true);
/// s4tf_diag::event!("xla.compile.start", nodes = 17, fingerprint = "ab12");
/// assert!(s4tf_diag::events_jsonl().contains("\"nodes\":\"17\""));
/// s4tf_diag::set_events_enabled(false);
/// s4tf_diag::clear_events();
/// ```
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::events_enabled() {
            $crate::record_event(
                $kind,
                vec![$((::std::borrow::Cow::Borrowed(stringify!($key)), $value.to_string())),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded() {
        set_events_enabled(true);
        clear_events();
        for i in 0..(RING_CAPACITY + 10) {
            crate::event!("test.tick", i = i);
        }
        let all = events();
        assert_eq!(all.len(), RING_CAPACITY);
        // Sibling tests share the ring (numerics violations, high-water
        // marks land in it too), so judge eviction by this test's own
        // records: the oldest ten ticks are gone, the newest survives.
        let ticks: Vec<usize> = all
            .iter()
            .filter(|e| e.kind == "test.tick")
            .map(|e| e.fields[0].1.parse().unwrap())
            .collect();
        assert!(ticks[0] >= 10, "oldest retained tick is {}", ticks[0]);
        assert_eq!(ticks.last(), Some(&(RING_CAPACITY + 9)));
        set_events_enabled(false);
        clear_events();
    }
}
