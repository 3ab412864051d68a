//! Semantic diagnostics for the s4tf runtime: numerics checking, IR and
//! trace dumping, memory tracking, a bounded structured event log, and a
//! training-metrics stream.
//!
//! Where `s4tf-profile` answers *"where did the time go?"*, this crate
//! answers *"what did the program actually do?"* — which op produced the
//! first NaN, what the lazy trace and XLA graph looked like before and
//! after each pass, how many bytes of tensor storage are live, and what
//! each training step's loss and gradient norm were.
//!
//! Four pillars, each independently gated so the disabled path stays one
//! relaxed atomic load (the pattern established by `s4tf-profile`):
//!
//! | pillar | env var | API |
//! |--------|---------|-----|
//! | numerics checking | `S4TF_CHECK_NUMERICS=1`/`panic` | [`set_numerics_mode`], [`check_f32s`], [`first_violation`] |
//! | IR / trace dumps | `S4TF_DUMP=<dir>` | [`set_dump_dir`], [`dump`] |
//! | event log | `S4TF_DIAG_EVENTS=1` | [`set_events_enabled`], [`event!`], [`events_jsonl`] |
//! | training metrics | `S4TF_METRICS_FILE=<path>` | [`set_metrics_path`], [`record_step`] |
//!
//! Memory tracking ([`track_alloc`] / [`track_free`] / [`memory_stats`])
//! is a view of the one ledger in `s4tf-metrics`; what this crate adds
//! is the `mem.high_water` event.
//!
//! Crate order: `s4tf-profile` ← `s4tf-metrics` ← this crate ← `threads`,
//! `tensor` and everything above. The gate type, the flag parser, the
//! clock and the JSON writers come from `s4tf-profile`, the JSONL sink and
//! the memory ledger from `s4tf-metrics`.

use std::borrow::Cow;

mod dump;
mod events;
mod memory;
mod metrics;
mod numerics;

pub use dump::{dump, dump_dir, dump_enabled, set_dump_dir};
pub use events::{
    clear_events, events, events_enabled, events_jsonl, record_event, set_events_enabled,
    EventRecord,
};
pub use memory::{memory_stats, reset_peak_bytes, track_alloc, track_free, MemoryStats};
pub use metrics::{
    metrics_enabled, next_step, record_step, reset_step_counter, set_metrics_path, StepRecord,
};
pub use numerics::{
    check_f32s, clear_numerics, first_violation, numerics_enabled, numerics_mode, scans_performed,
    set_numerics_mode, NumericsMode, Violation,
};

// ----------------------------------------------------------- shared bits

// `now_us` is the profiler's clock, so an event's `ts_us` lines up with
// the Chrome trace's timestamps.
pub(crate) use s4tf_metrics::{
    env_gate, lock_unpoisoned, now_us, push_json_f64, push_json_string, Gate, GATE_OFF, GATE_ON,
};

pub(crate) type FieldList = Vec<(Cow<'static, str>, String)>;
