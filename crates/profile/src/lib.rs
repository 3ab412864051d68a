//! Runtime-wide profiling for the s4tf runtime: scoped RAII spans,
//! monotonic counters, gauges, aggregated reports and Chrome-trace
//! (Perfetto-compatible) JSON export.
//!
//! The profiler is a process-wide singleton designed so that the
//! *disabled* path costs a single relaxed atomic load — cheap enough to
//! leave instrumentation in every dispatch path of the eager, lazy and
//! XLA backends. It is enabled either programmatically via
//! [`set_enabled`] or by setting the `S4TF_PROFILE` environment
//! variable (any [`parse_flag`] spelling) before first use.
//!
//! ```
//! s4tf_profile::set_enabled(true);
//! {
//!     let mut span = s4tf_profile::span("compile");
//!     span.annotate("kernels", "3");
//! } // span records its duration when dropped
//! s4tf_profile::counter_add("cache.miss", 1);
//! let report = s4tf_profile::report();
//! assert_eq!(report.span("compile").unwrap().count, 1);
//! s4tf_profile::set_enabled(false);
//! s4tf_profile::reset();
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

mod chrome;
mod critical_path;
mod gate;
mod json;
mod machine;
mod report;
mod roofline;

pub use critical_path::{critical_path, CriticalPathReport, PathStep};
pub use gate::{env_gate, parse_flag, Gate, GATE_OFF, GATE_ON};
pub use json::{push_json_f64, push_json_sep, push_json_string};
pub use machine::{
    machine_fingerprint, machine_probe, machine_probe_path, simd_probe_supported, MachineProfile,
};
pub use report::{CounterTotal, ProfileReport, SpanStats};
pub use roofline::{roofline, RooflineReport, RooflineRow};

// --------------------------------------------------------------- state

static STATE: Gate = Gate::new(|| env_gate("S4TF_PROFILE", false));

/// Returns whether profiling is currently enabled.
///
/// This is the hot-path check every instrumentation site performs; when
/// the profiler is off it is exactly one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    STATE.on()
}

/// Turns the profiler on or off, overriding `S4TF_PROFILE`.
pub fn set_enabled(on: bool) {
    STATE.set_on(on);
}

/// Microseconds since the profiler's (lazily fixed) epoch.
///
/// Public so the backends can timestamp op-event phases (enqueue, start,
/// finish) on the same clock the span recorder uses.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_micros() as u64
}

thread_local! {
    /// Names of the spans currently open on this thread, innermost last.
    /// Maintained only while the profiler is enabled; read by
    /// [`current_span`] so diagnostics (e.g. a numerics violation) can
    /// report the enclosing span as provenance.
    static SPAN_STACK: std::cell::RefCell<Vec<Cow<'static, str>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The innermost profile span open on the calling thread, or `None`
/// when the profiler is off or no span is open.
pub fn current_span() -> Option<String> {
    SPAN_STACK.with(|stack| stack.borrow().last().map(|name| name.to_string()))
}

/// Small dense per-thread id used as the Chrome-trace `tid`.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

// ---------------------------------------------------------- recording

/// A finished span occurrence.
#[derive(Debug, Clone)]
pub(crate) struct SpanEvent {
    pub name: Cow<'static, str>,
    pub start_us: u64,
    pub dur_us: u64,
    pub thread: u64,
    pub annotations: Vec<(Cow<'static, str>, String)>,
    /// Analytic work attributed to this span (see [`SpanGuard::record_work`]).
    pub flops: u64,
    pub bytes: u64,
    /// Chrome-trace flow bindings: `(flow id, is_start)`. A start on one
    /// span and an end on another draws an arrow between them, e.g.
    /// eager `enqueue` → `kernel_run`.
    pub flows: Vec<(u64, bool)>,
}

/// One recorded gauge sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GaugeSample {
    pub ts_us: u64,
    pub value: f64,
}

/// One dispatched tensor operation, as recorded by a backend for
/// roofline and critical-path analysis.
///
/// Unlike a [`SpanEvent`] (a wall-clock interval on one thread), an
/// `OpEvent` carries *scheduling* structure: when the op was enqueued vs.
/// when it actually started (queue latency), which ops it depends on, and
/// the analytic work it performed. The eager backend emits one per
/// dispatched kernel; the lazy backend emits trace/compile phase events
/// per barrier plus one kernel event per executed HLO node; the naive
/// backend one per op. Each depends on its data inputs and on the event
/// recorded before it on the same thread (its lane).
#[derive(Debug, Clone)]
pub struct OpEvent {
    /// Process-unique id (ids start at 1; 0 means "no op").
    pub id: u64,
    /// Op mnemonic, e.g. `matmul`, `conv2d`, `fused`, `compile`.
    pub name: Cow<'static, str>,
    /// Which backend dispatched it: `eager`, `lazy`, `naive`.
    pub backend: &'static str,
    /// Execution phase: `kernel`, `compile`, or `trace`.
    pub phase: &'static str,
    /// Kernel dispatch path the tensor engine was on when the op ran:
    /// `simd8` (8-wide lane kernels) or `scalar` (the reference loops).
    /// Keyed into the roofline so regressions are attributable to path
    /// selection vs. kernel quality.
    pub path: &'static str,
    /// When the op was submitted ([`now_us`] clock).
    pub enqueue_us: u64,
    /// When execution actually began.
    pub start_us: u64,
    /// When execution finished.
    pub end_us: u64,
    /// Ids of the ops whose results this op consumed, then the previous
    /// op on its lane (0 entries ignored).
    pub deps: Vec<u64>,
    /// Analytic FLOPs performed.
    pub flops: u64,
    /// Analytic bytes moved.
    pub bytes: u64,
}

impl OpEvent {
    /// Queue latency: time between submission and execution start.
    pub fn queue_us(&self) -> u64 {
        self.start_us.saturating_sub(self.enqueue_us)
    }

    /// Execution time.
    pub fn run_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

#[derive(Default)]
pub(crate) struct Recorder {
    pub spans: Vec<SpanEvent>,
    pub counters: HashMap<Cow<'static, str>, u64>,
    pub gauges: HashMap<Cow<'static, str>, Vec<GaugeSample>>,
    pub ops: Vec<OpEvent>,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Locks `m`, shrugging off poisoning: telemetry must keep working after
/// a panic unwound through a holder, and no update here (or in the two
/// telemetry crates above, which share this) leaves its data half-written.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    f(lock_unpoisoned(&RECORDER).get_or_insert_with(Recorder::default))
}

// -------------------------------------------------------------- spans

/// RAII guard for a profiling span; records `[start, drop)` on drop.
///
/// When profiling is disabled the guard is inert: construction is one
/// atomic load and drop is a `None` check.
#[must_use = "a span measures the scope it is bound to; binding to `_` drops it immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: Cow<'static, str>,
    start_us: u64,
    annotations: Vec<(Cow<'static, str>, String)>,
    flops: u64,
    bytes: u64,
    flows: Vec<(u64, bool)>,
}

/// Opens a span named `name`, closed (and recorded) when the returned
/// guard drops.
#[inline]
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let name = name.into();
    SPAN_STACK.with(|stack| stack.borrow_mut().push(name.clone()));
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            start_us: now_us(),
            annotations: Vec::new(),
            flops: 0,
            bytes: 0,
            flows: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Attaches a key/value annotation, exported into the Chrome-trace
    /// `args` object. A no-op when the profiler was disabled at open.
    pub fn annotate(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<String>) {
        if let Some(active) = &mut self.active {
            active.annotations.push((key.into(), value.into()));
        }
    }

    /// Numeric-annotation convenience; the value is formatted lazily
    /// only when the span is live.
    pub fn annotate_f64(&mut self, key: impl Into<Cow<'static, str>>, value: f64) {
        if self.active.is_some() {
            self.annotate(key, format!("{value}"));
        }
    }

    /// Attributes analytic work (FLOPs + bytes moved) to this span.
    /// Accumulates across calls; the report derives achieved-GFLOP/s and
    /// GB/s per span name from these totals, and the Chrome exporter adds
    /// `flops`/`bytes`/`gflops` to the event's `args`.
    pub fn record_work(&mut self, flops: u64, bytes: u64) {
        if let Some(active) = &mut self.active {
            active.flops += flops;
            active.bytes += bytes;
        }
    }

    /// Marks this span as the *origin* of a Chrome-trace flow arrow.
    pub fn flow_start(&mut self, flow_id: u64) {
        if let Some(active) = &mut self.active {
            active.flows.push((flow_id, true));
        }
    }

    /// Marks this span as the *destination* of a Chrome-trace flow arrow.
    pub fn flow_end(&mut self, flow_id: u64) {
        if let Some(active) = &mut self.active {
            active.flows.push((flow_id, false));
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            // RAII guards close LIFO, so popping restores the enclosing
            // span. (A guard sent to another thread would pop that
            // thread's stack instead; spans are scope-local in practice.)
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            let end = now_us();
            let event = SpanEvent {
                dur_us: end.saturating_sub(active.start_us),
                start_us: active.start_us,
                name: active.name,
                thread: thread_id(),
                annotations: active.annotations,
                flops: active.flops,
                bytes: active.bytes,
                flows: active.flows,
            };
            with_recorder(|r| r.spans.push(event));
        }
    }
}

// -------------------------------------------- counters and gauges

/// Adds `delta` to the named counter's total over the recording window
/// (no-op when disabled). Runtime layers do not call this: they count
/// into `s4tf-metrics`, whose instruments forward here under their
/// registry names, so a fact has one name in every report.
#[inline]
pub fn counter_add(name: impl Into<Cow<'static, str>>, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| *r.counters.entry(name.into()).or_insert(0) += delta);
}

/// Records an instantaneous gauge sample, e.g. a queue depth (no-op
/// when disabled). Like [`counter_add`], fed by the registry's gauges.
#[inline]
pub fn gauge_set(name: impl Into<Cow<'static, str>>, value: f64) {
    if !enabled() {
        return;
    }
    let sample = GaugeSample {
        ts_us: now_us(),
        value,
    };
    with_recorder(|r| r.gauges.entry(name.into()).or_default().push(sample));
}

// ----------------------------------------------------------- op events

static NEXT_OP_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_FLOW_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique op id (never 0).
///
/// Ids are allocated only for events that get recorded: `s4tf-xla`'s
/// kernel scope takes one per launch while the profiler is on. A launch
/// enqueued while it was off has id 0, and no event depends on it.
#[inline]
pub fn next_op_id() -> u64 {
    NEXT_OP_ID.fetch_add(1, Ordering::Relaxed)
}

/// Allocates a fresh flow id for a Chrome-trace arrow.
#[inline]
pub fn next_flow_id() -> u64 {
    NEXT_FLOW_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a dispatched-op event (no-op when the profiler is disabled).
///
/// The raw primitive: `deps` are taken as given. The runtime records
/// through `s4tf-xla`'s kernel scope, which adds each event's lane edge.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn op_event(
    id: u64,
    name: impl Into<Cow<'static, str>>,
    backend: &'static str,
    phase: &'static str,
    path: &'static str,
    enqueue_us: u64,
    start_us: u64,
    end_us: u64,
    deps: Vec<u64>,
    flops: u64,
    bytes: u64,
) {
    if !enabled() {
        return;
    }
    let event = OpEvent {
        id,
        name: name.into(),
        backend,
        phase,
        path,
        enqueue_us,
        start_us,
        end_us,
        deps,
        flops,
        bytes,
    };
    with_recorder(|r| r.ops.push(event));
}

/// Snapshot of all recorded op events (in recording order).
pub fn op_events() -> Vec<OpEvent> {
    with_recorder(|r| r.ops.clone())
}

// --------------------------------------------------------- thread names

/// Human-readable names for profiler thread ids, exported as Chrome-trace
/// `thread_name` metadata. Survives [`reset`] — worker threads register
/// once at spawn.
static THREAD_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

/// Names the calling thread in trace exports (e.g. `eager-worker`).
/// Idempotent; later calls rename.
pub fn set_thread_name(name: impl Into<String>) {
    let id = thread_id();
    let name = name.into();
    let mut guard = lock_unpoisoned(&THREAD_NAMES);
    if let Some(entry) = guard.iter_mut().find(|(tid, _)| *tid == id) {
        entry.1 = name;
    } else {
        guard.push((id, name));
    }
}

pub(crate) fn thread_names() -> Vec<(u64, String)> {
    lock_unpoisoned(&THREAD_NAMES).clone()
}

// ------------------------------------------------------------ exports

/// Aggregates everything recorded so far into a [`ProfileReport`].
pub fn report() -> ProfileReport {
    with_recorder(report::build)
}

/// Renders everything recorded so far as Chrome-trace JSON, loadable in
/// `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
pub fn chrome_trace_json() -> String {
    with_recorder(chrome::render)
}

/// Discards all recorded spans, counters, gauges and op events (the
/// enabled flag and thread names are left unchanged).
pub fn reset() {
    with_recorder(|r| *r = Recorder::default());
}

/// Renders the full performance observatory — aggregated span report,
/// roofline table (against the machine probe), and critical-path
/// decomposition — as one printable string.
pub fn perf_report() -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", report());
    // Ceilings for the path the recorded kernels actually ran on.
    let roof = roofline();
    let simd = !roof.rows().iter().any(|r| r.path == "scalar");
    let _ = write!(out, "\n{}", roof.with_machine(machine_probe_path(simd)));
    let _ = write!(out, "\n{}", critical_path());
    out
}
