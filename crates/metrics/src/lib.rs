//! A process-wide telemetry registry for the s4tf runtime.
//!
//! Every subsystem publishes into one registry of named instruments:
//!
//! - [`Counter`] — monotonic `u64` (cache hits, dispatched ops);
//! - [`Gauge`] — signed level (`i64`: live bytes, queue depth);
//! - [`Histogram`] — log₂-bucketed HDR-style distribution with
//!   [`Histogram::quantile`] (p50/p95/p99 within a documented relative
//!   error bound, see [`hist`]).
//!
//! Instruments are interned by name and live for the process; handles are
//! `&'static`, so recording is a couple of relaxed atomic ops. Names
//! follow Prometheus conventions — `s4tf_xla_compile_us`, optionally with
//! inline labels: `s4tf_dispatch_latency_us{backend="eager"}`.
//!
//! Export paths:
//!
//! - **Live pull** — [`start_server`] (or `S4TF_METRICS_ADDR`) binds a
//!   std `TcpListener` serving the Prometheus text exposition format, so
//!   `curl host:port/metrics` mid-run answers "what is p99 step time
//!   right now".
//! - **Periodic snapshots** — [`start_sampler`] (or
//!   `S4TF_METRICS_INTERVAL`) appends registry snapshots as JSONL to the
//!   `S4TF_METRICS_FILE` sink (shared with the per-step training stream
//!   in `s4tf-diag`) and feeds every gauge to the profiler so Chrome
//!   traces carry live-bytes/queue-depth counter tracks.
//!
//! Memory attribution: the storage layer reports allocations through
//! [`mem_alloc`]/[`mem_free`]; subsystems scope allocations to a site
//! with [`mem_site`], and [`memory_by_site`] breaks live/peak bytes down
//! by the allocating subsystem (eager slots, trace constants, checkpoint
//! I/O, …).
//!
//! Recording defaults **on**; `S4TF_METRICS=0` (or [`set_enabled`]) turns
//! it off at runtime, leaving one relaxed atomic load per call site.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Once, OnceLock, RwLock};

pub mod hist;
mod mem;
mod rate;
mod sampler;
mod serve;
mod snapshot;
mod text;

pub use hist::Histogram;
pub use mem::{
    mem_alloc, mem_free, mem_site, memory_by_site, reset_memory_by_site, MemSiteGuard, SiteMem,
};
pub use rate::rate_per_sec;
pub use sampler::{sample_now, start_sampler};
pub use serve::start_server;
pub use snapshot::{append_jsonl, jsonl_enabled, jsonl_path, set_jsonl_path, snapshot_json};
pub use text::prometheus_text;

// ----------------------------------------------------------------- gate

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Tri-state recording gate: 0 = consult `S4TF_METRICS` once, then 1/2.
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Whether the registry records. Defaults to **on**; `S4TF_METRICS=0`
/// (or [`set_enabled`]`(false)`) disables recording at runtime. The hot
/// path is one relaxed load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNINIT => init_slow(),
        s => s == STATE_ON,
    }
}

#[cold]
fn init_slow() -> bool {
    let off = matches!(
        std::env::var("S4TF_METRICS").as_deref().map(str::trim),
        Ok("0") | Ok("false") | Ok("off")
    );
    let target = if off { STATE_OFF } else { STATE_ON };
    // Racing initializers compute the same value; a concurrent
    // `set_enabled` wins.
    let _ = STATE.compare_exchange(STATE_UNINIT, target, Ordering::Relaxed, Ordering::Relaxed);
    init_exporters_from_env();
    STATE.load(Ordering::Relaxed) == STATE_ON
}

/// Overrides the recording gate (and, on enable, starts any exporters
/// the environment requests).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    if on {
        init_exporters_from_env();
    }
}

/// Starts the exporters the environment asks for, exactly once per
/// process: `S4TF_METRICS_ADDR` → Prometheus listener,
/// `S4TF_METRICS_INTERVAL` → sampler thread.
fn init_exporters_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if let Ok(addr) = std::env::var("S4TF_METRICS_ADDR") {
            if !addr.is_empty() {
                match serve::start_server(&addr) {
                    Ok(local) => eprintln!(
                        "[s4tf-metrics] serving Prometheus text at http://{local}/metrics"
                    ),
                    Err(e) => eprintln!("[s4tf-metrics] cannot bind {addr}: {e}"),
                }
            }
        }
        if let Ok(iv) = std::env::var("S4TF_METRICS_INTERVAL") {
            match sampler::parse_interval(&iv) {
                Some(d) => sampler::start_sampler(d),
                None => eprintln!(
                    "[s4tf-metrics] unparseable S4TF_METRICS_INTERVAL {iv:?} \
                     (want e.g. `250ms`, `1s`, or seconds as a number)"
                ),
            }
        }
    });
}

// ----------------------------------------------------------- instruments

/// A monotonically increasing `u64` instrument.
#[derive(Debug)]
pub struct Counter {
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta` (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, delta: u64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed level instrument (bytes live, queue depth).
#[derive(Debug)]
pub struct Gauge {
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Sets the level (no-op while recording is disabled).
    #[inline]
    pub fn set(&self, value: i64) {
        if enabled() {
            self.value.store(value, Ordering::Relaxed);
        }
    }

    /// Moves the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// -------------------------------------------------------------- registry

struct Registry<T: 'static> {
    map: RwLock<HashMap<String, &'static T>>,
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry {
            map: RwLock::new(HashMap::new()),
        }
    }
}

impl<T> Registry<T> {
    /// Returns the interned instrument, creating (and leaking — the
    /// registry is process-lived by design) on first use.
    fn get_or(&self, name: &str, make: impl FnOnce() -> T) -> &'static T {
        if let Some(v) = read_unpoisoned(&self.map).get(name) {
            return v;
        }
        let mut map = write_unpoisoned(&self.map);
        if let Some(v) = map.get(name) {
            return v;
        }
        let leaked: &'static T = Box::leak(Box::new(make()));
        map.insert(name.to_string(), leaked);
        leaked
    }

    /// All instruments, sorted by name (the deterministic export order).
    fn sorted(&self) -> Vec<(String, &'static T)> {
        let mut out: Vec<(String, &'static T)> = read_unpoisoned(&self.map)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

fn counters() -> &'static Registry<Counter> {
    static R: OnceLock<Registry<Counter>> = OnceLock::new();
    R.get_or_init(Registry::default)
}

fn gauges() -> &'static Registry<Gauge> {
    static R: OnceLock<Registry<Gauge>> = OnceLock::new();
    R.get_or_init(Registry::default)
}

fn histograms() -> &'static Registry<Histogram> {
    static R: OnceLock<Registry<Histogram>> = OnceLock::new();
    R.get_or_init(Registry::default)
}

/// The counter named `name` (interned on first use). `help` is kept from
/// the first registration and rendered as the Prometheus `# HELP` line.
pub fn counter(name: &str, help: &'static str) -> &'static Counter {
    counters().get_or(name, || Counter {
        help,
        value: AtomicU64::new(0),
    })
}

/// The gauge named `name` (interned on first use).
pub fn gauge(name: &str, help: &'static str) -> &'static Gauge {
    gauges().get_or(name, || Gauge {
        help,
        value: AtomicI64::new(0),
    })
}

/// The histogram named `name` (interned on first use).
pub fn histogram(name: &str, help: &'static str) -> &'static Histogram {
    histograms().get_or(name, || Histogram::new(help))
}

/// The per-backend, per-op-family dispatch-latency histogram
/// (`s4tf_dispatch_latency_us{backend=…,family=…}`), cached per thread by
/// pointer identity of the two `&'static str` keys so hot dispatch loops
/// never format a name or take the registry lock.
pub fn dispatch_hist(backend: &'static str, family: &'static str) -> &'static Histogram {
    thread_local! {
        static CACHE: std::cell::RefCell<Vec<((usize, usize), &'static Histogram)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    let key = (backend.as_ptr() as usize, family.as_ptr() as usize);
    CACHE.with(|cache| {
        if let Some(&(_, h)) = cache.borrow().iter().find(|(k, _)| *k == key) {
            return h;
        }
        let h = histogram(
            &format!("s4tf_dispatch_latency_us{{backend=\"{backend}\",family=\"{family}\"}}"),
            "Latency from op dispatch to kernel completion, microseconds",
        );
        cache.borrow_mut().push((key, h));
        h
    })
}

/// Sorted counter (name, total) pairs — the export view.
pub fn counter_values() -> Vec<(String, u64)> {
    counters()
        .sorted()
        .into_iter()
        .map(|(n, c)| (n, c.value()))
        .collect()
}

/// Sorted gauge (name, level) pairs — the export view.
pub fn gauge_values() -> Vec<(String, i64)> {
    gauges()
        .sorted()
        .into_iter()
        .map(|(n, g)| (n, g.value()))
        .collect()
}

pub(crate) fn sorted_counters() -> Vec<(String, &'static Counter)> {
    counters().sorted()
}

pub(crate) fn sorted_gauges() -> Vec<(String, &'static Gauge)> {
    gauges().sorted()
}

pub(crate) fn sorted_histograms() -> Vec<(String, &'static Histogram)> {
    histograms().sorted()
}

pub(crate) fn counter_help(c: &Counter) -> &'static str {
    c.help
}

pub(crate) fn gauge_help(g: &Gauge) -> &'static str {
    g.help
}

// ---------------------------------------------------------------- shared

/// Read-locks ignoring poisoning: the registry holds no invariant a
/// panicked holder could have broken mid-update.
fn read_unpoisoned<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_unpoisoned<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Microseconds since the Unix epoch (snapshot timestamps; Chrome-track
/// timestamps come from the profiler's own clock).
pub(crate) fn now_unix_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Splits `fam{a="b"}` into the metric family and the inline label body.
pub(crate) fn split_family(name: &str) -> (&str, Option<&str>) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(i), true) => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// Appends a JSON string literal (quotes, backslashes and control bytes
/// escaped).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` as a JSON-legal number (non-finite → 0).
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_intern_by_name() {
        set_enabled(true);
        let a = counter("s4tf_test_lib_total", "test");
        let b = counter("s4tf_test_lib_total", "ignored second help");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3);

        let g = gauge("s4tf_test_lib_gauge", "test");
        g.set(5);
        g.add(-2);
        assert_eq!(gauge("s4tf_test_lib_gauge", "").value(), 3);
    }

    #[test]
    fn split_family_handles_labels() {
        assert_eq!(split_family("a_total"), ("a_total", None));
        assert_eq!(
            split_family("a_total{x=\"y\",z=\"w\"}"),
            ("a_total", Some("x=\"y\",z=\"w\""))
        );
        // A stray brace without the closer is left alone.
        assert_eq!(split_family("a{b"), ("a{b", None));
    }

    #[test]
    fn json_string_escaping() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
