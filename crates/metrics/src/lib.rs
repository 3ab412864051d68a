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
//!   in `s4tf-diag`).
//! - **The profiler** — every counter increment and gauge sample is
//!   forwarded to `s4tf-profile` under the instrument's registry name
//!   (one relaxed load while the profiler is off), so
//!   `profile::report()` and the Chrome trace's counter tracks are views
//!   of this registry, not a second store.
//!
//! Memory: the storage layer books every buffer into the one ledger
//! here: process totals ([`memory_stats`]) plus, per
//! [`mem_site`] scope, [`memory_by_site`]'s split by allocating
//! subsystem (eager slots, trace constants, checkpoint I/O, …).
//!
//! Counters, gauges and the memory totals always count (a relaxed RMW
//! each). `S4TF_METRICS=0` (or [`set_enabled`]) turns off what costs
//! more: clocks and histograms, per-site attribution, the exporters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex, Once};

pub mod hist;
mod mem;
mod rate;
mod sampler;
mod serve;
mod snapshot;
mod text;

pub use hist::Histogram;
pub use mem::{
    mem_alloc, mem_free, mem_site, memory_by_site, memory_stats, reset_peak_bytes, MemSiteGuard,
    MemoryStats, SiteMem,
};
pub use rate::rate_per_sec;
/// The switch, lock, clock and JSON plumbing of the lowest crate, passed up
/// to crates (`s4tf-diag`, `s4tf-tensor`) that depend on this one only.
pub use s4tf_profile::{
    env_gate, lock_unpoisoned, now_us, parse_flag, push_json_f64, push_json_sep, push_json_string,
    Gate, GATE_OFF, GATE_ON,
};
pub use sampler::{sample_now, start_sampler};
pub use serve::start_server;
pub use snapshot::{append_jsonl, jsonl_enabled, jsonl_path, set_jsonl_path, snapshot_json};
pub use text::prometheus_text;

// ----------------------------------------------------------------- gate

static STATE: Gate = Gate::new(|| {
    init_exporters_from_env();
    env_gate("S4TF_METRICS", true)
});

/// Whether the gated half of the registry records (histograms, per-site
/// memory attribution) and callers should read clocks for it. Defaults
/// to **on**; `S4TF_METRICS=0` or [`set_enabled`]`(false)` turns it
/// off. The hot path is one relaxed load.
#[inline]
pub fn enabled() -> bool {
    STATE.on()
}

/// Overrides the recording gate (and, on enable, starts any exporters
/// the environment requests).
pub fn set_enabled(on: bool) {
    STATE.set_on(on);
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
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds `delta` — always, so views such as `pool::stats()` keep
    /// counting under `S4TF_METRICS=0` — and forwards it to the
    /// profiler's window when that is on.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
        s4tf_profile::counter_add(self.name, delta);
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
    name: &'static str,
    help: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Sets the level, and samples it into the profiler when that is on.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
        s4tf_profile::gauge_set(self.name, value as f64);
    }

    /// Moves the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        let level = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        s4tf_profile::gauge_set(self.name, level as f64);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Expands to the interned instrument with its handle cached in a
/// static at the call site, so a hot path pays one `OnceLock` load
/// instead of a registry lookup.
#[doc(hidden)]
#[macro_export]
macro_rules! __cached_instrument {
    ($ty:ident, $make:ident, $name:expr, $help:expr) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::$ty> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::$make($name, $help))
    }};
}

/// `counter!(name, help)`: [`counter()`] with the handle cached at the
/// call site.
#[macro_export]
macro_rules! counter {
    ($name:expr, $help:expr) => {
        $crate::__cached_instrument!(Counter, counter, $name, $help)
    };
}

/// `gauge!(name, help)`: [`gauge()`] with the handle cached at the call
/// site.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $help:expr) => {
        $crate::__cached_instrument!(Gauge, gauge, $name, $help)
    };
}

/// `histogram!(name, help)`: [`histogram()`] with the handle cached at
/// the call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $help:expr) => {
        $crate::__cached_instrument!(Histogram, histogram, $name, $help)
    };
}

// -------------------------------------------------------------- registry

struct Registry<T: 'static> {
    map: Mutex<HashMap<&'static str, &'static T>>,
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry {
            map: Mutex::new(HashMap::new()),
        }
    }
}

impl<T> Registry<T> {
    /// Returns the interned instrument, creating (and leaking, with its
    /// name — the registry is process-lived by design) on first use.
    fn get_or(&self, name: &str, make: impl FnOnce(&'static str) -> T) -> &'static T {
        let mut map = lock_unpoisoned(&self.map);
        if let Some(v) = map.get(name) {
            return v;
        }
        let name: &'static str = Box::leak(name.into());
        let leaked: &'static T = Box::leak(Box::new(make(name)));
        map.insert(name, leaked);
        leaked
    }

    /// All instruments, sorted by name (the deterministic export order).
    fn sorted(&self) -> Vec<(&'static str, &'static T)> {
        let mut out: Vec<_> = lock_unpoisoned(&self.map)
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        out.sort_by_key(|(name, _)| *name);
        out
    }
}

static COUNTERS: LazyLock<Registry<Counter>> = LazyLock::new(Registry::default);
static GAUGES: LazyLock<Registry<Gauge>> = LazyLock::new(Registry::default);
static HISTOGRAMS: LazyLock<Registry<Histogram>> = LazyLock::new(Registry::default);

/// The counter named `name` (interned on first use). `help` is kept from
/// the first registration and rendered as the Prometheus `# HELP` line.
pub fn counter(name: &str, help: &'static str) -> &'static Counter {
    COUNTERS.get_or(name, |name| Counter {
        name,
        help,
        value: AtomicU64::new(0),
    })
}

/// The gauge named `name` (interned on first use).
pub fn gauge(name: &str, help: &'static str) -> &'static Gauge {
    GAUGES.get_or(name, |name| Gauge {
        name,
        help,
        value: AtomicI64::new(0),
    })
}

/// The histogram named `name` (interned on first use).
pub fn histogram(name: &str, help: &'static str) -> &'static Histogram {
    HISTOGRAMS.get_or(name, |_| Histogram::new(help))
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
pub fn counter_values() -> Vec<(&'static str, u64)> {
    let sorted = COUNTERS.sorted();
    sorted.into_iter().map(|(n, c)| (n, c.value())).collect()
}

/// Sorted gauge (name, level) pairs — the export view.
pub fn gauge_values() -> Vec<(&'static str, i64)> {
    let sorted = sorted_gauges();
    sorted.into_iter().map(|(n, g)| (n, g.value())).collect()
}

/// Every gauge, after refreshing the memory gauges from the ledger.
pub(crate) fn sorted_gauges() -> Vec<(&'static str, &'static Gauge)> {
    mem::publish();
    GAUGES.sorted()
}

// ---------------------------------------------------------------- shared

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
}
