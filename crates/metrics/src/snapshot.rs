//! Registry snapshots and the shared JSONL sink.
//!
//! One file (`S4TF_METRICS_FILE` or [`set_jsonl_path`]), one writer, one
//! schema: every line is a JSON object with a `"kind"` discriminator.
//! The training loop's per-step records (written through `s4tf-diag`)
//! carry `"kind":"step"`; the sampler's registry snapshots carry
//! `"kind":"snapshot"`:
//!
//! ```json
//! {"kind":"snapshot","ts_us":1717171717000000,
//!  "counters":{"s4tf_xla_cache_total{result=\"hit\"}":41},
//!  "gauges":{"s4tf_mem_live_bytes":524288},
//!  "histograms":{"s4tf_train_step_us":{"count":10,"sum":51234,
//!    "p50":4096.0,"p95":8320.0,"p99":8320.0}},
//!  "memory_by_site":{"eager":{"live_bytes":1024,"peak_bytes":4096,
//!    "allocs":12,"frees":10}},
//!  "rates":{"s4tf_xla_cache_total{result=\"hit\"}":12.5}}
//! ```
//!
//! The file is opened in append mode per write, so several short runs
//! can share one log and a crashed run loses at most the in-flight line.

use crate::{
    lock_unpoisoned, push_json_f64, push_json_sep as sep, push_json_string, Gate, GATE_OFF, GATE_ON,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// The window snapshot rates are computed over.
const RATE_WINDOW: Duration = Duration::from_secs(60);

static PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// On when a sink path is configured; the first read resolves
/// `S4TF_METRICS_FILE` into [`PATH`].
static SINK: Gate = Gate::new(|| match std::env::var("S4TF_METRICS_FILE") {
    Ok(p) if !p.is_empty() => {
        *lock_unpoisoned(&PATH) = Some(PathBuf::from(p));
        GATE_ON
    }
    _ => GATE_OFF,
});

/// Whether a JSONL sink is configured (`S4TF_METRICS_FILE` or
/// [`set_jsonl_path`]) — one relaxed load.
#[inline]
pub fn jsonl_enabled() -> bool {
    SINK.on()
}

/// Points the JSONL sink at `path` (`None` disables). Overrides
/// `S4TF_METRICS_FILE`.
pub fn set_jsonl_path(path: Option<&Path>) {
    *lock_unpoisoned(&PATH) = path.map(Path::to_path_buf);
    SINK.set_on(path.is_some());
}

/// The configured sink path, if any.
pub fn jsonl_path() -> Option<PathBuf> {
    if !jsonl_enabled() {
        return None;
    }
    lock_unpoisoned(&PATH).clone()
}

/// Appends one pre-rendered JSON line to the sink (no-op without one).
pub fn append_jsonl(line: &str) {
    if !jsonl_enabled() {
        return;
    }
    let Some(path) = lock_unpoisoned(&PATH).clone() else {
        return;
    };
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = result {
        eprintln!(
            "[s4tf-metrics] JSONL write to {} failed: {e}",
            path.display()
        );
    }
}

/// Renders the whole registry as one `"kind":"snapshot"` JSON line (no
/// trailing newline).
pub fn snapshot_json() -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"kind\":\"snapshot\",\"ts_us\":");
    out.push_str(&crate::now_unix_us().to_string());

    out.push_str(",\"counters\":{");
    let mut first = true;
    for (name, value) in crate::counter_values() {
        sep(&mut out, &mut first);
        push_json_string(&mut out, name);
        out.push(':');
        out.push_str(&value.to_string());
    }

    out.push_str("},\"gauges\":{");
    let mut first = true;
    for (name, value) in crate::gauge_values() {
        sep(&mut out, &mut first);
        push_json_string(&mut out, name);
        out.push(':');
        out.push_str(&value.to_string());
    }

    out.push_str("},\"histograms\":{");
    let mut first = true;
    for (name, h) in crate::HISTOGRAMS.sorted() {
        sep(&mut out, &mut first);
        push_json_string(&mut out, name);
        out.push_str(":{\"count\":");
        out.push_str(&h.count().to_string());
        out.push_str(",\"sum\":");
        out.push_str(&h.sum().to_string());
        for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            push_json_f64(&mut out, h.quantile(q));
        }
        out.push('}');
    }

    out.push_str("},\"memory_by_site\":{");
    let mut first = true;
    for m in crate::memory_by_site() {
        sep(&mut out, &mut first);
        push_json_string(&mut out, m.site);
        out.push_str(":{\"live_bytes\":");
        out.push_str(&m.live_bytes.to_string());
        out.push_str(",\"peak_bytes\":");
        out.push_str(&m.peak_bytes.to_string());
        out.push_str(",\"allocs\":");
        out.push_str(&m.allocs.to_string());
        out.push_str(",\"frees\":");
        out.push_str(&m.frees.to_string());
        out.push('}');
    }

    out.push_str("},\"rates\":{");
    let mut first = true;
    for (name, rate) in crate::rate::all_rates(RATE_WINDOW) {
        sep(&mut out, &mut first);
        push_json_string(&mut out, name);
        out.push(':');
        push_json_f64(&mut out, rate);
    }
    out.push_str("}}");
    out
}
