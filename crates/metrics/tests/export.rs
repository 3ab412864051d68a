//! Export-path tests: the Prometheus text exposition (golden block +
//! format lint), the live TCP scrape endpoint, and the JSON snapshot
//! shape.
//!
//! All tests share one process-wide registry, so every instrument name
//! is unique to this file and assertions are block/substring-based —
//! the registry accumulates instruments from whichever test ran first.

use s4tf_metrics::{
    counter, gauge, histogram, mem_alloc, mem_free, mem_site, memory_by_site, prometheus_text,
    set_enabled, snapshot_json, start_server,
};
use std::io::{Read, Write};
use std::net::TcpStream;

/// The canonical histogram rendering: cumulative `_bucket` series over
/// the non-empty buckets (inclusive `le` bounds), the mandatory `+Inf`,
/// then `_sum` and `_count`, with inline instrument labels spliced into
/// every series.
#[test]
fn prometheus_text_golden_block() {
    set_enabled(true);
    let h = histogram(
        "s4tf_test_export_us{backend=\"golden\"}",
        "export golden test",
    );
    h.record(1);
    h.record(2);
    h.record(3);
    counter("s4tf_test_export_total", "export golden counter").add(7);
    gauge("s4tf_test_export_depth", "export golden gauge").set(-3);

    let text = prometheus_text();

    let hist_block = "\
# HELP s4tf_test_export_us export golden test
# TYPE s4tf_test_export_us histogram
s4tf_test_export_us_bucket{backend=\"golden\",le=\"1\"} 1
s4tf_test_export_us_bucket{backend=\"golden\",le=\"2\"} 2
s4tf_test_export_us_bucket{backend=\"golden\",le=\"3\"} 3
s4tf_test_export_us_bucket{backend=\"golden\",le=\"+Inf\"} 3
s4tf_test_export_us_sum{backend=\"golden\"} 6
s4tf_test_export_us_count{backend=\"golden\"} 3
";
    assert!(
        text.contains(hist_block),
        "histogram block missing or mis-rendered:\n{text}"
    );
    assert!(text.contains("# TYPE s4tf_test_export_total counter\ns4tf_test_export_total 7\n"));
    assert!(text.contains("# TYPE s4tf_test_export_depth gauge\ns4tf_test_export_depth -3\n"));
}

/// Every line of the exposition is either a comment or
/// `name[{labels}] value` with a parseable numeric value — the format
/// lint a Prometheus scraper effectively applies.
#[test]
fn prometheus_text_is_well_formed() {
    set_enabled(true);
    counter("s4tf_test_export_lint_total", "lint seed").inc();
    let text = prometheus_text();
    assert!(!text.is_empty());
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in line: {line:?}"
        );
        // Series name: bare metric or metric{labels}; never whitespace.
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad series name in line: {line:?}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad label section in line: {line:?}"
                );
            }
        }
    }
}

/// Histograms must render cumulative bucket counts ending exactly at
/// `_count` — the invariant PromQL's `histogram_quantile` relies on.
#[test]
fn prometheus_buckets_are_cumulative() {
    set_enabled(true);
    let h = histogram("s4tf_test_export_cumulative_us", "cumulative check");
    for v in [5u64, 50, 500, 5_000, 50_000] {
        h.record(v);
    }
    let text = prometheus_text();
    let mut last = 0u64;
    let mut inf = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("s4tf_test_export_cumulative_us_bucket{le=") {
            let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "non-cumulative bucket: {line}");
            last = count;
            if rest.starts_with("\"+Inf\"") {
                inf = Some(count);
            }
        }
    }
    assert_eq!(inf, Some(5), "le=\"+Inf\" must equal the observation count");
}

/// A live scrape over TCP: bind an ephemeral port, GET it, and get the
/// full exposition back with the right status, content type and length.
#[test]
fn tcp_scrape_returns_prometheus_text() {
    set_enabled(true);
    counter("s4tf_test_export_scrape_total", "scrape seed").add(42);
    let addr = start_server("127.0.0.1:0").expect("bind ephemeral port");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();

    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .unwrap();
    assert_eq!(content_length, body.len());
    assert!(body.contains("s4tf_test_export_scrape_total 42"));
    assert!(body.contains("# TYPE s4tf_test_export_scrape_total counter"));

    // Non-GET requests are refused, not served.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
}

/// The sampler's JSONL snapshot parses and carries the full registry
/// cross-section: kind discriminator, timestamp, counters, gauges,
/// histogram quantile digests, memory-by-site and rates.
#[test]
fn snapshot_json_shape() {
    set_enabled(true);
    counter("s4tf_test_export_snap_total", "snapshot seed").add(5);
    gauge("s4tf_test_export_snap_depth", "snapshot seed").set(11);
    let h = histogram("s4tf_test_export_snap_us", "snapshot seed");
    for v in [100u64, 200, 300] {
        h.record(v);
    }
    let site = {
        let _g = mem_site("export-test");
        mem_alloc(4096, true).0
    };

    let line = snapshot_json();
    let value: serde_json::Value = serde_json::from_str(&line).expect("snapshot parses");

    assert_eq!(
        value.get("kind"),
        Some(&serde_json::Value::Str("snapshot".to_string()))
    );
    assert!(
        matches!(
            value.get("ts_us"),
            Some(serde_json::Value::UInt(_) | serde_json::Value::Int(_))
        ),
        "ts_us missing or non-numeric"
    );
    let counters = value.get("counters").expect("counters object");
    assert!(
        matches!(
            counters.get("s4tf_test_export_snap_total"),
            Some(serde_json::Value::UInt(5) | serde_json::Value::Int(5))
        ),
        "snapshot counter wrong: {line}"
    );
    let gauges = value.get("gauges").expect("gauges object");
    assert!(gauges.get("s4tf_test_export_snap_depth").is_some());

    let digest = value
        .get("histograms")
        .and_then(|h| h.get("s4tf_test_export_snap_us"))
        .expect("histogram digest");
    for key in ["count", "sum", "p50", "p95", "p99"] {
        assert!(digest.get(key).is_some(), "digest missing {key}: {line}");
    }

    let by_site = value.get("memory_by_site").expect("memory_by_site object");
    let entry = by_site.get("export-test").expect("export-test site");
    for key in ["live_bytes", "peak_bytes", "allocs", "frees"] {
        assert!(entry.get(key).is_some(), "site entry missing {key}");
    }
    assert!(value.get("rates").is_some());

    mem_free(site, 4096, true);
    let after = memory_by_site();
    let m = after.iter().find(|m| m.site == "export-test").unwrap();
    assert_eq!(m.live_bytes, 0);
    assert_eq!(m.peak_bytes, 4096);
}

/// Exports publish the memory gauges: after an attributed allocation the
/// exposition carries both the headline live-bytes gauge and the
/// per-site breakdown series.
#[test]
fn memory_gauges_reach_the_exposition() {
    set_enabled(true);
    let site = {
        let _g = mem_site("export-gauge-test");
        mem_alloc(1 << 20, true).0
    };
    let text = prometheus_text();
    assert!(text.contains("# TYPE s4tf_mem_live_bytes gauge"));
    assert!(text.contains("s4tf_mem_site_live_bytes{site=\"export-gauge-test\"} 1048576"));
    mem_free(site, 1 << 20, true);
}
