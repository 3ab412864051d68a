//! Prometheus text exposition (format version 0.0.4).
//!
//! Families are grouped and sorted by name, each introduced by `# HELP` /
//! `# TYPE` lines. Histograms render the standard cumulative
//! `_bucket{le="…"}` series (only non-empty buckets plus the mandatory
//! `le="+Inf"` — cumulative counts stay valid under omission) followed by
//! `_sum` and `_count`. Instrument names may carry inline labels
//! (`fam{backend="eager"}`); the family line uses the bare name and the
//! labels are spliced into every series.
//!
//! Observations are integers, so a bucket's exclusive upper bound `u`
//! is rendered as `le="u-1"` — the exact inclusive bound.

use crate::split_family;
use std::collections::BTreeMap;
use std::fmt::Write as _;

enum Series<'a> {
    Counter(&'a str, u64),
    Gauge(&'a str, i64),
    Histogram(Option<&'a str>, &'a crate::Histogram),
}

/// Renders the whole registry (refreshing the memory gauges first) as
/// Prometheus text.
pub fn prometheus_text() -> String {
    let counters = crate::COUNTERS.sorted();
    let gauges = crate::sorted_gauges();
    let hists = crate::HISTOGRAMS.sorted();

    // family → (type, help, series) — BTreeMap gives the sorted, grouped
    // exposition order.
    let mut families: BTreeMap<&str, (&'static str, &'static str, Vec<Series>)> = BTreeMap::new();
    for (name, c) in &counters {
        let (family, _) = split_family(name);
        families
            .entry(family)
            .or_insert_with(|| ("counter", c.help, Vec::new()))
            .2
            .push(Series::Counter(name, c.value()));
    }
    for (name, g) in &gauges {
        let (family, _) = split_family(name);
        families
            .entry(family)
            .or_insert_with(|| ("gauge", g.help, Vec::new()))
            .2
            .push(Series::Gauge(name, g.value()));
    }
    for (name, h) in &hists {
        let (family, labels) = split_family(name);
        families
            .entry(family)
            .or_insert_with(|| ("histogram", h.help(), Vec::new()))
            .2
            .push(Series::Histogram(labels, h));
    }

    let mut out = String::with_capacity(4096);
    for (family, (kind, help, series)) in families {
        if !help.is_empty() {
            let _ = writeln!(out, "# HELP {family} {help}");
        }
        let _ = writeln!(out, "# TYPE {family} {kind}");
        for s in series {
            match s {
                Series::Counter(name, v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Series::Gauge(name, v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                Series::Histogram(labels, h) => render_histogram(&mut out, family, labels, h),
            }
        }
    }
    out
}

fn render_histogram(out: &mut String, family: &str, labels: Option<&str>, h: &crate::Histogram) {
    let with = |extra: &str| -> String {
        match (labels, extra.is_empty()) {
            (Some(l), false) => format!("{{{l},{extra}}}"),
            (Some(l), true) => format!("{{{l}}}"),
            (None, false) => format!("{{{extra}}}"),
            (None, true) => String::new(),
        }
    };
    let mut cumulative = 0u64;
    for (upper, count) in h.nonzero_buckets() {
        cumulative += count;
        if upper == u64::MAX {
            continue; // the overflow bucket only shows in +Inf
        }
        let le = upper - 1; // exclusive → inclusive (integer values)
        let series = with(&format!("le=\"{le}\""));
        let _ = writeln!(out, "{family}_bucket{series} {cumulative}");
    }
    let inf = with("le=\"+Inf\"");
    let _ = writeln!(out, "{family}_bucket{inf} {}", h.count());
    let plain = with("");
    let _ = writeln!(out, "{family}_sum{plain} {}", h.sum());
    let _ = writeln!(out, "{family}_count{plain} {}", h.count());
}
