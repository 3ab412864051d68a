//! In-memory spans recorded from the benchmark's side of each call into a
//! layer. Nothing is written until the run ends; the Chrome-trace file and
//! every per-layer time are derived from the finished list.

use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. Spans of one operation share its `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans on one thread — or, switched off,
/// nothing: the end-to-end phases run the same code with [`Recorder::off`].
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// `(when_ns, microseconds)` per name.
    times: BTreeMap<&'static str, Vec<(u64, f64)>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            counts: BTreeMap::new(),
            times: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing and adds one branch per call.
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Recorder::new()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next operation: spans recorded from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op_id += 1;
        self.op_id
    }

    /// Times `f` as a span named `name`, nested under the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records one per-operation count read at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.entry(name).or_default().push(value);
        }
    }

    /// Records one per-operation time, in microseconds, that a layer
    /// measured itself and the harness read at its boundary just now.
    pub fn time_us(&mut self, name: &'static str, us: f64) {
        if self.on {
            let now_ns = self.now_ns();
            self.times.entry(name).or_default().push((now_ns, us));
        }
    }

    /// The moment span times are counted from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median of each sampled count, and of each sampled time divided by
    /// `slowdown(when_ns)`.
    pub fn sample_medians(&self, slowdown: impl Fn(u64) -> f64) -> BTreeMap<&'static str, f64> {
        let counts = self
            .counts
            .iter()
            .map(|(&name, values)| (name, stats::median(values)));
        let times = self.times.iter().map(|(&name, values)| {
            let scaled: Vec<f64> = values.iter().map(|&(at, us)| us / slowdown(at)).collect();
            (name, stats::median(&scaled))
        });
        counts.chain(times).collect()
    }
}

/// The spans with each duration divided by `slowdown` at the span's middle
/// (nanoseconds since the recorder's epoch): the times the spans would have
/// taken on the reference host. Starts are kept; only lengths change.
pub fn at_reference_speed(spans: &[Span], slowdown: impl Fn(u64) -> f64) -> Vec<Span> {
    spans
        .iter()
        .map(|span| {
            let middle = span.start_ns + span.duration_ns() / 2;
            let scaled = span.duration_ns() as f64 / slowdown(middle);
            Span {
                end_ns: span.start_ns + scaled.round() as u64,
                ..span.clone()
            }
        })
        .collect()
}

/// Each span's self time: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Share of `wall_ns` that some span accounts for: Σ self time ÷ wall.
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    self_times_ns(spans).iter().sum::<u64>() as f64 / wall_ns as f64
}

/// Per span name, the median over operations of the microseconds that
/// name took within one operation.
pub fn median_us_per_op(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for span in spans {
        *per_op.entry((span.name, span.op_id)).or_default() += span.duration_ns();
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        by_name.entry(name).or_default().push(ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, us)| (name, stats::median(&us)))
        .collect()
}

/// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(workload.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                ("dur".into(), Value::Float(s.duration_ns() as f64 / 1e3)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(1)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("op_id".into(), Value::UInt(s.op_id)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![("traceEvents".into(), Value::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("op", 0, 100, None, 1),
            span("forward", 10, 40, Some(0), 1),
            span("kernel", 15, 35, Some(1), 1),
            span("sync", 50, 90, Some(0), 1),
        ];
        // op: 100 − 30 − 40; forward: 30 − 20; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn coverage_counts_gaps_between_roots_as_uncovered() {
        let spans = [
            span("op", 0, 40, None, 1),
            span("sync", 10, 30, Some(0), 1),
            span("op", 60, 100, None, 2),
        ];
        assert_eq!(coverage(&spans, 100), 0.8);
        assert_eq!(coverage(&spans, 0), 0.0);
    }

    #[test]
    fn per_op_medians_sum_repeats_within_an_operation() {
        let spans = [
            span("h2d", 0, 1000, None, 1),
            span("h2d", 1000, 3000, None, 1),
            span("h2d", 5000, 6000, None, 2),
            span("h2d", 7000, 12000, None, 3),
        ];
        // per-op totals 3, 1, 5 µs → median 3.
        assert_eq!(median_us_per_op(&spans)["h2d"], 3.0);
    }

    #[test]
    fn reference_speed_rescales_lengths_not_starts() {
        let spans = [
            span("op", 100, 300, None, 1),
            span("sync", 150, 250, Some(0), 1),
        ];
        let scaled = at_reference_speed(&spans, |_| 2.0);
        assert_eq!((scaled[0].start_ns, scaled[0].end_ns), (100, 200));
        assert_eq!((scaled[1].start_ns, scaled[1].end_ns), (150, 200));
        assert_eq!(at_reference_speed(&spans, |_| 1.0), spans);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut rec = Recorder::new();
        rec.next_op();
        rec.span("op", |rec| {
            rec.span("forward", |_| ());
            rec.span("sync", |_| ());
        });
        rec.next_op();
        rec.span("op", |_| ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op_id, spans[3].op_id), (1, 2));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let trace = chrome_trace(spans, "w");
        assert!(matches!(trace.get("traceEvents"), Some(Value::Array(e)) if e.len() == 4));
    }
}
