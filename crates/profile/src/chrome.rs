//! Chrome-trace (Perfetto JSON) export of raw profiler events.
//!
//! Emits the `{"traceEvents": [...]}` object format: spans as `"ph":
//! "X"` complete events, gauges as `"ph": "C"` counter tracks, counter
//! totals as one final `"C"` sample each, `process_name`/`thread_name`
//! `"M"` metadata events, and `"s"`/`"f"` flow arrows linking producer
//! spans to consumer spans (e.g. eager `enqueue` → `kernel_run`), all
//! under a single `pid`. The file loads directly in `chrome://tracing`
//! and <https://ui.perfetto.dev>.

use std::fmt::Write as _;

use crate::{push_json_f64, push_json_sep as sep, push_json_string, thread_names, Recorder};

const PID: u64 = 1;

pub(crate) fn render(recorder: &mut Recorder) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;

    // Metadata: name the process and every registered thread.
    sep(&mut out, &mut first);
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"args\":{{\"name\":\"s4tf\"}}}}"
    );
    for (tid, name) in thread_names() {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"args\":{{\"name\":"
        );
        push_json_string(&mut out, &name);
        out.push_str("}}");
    }

    for event in &recorder.spans {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        push_json_string(&mut out, &event.name);
        let _ = write!(
            out,
            ",\"cat\":\"s4tf\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{PID},\"tid\":{}",
            event.start_us, event.dur_us, event.thread
        );
        let has_work = event.flops > 0 || event.bytes > 0;
        if !event.annotations.is_empty() || has_work {
            out.push_str(",\"args\":{");
            let mut first_arg = true;
            for (key, value) in &event.annotations {
                sep(&mut out, &mut first_arg);
                push_json_string(&mut out, key);
                out.push(':');
                push_json_string(&mut out, value);
            }
            if has_work {
                let gflops = if event.dur_us > 0 {
                    event.flops as f64 / 1e3 / event.dur_us as f64
                } else {
                    0.0
                };
                sep(&mut out, &mut first_arg);
                let _ = write!(
                    out,
                    "\"flops\":{},\"bytes\":{},\"gflops\":{gflops:.3}",
                    event.flops, event.bytes
                );
            }
            out.push('}');
        }
        out.push('}');

        // Flow arrows bound to this slice: starts anchor at the end of
        // the producer span, finishes bind to the enclosing consumer
        // slice (`"bp":"e"`).
        for &(flow_id, is_start) in &event.flows {
            sep(&mut out, &mut first);
            let (ph, extra, ts) = if is_start {
                ("s", "", event.start_us + event.dur_us.saturating_sub(1))
            } else {
                ("f", ",\"bp\":\"e\"", event.start_us)
            };
            let _ = write!(
                out,
                "{{\"name\":\"dispatch\",\"cat\":\"flow\",\"ph\":\"{ph}\"{extra},\"id\":{flow_id},\"ts\":{ts},\"pid\":{PID},\"tid\":{}}}",
                event.thread
            );
        }
    }

    for (name, samples) in &recorder.gauges {
        for sample in samples {
            sep(&mut out, &mut first);
            counter_event(&mut out, name, sample.ts_us, sample.value);
        }
    }

    // Counters carry only totals; exported as a single sample at the
    // last known timestamp so the track shows the final value.
    let last_ts = recorder
        .spans
        .iter()
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap_or(0);
    for (name, total) in &recorder.counters {
        sep(&mut out, &mut first);
        counter_event(&mut out, name, last_ts, *total as f64);
    }

    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn counter_event(out: &mut String, name: &str, ts_us: u64, value: f64) {
    out.push_str("{\"name\":");
    push_json_string(out, name);
    let _ = write!(
        out,
        ",\"cat\":\"s4tf\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":{PID},\"args\":{{\"value\":"
    );
    push_json_f64(out, value);
    out.push_str("}}");
}
