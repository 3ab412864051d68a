//! The telemetry backbone, exercised end-to-end: training on every
//! backend must populate the registry — dispatch-latency histograms per
//! backend, training-step instruments, pool counters, XLA cache/planner
//! stats and memory attribution — and the whole cross-section must
//! survive a round trip through the Prometheus text exposition.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::metrics;
use s4tf::models::LeNet;
use s4tf::nn::train::train_classifier_step;
use s4tf::prelude::*;
use s4tf::tensor::pool;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

// The registry, the profiler, the memory ledger and the JSONL sink are
// process-global; tests that compare exact values serialize here.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Trains a small dense classifier for a few steps on `device`.
fn train_on(device: &Device, steps: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut model = Dense::new(8, 4, Activation::Relu, device, &mut rng);
    let mut opt = Sgd::new(0.05);
    let x = DTensor::from_tensor(Tensor::randn(&[16, 8], &mut rng), device);
    let y = DTensor::from_tensor(Tensor::one_hot(&[0, 1, 2, 3].repeat(4), 4), device);
    for _ in 0..steps {
        let loss = train_classifier_step(&mut model, &mut opt, &x, &y);
        assert!(loss.is_finite());
    }
}

/// A seeded LeNet, a momentum optimizer and one batch of 8 on `device`.
fn lenet_batch(device: &Device) -> (LeNet, Sgd<LeNet>, DTensor, DTensor) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = LeNet::new(device, &mut rng);
    let x = DTensor::from_tensor(Tensor::randn(&[8, 28, 28, 1], &mut rng), device);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let y = DTensor::from_tensor(Tensor::one_hot(&labels, 10), device);
    (model, Sgd::with_momentum(0.05, 0.9), x, y)
}

#[test]
fn training_populates_the_registry_on_every_backend() {
    let _serial = serial();
    metrics::set_enabled(true);
    for device in [Device::naive(), Device::eager(), Device::lazy()] {
        train_on(&device, 3);
    }

    let text = metrics::prometheus_text();

    // Dispatch latency histograms exist for each backend (count > 0).
    for backend in ["naive", "eager", "lazy"] {
        let needle = format!("s4tf_dispatch_latency_us_count{{backend=\"{backend}\",");
        let total: u64 = text
            .lines()
            .filter_map(|l| l.strip_prefix(needle.as_str()))
            .filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        assert!(
            total > 0,
            "no dispatch latency recorded for backend {backend}:\n{text}"
        );
    }

    // Training-loop instruments: step-time histogram and step counter.
    let step_count = text
        .lines()
        .find_map(|l| l.strip_prefix("s4tf_train_step_us_count "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("s4tf_train_step_us histogram exported");
    assert!(
        step_count >= 9,
        "expected ≥9 steps recorded, got {step_count}"
    );
    let steps_total = text
        .lines()
        .find_map(|l| l.strip_prefix("s4tf_train_steps_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("s4tf_train_steps_total exported");
    assert_eq!(steps_total, step_count);

    // The step-time p99 answers within the documented histogram bound:
    // finite, positive, and at least the p50.
    let h = metrics::histogram("s4tf_train_step_us", "");
    let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
    assert!(p50 > 0.0 && p99.is_finite() && p99 >= p50);

    // XLA pipeline: the lazy run compiled at least one program and hit
    // the cache on the repeat steps.
    assert!(text.contains("s4tf_xla_cache_total{result=\"miss\"}"));
    let hits = text
        .lines()
        .find_map(|l| l.strip_prefix("s4tf_xla_cache_total{result=\"hit\"} "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("cache hit counter exported");
    assert!(hits > 0, "repeat lazy steps should hit the program cache");
    assert!(text.contains("s4tf_xla_compile_us_count "));

    // Memory attribution: headline gauges plus at least the host site.
    assert!(text.contains("# TYPE s4tf_mem_live_bytes gauge"));
    assert!(text.contains("s4tf_mem_peak_bytes "));
    assert!(text.contains("s4tf_mem_site_live_bytes{site=\"host\"}"));
    let sites = metrics::memory_by_site();
    assert!(sites.iter().any(|m| m.site == "host" && m.allocs > 0));
}

/// Registry gauges forward their samples to the profiler, so the Chrome
/// trace grows `"ph":"C"` counter tracks — live bytes and the eager queue
/// depth render as graphs alongside the span flame graph.
#[test]
fn sampler_feeds_chrome_trace_counter_tracks() {
    let _serial = serial();
    metrics::set_enabled(true);
    s4tf::profile::set_enabled(true);

    train_on(&Device::eager(), 2);
    metrics::sample_now();

    let counter_tracks = chrome_counter_tracks();
    s4tf::profile::set_enabled(false);
    assert!(
        counter_tracks.iter().any(|n| n == "s4tf_mem_live_bytes"),
        "live-bytes counter track missing: {counter_tracks:?}"
    );
    assert!(
        counter_tracks
            .iter()
            .any(|n| n == "s4tf_queue_depth{queue=\"eager\"}"),
        "eager queue-depth counter track missing: {counter_tracks:?}"
    );
}

#[test]
fn pool_stats_and_planner_outcomes_are_public() {
    let _serial = serial();
    metrics::set_enabled(true);

    // The pool keeps public counters; recycling must show up in them.
    let before = pool::stats();
    for _ in 0..4 {
        let t = Tensor::<f32>::zeros(&[64, 64]);
        drop(t);
    }
    let after = pool::stats();
    assert!(
        after.hits + after.misses > before.hits + before.misses,
        "pool saw no traffic: {before:?} → {after:?}"
    );

    // Planner outcomes surface on the lazy device's cache stats.
    let device = Device::lazy();
    train_on(&device, 2);
    let stats = device.cache_stats().expect("lazy device has a cache");
    assert!(stats.misses > 0, "expected at least one compile: {stats:?}");
    assert!(
        stats.planned_bytes > 0,
        "planner budget missing from cache stats: {stats:?}"
    );
}

/// Once the pool is warm a LeNet step recycles its buffers: at most 25
/// fresh tensor allocations per step on the eager device (measured ~1),
/// and the lazy device, whose planner drops values at last use, meets the
/// same ceiling (measured ~7, its traced scalar constants).
#[test]
fn steady_state_lenet_steps_stay_under_the_allocation_ceiling() {
    let _serial = serial();
    const STEPS: u64 = 10;
    for device in [Device::eager(), Device::lazy()] {
        let (mut model, mut opt, x, y) = lenet_batch(&device);
        // First-touch allocations (velocity, program cache, pool
        // population) are setup cost, not steady-state traffic.
        train_classifier_step(&mut model, &mut opt, &x, &y);
        let before = s4tf::diag::memory_stats().allocs;
        for _ in 0..STEPS {
            train_classifier_step(&mut model, &mut opt, &x, &y);
        }
        let per_step = (s4tf::diag::memory_stats().allocs - before) / STEPS;
        assert!(
            per_step <= 25,
            "{}: {per_step} fresh tensor allocations per steady-state step",
            device.kind()
        );
    }
}

/// `(ph == "C")` event names of the profiler's current Chrome trace.
fn chrome_counter_tracks() -> Vec<String> {
    let json = s4tf::profile::chrome_trace_json();
    let value: serde_json::Value = serde_json::from_str(&json).expect("valid chrome JSON");
    let Some(serde_json::Value::Array(events)) = value.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    events
        .iter()
        .filter(|e| e.get("ph") == Some(&serde_json::Value::Str("C".to_string())))
        .filter_map(|e| match e.get("name") {
            Some(serde_json::Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Every fact has one store and one name: what the profiler reports over
/// a window is the registry's delta over that window, the `stats()`
/// views read the registry, and the Chrome trace names no counter track
/// the registry does not.
#[test]
fn each_fact_has_one_value() {
    let _serial = serial();
    metrics::set_enabled(true);
    let sum = |counters: &BTreeMap<&str, u64>, family: &str| -> u64 {
        let of_family = counters.iter().filter(|(name, _)| name.starts_with(family));
        of_family.map(|(_, v)| *v).sum()
    };
    for backend in ["naive", "eager", "lazy"] {
        let before: BTreeMap<_, _> = metrics::counter_values().into_iter().collect();
        s4tf::profile::set_enabled(true);
        s4tf::profile::reset();
        // Everything device-bound lives in this block: once the last
        // handle drops the eager worker has been joined, so nothing
        // counts between reading the profiler and reading the registry.
        let cache_stats = {
            let device = match backend {
                "naive" => Device::naive(),
                "eager" => Device::eager(),
                _ => Device::lazy(),
            };
            let (mut model, mut opt, x, y) = lenet_batch(&device);
            for _ in 0..3 {
                train_classifier_step(&mut model, &mut opt, &x, &y);
            }
            device.cache_stats()
        };
        let report = s4tf::profile::report();
        let tracks = chrome_counter_tracks();
        s4tf::profile::set_enabled(false);
        s4tf::profile::reset();
        let after: BTreeMap<_, _> = metrics::counter_values().into_iter().collect();

        // Profiler counters are registry deltas, name for name.
        assert!(!report.counters().is_empty(), "{backend}: no counters");
        for c in report.counters() {
            let was = before.get(c.name.as_str()).copied().unwrap_or(0);
            let delta = after.get(c.name.as_str()).map(|now| now - was);
            assert_eq!(Some(c.total), delta, "{backend}: counter `{}`", c.name);
        }

        // The per-cache stats agree with the process-wide registry
        // deltas (this device's cache is the only one in use).
        if let Some(stats) = cache_stats {
            for (result, mine) in [("hit", stats.hits), ("miss", stats.misses)] {
                let name = format!("s4tf_xla_cache_total{{result=\"{result}\"}}");
                let delta = after[name.as_str()] - before.get(name.as_str()).unwrap_or(&0);
                assert_eq!(mine, delta, "{backend}: cache {result}");
            }
        }

        // The stats() views are reads of the registry.
        let codegen = s4tf::xla::codegen::stats();
        for (result, mine) in [
            ("hit", codegen.hits),
            ("miss", codegen.misses),
            ("specialized", codegen.specialized),
            ("fallback", codegen.fallback),
        ] {
            let name = format!("s4tf_xla_codegen_total{{result=\"{result}\"}}");
            let theirs = after.get(name.as_str()).copied().unwrap_or(0);
            assert_eq!(mine, theirs, "{backend}: codegen {result}");
        }
        let pool = pool::stats();
        assert_eq!(pool.hits, sum(&after, "s4tf_pool_hits_total{"));
        assert_eq!(pool.misses, sum(&after, "s4tf_pool_misses_total{"));
        assert_eq!(
            pool.recycled_bytes,
            sum(&after, "s4tf_pool_recycled_bytes_total")
        );

        // No counter track the registry does not name.
        let gauges: Vec<&str> = metrics::gauge_values().into_iter().map(|g| g.0).collect();
        assert!(tracks.iter().any(|t| t == "s4tf_mem_live_bytes"));
        for track in &tracks {
            assert!(
                after.contains_key(track.as_str()) || gauges.contains(&track.as_str()),
                "{backend}: Chrome counter track `{track}` is not a registry name"
            );
        }
    }
}

/// One ledger, one watermark: the per-step reset behind the
/// `"kind":"step"` records restarts the peak the `"kind":"snapshot"`
/// records report too, and the per-site split sums to the totals.
#[test]
fn step_records_and_snapshots_share_one_peak() {
    let _serial = serial();
    metrics::set_enabled(true);
    let path = std::env::temp_dir().join(format!("s4tf-one-peak-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    metrics::set_jsonl_path(Some(&path));
    let device = Device::lazy();
    train_on(&device, 2);
    // No tensor is allocated between the last step's reset and here, so
    // the watermark still stands where that reset put it.
    metrics::sample_now();
    let stats = s4tf::diag::memory_stats();
    metrics::set_jsonl_path(None);

    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("JSONL line parses"))
        .collect();
    let of_kind = |kind: &str| -> Vec<&serde_json::Value> {
        let want = serde_json::Value::Str(kind.to_string());
        lines
            .iter()
            .filter(|l| l.get("kind") == Some(&want))
            .collect()
    };
    let uint = |v: Option<&serde_json::Value>| -> u64 {
        match v {
            Some(serde_json::Value::UInt(n)) => *n,
            Some(serde_json::Value::Int(n)) => *n as u64,
            other => panic!("expected an integer, got {other:?}"),
        }
    };
    let steps = of_kind("step");
    assert_eq!(steps.len(), 2, "{text}");
    for step in &steps {
        assert!(uint(step.get("peak_bytes")) >= uint(step.get("live_bytes")));
    }
    let snapshot = of_kind("snapshot").pop().expect("a snapshot line");
    let gauges = snapshot.get("gauges").expect("gauges object");
    let peak = uint(gauges.get("s4tf_mem_peak_bytes"));
    assert_eq!(peak, stats.peak_bytes, "the gauge is the ledger's peak");
    assert_eq!(
        peak,
        uint(steps[1].get("live_bytes")),
        "the step's reset restarted the snapshot's watermark too"
    );

    drop(device);
    let by_site: i64 = metrics::memory_by_site().iter().map(|m| m.live_bytes).sum();
    assert_eq!(by_site as u64, s4tf::diag::memory_stats().live_bytes);
    for site in metrics::memory_by_site() {
        assert!(site.peak_bytes >= site.live_bytes, "{site:?}");
    }
}

/// The spellings every boolean `S4TF_*` switch accepts, and what each
/// means (`None`: keep the switch's default).
const SPELLINGS: [(Option<&str>, Option<bool>); 11] = [
    (Some("0"), Some(false)),
    (Some("1"), Some(true)),
    (Some("true"), Some(true)),
    (Some("True"), Some(true)),
    (Some("TRUE"), Some(true)),
    (Some("on"), Some(true)),
    (Some("off"), Some(false)),
    (Some("OFF"), Some(false)),
    (Some("no"), Some(false)),
    (Some(""), None),
    (None, None),
];

/// Every boolean switch: its variable, its default, and the runtime's
/// answer in this process.
fn boolean_switches() -> [(&'static str, bool, bool); 5] {
    [
        ("S4TF_PROFILE", false, s4tf::profile::enabled()),
        ("S4TF_METRICS", true, metrics::enabled()),
        ("S4TF_DIAG_EVENTS", false, s4tf::diag::events_enabled()),
        ("S4TF_CHECK_NUMERICS", false, s4tf::diag::numerics_enabled()),
        // "Requested": the kernels AND this with CPU support.
        (
            "S4TF_SIMD",
            true,
            s4tf::tensor::simd_enabled() || !s4tf::tensor::simd_supported(),
        ),
    ]
}

/// Child half of [`every_boolean_switch_reads_the_same_spellings`]: with
/// `SWITCH_PROBE` set, prints what every switch resolved to from this
/// process's environment. A no-op in a normal test run.
#[test]
fn switch_probe() {
    if std::env::var_os("SWITCH_PROBE").is_none() {
        return;
    }
    let states: Vec<String> = boolean_switches()
        .iter()
        .map(|(var, _, on)| format!("{var}={}", u8::from(*on)))
        .collect();
    println!("switches: {}", states.join(" "));
}

/// Switches read their variable once per process, so each spelling gets
/// a child process with every switch set to it.
#[test]
fn every_boolean_switch_reads_the_same_spellings() {
    let exe = std::env::current_exe().expect("test binary path");
    for (spelling, meaning) in SPELLINGS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["switch_probe", "--exact", "--nocapture", "--test-threads=1"])
            .env("SWITCH_PROBE", "1");
        for (var, _, _) in boolean_switches() {
            match spelling {
                Some(value) => child.env(var, value),
                None => child.env_remove(var),
            };
        }
        let out = child.output().expect("spawn the probe");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{spelling:?}: {stdout}");
        let line = stdout
            .lines()
            .find_map(|l| l.split_once("switches: ").map(|(_, rest)| rest))
            .unwrap_or_else(|| panic!("{spelling:?}: no probe line in {stdout}"));
        let want: Vec<String> = boolean_switches()
            .iter()
            .map(|(var, default, _)| format!("{var}={}", u8::from(meaning.unwrap_or(*default))))
            .collect();
        assert_eq!(line.trim(), want.join(" "), "spelling {spelling:?}");
    }
}

/// Child half of [`diag_events_share_the_profiler_clock`]: with
/// `CLOCK_PROBE` set, reads the profiler's clock, waits, then records a
/// diagnostics event inside a span and checks it against the span's
/// Chrome-trace interval. A no-op in a normal test run.
#[test]
fn clock_probe() {
    if std::env::var_os("CLOCK_PROBE").is_none() {
        return;
    }
    s4tf::profile::set_enabled(true);
    s4tf::diag::set_events_enabled(true);
    // Two clocks started by their first reads would now disagree by the
    // length of this wait.
    s4tf::profile::now_us();
    std::thread::sleep(std::time::Duration::from_millis(5));
    {
        let _span = s4tf::profile::span("clock.probe");
        s4tf::diag::event!("clock.probe");
    }
    let json = s4tf::profile::chrome_trace_json();
    let value: serde_json::Value = serde_json::from_str(&json).expect("valid chrome JSON");
    let Some(serde_json::Value::Array(events)) = value.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let span = events
        .iter()
        .find(|e| e.get("name") == Some(&serde_json::Value::Str("clock.probe".to_string())))
        .expect("span exported");
    let int = |key: &str| match span.get(key) {
        Some(serde_json::Value::Int(v)) => *v as u64,
        other => panic!("span {key}: {other:?}"),
    };
    let (start, end) = (int("ts"), int("ts") + int("dur"));
    let event = s4tf::diag::events()
        .into_iter()
        .find(|e| e.kind == "clock.probe")
        .expect("event recorded");
    assert!(
        (start..=end).contains(&event.ts_us),
        "event at {} us, span [{start}, {end}] us",
        event.ts_us
    );
    println!("clock probe ok");
}

/// A diagnostics event is stamped on the profiler's clock: recorded inside
/// a span, its `ts_us` lies in that span's interval. A clock starts at its
/// first read, so the probe runs in a fresh process, where nothing has
/// read either clock before it.
#[test]
fn diag_events_share_the_profiler_clock() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["clock_probe", "--exact", "--nocapture", "--test-threads=1"])
        .env("CLOCK_PROBE", "1")
        .output()
        .expect("spawn the probe");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        out.status.success() && stdout.contains("clock probe ok"),
        "{stdout}\n{stderr}"
    );
}
