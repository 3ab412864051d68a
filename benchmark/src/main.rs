//! The repository's step-level benchmark. `BENCHMARK.json` at the
//! repository root names the workloads, the metrics and their bounds; this
//! binary measures them. See `benchmark/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload lenet_lazy --seed 1 [--seconds 12] [--trace 1]
//! ```
//!
//! `--repeat N` runs the workload N times (seeds `seed..seed+N`) and checks
//! each end-to-end metric's spread against its bound; `--smoke` runs at a
//! twentieth of the length — all workloads when none is named.
//!
//! Nothing here reaches into a layer: every number is a timed call to a
//! public function or a read of a public counter.

mod alloc;
mod config;
mod host;
mod ledger;
mod probes;
mod spans;
mod stats;
mod workloads;

use config::{Config, Metric};
use host::HostSpeed;
use serde::Value;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Phase, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per end-to-end run: at least the first number, then more while
/// they are cheap — until the second number or [`SETUP_BUDGET_S`] is
/// reached. `setup_s` is their median, so a millisecond set-up is the
/// median of many and a half-second one of three.
const SETUP_REPEATS: (usize, usize) = (3, 25);
const SETUP_BUDGET_S: f64 = 1.5;
/// Host-speed probing before and after each set-up, seconds.
const SETUP_PROBE_S: f64 = 0.01;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: None,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err("--repeat must be in 2..=100".into());
                }
                args.repeat = Some(n);
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Clears every `S4TF_*` variable so no stray setting reaches a layer, then
/// forces the kernel thread count. Returns the names cleared. Must run
/// before any layer reads its configuration (they cache it on first use).
fn scrub_environment(kernel_threads: usize) -> Vec<String> {
    let cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("S4TF_"))
        .collect();
    for name in &cleared {
        std::env::remove_var(name);
    }
    std::env::set_var("S4TF_NUM_THREADS", kernel_threads.to_string());
    cleared
}

/// The checked-out commit, read from `.git` by hand (no subprocess);
/// `unknown` in an exported tree.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What every output carries besides the metrics.
fn provenance(
    root: &Path,
    args: &Args,
    workload: &str,
    seconds: f64,
    cleared: &[String],
    threads: usize,
    sizes: Vec<(String, Value)>,
) -> Vec<(String, Value)> {
    let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::Str).collect());
    vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), Value::Float(seconds)),
        ("traced".into(), Value::Bool(args.trace)),
        ("sizes".into(), Value::Object(sizes)),
        ("git_commit".into(), Value::Str(git_commit(root))),
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("kernel_threads".into(), Value::UInt(threads as u64)),
        (
            "simd_path".into(),
            Value::Str(s4tf::tensor::path_label().into()),
        ),
        ("env_cleared".into(), strings(cleared)),
        (
            "env_forced".into(),
            strings(&[format!("S4TF_NUM_THREADS={threads}")]),
        ),
        ("machine".into(), s4tf_bench::harness::machine_value()),
    ]
}

pub type Metrics = BTreeMap<String, f64>;

/// The end-to-end run: set up repeatedly (see [`SETUP_REPEATS`]), then one
/// timed phase with tracing off on the workload built last. Times are at
/// reference host speed; the `.raw` entries are as the clock read them.
fn end_to_end(
    name: &str,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> (Box<dyn Workload>, Phase, Metrics) {
    let mut host = HostSpeed::new();
    let (mut setups, mut setups_raw): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut workload = None;
    let (at_least, at_most) = SETUP_REPEATS;
    host.probe_for(SETUP_PROBE_S);
    while setups.len() < at_least
        || (setups.len() < at_most && setups_raw.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        // Every set-up starts from empty buffer pools, whatever the
        // previous one parked there.
        s4tf::tensor::clear_pools();
        let begun_s = host.now_s();
        workload = workloads::build(name, seed, scratch);
        let ended_s = host.now_s();
        host.probe_for(SETUP_PROBE_S);
        setups_raw.push(ended_s - begun_s);
        setups.push(host.reference_seconds(begun_s, ended_s));
    }
    let mut workload = workload.expect("the workload name was checked against this binary");
    let phase = workload.run(seconds, &mut Recorder::off(), &mut host);
    let mut metrics = Metrics::new();
    put(&mut metrics, "setup_s", stats::median(&setups));
    put(&mut metrics, "setup_s.raw", stats::median(&setups_raw));
    put(&mut metrics, "op_ms_p50", stats::median(&phase.op_ref_ms));
    put(&mut metrics, "op_ms_p50.raw", stats::median(&phase.op_ms));
    put(
        &mut metrics,
        "examples_per_s",
        phase.examples as f64 / phase.wall_ref_s,
    );
    put(
        &mut metrics,
        "examples_per_s.raw",
        phase.examples as f64 / phase.wall_s,
    );
    put(
        &mut metrics,
        "peak_heap_mb",
        phase.peak_heap_bytes as f64 / 1e6,
    );
    put(
        &mut metrics,
        "host.slowdown",
        phase.wall_s / phase.wall_ref_s,
    );
    (workload, phase, metrics)
}

pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    metrics.insert(name.to_string(), value);
}

pub fn m_get(metrics: &Metrics, name: &str) -> f64 {
    metrics.get(name).copied().unwrap_or(0.0)
}

/// The value of each metric `wanted` lists; a name the run did not produce
/// is 0 when `default_zero` (a per-layer metric of a layer the workload
/// bypasses), else an error.
fn select(
    metrics: &Metrics,
    wanted: &[Metric],
    default_zero: bool,
) -> Result<Vec<(Metric, f64)>, String> {
    wanted
        .iter()
        .map(|metric| match metrics.get(&metric.name) {
            Some(&value) => Ok((metric.clone(), value)),
            None if default_zero => Ok((metric.clone(), 0.0)),
            None => Err(format!("metric `{}` was not measured", metric.name)),
        })
        .collect()
}

/// One run of one workload: prints the table, writes
/// `benchmark/out/<workload>.json`, and prints the result line last.
fn run_once(root: &Path, config: &Config, args: &Args, name: &str) -> Result<bool, String> {
    let seconds =
        args.seconds.unwrap_or(config.run_seconds as f64) / if args.smoke { 20.0 } else { 1.0 };
    let threads = workloads::kernel_threads(name);
    let cleared = scrub_environment(threads);
    let out_dir = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let started = Instant::now();
    let (workload, phase, metrics) = if args.trace {
        ledger::traced(name, args.seed, seconds, &out_dir)
    } else {
        end_to_end(name, args.seed, seconds, &out_dir)
    };
    let selected = if args.trace {
        select(&metrics, &config.per_layer, true)?
    } else {
        select(&metrics, &config.end_to_end, false)?
    };
    let correct = phase.failed == 0 && phase.attempted > 0;
    let failed_share = phase.failed as f64 / phase.attempted.max(1) as f64;

    let info = provenance(
        root,
        args,
        name,
        seconds,
        &cleared,
        threads,
        workload.describe(),
    );
    drop(workload);
    println!(
        "# {name}  seed {}  {seconds} s  trace {}",
        args.seed,
        u8::from(args.trace)
    );
    for (key, value) in &info {
        let text = serde_json::to_string(value).map_err(|e| e.to_string())?;
        println!("# {key}: {text}");
    }
    println!("{:<36} {:>18}  unit", "metric", "value");
    for (metric, value) in &selected {
        println!("{:<36} {:>18.6}  {}", metric.name, value, metric.unit);
    }
    println!("{:<36} {:>18}  count", "ops_attempted", phase.attempted);
    println!("{:<36} {:>18}  count", "ops_failed", phase.failed);
    println!("{:<36} {:>18.6}  share", "failed_share", failed_share);
    if !args.trace {
        println!(
            "{:<36} {:>18}  count",
            "op_ms_p50.samples",
            phase.op_ms.len()
        );
        for (raw, unit) in [
            ("op_ms_p50.raw", "ms"),
            ("examples_per_s.raw", "1/s"),
            ("setup_s.raw", "s"),
            ("host.slowdown", "x"),
        ] {
            println!("{raw:<36} {:>18.6}  {unit}", m_get(&metrics, raw));
        }
    }
    println!(
        "{:<36} {:>18.3}  s",
        "run_wall_s",
        started.elapsed().as_secs_f64()
    );

    let metric_values = Value::Object(
        selected
            .iter()
            .map(|(metric, value)| {
                let entry = vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::Str(metric.unit.clone())),
                ];
                (metric.name.clone(), Value::Object(entry))
            })
            .collect(),
    );
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(phase.attempted)),
        ("failed".into(), Value::UInt(phase.failed)),
        ("metrics".into(), metric_values),
    ]);
    let mut file = info;
    file.push(("failed_share".into(), Value::Float(failed_share)));
    let others = metrics
        .iter()
        .filter(|(name, _)| selected.iter().all(|(listed, _)| listed.name != **name))
        .map(|(name, value)| (name.clone(), Value::Float(*value)))
        .collect();
    file.push(("not_listed".into(), Value::Object(others)));
    file.push(("result".into(), result.clone()));
    let suffix = if args.trace { ".layers" } else { "" };
    let path = out_dir.join(format!("{name}{suffix}.json"));
    let json = serde_json::to_string_pretty(&Value::Object(file)).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// Runs this binary again with `extra` arguments and returns the metrics
/// of its result line. The child is waited for before returning.
fn child_run(extra: &[String]) -> Result<(bool, Metrics), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(extra)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let value: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "child printed no result line ({e}): {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let mut metrics = Metrics::new();
    if let Some(Value::Object(fields)) = value.get("metrics") {
        for (name, entry) in fields {
            let number = match entry.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(n)) => *n as f64,
                Some(Value::UInt(n)) => *n as f64,
                _ => return Err(format!("metric `{name}` has no numeric value")),
            };
            metrics.insert(name.clone(), number);
        }
    }
    let correct = matches!(value.get("correct"), Some(Value::Bool(true)));
    Ok((correct && output.status.success(), metrics))
}

fn child_args(args: &Args, name: &str, seed: u64) -> Vec<String> {
    let mut extra = vec![
        "--workload".to_string(),
        name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--trace".to_string(),
        u8::from(args.trace).to_string(),
    ];
    if let Some(seconds) = args.seconds {
        extra.extend(["--seconds".to_string(), seconds.to_string()]);
    }
    if args.smoke {
        extra.push("--smoke".to_string());
    }
    extra
}

/// `--repeat N`: N fresh processes, seeds `seed..seed+N`; per metric the
/// median, the quartiles and their spread, against the fixed bound.
fn repeat(config: &Config, args: &Args, name: &str, n: usize) -> Result<bool, String> {
    let mut runs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..n {
        let (correct, metrics) = child_run(&child_args(args, name, args.seed + i as u64))?;
        all_correct &= correct;
        for (metric, value) in metrics {
            runs.entry(metric).or_default().push(value);
        }
        eprintln!(
            "{name}: run {}/{n} {}",
            i + 1,
            if correct { "ok" } else { "INCORRECT" }
        );
    }
    let listed = if args.trace {
        &config.per_layer
    } else {
        &config.end_to_end
    };
    println!(
        "# {name}: {n} runs, seeds {}..{}",
        args.seed,
        args.seed + n as u64
    );
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut within = true;
    for metric in listed {
        let values = runs
            .get(&metric.name)
            .ok_or(format!("no run reported `{}`", metric.name))?;
        let [q1, q2, q3] = stats::quartiles(values);
        let spread = stats::spread(values);
        // The driver exempts set-up time's spread, not its median shift.
        let bounded = !args.smoke && metric.name != "setup_s";
        let verdict = match metric.bound {
            Some(bound) if bounded && spread > bound => {
                within = false;
                "EXCEEDS"
            }
            Some(_) if bounded => "ok",
            _ => "-",
        };
        println!(
            "{:<36} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6}  {verdict}",
            metric.name,
            q1,
            q2,
            q3,
            spread,
            metric.bound.map_or("-".to_string(), |b| b.to_string()),
        );
    }
    Ok(all_correct && within)
}

fn run(args: &Args) -> Result<bool, String> {
    // The command is run from the repository root.
    let root = PathBuf::from(".");
    let config = Config::load(&root.join("BENCHMARK.json"))?;
    let known = |name: &str| config.workloads.iter().any(|(n, _)| n == name);
    match (&args.workload, args.repeat) {
        (Some(name), _) if !known(name) => Err(format!(
            "unknown workload `{name}`; BENCHMARK.json lists: {}",
            config
                .workloads
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
        (Some(name), Some(n)) => repeat(&config, args, name, n),
        (Some(name), None) => run_once(&root, &config, args, name),
        (None, None) if args.smoke => {
            // Thread count and caches are per process: one child each.
            let mut all_correct = true;
            for (name, _) in &config.workloads {
                let begun = Instant::now();
                let (correct, _) = child_run(&child_args(args, name, args.seed))?;
                println!(
                    "{name:<20} {:>6.2} s  {}",
                    begun.elapsed().as_secs_f64(),
                    if correct { "ok" } else { "INCORRECT" }
                );
                all_correct &= correct;
            }
            Ok(all_correct)
        }
        _ => Err("name a workload with --workload (or pass --smoke alone for all)".into()),
    }
}

fn main() -> ExitCode {
    // A cluster run re-executes this binary as its workers.
    s4tf::dist::lenet::worker_main_if_spawned();
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
