//! Distributed-runtime benchmark: LeNet data-parallel training at 1, 2,
//! and 4 worker processes, writing measured step-time quantiles and ring
//! all-reduce throughput to `BENCH_dist.json` — the *measured* column
//! next to `runtime::sim::cluster`'s analytic prediction (EXPERIMENTS.md
//! table1).
//!
//! ```sh
//! cargo run -p s4tf-bench --release --bin dist            # 100 steps each
//! cargo run -p s4tf-bench --release --bin dist -- --smoke # CI smoke, 4 each
//! ```
//!
//! `--out PATH` overrides the output path. The first step of each run is
//! excluded from the quantiles as warm-up (worker spawn + first ring
//! establishment are setup cost, not steady state). Full mode runs 100
//! steps per worker count: at 16, three runs of the same build on a
//! 2-core x86_64 host read the 1-worker p50 at 1.20, 1.77 and 1.82 ms.

use s4tf_bench::harness::machine_value;
use s4tf_dist::{lenet, ClusterConfig};
use s4tf_runtime::sim::cluster::ClusterModel;
use serde::Value;

const WORLDS: [u32; 3] = [1, 2, 4];

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

struct WorldResult {
    workers: u32,
    steps: u64,
    step_ms_p50: f64,
    step_ms_p99: f64,
    allreduce_ms_p50: f64,
    ring_gbps: f64,
    tx_bytes_per_step: f64,
    final_loss: f64,
}

fn run_world(world: u32, steps: u64) -> WorldResult {
    let ckpt_dir =
        std::env::temp_dir().join(format!("s4tf-dist-bench-{world}w-{}", std::process::id()));
    let cfg = ClusterConfig::new(world, steps, ckpt_dir.clone());
    let report = match s4tf_dist::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            eprintln!("dist bench: {world}-worker run failed: {e}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // Steady state only: the first step carries worker spawn + first ring
    // establishment.
    let steady: Vec<_> = report.steps.iter().skip(1).collect();
    let mut step_ms: Vec<f64> = steady.iter().map(|r| r.step_us as f64 / 1e3).collect();
    step_ms.sort_by(|a, b| a.total_cmp(b));
    let mut allreduce_ms: Vec<f64> = steady.iter().map(|r| r.allreduce_us as f64 / 1e3).collect();
    allreduce_ms.sort_by(|a, b| a.total_cmp(b));
    let tx_per_step =
        steady.iter().map(|r| r.tx_bytes as f64).sum::<f64>() / steady.len().max(1) as f64;
    let allreduce_s_mean = steady
        .iter()
        .map(|r| r.allreduce_us as f64 / 1e6)
        .sum::<f64>()
        / steady.len().max(1) as f64;
    // Aggregate ring throughput: every link's bytes per step over the
    // slowest member's collective time.
    let ring_gbps = if allreduce_s_mean > 0.0 {
        tx_per_step / allreduce_s_mean / 1e9
    } else {
        0.0
    };

    WorldResult {
        workers: world,
        steps: report.steps_completed,
        step_ms_p50: percentile(&step_ms, 0.5),
        step_ms_p99: percentile(&step_ms, 0.99),
        allreduce_ms_p50: percentile(&allreduce_ms, 0.5),
        ring_gbps,
        tx_bytes_per_step: tx_per_step,
        final_loss: report.final_loss,
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    // This binary is also the worker executable: the launcher re-execs it
    // with S4TF_DIST_WORKER set.
    lenet::worker_main_if_spawned();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dist.json".to_string());
    let steps = if smoke { 4 } else { 100 };

    println!(
        "dist bench: LeNet data-parallel, worker counts {WORLDS:?}, {steps} steps each{}",
        if smoke { ", smoke" } else { "" }
    );

    let runs: Vec<WorldResult> = WORLDS.iter().map(|&w| run_world(w, steps)).collect();

    // Analytic prediction (EXPERIMENTS.md table1): per-core compute from
    // the 1-worker measurement; gradient bytes recovered from the ring's
    // own accounting (a k-ring moves 2·(k−1)·grad_bytes per step).
    let compute_s = runs[0].step_ms_p50 / 1e3;
    let grad_bytes = runs
        .iter()
        .find(|r| r.workers > 1)
        .map(|r| r.tx_bytes_per_step / (2.0 * (r.workers - 1) as f64))
        .unwrap_or(0.0);

    let mut results = Vec::new();
    for r in &runs {
        let model = ClusterModel::loopback_tcp(r.workers as usize);
        let gap = model.predicted_vs_measured(compute_s, grad_bytes, r.step_ms_p50 / 1e3);
        println!(
            "  {} worker(s): step p50 {:>8.2} ms  p99 {:>8.2} ms  allreduce p50 {:>7.2} ms  \
             ring {:>6.3} GB/s  predicted {:>8.2} ms ({:.2}x)",
            r.workers,
            r.step_ms_p50,
            r.step_ms_p99,
            r.allreduce_ms_p50,
            r.ring_gbps,
            gap.predicted * 1e3,
            gap.ratio,
        );
        results.push(obj(vec![
            ("case", Value::Str(format!("lenet_{}w", r.workers))),
            ("workers", Value::UInt(u64::from(r.workers))),
            ("steps", Value::UInt(r.steps)),
            ("step_ms_p50", Value::Float(r.step_ms_p50)),
            ("step_ms_p99", Value::Float(r.step_ms_p99)),
            ("allreduce_ms_p50", Value::Float(r.allreduce_ms_p50)),
            ("ring_gbps", Value::Float(r.ring_gbps)),
            ("tx_bytes_per_step", Value::Float(r.tx_bytes_per_step)),
            ("final_loss", Value::Float(r.final_loss)),
            ("predicted_step_ms", Value::Float(gap.predicted * 1e3)),
            ("measured_over_predicted", Value::Float(gap.ratio)),
        ]));
    }

    let report = obj(vec![
        ("bench", Value::Str("dist".to_string())),
        ("smoke", Value::Bool(smoke)),
        ("model", Value::Str("lenet".to_string())),
        ("steps", Value::UInt(steps)),
        ("grad_bytes_estimate", Value::Float(grad_bytes)),
        ("machine", machine_value()),
        ("results", Value::Array(results)),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Err(e) = std::fs::write(&out_path, json.as_bytes()) {
        eprintln!("dist bench: writing {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} bytes)", json.len());
}
