//! Multi-process data-parallel LeNet over local TCP — the `s4tf::dist`
//! cookbook entry.
//!
//! ```sh
//! cargo run --release --example dist_lenet                  # 4 workers, 6 steps
//! cargo run --release --example dist_lenet -- --workers 2 --steps 3
//! cargo run --release --example dist_lenet -- --chaos       # kill -9 + rejoin
//! ```
//!
//! `--chaos` plants a deterministic `kill -9` in the highest rank mid-step
//! and restarts it, so one run demonstrates the whole robustness story:
//! the DropShard degradation line, survivors-only renormalization, and
//! checkpoint rejoin. Wire faults come from the environment, e.g.
//! `S4TF_FAULT_SPEC=net:0.05:17 S4TF_DIST_NET_MODE=delay` for seeded
//! straggler injection (workers inherit the spec).

use s4tf::dist::{self, ClusterConfig};

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    // When the launcher re-execs this binary as a worker, the entire
    // worker lifecycle runs (and exits) here.
    dist::lenet::worker_main_if_spawned();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = arg_value(&args, "--workers").unwrap_or(4) as u32;
    let steps = arg_value(&args, "--steps").unwrap_or(6);
    let chaos = args.iter().any(|a| a == "--chaos");

    let ckpt_dir = std::env::temp_dir().join(format!("s4tf-dist-lenet-{}", std::process::id()));
    let mut cfg = ClusterConfig::new(workers, steps, ckpt_dir.clone());
    if chaos {
        // Kill the highest rank mid-collective on step 1, then let the
        // supervisor restart it so it rejoins from the sync checkpoint.
        cfg.abort = Some((workers - 1, 1, "midring".to_string()));
        cfg.restart_ms = Some(0);
    }

    println!(
        "dist_lenet: {workers} worker processes x {steps} steps{}",
        if chaos {
            ", chaos: kill -9 + rejoin"
        } else {
            ""
        }
    );
    let report = match dist::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            eprintln!("dist_lenet: cluster failed: {e}");
            std::process::exit(1);
        }
    };

    for rec in &report.steps {
        println!(
            "  step {:>3}  loss {:.6}  shards {}  step {:>7} us  allreduce {:>7} us  ring tx {} B",
            rec.step, rec.loss, rec.survivors, rec.step_us, rec.allreduce_us, rec.tx_bytes
        );
    }
    println!(
        "completed {} steps, final loss {:.6}, survivors {:?}, {} retries",
        report.steps_completed, report.final_loss, report.survivors, report.retries
    );
    let ms = |us: u64| us as f64 / 1e3;
    println!(
        "launch: spawn {:.1} ms, register {:.1} ms, teardown {:.1} ms",
        ms(report.spawn_us),
        ms(report.register_us),
        ms(report.teardown_us)
    );
    for (rank, step) in &report.expelled {
        println!("  expelled: rank {rank} at step {step}");
    }
    for (rank, step) in &report.rejoined {
        println!("  rejoined: rank {rank} at step {step} (from sync checkpoint)");
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
