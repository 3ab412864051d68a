//! Multi-process chaos scenarios for `s4tf::dist` (`harness = false`:
//! this binary re-execs itself as the worker processes, which the libtest
//! harness would intercept).
//!
//! Six scenarios, each judged against the in-process reference replay
//! ([`s4tf::dist::reference`]) and the sync checkpoint on disk:
//!
//! 1. fault-free 4-worker convergence, bit-identical to single-process;
//! 2. a `kill -9` mid-collective → DropShard expulsion, survivors redo
//!    the step and match the survivors-only baseline bit for bit;
//! 3. a killed worker restarts, rejoins from the sync checkpoint, and the
//!    full run still matches the report-derived schedule bit for bit;
//! 4. injected wire corruption surfaces a typed `RuntimeError` with peer
//!    attribution after bounded retries — never a hang;
//! 5. seeded wire delays on ring links held across steps slow the run
//!    without failing it: no retry, no expulsion, bit-identical;
//! 6. a session with a long heartbeat interval ends when its last step
//!    commits, not when the workers' next heartbeat would have gone out.

use s4tf::dist::cluster::{self, ClusterConfig};
use s4tf::dist::coordinator::ClusterReport;
use s4tf::dist::lenet;
use s4tf::nn::checkpoint::{latest, Checkpoint};
use s4tf::tensor::FaultKind;
use std::path::PathBuf;
use std::time::Instant;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s4tf-dist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Reconstructs which ranks contributed at each committed step from the
/// coordinator's report: expelled ranks stop contributing at their death
/// step (the survivors redid it), rejoined ranks contribute again from
/// their admission step.
fn schedule_from_report(report: &ClusterReport, world: u32) -> Result<Vec<Vec<u32>>, String> {
    let mut schedule = Vec::new();
    for step in 0..report.steps_completed {
        let mut members: Vec<u32> = (0..world)
            .filter(|r| {
                let expelled_at = report
                    .expelled
                    .iter()
                    .filter(|(rank, _)| rank == r)
                    .map(|(_, s)| *s)
                    .max();
                let rejoined_at = report
                    .rejoined
                    .iter()
                    .filter(|(rank, _)| rank == r)
                    .map(|(_, s)| *s)
                    .max();
                match (expelled_at, rejoined_at) {
                    (None, _) => true,
                    (Some(e), None) => step < e,
                    (Some(e), Some(j)) => step < e || step >= j,
                }
            })
            .collect();
        members.sort_unstable();
        let recorded = report.steps[step as usize].survivors as usize;
        if members.len() != recorded {
            return Err(format!(
                "step {step}: derived {} members {members:?}, report says {recorded}",
                members.len()
            ));
        }
        schedule.push(members);
    }
    Ok(schedule)
}

/// Runs the reference replay for `report`'s schedule and checks the
/// multi-process run against it bit for bit: per-step mean losses and the
/// final sync checkpoint's serialized parameters.
fn assert_bit_identical(
    report: &ClusterReport,
    cfg: &ClusterConfig,
    label: &str,
) -> Result<(), String> {
    let schedule = schedule_from_report(report, cfg.world)?;
    let (ref_losses, ref_model, _device) = lenet::lenet_reference(
        &schedule,
        cfg.shard_batch,
        cfg.learning_rate,
        cfg.seed,
        cfg.data_seed,
        cfg.bucket_bytes,
    )
    .map_err(|e| format!("{label}: reference replay failed: {e}"))?;

    for (i, rec) in report.steps.iter().enumerate() {
        if rec.loss.to_bits() != ref_losses[i].to_bits() {
            return Err(format!(
                "{label}: step {i} loss diverged: cluster {} vs reference {} (schedule {:?})",
                rec.loss, ref_losses[i], schedule[i]
            ));
        }
    }

    let ckpt_path = latest(&report.ckpt_dir)
        .map_err(|e| format!("{label}: {e}"))?
        .ok_or_else(|| {
            format!(
                "{label}: no sync checkpoint in {}",
                report.ckpt_dir.display()
            )
        })?;
    let ckpt = Checkpoint::load(&ckpt_path).map_err(|e| format!("{label}: {e}"))?;
    if ckpt.step != report.steps_completed {
        return Err(format!(
            "{label}: final checkpoint at step {}, expected {}",
            ckpt.step, report.steps_completed
        ));
    }
    let ref_ckpt = Checkpoint::from_model(report.steps_completed, &ref_model)
        .map_err(|e| format!("{label}: {e}"))?;
    if ckpt.to_bytes() != ref_ckpt.to_bytes() {
        return Err(format!(
            "{label}: final model bits diverge from the reference replay (schedule {schedule:?})"
        ));
    }
    Ok(())
}

/// Scenario 1: 4 workers, no faults — bit-identical to single-process.
fn fault_free_bit_identical() -> Result<(), String> {
    let dir = scratch_dir("fault-free");
    let cfg = ClusterConfig::new(4, 3, dir.clone());
    let report = cluster::run(&cfg).map_err(|e| format!("cluster failed: {e}"))?;
    if report.steps_completed != 3 {
        return Err(format!("completed {} of 3 steps", report.steps_completed));
    }
    if !report.expelled.is_empty() || report.retries != 0 {
        return Err(format!(
            "unexpected faults: expelled {:?}, {} retries",
            report.expelled, report.retries
        ));
    }
    assert_bit_identical(&report, &cfg, "fault-free")?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Scenario 2: `kill -9` mid-collective → DropShard expulsion; survivors
/// redo the step and match the survivors-only baseline.
fn dropshard_survives_kill() -> Result<(), String> {
    let dir = scratch_dir("dropshard");
    let mut cfg = ClusterConfig::new(4, 4, dir.clone());
    cfg.abort = Some((2, 1, "midring".to_string()));
    let report = cluster::run(&cfg).map_err(|e| format!("cluster failed: {e}"))?;
    if report.steps_completed != 4 {
        return Err(format!("completed {} of 4 steps", report.steps_completed));
    }
    if report.expelled.iter().map(|(r, _)| *r).collect::<Vec<_>>() != vec![2] {
        return Err(format!(
            "expected rank 2 expelled, got {:?}",
            report.expelled
        ));
    }
    if report.survivors != vec![0, 1, 3] {
        return Err(format!(
            "expected survivors [0,1,3], got {:?}",
            report.survivors
        ));
    }
    let renormalized = report.steps.last().map(|s| s.survivors);
    if renormalized != Some(3) {
        return Err(format!(
            "final step should renormalize over 3 shards, got {renormalized:?}"
        ));
    }
    assert_bit_identical(&report, &cfg, "dropshard")?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Scenario 3: the killed worker restarts, rejoins from the sync
/// checkpoint at a commit boundary, and the whole run is bit-identical to
/// the report-derived schedule.
fn checkpoint_rejoin_bit_identical() -> Result<(), String> {
    let dir = scratch_dir("rejoin");
    let mut cfg = ClusterConfig::new(4, 10, dir.clone());
    cfg.abort = Some((3, 2, "precommit".to_string()));
    cfg.restart_ms = Some(0);
    let report = cluster::run(&cfg).map_err(|e| format!("cluster failed: {e}"))?;
    if report.steps_completed != 10 {
        return Err(format!("completed {} of 10 steps", report.steps_completed));
    }
    if !report.expelled.iter().any(|(r, _)| *r == 3) {
        return Err(format!(
            "expected rank 3 expelled, got {:?}",
            report.expelled
        ));
    }
    let Some((_, admitted_at)) = report.rejoined.iter().find(|(r, _)| *r == 3) else {
        return Err(format!(
            "rank 3 never rejoined (rejoined: {:?}, expelled: {:?})",
            report.rejoined, report.expelled
        ));
    };
    if report.survivors != vec![0, 1, 2, 3] {
        return Err(format!(
            "expected all four ranks active at the end, got {:?}",
            report.survivors
        ));
    }
    let back = report.steps[*admitted_at as usize].survivors;
    if back != 4 {
        return Err(format!(
            "step {admitted_at} after rejoin should have 4 shards, got {back}"
        ));
    }
    assert_bit_identical(&report, &cfg, "rejoin")?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Scenario 4: injected wire corruption on every frame → a typed net
/// error with peer attribution after bounded retries, not a hang.
fn wire_corruption_is_typed_and_bounded() -> Result<(), String> {
    let dir = scratch_dir("corrupt");
    let mut cfg = ClusterConfig::new(2, 2, dir.clone());
    cfg.fault_spec = Some("net:1:9".to_string());
    cfg.net_mode = Some("corrupt".to_string());
    cfg.max_retries = 2;
    cfg.timeout_ms = 1500;
    cfg.deadline_ms = 60_000;
    let started = Instant::now();
    let result = cluster::run(&cfg);
    let elapsed = started.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    let err = match result {
        Ok(report) => {
            return Err(format!(
                "run should fail under total corruption, but completed {} steps",
                report.steps_completed
            ))
        }
        Err(e) => e,
    };
    if err.kind != FaultKind::Net {
        return Err(format!(
            "expected FaultKind::Net, got {:?}: {err}",
            err.kind
        ));
    }
    let msg = err.to_string();
    if !msg.contains("peer rank") {
        return Err(format!("error lacks peer attribution: {msg}"));
    }
    if elapsed.as_millis() as u64 >= cfg.deadline_ms {
        return Err(format!(
            "failure took {}ms — not bounded below the {}ms deadline",
            elapsed.as_millis(),
            cfg.deadline_ms
        ));
    }
    Ok(())
}

/// Scenario 5: 2 workers x 12 steps under seeded `delay` wire faults.
/// Links are held from one committed step to the next and every
/// collective restarts its links' fault streams, so the same frames of
/// every step stall on held links; the run must still finish with no
/// retry and no expulsion, bit-identical to the reference replay.
fn delays_on_held_links_are_survived() -> Result<(), String> {
    let dir = scratch_dir("held-delay");
    let mut cfg = ClusterConfig::new(2, 12, dir.clone());
    cfg.fault_spec = Some("net:0.1:23".to_string());
    cfg.net_mode = Some("delay".to_string());
    let report = cluster::run(&cfg).map_err(|e| format!("cluster failed: {e}"))?;
    if report.steps_completed != 12 {
        return Err(format!("completed {} of 12 steps", report.steps_completed));
    }
    if !report.expelled.is_empty() || report.retries != 0 {
        return Err(format!(
            "delays must not fail a collective: expelled {:?}, {} retries",
            report.expelled, report.retries
        ));
    }
    let delay_us = s4tf::dist::faults::NET_DELAY_MS * 1000;
    let delayed = report
        .steps
        .iter()
        .filter(|s| s.allreduce_us >= delay_us)
        .count();
    if delayed != report.steps.len() {
        return Err(format!(
            "the seeded spec should stall a frame of every step, but {delayed} of {} \
             all-reduces took {} ms or more",
            report.steps.len(),
            delay_us / 1000
        ));
    }
    assert_bit_identical(&report, &cfg, "held-delay")?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Scenario 6: 2 workers x 4 steps with a 2 s heartbeat interval. The
/// steps take milliseconds, so a worker whose exit waited for its
/// heartbeat thread's next wake-up would hold the launcher's reap for
/// most of 2 s; the teardown must instead follow the last commit at once,
/// and the run stay bit-identical.
fn sessions_end_when_their_last_step_commits() -> Result<(), String> {
    let dir = scratch_dir("teardown");
    let mut cfg = ClusterConfig::new(2, 4, dir.clone());
    cfg.heartbeat_ms = 2_000;
    cfg.timeout_ms = 10_000;
    let report = cluster::run(&cfg).map_err(|e| format!("cluster failed: {e}"))?;
    if report.steps_completed != 4 {
        return Err(format!("completed {} of 4 steps", report.steps_completed));
    }
    let teardown_ms = report.teardown_us / 1000;
    if teardown_ms >= 500 {
        return Err(format!(
            "teardown took {teardown_ms} ms after the last commit (heartbeat {} ms)",
            cfg.heartbeat_ms
        ));
    }
    assert_bit_identical(&report, &cfg, "teardown")?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn main() {
    // Worker role: the launcher re-execs this binary with
    // S4TF_DIST_WORKER set; everything below is launcher-only.
    lenet::worker_main_if_spawned();
    // The in-process reference must see the same determinism knobs the
    // launcher forces on the workers.
    std::env::set_var("S4TF_NUM_THREADS", "1");

    type Scenario = fn() -> Result<(), String>;
    let scenarios: [(&str, Scenario); 6] = [
        ("fault_free_bit_identical", fault_free_bit_identical),
        ("dropshard_survives_kill", dropshard_survives_kill),
        (
            "checkpoint_rejoin_bit_identical",
            checkpoint_rejoin_bit_identical,
        ),
        (
            "wire_corruption_is_typed_and_bounded",
            wire_corruption_is_typed_and_bounded,
        ),
        (
            "delays_on_held_links_are_survived",
            delays_on_held_links_are_survived,
        ),
        (
            "sessions_end_when_their_last_step_commits",
            sessions_end_when_their_last_step_commits,
        ),
    ];

    let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
    let mut failures = 0;
    let mut ran = 0;
    for (name, scenario) in scenarios {
        if let Some(f) = &filter {
            if !name.contains(f.as_str()) {
                continue;
            }
        }
        ran += 1;
        let started = Instant::now();
        match scenario() {
            Ok(()) => println!(
                "test distributed::{name} ... ok ({:.1}s)",
                started.elapsed().as_secs_f64()
            ),
            Err(msg) => {
                failures += 1;
                println!("test distributed::{name} ... FAILED\n    {msg}");
            }
        }
    }
    println!(
        "\ntest result: {}. {} passed; {failures} failed",
        if failures == 0 { "ok" } else { "FAILED" },
        ran - failures
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
