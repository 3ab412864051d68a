//! The launcher: spawns worker processes, supervises them, and runs the
//! coordinator to completion.
//!
//! Workers are this very executable re-exec'd with `S4TF_DIST_WORKER` set
//! to the encoded [`WorkerEnv`]: the launcher's whole [`ClusterConfig`]
//! plus the child's rank and the control port, one value the worker
//! parses strictly. The hosting binary (test, example, or bench) checks
//! [`crate::worker::is_worker_process`] first thing in `main` and branches
//! into its worker entry point, so one artifact plays both roles.
//!
//! A session's start and stop are event-driven: the supervisor waits
//! between rounds (and before a respawn) on a channel that teardown
//! closes, and the reap polls each child with a back-off that starts at
//! 1 ms, so a run returns a few milliseconds after its workers exit.
//! [`ClusterReport`]'s `spawn_us`, `register_us` and `teardown_us` time
//! the spawn, the registration and the teardown around the steps.
//!
//! Chaos hooks: [`ClusterConfig::abort`] plants a deterministic
//! `kill -9`-style death in one worker, and [`ClusterConfig::restart_ms`]
//! makes the supervisor respawn a dead worker once — with `abort: None`
//! encoded — so it registers again and exercises the checkpoint rejoin
//! path.

use crate::coordinator::{self, ClusterReport};
use crate::wire::{PayloadReader, PayloadWriter};
use crate::worker::WorkerEnv;
use s4tf_nn::FaultPolicy;
use s4tf_tensor::RuntimeError;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a cluster run needs. Each worker receives the whole value
/// (see [`WorkerEnv`]), so launcher and workers cannot disagree on a field.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Initial number of workers.
    pub world: u32,
    /// Steps to train.
    pub steps: u64,
    /// Examples per shard per step.
    pub shard_batch: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Model-init seed (identical on every worker).
    pub seed: u64,
    /// Base seed for shard data (mixed with each worker's rank).
    pub data_seed: u64,
    /// All-reduce bucket size in bytes.
    pub bucket_bytes: usize,
    /// Worker heartbeat interval, milliseconds.
    pub heartbeat_ms: u64,
    /// Straggler timeout (ring + control silence), milliseconds.
    pub timeout_ms: u64,
    /// Whole-run deadline, milliseconds: no code path outlives it.
    pub deadline_ms: u64,
    /// Collective retries per step before the run fails.
    pub max_retries: u32,
    /// Directory for sync checkpoints; created if missing.
    pub ckpt_dir: PathBuf,
    /// Reaction to a worker death: `DropShard` expels and renormalizes,
    /// `FailFast` aborts the run. (`Retry` is treated like `DropShard`.)
    pub fault_policy: FaultPolicy,
    /// Deterministic chaos: `(rank, step, phase)` makes that worker die a
    /// `kill -9` death at the step, with phase `midring` or `precommit`.
    pub abort: Option<(u32, u64, String)>,
    /// When set, the supervisor respawns a dead worker once after this
    /// many milliseconds (with `abort: None`), exercising rejoin.
    pub restart_ms: Option<u64>,
    /// `S4TF_FAULT_SPEC` for the workers (e.g. `net:0.01:seed=7`), on top
    /// of whatever the parent environment carries.
    pub fault_spec: Option<String>,
    /// Forces the injected wire-fault mode (`S4TF_DIST_NET_MODE`).
    pub net_mode: Option<String>,
}

impl ClusterConfig {
    /// A config with robust defaults for `world` workers × `steps` steps,
    /// checkpointing into `ckpt_dir`.
    pub fn new(world: u32, steps: u64, ckpt_dir: PathBuf) -> ClusterConfig {
        ClusterConfig {
            world,
            steps,
            shard_batch: 8,
            learning_rate: 0.05,
            seed: 7,
            data_seed: 11,
            bucket_bytes: 64 * 1024,
            heartbeat_ms: 200,
            timeout_ms: 3000,
            deadline_ms: 120_000,
            max_retries: 8,
            ckpt_dir,
            fault_policy: FaultPolicy::DropShard,
            abort: None,
            restart_ms: None,
            fault_spec: None,
            net_mode: None,
        }
    }

    /// Appends every field to `w`, in declaration order.
    pub(crate) fn write(&self, w: &mut PayloadWriter) -> Result<(), RuntimeError> {
        let opt_str = |w: &mut PayloadWriter, v: &Option<String>| {
            w.u16(u16::from(v.is_some()));
            w.str(v.as_deref().unwrap_or(""));
        };
        w.u32(self.world);
        w.u64(self.steps);
        w.u64(self.shard_batch as u64);
        w.f64(self.learning_rate);
        w.u64(self.seed);
        w.u64(self.data_seed);
        w.u64(self.bucket_bytes as u64);
        w.u64(self.heartbeat_ms);
        w.u64(self.timeout_ms);
        w.u64(self.deadline_ms);
        w.u32(self.max_retries);
        w.str(self.ckpt_dir.to_str().ok_or_else(|| {
            net_err(
                "dist.spawn",
                format!("ckpt_dir {} is not UTF-8", self.ckpt_dir.display()),
            )
        })?);
        let (tag, retries) = match self.fault_policy {
            FaultPolicy::FailFast => (0, 0),
            FaultPolicy::DropShard => (1, 0),
            FaultPolicy::Retry(n) => (2, n),
        };
        w.u16(tag);
        w.u32(retries);
        let (rank, step, phase) = self.abort.clone().unwrap_or_default();
        w.u16(u16::from(self.abort.is_some()));
        w.u32(rank);
        w.u64(step);
        w.str(&phase);
        w.u16(u16::from(self.restart_ms.is_some()));
        w.u64(self.restart_ms.unwrap_or(0));
        opt_str(w, &self.fault_spec);
        opt_str(w, &self.net_mode);
        Ok(())
    }

    /// Reads what [`write`](ClusterConfig::write) wrote. A short payload
    /// or an unknown tag is an error; no field has a fallback value.
    pub(crate) fn read(r: &mut PayloadReader<'_>) -> Result<ClusterConfig, RuntimeError> {
        fn present(r: &mut PayloadReader<'_>) -> Result<bool, RuntimeError> {
            match r.u16()? {
                0 => Ok(false),
                1 => Ok(true),
                tag => Err(net_err("dist.worker", format!("bad presence tag {tag}"))),
            }
        }
        fn opt_str(r: &mut PayloadReader<'_>) -> Result<Option<String>, RuntimeError> {
            let (some, value) = (present(r)?, r.str()?);
            Ok(some.then_some(value))
        }
        Ok(ClusterConfig {
            world: r.u32()?,
            steps: r.u64()?,
            shard_batch: r.u64()? as usize,
            learning_rate: r.f64()?,
            seed: r.u64()?,
            data_seed: r.u64()?,
            bucket_bytes: r.u64()? as usize,
            heartbeat_ms: r.u64()?,
            timeout_ms: r.u64()?,
            deadline_ms: r.u64()?,
            max_retries: r.u32()?,
            ckpt_dir: PathBuf::from(r.str()?),
            fault_policy: match (r.u16()?, r.u32()?) {
                (0, _) => FaultPolicy::FailFast,
                (1, _) => FaultPolicy::DropShard,
                (2, n) => FaultPolicy::Retry(n),
                (tag, _) => return Err(net_err("dist.worker", format!("bad policy tag {tag}"))),
            },
            abort: {
                let (some, value) = (present(r)?, (r.u32()?, r.u64()?, r.str()?));
                some.then_some(value)
            },
            restart_ms: {
                let (some, value) = (present(r)?, r.u64()?);
                some.then_some(value)
            },
            fault_spec: opt_str(r)?,
            net_mode: opt_str(r)?,
        })
    }
}

fn net_err(op: &'static str, msg: impl Into<String>) -> RuntimeError {
    RuntimeError::net(op, None, msg.into())
}

/// Builds the child command for one worker rank from `cfg` as given: a
/// restart passes a copy with `abort: None` so the rejoined incarnation
/// lives.
fn worker_command(
    cfg: &ClusterConfig,
    coord_port: u16,
    rank: u32,
) -> Result<Command, RuntimeError> {
    let exe = std::env::current_exe()
        .map_err(|e| net_err("dist.spawn", format!("current_exe failed: {e}")))?;
    let env = WorkerEnv {
        rank,
        coord_port,
        cfg: cfg.clone(),
    };
    let mut cmd = Command::new(exe);
    cmd.env(crate::worker::WORKER_VAR, env.encode()?)
        // Bit-determinism across process shapes: one compute thread.
        .env("S4TF_NUM_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit());
    if let Some(spec) = &cfg.fault_spec {
        cmd.env("S4TF_FAULT_SPEC", spec);
    }
    if let Some(mode) = &cfg.net_mode {
        cmd.env("S4TF_DIST_NET_MODE", mode);
    }
    Ok(cmd)
}

/// Launches `cfg.world` workers, drives the coordinator to completion,
/// and reaps every child before returning. The supervisor thread restarts
/// dead workers when [`ClusterConfig::restart_ms`] asks for it. The
/// report's `spawn_us`, `register_us` and `teardown_us` time the launch
/// around its steps (see [`ClusterReport`]).
pub fn run(cfg: &ClusterConfig) -> Result<ClusterReport, RuntimeError> {
    let launched = Instant::now();
    if cfg.world == 0 || cfg.steps == 0 {
        return Err(net_err("dist.run", "world and steps must both be nonzero"));
    }
    std::fs::create_dir_all(&cfg.ckpt_dir).map_err(|e| {
        net_err(
            "dist.run",
            format!("creating {}: {e}", cfg.ckpt_dir.display()),
        )
    })?;
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| net_err("dist.run", format!("binding control listener: {e}")))?;
    let coord_port = listener
        .local_addr()
        .map_err(|e| net_err("dist.run", e.to_string()))?
        .port();

    let children: Arc<Mutex<Vec<(u32, Child)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let mut kids = children.lock().expect("fresh mutex");
        for rank in 0..cfg.world {
            let child = worker_command(cfg, coord_port, rank)?
                .spawn()
                .map_err(|e| net_err("dist.spawn", format!("spawning rank {rank}: {e}")))?;
            kids.push((rank, child));
        }
    }
    let spawn_us = launched.elapsed().as_micros() as u64;

    // Supervisor: reap exits; optionally respawn each dead rank once. It
    // waits on `woken` between rounds and before a respawn; teardown drops
    // `wake`, which ends any wait (and the thread) at once.
    let (wake, woken) = mpsc::channel::<()>();
    let supervisor = {
        let children = Arc::clone(&children);
        let cfg = ClusterConfig {
            abort: None,
            ..cfg.clone()
        };
        std::thread::spawn(move || {
            let stopped = |ms: u64| {
                !matches!(
                    woken.recv_timeout(Duration::from_millis(ms)),
                    Err(mpsc::RecvTimeoutError::Timeout)
                )
            };
            let mut restarted: Vec<u32> = Vec::new();
            while !stopped(25) {
                let mut respawn: Vec<u32> = Vec::new();
                {
                    let Ok(mut kids) = children.lock() else { break };
                    kids.retain_mut(|(rank, child)| match child.try_wait() {
                        Ok(Some(_status)) => {
                            if cfg.restart_ms.is_some() && !restarted.contains(rank) {
                                respawn.push(*rank);
                            }
                            false
                        }
                        Ok(None) => true,
                        Err(_) => true,
                    });
                }
                for rank in respawn {
                    restarted.push(rank);
                    if stopped(cfg.restart_ms.unwrap_or(0)) {
                        return;
                    }
                    let Ok(mut cmd) = worker_command(&cfg, coord_port, rank) else {
                        continue;
                    };
                    if let Ok(child) = cmd.spawn() {
                        if let Ok(mut kids) = children.lock() {
                            kids.push((rank, child));
                        }
                    }
                }
            }
        })
    };

    let result = coordinator::run(cfg, listener, launched);

    // Tear down: stop the supervisor, give workers a grace window to act
    // on their Shutdown message, then force-kill stragglers and reap. The
    // polls back off from 1 ms: a worker exits within a few ms of its
    // Shutdown, so a fixed 25 ms poll would mostly wait on itself.
    drop(wake);
    let _ = supervisor.join();
    let grace = Instant::now() + Duration::from_millis(2000);
    let mut poll = Duration::from_millis(1);
    loop {
        let alive = {
            let Ok(mut kids) = children.lock() else { break };
            kids.retain_mut(|(_rank, child)| !matches!(child.try_wait(), Ok(Some(_))));
            !kids.is_empty()
        };
        if !alive || Instant::now() >= grace {
            break;
        }
        std::thread::sleep(poll);
        poll = (poll * 2).min(Duration::from_millis(25));
    }
    if let Ok(mut kids) = children.lock() {
        for (_rank, child) in kids.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        kids.clear();
    }
    let (mut report, last_commit) = result?;
    report.spawn_us = spawn_us;
    report.teardown_us = last_commit.elapsed().as_micros() as u64;
    Ok(report)
}
