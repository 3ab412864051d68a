//! The cluster coordinator: membership, failure detection, two-phase step
//! commit, retries, and rejoin admission.
//!
//! The coordinator runs in the launcher process. Workers dial its control
//! listener, `Register`, and are driven step by step:
//!
//! 1. a `View` names the active members; workers build the ring from it;
//! 2. every member reports `StepDone` for (step, attempt) → the
//!    coordinator broadcasts `Commit` and only then do workers apply the
//!    averaged update (two-phase: a worker that dies mid-collective can
//!    never leave survivors half-applied);
//! 3. any `CollectiveFailed` triggers a bounded, backoff-spaced `Retry`
//!    of the same step under the same view;
//! 4. a dead worker (control EOF or straggler timeout) is expelled under
//!    [`FaultPolicy::DropShard`]: the coordinator logs the degradation,
//!    bumps the epoch, and re-issues the step to the survivors, whose
//!    update renormalizes by the survivor count;
//! 5. a `Register` from a restarted worker is parked until the next
//!    commit boundary, where `Commit { then_sync: true }` makes the
//!    lowest active rank save a sync checkpoint; the rejoiner loads it
//!    and enters the next `View` bit-identical to the others. While the
//!    launcher restarts an expelled rank, the next commit waits for its
//!    `Register` (bounded), so the rejoin does not race the run's end.
//!
//! Every wait is bounded: reader threads impose the straggler timeout on
//! worker silence, and the run as a whole has a deadline.

use crate::cluster::ClusterConfig;
use crate::protocol::{control_nodelay, Control, Member};
use crate::wire::{read_frame, write_encoded, Frame};
use s4tf_nn::FaultPolicy;
use s4tf_tensor::RuntimeError;
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What happened to one committed step, as seen by the coordinator.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Step index.
    pub step: u64,
    /// Membership epoch the commit happened under.
    pub epoch: u32,
    /// Number of shards that contributed to the reduced gradient.
    pub survivors: u32,
    /// Mean shard loss across survivors.
    pub loss: f64,
    /// Wall time of the step at the coordinator, microseconds.
    pub step_us: u64,
    /// Slowest member's all-reduce time, microseconds.
    pub allreduce_us: u64,
    /// Total ring bytes sent by all members for the step.
    pub tx_bytes: u64,
}

/// Outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Steps committed (equals the configured step count on success).
    pub steps_completed: u64,
    /// Mean survivor loss of the final committed step.
    pub final_loss: f64,
    /// Per-committed-step records, in order.
    pub steps: Vec<StepRecord>,
    /// Ranks expelled under `DropShard`, with the step they died on.
    pub expelled: Vec<(u32, u64)>,
    /// Ranks readmitted after a restart, with their admission step.
    pub rejoined: Vec<(u32, u64)>,
    /// Total collective retries across the run.
    pub retries: u64,
    /// Ranks active at the end of the run.
    pub survivors: Vec<u32>,
    /// Directory holding the final sync checkpoint.
    pub ckpt_dir: PathBuf,
    /// Launcher time from [`crate::cluster::run`]'s entry to the last
    /// worker process spawned, microseconds.
    pub spawn_us: u64,
    /// Launcher time from `run`'s entry to the whole initial world
    /// registered, microseconds (includes `spawn_us`).
    pub register_us: u64,
    /// Launcher time from the last step's `Commit` to every worker
    /// process reaped, microseconds: the final sync checkpoint, the
    /// `Shutdown` and the workers' exits.
    pub teardown_us: u64,
}

enum Event {
    /// A new control connection finished its `Register` handshake.
    Connected {
        stream: TcpStream,
        frame: Frame,
        data_port: u16,
    },
    /// A registered worker sent a control message.
    Msg {
        rank: u32,
        frame: Frame,
        ctrl: Control,
    },
    /// A registered worker's control connection died or went silent.
    Gone { rank: u32, error: RuntimeError },
}

struct WorkerConn {
    stream: TcpStream,
    data_port: u16,
    /// `StepDone` metrics for the current (step, attempt), if reported.
    done: Option<(f64, u64, u64)>,
}

/// Runs the control plane to completion. `listener` must already be
/// bound; workers are expected to dial it and `Register`. `launched` is
/// when the launcher began: the report's `register_us` runs from it.
/// Returns the report and the instant the last step committed, from which
/// the launcher times its teardown.
pub fn run(
    cfg: &ClusterConfig,
    listener: TcpListener,
    launched: Instant,
) -> Result<(ClusterReport, Instant), RuntimeError> {
    let mut span = s4tf_profile::span("dist.coordinator");
    let deadline = Instant::now() + Duration::from_millis(cfg.deadline_ms);
    let (tx, events) = mpsc::channel::<Event>();
    spawn_acceptor(listener, tx.clone(), cfg.timeout_ms);

    let step_hist = s4tf_metrics::histogram(
        "s4tf_dist_step_us",
        "Distributed training step wall time (coordinator view), microseconds",
    );
    let allreduce_hist = s4tf_metrics::histogram(
        "s4tf_dist_allreduce_us",
        "Slowest-member ring all-reduce time per step, microseconds",
    );
    let retries_ctr = s4tf_metrics::counter(
        "s4tf_dist_retries_total",
        "Collective retries issued by the coordinator",
    );
    let expelled_ctr = s4tf_metrics::counter(
        "s4tf_dist_expelled_total",
        "Workers expelled under the DropShard policy",
    );
    let bytes_ctr = s4tf_metrics::counter(
        "s4tf_dist_ring_tx_bytes_total",
        "Ring bytes sent across all members",
    );

    let mut active: BTreeMap<u32, WorkerConn> = BTreeMap::new();
    let mut pending_rejoin: Vec<(u32, WorkerConn, Frame)> = Vec::new();
    let mut report = ClusterReport {
        steps_completed: 0,
        final_loss: f64::NAN,
        steps: Vec::new(),
        expelled: Vec::new(),
        rejoined: Vec::new(),
        retries: 0,
        survivors: Vec::new(),
        ckpt_dir: cfg.ckpt_dir.clone(),
        spawn_us: 0,
        register_us: 0,
        teardown_us: 0,
    };

    // -- phase 0: wait for the initial world to register -----------------
    while active.len() < cfg.world as usize {
        match recv_deadline(&events, deadline, "initial registration")? {
            Event::Connected {
                stream,
                frame,
                data_port,
            } => {
                let rank = frame.sender;
                admit(&tx, cfg, rank, stream, data_port, &mut active)?;
            }
            Event::Msg { .. } => {}
            Event::Gone { rank, error } => {
                return Err(fail_run(
                    &mut active,
                    &mut pending_rejoin,
                    RuntimeError::net(
                        "dist.register",
                        Some(rank as usize),
                        format!("worker died before the first step: {error}"),
                    ),
                ));
            }
        }
    }

    report.register_us = launched.elapsed().as_micros() as u64;

    let mut epoch: u32 = 1;
    let mut step: u64 = 0;
    let mut attempt: u32 = 0;
    let mut step_started = Instant::now();
    let mut last_commit = step_started;
    // Expelled ranks the launcher's supervisor is restarting, and until
    // when the next commit waits for them to register.
    let mut returning: Vec<u32> = Vec::new();
    let mut returning_until = Instant::now();
    broadcast_view(&mut active, epoch, step)?;

    // -- main loop: drive steps to completion ----------------------------
    while step < cfg.steps {
        let ev = match recv_deadline(&events, deadline, "step progress") {
            Ok(ev) => ev,
            Err(e) => return Err(fail_run(&mut active, &mut pending_rejoin, e)),
        };
        match ev {
            Event::Connected {
                stream,
                frame,
                data_port,
            } => {
                // A restarted worker asking to rejoin: park it until the
                // next commit boundary provides a sync checkpoint.
                let rank = frame.sender;
                returning.retain(|r| *r != rank);
                if active.contains_key(&rank) {
                    // A rank we believe alive re-registered: its old
                    // incarnation is gone; treat the old link as dead
                    // first, then park the new one.
                    handle_death(
                        cfg,
                        &mut active,
                        rank,
                        &RuntimeError::net(
                            "dist.control",
                            Some(rank as usize),
                            "superseded by a new incarnation",
                        ),
                        step,
                        &mut epoch,
                        &mut attempt,
                        &mut report,
                        expelled_ctr,
                    )
                    .map_err(|e| fail_run(&mut active, &mut pending_rejoin, e))?;
                }
                let mut conn = WorkerConn {
                    stream,
                    data_port,
                    done: None,
                };
                if send_ctl(
                    &mut conn.stream,
                    rank,
                    &Control::Welcome,
                    epoch,
                    attempt,
                    step,
                )
                .is_ok()
                {
                    spawn_reader(rank, &conn.stream, tx.clone(), cfg.timeout_ms);
                    pending_rejoin.push((rank, conn, frame));
                }
            }
            Event::Gone { rank, error } => {
                if !active.contains_key(&rank) {
                    continue; // an already-expelled incarnation's reader
                }
                handle_death(
                    cfg,
                    &mut active,
                    rank,
                    &error,
                    step,
                    &mut epoch,
                    &mut attempt,
                    &mut report,
                    expelled_ctr,
                )
                .map_err(|e| fail_run(&mut active, &mut pending_rejoin, e))?;
                // The supervisor restarts each dead rank once. Survivors
                // can finish a short run before the new process registers,
                // so the next commit waits for it (a restart slower than
                // the straggler timeout is not waited for).
                let first_death = report.expelled.iter().filter(|(r, _)| *r == rank).count() == 1;
                if let Some(restart_ms) = cfg.restart_ms.filter(|_| first_death) {
                    returning.push(rank);
                    returning_until =
                        Instant::now() + Duration::from_millis(restart_ms + cfg.timeout_ms);
                }
            }
            Event::Msg { rank, frame, ctrl } => {
                if !active.contains_key(&rank) {
                    continue;
                }
                match ctrl {
                    Control::Heartbeat | Control::Register { .. } => {}
                    Control::SavedSync => {
                        // Only expected inside the commit barrier below;
                        // a stray one is stale and ignorable.
                    }
                    Control::Fatal { error } => {
                        return Err(fail_run(
                            &mut active,
                            &mut pending_rejoin,
                            RuntimeError::net("dist.worker", Some(rank as usize), error),
                        ));
                    }
                    Control::StepDone {
                        loss,
                        allreduce_us,
                        tx_bytes,
                    } => {
                        if frame.epoch != epoch || frame.step != step || frame.attempt != attempt {
                            continue; // stale
                        }
                        if let Some(w) = active.get_mut(&rank) {
                            w.done = Some((loss, allreduce_us, tx_bytes));
                        }
                    }
                    Control::CollectiveFailed { error } => {
                        if frame.epoch != epoch || frame.step != step || frame.attempt < attempt {
                            continue; // stale: a Retry for it already went out
                        }
                        if attempt >= cfg.max_retries {
                            let err = RuntimeError::net(
                                "dist.allreduce",
                                Some(rank as usize),
                                format!(
                                    "collective failed after {} retries: {error}",
                                    cfg.max_retries
                                ),
                            );
                            return Err(fail_run(&mut active, &mut pending_rejoin, err));
                        }
                        report.retries += 1;
                        retries_ctr.inc();
                        s4tf_diag::event!(
                            "dist.retry",
                            step = step,
                            attempt = attempt + 1,
                            rank = rank,
                            error = error.as_str(),
                        );
                        std::thread::sleep(s4tf_fault::backoff_delay(attempt + 1));
                        attempt += 1;
                        for w in active.values_mut() {
                            w.done = None;
                        }
                        broadcast(&mut active, &Control::Retry, epoch, attempt, step)?;
                    }
                    // Coordinator-bound frames never carry these kinds.
                    Control::Welcome
                    | Control::View { .. }
                    | Control::Commit { .. }
                    | Control::Retry
                    | Control::Shutdown { .. } => {}
                }
            }
        }

        // Commit when every active member has reported the current
        // (step, attempt) and no restarted rank is still on its way (the
        // workers' heartbeats wake this loop to see the wait run out).
        let awaiting_restart = !returning.is_empty() && Instant::now() < returning_until;
        if !active.is_empty() && active.values().all(|w| w.done.is_some()) && !awaiting_restart {
            let survivors = active.len() as u32;
            let loss = active
                .values()
                .map(|w| w.done.expect("checked").0)
                .sum::<f64>()
                / survivors as f64;
            let allreduce_us = active
                .values()
                .map(|w| w.done.expect("checked").1)
                .max()
                .unwrap_or(0);
            let tx_bytes: u64 = active.values().map(|w| w.done.expect("checked").2).sum();
            let step_us = step_started.elapsed().as_micros() as u64;
            let then_sync = !pending_rejoin.is_empty() || step + 1 == cfg.steps;
            broadcast(
                &mut active,
                &Control::Commit {
                    survivors,
                    then_sync,
                },
                epoch,
                attempt,
                step,
            )?;
            last_commit = Instant::now();
            report.steps.push(StepRecord {
                step,
                epoch,
                survivors,
                loss,
                step_us,
                allreduce_us,
                tx_bytes,
            });
            if s4tf_metrics::enabled() {
                step_hist.record(step_us);
                allreduce_hist.record(allreduce_us);
                bytes_ctr.add(tx_bytes);
            }
            report.final_loss = loss;
            report.steps_completed = step + 1;
            step += 1;
            attempt = 0;
            for w in active.values_mut() {
                w.done = None;
            }
            step_started = Instant::now();

            if then_sync {
                wait_for_sync(cfg, &events, &mut active, deadline)
                    .map_err(|e| fail_run(&mut active, &mut pending_rejoin, e))?;
                if step < cfg.steps {
                    // Admit any parked rejoiners into the next view.
                    for (rank, conn, _frame) in pending_rejoin.drain(..) {
                        report.rejoined.push((rank, step));
                        s4tf_diag::event!("dist.rejoin", rank = rank, step = step);
                        active.insert(rank, conn);
                    }
                    epoch += 1;
                    broadcast_view(&mut active, epoch, step)?;
                }
            }
        }
    }

    report.survivors = active.keys().copied().collect();
    broadcast(
        &mut active,
        &Control::Shutdown {
            error: String::new(),
        },
        epoch,
        attempt,
        step,
    )?;
    for (_, mut conn, _) in pending_rejoin.drain(..) {
        let _ = send_ctl(
            &mut conn.stream,
            u32::MAX,
            &Control::Shutdown {
                error: String::new(),
            },
            epoch,
            attempt,
            step,
        );
    }
    if span.is_recording() {
        span.annotate_f64("steps", report.steps_completed as f64);
        span.annotate_f64("retries", report.retries as f64);
        span.annotate_f64("expelled", report.expelled.len() as f64);
    }
    Ok((report, last_commit))
}

/// Waits for the lowest active rank to confirm the sync checkpoint.
fn wait_for_sync(
    cfg: &ClusterConfig,
    events: &mpsc::Receiver<Event>,
    active: &mut BTreeMap<u32, WorkerConn>,
    deadline: Instant,
) -> Result<(), RuntimeError> {
    let saver = *active.keys().next().ok_or_else(|| {
        RuntimeError::net("dist.sync", None, "no active workers left to checkpoint")
    })?;
    loop {
        match recv_deadline(events, deadline, "sync checkpoint")? {
            Event::Msg {
                rank,
                ctrl: Control::SavedSync,
                ..
            } if rank == saver => return Ok(()),
            Event::Msg {
                rank,
                ctrl: Control::Fatal { error },
                ..
            } => {
                return Err(RuntimeError::net("dist.sync", Some(rank as usize), error));
            }
            Event::Gone { rank, error } if rank == saver => {
                return Err(RuntimeError::net(
                    "dist.sync",
                    Some(rank as usize),
                    format!("checkpoint saver died during sync barrier: {error}"),
                ));
            }
            Event::Gone { rank, error } if active.contains_key(&rank) => {
                // A non-saver death at the barrier: expel it; the commit
                // already went through, so no step needs redoing.
                eprintln!(
                    "s4tf-dist: DropShard degradation: worker rank {rank} lost at sync \
                     barrier ({error}); continuing with {} of {} shards",
                    active.len() - 1,
                    cfg.world
                );
                active.remove(&rank);
                if active.is_empty() {
                    return Err(RuntimeError::net(
                        "dist.sync",
                        Some(rank as usize),
                        "all workers lost at sync barrier",
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Applies the fault policy to a worker death.
#[allow(clippy::too_many_arguments)]
fn handle_death(
    cfg: &ClusterConfig,
    active: &mut BTreeMap<u32, WorkerConn>,
    rank: u32,
    error: &RuntimeError,
    step: u64,
    epoch: &mut u32,
    attempt: &mut u32,
    report: &mut ClusterReport,
    expelled_ctr: &'static s4tf_metrics::Counter,
) -> Result<(), RuntimeError> {
    if matches!(cfg.fault_policy, FaultPolicy::FailFast) {
        return Err(RuntimeError::net(
            "dist.control",
            Some(rank as usize),
            format!("worker lost under FailFast policy: {error}"),
        ));
    }
    active.remove(&rank);
    report.expelled.push((rank, step));
    expelled_ctr.inc();
    eprintln!(
        "s4tf-dist: DropShard degradation: worker rank {rank} lost at step {step} \
         ({error}); continuing with {} of {} shards",
        active.len(),
        cfg.world
    );
    s4tf_diag::event!(
        "dist.expel",
        rank = rank,
        step = step,
        survivors = active.len() as u64,
    );
    if active.is_empty() {
        return Err(RuntimeError::net(
            "dist.control",
            Some(rank as usize),
            "all workers lost; nothing left to train on",
        ));
    }
    // Survivors redo the in-flight step under a fresh view.
    *epoch += 1;
    *attempt = 0;
    for w in active.values_mut() {
        w.done = None;
    }
    broadcast_view(active, *epoch, step)?;
    Ok(())
}

/// Accepts the first `world` registrations.
fn admit(
    tx: &mpsc::Sender<Event>,
    cfg: &ClusterConfig,
    rank: u32,
    stream: TcpStream,
    data_port: u16,
    active: &mut BTreeMap<u32, WorkerConn>,
) -> Result<(), RuntimeError> {
    let mut conn = WorkerConn {
        stream,
        data_port,
        done: None,
    };
    send_ctl(&mut conn.stream, rank, &Control::Welcome, 0, 0, 0)?;
    spawn_reader(rank, &conn.stream, tx.clone(), cfg.timeout_ms);
    active.insert(rank, conn);
    Ok(())
}

fn members_of(active: &BTreeMap<u32, WorkerConn>) -> Vec<Member> {
    active.iter().map(|(r, w)| (*r, w.data_port)).collect()
}

fn broadcast_view(
    active: &mut BTreeMap<u32, WorkerConn>,
    epoch: u32,
    resume_step: u64,
) -> Result<(), RuntimeError> {
    let members = members_of(active);
    broadcast(
        active,
        &Control::View {
            resume_step,
            members,
        },
        epoch,
        0,
        resume_step,
    )
}

/// Sends one control message to every active worker. A send failure here
/// is not fatal by itself — the worker's reader thread will report it as
/// `Gone` and the policy decides.
fn broadcast(
    active: &mut BTreeMap<u32, WorkerConn>,
    ctrl: &Control,
    epoch: u32,
    attempt: u32,
    step: u64,
) -> Result<(), RuntimeError> {
    for (rank, conn) in active.iter_mut() {
        let _ = send_ctl(&mut conn.stream, *rank, ctrl, epoch, attempt, step);
    }
    Ok(())
}

fn send_ctl(
    stream: &mut TcpStream,
    rank: u32,
    ctrl: &Control,
    epoch: u32,
    attempt: u32,
    step: u64,
) -> Result<(), RuntimeError> {
    let frame = ctrl.frame(crate::wire::COORDINATOR, epoch, attempt, step);
    let bytes = frame.encode();
    let peer = if rank == u32::MAX {
        None
    } else {
        Some(rank as usize)
    };
    write_encoded(stream, &bytes, peer)
}

fn recv_deadline(
    events: &mpsc::Receiver<Event>,
    deadline: Instant,
    what: &str,
) -> Result<Event, RuntimeError> {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(RuntimeError::net(
                "dist.coordinator",
                None,
                format!("run deadline exceeded while waiting for {what}"),
            ));
        }
        let wait = (deadline - now).min(Duration::from_millis(500));
        match events.recv_timeout(wait) {
            Ok(ev) => return Ok(ev),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(RuntimeError::net(
                    "dist.coordinator",
                    None,
                    "event channel closed (acceptor and all readers gone)",
                ));
            }
        }
    }
}

/// Accepts control connections forever, completing the `Register`
/// handshake off the main thread so a half-open dial can't stall the run,
/// then switching Nagle off; a stream that refuses reports its rank
/// `Gone` with the typed `dist.control` error.
fn spawn_acceptor(listener: TcpListener, tx: mpsc::Sender<Event>, timeout_ms: u64) {
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let tx = tx.clone();
            std::thread::spawn(move || {
                let timeout = Some(Duration::from_millis(timeout_ms.max(1)));
                if stream.set_read_timeout(timeout).is_err()
                    || stream.set_write_timeout(timeout).is_err()
                {
                    return;
                }
                let mut s = stream;
                let Ok(frame) = read_frame(&mut s, None) else {
                    return;
                };
                let Ok(Control::Register { data_port }) = Control::decode(&frame, None) else {
                    return;
                };
                let rank = frame.sender;
                if let Err(error) = control_nodelay(&s, Some(rank as usize)) {
                    let _ = tx.send(Event::Gone { rank, error });
                    return;
                }
                let _ = tx.send(Event::Connected {
                    stream: s,
                    frame,
                    data_port,
                });
            });
        }
    });
}

/// Streams one worker's control messages into the event channel. A read
/// error or straggler timeout becomes a single `Gone` event.
fn spawn_reader(rank: u32, stream: &TcpStream, tx: mpsc::Sender<Event>, timeout_ms: u64) {
    let Ok(read_half) = stream.try_clone() else {
        let _ = tx.send(Event::Gone {
            rank,
            error: RuntimeError::net(
                "dist.control",
                Some(rank as usize),
                "could not clone control stream",
            ),
        });
        return;
    };
    std::thread::spawn(move || {
        let mut read_half = read_half;
        // Workers heartbeat every heartbeat interval; total silence for
        // the straggler window means the worker is gone or wedged.
        let _ = read_half.set_read_timeout(Some(Duration::from_millis(timeout_ms.max(1))));
        loop {
            match read_frame(&mut read_half, Some(rank as usize)) {
                Ok(frame) => match Control::decode(&frame, Some(rank as usize)) {
                    Ok(ctrl) => {
                        if tx.send(Event::Msg { rank, frame, ctrl }).is_err() {
                            return;
                        }
                    }
                    Err(error) => {
                        let _ = tx.send(Event::Gone { rank, error });
                        return;
                    }
                },
                Err(error) => {
                    let _ = tx.send(Event::Gone { rank, error });
                    return;
                }
            }
        }
    });
}

/// Tears the cluster down after a fatal error, telling every reachable
/// worker why, and returns the error for the caller.
fn fail_run(
    active: &mut BTreeMap<u32, WorkerConn>,
    pending: &mut [(u32, WorkerConn, Frame)],
    err: RuntimeError,
) -> RuntimeError {
    let msg = Control::Shutdown {
        error: err.to_string(),
    };
    for (rank, conn) in active.iter_mut() {
        let _ = send_ctl(&mut conn.stream, *rank, &msg, u32::MAX, 0, 0);
    }
    for (rank, conn, _) in pending.iter_mut() {
        let _ = send_ctl(&mut conn.stream, *rank, &msg, u32::MAX, 0, 0);
    }
    err
}
