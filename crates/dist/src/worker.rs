//! The worker process: shard compute, ring collectives, two-phase apply,
//! checkpoint sync, and deterministic chaos hooks.
//!
//! A worker is a child process launched by [`crate::cluster::run`]. It
//! dials the coordinator, registers its data-plane port, and then follows
//! the control protocol: on `View` it (re)builds its ring neighbors and
//! computes the step's shard gradient; the bucketed ring all-reduce runs
//! on the wire; `StepDone` is reported and the update is applied only when
//! `Commit` arrives (two-phase — a peer dying mid-collective can never
//! leave this worker half-applied). The per-step gradient is kept pristine
//! so a `Retry` or a membership change replays the collective without
//! recomputing — and without any bit drift.
//!
//! Ring links outlive steps. After a collective that returned `Ok` —
//! every exchange wrote its whole frame before it ended — the worker
//! holds its link, and the next step's collective reuses it when it runs
//! at attempt 0 under the same epoch and the same neighbors — which,
//! since a `Commit` means every member finished cleanly, every member
//! decides alike from the coordinator's broadcasts. A `Retry`, a new
//! `View` or a failed collective drops the link, and the next collective
//! re-dials it keyed by `(epoch, step, attempt)` (`establish_ring`).
//!
//! A heartbeat thread writes a `Heartbeat` on the control stream every
//! `heartbeat_ms`. It waits out each interval on a stop channel, so when
//! `Shutdown` arrives the worker stops it, joins it and exits at once
//! rather than after the rest of an interval.
//!
//! Rejoin: a restarted worker registers like a fresh one; its first `View`
//! carries a `resume_step` ahead of its local progress, which it satisfies
//! by loading the sync checkpoint the surviving lowest rank saved at the
//! admission barrier. Training resumes bit-identically because the
//! optimizer is stateless ([`Sgd`] without momentum) and shard data is
//! keyed by original rank and step, not by ring position.

use crate::cluster::ClusterConfig;
use crate::collective::{
    flatten_tangent, ring_all_reduce, unflatten_tangent, RingConnection, RingHeader,
};
use crate::protocol::{control_nodelay, kind, Control, Member};
use crate::wire::{read_frame, write_encoded, Frame, PayloadReader, PayloadWriter, COORDINATOR};
use s4tf_core::{LossValue, VisitTangent};
use s4tf_nn::checkpoint::{latest, Checkpoint, Checkpointable};
use s4tf_nn::train::loss_and_gradient;
use s4tf_nn::{Layer, Optimizer};
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::RuntimeError;
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The one variable the launcher sets on a worker: the hex-encoded
/// [`WorkerEnv`].
pub(crate) const WORKER_VAR: &str = "S4TF_DIST_WORKER";

/// Role marker: is this process a spawned dist worker?
///
/// Binaries that host workers (tests, examples, benches) call this first
/// and hand control to their worker entry point when it returns true.
pub fn is_worker_process() -> bool {
    std::env::var_os(WORKER_VAR).is_some()
}

/// Worker-side configuration: the launcher's [`ClusterConfig`], whole,
/// plus the two values that differ per child.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerEnv {
    /// This worker's rank (stable across restarts).
    pub rank: u32,
    /// Coordinator control port on 127.0.0.1.
    pub coord_port: u16,
    /// The run's configuration, exactly as the launcher holds it (a
    /// restarted worker's copy has `abort: None`).
    pub cfg: ClusterConfig,
}

fn bad_env(msg: impl Into<String>) -> RuntimeError {
    RuntimeError::net("dist.worker", None, msg.into())
}

impl WorkerEnv {
    /// The [`WORKER_VAR`] value: every field through the wire payload
    /// writer, then `s4tf_fault::digest64` of those bytes, all in lowercase
    /// hex.
    pub(crate) fn encode(&self) -> Result<String, RuntimeError> {
        let mut w = PayloadWriter::default();
        w.u32(self.rank);
        w.u16(self.coord_port);
        self.cfg.write(&mut w)?;
        let digest = s4tf_fault::digest64(&w.0);
        w.u64(digest);
        let mut hex = String::with_capacity(2 * w.0.len());
        for byte in &w.0 {
            write!(hex, "{byte:02x}").expect("writing to a String cannot fail");
        }
        Ok(hex)
    }

    /// Inverse of [`encode`](WorkerEnv::encode). Anything but exactly what
    /// `encode` produces — odd length, a non-hex digit, missing or extra
    /// bytes, a digest mismatch — is a typed error; no field is defaulted.
    pub(crate) fn decode(hex: &str) -> Result<WorkerEnv, RuntimeError> {
        if !hex.len().is_multiple_of(2) || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(bad_env(format!(
                "{WORKER_VAR} is not an even run of hex digits"
            )));
        }
        let nibble = |b: u8| (b as char).to_digit(16).expect("checked above") as u8;
        let bytes: Vec<u8> = hex
            .as_bytes()
            .chunks_exact(2)
            .map(|pair| nibble(pair[0]) << 4 | nibble(pair[1]))
            .collect();
        let body_len = bytes
            .len()
            .checked_sub(8)
            .ok_or_else(|| bad_env(format!("{WORKER_VAR} is truncated")))?;
        let (body, digest) = bytes.split_at(body_len);
        if s4tf_fault::digest64(body).to_le_bytes() != digest {
            return Err(bad_env(format!(
                "{WORKER_VAR} digest mismatch (truncated or corrupt)"
            )));
        }
        let mut r = PayloadReader::new(body, None);
        let env =
            WorkerEnv::read(&mut r).map_err(|e| bad_env(format!("{WORKER_VAR}: {}", e.message)))?;
        if !r.is_empty() {
            return Err(bad_env(format!("{WORKER_VAR} has trailing bytes")));
        }
        Ok(env)
    }

    fn read(r: &mut PayloadReader<'_>) -> Result<WorkerEnv, RuntimeError> {
        Ok(WorkerEnv {
            rank: r.u32()?,
            coord_port: r.u16()?,
            cfg: ClusterConfig::read(r)?,
        })
    }

    /// Reads the configuration the launcher set. Fails with a typed error
    /// when [`WORKER_VAR`] is missing or malformed.
    pub fn from_env() -> Result<WorkerEnv, RuntimeError> {
        let hex = std::env::var(WORKER_VAR)
            .map_err(|e| bad_env(format!("{WORKER_VAR} is unusable: {e}")))?;
        WorkerEnv::decode(&hex)
    }

    fn bucket_elems(&self) -> usize {
        (self.cfg.bucket_bytes / 4).max(1)
    }
}

/// Applies a reduced flat gradient to the model: renormalize it in place
/// by the survivor count, scatter it into the tangent, and run the
/// optimizer update + barrier. Shared verbatim by the worker and by
/// [`crate::reference`], which is what makes the multi-process run
/// bit-identical to the in-process baseline.
pub fn apply_reduced<L, O>(
    model: &mut L,
    optimizer: &mut O,
    tangent: &mut L::TangentVector,
    reduced: &mut [f32],
    survivors: u32,
    device: &Device,
) -> Result<(), RuntimeError>
where
    L: Layer,
    L::TangentVector: VisitTangent<DTensor>,
    O: Optimizer<L>,
{
    let scale = survivors.max(1) as f32;
    for v in reduced.iter_mut() {
        *v /= scale;
    }
    unflatten_tangent(tangent, reduced, device)?;
    optimizer.update(model, tangent);
    device.barrier();
    Ok(())
}

/// [`loss_and_gradient`] for one shard batch and the barrier that
/// materializes them, without applying the update (that waits for
/// `Commit`). Returns the shard loss and the gradient tangent.
pub fn shard_gradient<L: Layer>(
    model: &L,
    images: &DTensor,
    labels: &DTensor,
) -> (f64, L::TangentVector) {
    let _span = s4tf_profile::span("dist.shard_grad");
    let (loss, gradients) = loss_and_gradient(model, images, labels);
    images.device().barrier();
    (loss.loss_value(), gradients)
}

/// Control-plane connection: serialized writes (main thread + heartbeat
/// thread) over one stream, reads on a private clone.
struct ControlLink {
    writer: Arc<Mutex<TcpStream>>,
    reader: TcpStream,
    rank: u32,
    epoch: u32,
    attempt: u32,
    step: u64,
}

impl ControlLink {
    fn connect(env: &WorkerEnv) -> Result<ControlLink, RuntimeError> {
        let stream = TcpStream::connect(("127.0.0.1", env.coord_port)).map_err(|e| {
            RuntimeError::net(
                "dist.control",
                None,
                format!(
                    "could not reach coordinator on port {}: {e}",
                    env.coord_port
                ),
            )
        })?;
        stream
            .set_write_timeout(Some(Duration::from_millis(env.cfg.timeout_ms.max(1))))
            .map_err(|e| RuntimeError::net("dist.control", None, e.to_string()))?;
        // Control reads wait on the coordinator's pacing (commits arrive
        // only after the slowest member), so the read budget is the run
        // deadline, not the straggler timeout.
        stream
            .set_read_timeout(Some(Duration::from_millis(env.cfg.deadline_ms.max(1))))
            .map_err(|e| RuntimeError::net("dist.control", None, e.to_string()))?;
        control_nodelay(&stream, None)?;
        let reader = stream
            .try_clone()
            .map_err(|e| RuntimeError::net("dist.control", None, e.to_string()))?;
        Ok(ControlLink {
            writer: Arc::new(Mutex::new(stream)),
            reader,
            rank: env.rank,
            epoch: 0,
            attempt: 0,
            step: 0,
        })
    }

    fn send(&self, ctrl: &Control) -> Result<(), RuntimeError> {
        let frame = ctrl.frame(self.rank, self.epoch, self.attempt, self.step);
        let bytes = frame.encode();
        let mut w = self
            .writer
            .lock()
            .map_err(|_| RuntimeError::net("dist.control", None, "control writer poisoned"))?;
        write_encoded(&mut *w, &bytes, None)
    }

    fn recv(&mut self) -> Result<(Frame, Control), RuntimeError> {
        let frame = read_frame(&mut self.reader, None)?;
        if frame.sender != COORDINATOR {
            return Err(RuntimeError::net(
                "dist.control",
                Some(frame.sender as usize),
                "unexpected non-coordinator frame on the control stream",
            ));
        }
        let ctrl = Control::decode(&frame, None)?;
        Ok((frame, ctrl))
    }
}

/// Heartbeat thread handle. The thread waits out each interval on a stop
/// channel, so dropping the handle wakes it at once and joins it: a
/// worker's exit never waits for the rest of a heartbeat interval.
struct HeartbeatPump {
    stop: mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatPump {
    fn start(writer: Arc<Mutex<TcpStream>>, rank: u32, interval_ms: u64) -> HeartbeatPump {
        let (stop, stopped) = mpsc::channel::<()>();
        let interval = Duration::from_millis(interval_ms.max(10));
        let handle = std::thread::spawn(move || {
            let bytes = Control::Heartbeat.frame(rank, 0, 0, 0).encode();
            // Only a timeout sends a beat; a stop (or its sender's drop)
            // ends the loop.
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                let Ok(mut w) = writer.lock() else { break };
                if write_encoded(&mut *w, &bytes, None).is_err() {
                    break; // coordinator gone; the main thread will notice
                }
            }
        });
        HeartbeatPump {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HeartbeatPump {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// An accepted (but not yet claimed) incoming ring connection.
type PendingConn = (Frame, TcpStream);

/// Free-running acceptor for the data-plane listener: completes the
/// `DATA_HELLO` handshake off the main thread and queues the connection.
fn spawn_data_acceptor(listener: TcpListener, timeout_ms: u64) -> mpsc::Receiver<PendingConn> {
    let (tx, rx) = mpsc::channel::<PendingConn>();
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
                let Ok(hello) = read_frame(&mut s, None) else {
                    return;
                };
                if hello.kind == kind::DATA_HELLO {
                    let _ = tx.send((hello, s));
                }
            });
        }
    });
    rx
}

/// The current membership view, from the worker's perspective.
struct ViewState {
    members: Vec<Member>,
    /// My index in `members`.
    position: usize,
}

impl ViewState {
    fn from_members(rank: u32, members: Vec<Member>) -> Result<ViewState, RuntimeError> {
        let position = members
            .iter()
            .position(|(r, _)| *r == rank)
            .ok_or_else(|| {
                RuntimeError::net(
                    "dist.view",
                    Some(rank as usize),
                    "this rank is not in the view it was sent",
                )
            })?;
        Ok(ViewState { members, position })
    }

    fn k(&self) -> usize {
        self.members.len()
    }

    fn left(&self) -> Member {
        self.members[(self.position + self.k() - 1) % self.k()]
    }

    fn right(&self) -> Member {
        self.members[(self.position + 1) % self.k()]
    }

    fn lowest_rank(&self) -> u32 {
        self.members.iter().map(|(r, _)| *r).min().unwrap_or(0)
    }
}

/// Dials a ring link for the collective at `(epoch, attempt, step)`: dial
/// the right neighbor, send `DATA_HELLO`, and claim the left neighbor's
/// incoming connection from the acceptor queue. Stale pending connections
/// are discarded; ones from the future are kept for the next attempt. Runs
/// at a view's first collective and at every retry; the steps after a
/// clean collective reuse its link instead (see [`run_cycle`]).
#[allow(clippy::too_many_arguments)]
fn establish_ring(
    env: &WorkerEnv,
    view: &ViewState,
    header: RingHeader,
    incoming: &mpsc::Receiver<PendingConn>,
    pending: &mut Vec<PendingConn>,
) -> Result<RingConnection, RuntimeError> {
    let (right_rank, right_port) = view.right();
    let (left_rank, _) = view.left();
    let deadline = Instant::now() + Duration::from_millis(env.cfg.timeout_ms.max(1));

    // Dial the right neighbor, retrying while it (re)binds its acceptor.
    let right = loop {
        match TcpStream::connect(("127.0.0.1", right_port)) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(RuntimeError::net(
                        "dist.ring",
                        Some(right_rank as usize),
                        format!("could not dial right neighbor: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    let timeout = Some(Duration::from_millis(env.cfg.timeout_ms.max(1)));
    right
        .set_write_timeout(timeout)
        .and_then(|()| right.set_read_timeout(timeout))
        .map_err(|e| RuntimeError::net("dist.ring", Some(right_rank as usize), e.to_string()))?;
    {
        let hello = Frame::control(
            kind::DATA_HELLO,
            header.rank,
            header.epoch,
            header.attempt,
            header.step,
        );
        let bytes = hello.encode();
        let mut w = &right;
        write_encoded(&mut w, &bytes, Some(right_rank as usize))?;
    }

    // Claim the left neighbor's connection for these exact coordinates;
    // keep the future, drop the stale.
    let want = (header.epoch, header.step, header.attempt);
    let coords = |hello: &Frame| (hello.epoch, hello.step, hello.attempt);
    loop {
        pending.retain(|(hello, _)| coords(hello) >= want);
        let mine = |(hello, _): &PendingConn| hello.sender == left_rank && coords(hello) == want;
        if let Some(at) = pending.iter().position(mine) {
            let (_, left) = pending.swap_remove(at);
            return RingConnection::new(header.rank, left_rank, left, right_rank, right);
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(RuntimeError::net(
                "dist.ring",
                Some(left_rank as usize),
                "timed out waiting for the left neighbor to connect",
            ));
        }
        match incoming.recv_timeout(deadline - now) {
            Ok(conn) => pending.push(conn),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(RuntimeError::net(
                    "dist.ring",
                    Some(left_rank as usize),
                    "data acceptor thread exited",
                ));
            }
        }
    }
}

/// The ring link kept from the last collective that completed, and the
/// epoch it was dialed under.
struct HeldRing {
    epoch: u32,
    ring: RingConnection,
}

/// Outcome of one collective attempt.
enum CycleOutcome {
    Done {
        loss: f64,
        allreduce_us: u64,
        tx_bytes: u64,
        reduced: Vec<f32>,
    },
    Failed(RuntimeError),
}

/// Deterministic chaos: dies when [`ClusterConfig::abort`] names this
/// rank, step and phase — `midring` (the ring established, peers
/// mid-collective) or `precommit` (after `StepDone`, before `Commit`
/// applies).
fn maybe_abort(env: &WorkerEnv, step: u64, phase: &str) {
    if let Some((at_rank, at_step, at_phase)) = &env.cfg.abort {
        if *at_rank == env.rank && *at_step == step && at_phase == phase {
            eprintln!(
                "s4tf-dist: worker rank {} dying at step {step} phase {phase} (injected kill -9)",
                env.rank
            );
            // The hardest death available: SIGKILL from outside — no
            // unwinding, no flush; peers must detect it on the wire.
            let _ = std::process::Command::new("kill")
                .args(["-9", &std::process::id().to_string()])
                .status();
            std::process::abort(); // fallback when `kill` is unavailable
        }
    }
}

/// Generic worker driver. `data` maps `step` to this worker's shard batch
/// `(images, one-hot labels)` — keyed by the worker's *original* rank so
/// survivors keep their own data stream after an expulsion. Returns the
/// number of committed steps on clean shutdown.
pub fn run_worker<L, O, D>(
    env: &WorkerEnv,
    mut model: L,
    mut optimizer: O,
    mut data: D,
    device: &Device,
) -> Result<u64, RuntimeError>
where
    L: Layer + Checkpointable,
    L::TangentVector: VisitTangent<DTensor>,
    O: Optimizer<L>,
    D: FnMut(u64) -> (DTensor, DTensor),
{
    let mut ctl = ControlLink::connect(env)?;
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| RuntimeError::net("dist.worker", None, e.to_string()))?;
    let data_port = listener
        .local_addr()
        .map_err(|e| RuntimeError::net("dist.worker", None, e.to_string()))?
        .port();
    let incoming = spawn_data_acceptor(listener, env.cfg.timeout_ms);
    let mut pending: Vec<PendingConn> = Vec::new();

    ctl.send(&Control::Register { data_port })?;
    let _pump = HeartbeatPump::start(Arc::clone(&ctl.writer), env.rank, env.cfg.heartbeat_ms);

    let mut view: Option<ViewState> = None;
    let mut completed: u64 = 0;
    // Pristine per-step state: (loss, tangent, flat gradient). Kept across
    // retries and view changes; dropped on commit or checkpoint load.
    let mut pristine: Option<(f64, L::TangentVector, Vec<f32>)> = None;
    let mut reduced: Option<Vec<f32>> = None;
    let mut held: Option<HeldRing> = None;

    loop {
        let (frame, ctrl) = ctl.recv()?;
        match ctrl {
            Control::Welcome | Control::Heartbeat => {}
            Control::Shutdown { error } => {
                return if error.is_empty() {
                    Ok(completed)
                } else {
                    Err(RuntimeError::net("dist.run", None, error))
                };
            }
            Control::View {
                resume_step,
                members,
            } => {
                ctl.epoch = frame.epoch;
                ctl.step = resume_step;
                ctl.attempt = 0;
                let v = ViewState::from_members(env.rank, members)?;
                if resume_step != completed {
                    // Rejoin (or admission barrier catch-up): load the
                    // sync checkpoint saved at `resume_step`.
                    load_sync_checkpoint(env, resume_step, &mut model, device)
                        .inspect_err(|e| report_fatal(&ctl, e))?;
                    completed = resume_step;
                    pristine = None;
                }
                view = Some(v);
                held = None; // a new view always re-dials
                run_cycle(
                    env,
                    &mut ctl,
                    &mut model,
                    &mut data,
                    view.as_ref(),
                    &incoming,
                    &mut pending,
                    &mut pristine,
                    &mut reduced,
                    &mut held,
                )?;
            }
            Control::Retry => {
                if frame.epoch != ctl.epoch || frame.step != ctl.step {
                    continue; // stale retry from a superseded view
                }
                ctl.attempt = frame.attempt;
                run_cycle(
                    env,
                    &mut ctl,
                    &mut model,
                    &mut data,
                    view.as_ref(),
                    &incoming,
                    &mut pending,
                    &mut pristine,
                    &mut reduced,
                    &mut held,
                )?;
            }
            Control::Commit {
                survivors,
                then_sync,
            } => {
                if frame.epoch != ctl.epoch || frame.step != ctl.step {
                    continue; // stale
                }
                let Some((_, tangent, _)) = pristine.as_mut() else {
                    continue; // stale commit for state we no longer hold
                };
                let Some(mut red) = reduced.take() else {
                    continue;
                };
                apply_reduced(
                    &mut model,
                    &mut optimizer,
                    tangent,
                    &mut red,
                    survivors,
                    device,
                )
                .inspect_err(|e| report_fatal(&ctl, e))?;
                completed = ctl.step + 1;
                pristine = None;
                if then_sync {
                    if let Some(v) = &view {
                        if v.lowest_rank() == env.rank {
                            save_sync_checkpoint(env, completed, &model)
                                .inspect_err(|e| report_fatal(&ctl, e))?;
                            ctl.step = completed;
                            ctl.send(&Control::SavedSync)?;
                        }
                    }
                    // Barrier: wait for the next View or Shutdown.
                } else {
                    ctl.step = completed;
                    ctl.attempt = 0;
                    run_cycle(
                        env,
                        &mut ctl,
                        &mut model,
                        &mut data,
                        view.as_ref(),
                        &incoming,
                        &mut pending,
                        &mut pristine,
                        &mut reduced,
                        &mut held,
                    )?;
                }
            }
            // Worker-bound streams never carry these kinds.
            Control::Register { .. }
            | Control::StepDone { .. }
            | Control::CollectiveFailed { .. }
            | Control::SavedSync
            | Control::Fatal { .. } => {}
        }
    }
}

/// One collective attempt for the current (epoch, step, attempt): compute
/// the shard gradient if this step has none yet, run the ring, and report
/// `StepDone` or `CollectiveFailed`. Wire failures are reported and
/// survived; local compute failures are fatal.
///
/// The ring runs on the `held` link when this is attempt 0 under the
/// epoch and neighbors it was dialed for, and on a freshly dialed one
/// otherwise. `StepDone` goes out only once the collective returned `Ok`,
/// which means every frame was written; it reports the link's `tx_bytes`,
/// and the link is then held for the next step. A failed collective drops
/// it.
#[allow(clippy::too_many_arguments)]
fn run_cycle<L, D>(
    env: &WorkerEnv,
    ctl: &mut ControlLink,
    model: &mut L,
    data: &mut D,
    view: Option<&ViewState>,
    incoming: &mpsc::Receiver<PendingConn>,
    pending: &mut Vec<PendingConn>,
    pristine: &mut Option<(f64, L::TangentVector, Vec<f32>)>,
    reduced: &mut Option<Vec<f32>>,
    held: &mut Option<HeldRing>,
) -> Result<(), RuntimeError>
where
    L: Layer + Checkpointable,
    L::TangentVector: VisitTangent<DTensor>,
    D: FnMut(u64) -> (DTensor, DTensor),
{
    let Some(view) = view else {
        return Ok(()); // no view yet; wait for one
    };
    let step = ctl.step;
    if pristine.is_none() {
        let (images, labels) = data(step);
        let (loss, tangent) = shard_gradient(model, &images, &labels);
        let flat = flatten_tangent(&tangent).inspect_err(|e| report_fatal(ctl, e))?;
        *pristine = Some((loss, tangent, flat.0));
    }
    let (loss, _, flat_ref) = pristine.as_ref().expect("set above");
    let loss = *loss;
    let mut flat = flat_ref.clone();

    let outcome = if view.k() == 1 {
        maybe_abort(env, step, "midring");
        CycleOutcome::Done {
            loss,
            allreduce_us: 0,
            tx_bytes: 0,
            reduced: flat,
        }
    } else {
        let header = RingHeader {
            rank: env.rank,
            epoch: ctl.epoch,
            attempt: ctl.attempt,
            step,
        };
        let (left_rank, _) = view.left();
        let (right_rank, _) = view.right();
        let ring = match held.take() {
            Some(h)
                if header.attempt == 0
                    && h.epoch == header.epoch
                    && h.ring.left_rank == left_rank
                    && h.ring.right_rank == right_rank =>
            {
                Ok(h.ring)
            }
            _ => establish_ring(env, view, header, incoming, pending),
        };
        match ring {
            Err(e) => CycleOutcome::Failed(e),
            Ok(mut ring) => {
                maybe_abort(env, step, "midring");
                let t0 = Instant::now();
                let result = ring_all_reduce(
                    &mut flat,
                    view.position,
                    view.k(),
                    &mut ring,
                    header,
                    env.bucket_elems(),
                );
                let allreduce_us = t0.elapsed().as_micros() as u64;
                match result {
                    Err(e) => CycleOutcome::Failed(e),
                    Ok(()) => {
                        let tx_bytes = ring.tx_bytes;
                        *held = Some(HeldRing {
                            epoch: header.epoch,
                            ring,
                        });
                        CycleOutcome::Done {
                            loss,
                            allreduce_us,
                            tx_bytes,
                            reduced: flat,
                        }
                    }
                }
            }
        }
    };

    match outcome {
        CycleOutcome::Done {
            loss,
            allreduce_us,
            tx_bytes,
            reduced: red,
        } => {
            *reduced = Some(red);
            ctl.send(&Control::StepDone {
                loss,
                allreduce_us,
                tx_bytes,
            })?;
            maybe_abort(env, step, "precommit");
        }
        CycleOutcome::Failed(e) => {
            *reduced = None;
            ctl.send(&Control::CollectiveFailed {
                error: e.to_string(),
            })?;
        }
    }
    Ok(())
}

fn report_fatal(ctl: &ControlLink, e: &RuntimeError) {
    let _ = ctl.send(&Control::Fatal {
        error: e.to_string(),
    });
}

fn save_sync_checkpoint<L: Checkpointable>(
    env: &WorkerEnv,
    step: u64,
    model: &L,
) -> Result<(), RuntimeError> {
    let ckpt = Checkpoint::from_model(step, model)?;
    ckpt.save(&env.cfg.ckpt_dir)?;
    s4tf_diag::event!("dist.sync_checkpoint", rank = env.rank, step = step);
    Ok(())
}

fn load_sync_checkpoint<L: Checkpointable>(
    env: &WorkerEnv,
    step: u64,
    model: &mut L,
    device: &Device,
) -> Result<(), RuntimeError> {
    let path = latest(&env.cfg.ckpt_dir)?.ok_or_else(|| {
        RuntimeError::net(
            "dist.rejoin",
            Some(env.rank as usize),
            format!("no sync checkpoint in {}", env.cfg.ckpt_dir.display()),
        )
    })?;
    let ckpt = Checkpoint::load(&path)?;
    if ckpt.step != step {
        return Err(RuntimeError::net(
            "dist.rejoin",
            Some(env.rank as usize),
            format!(
                "sync checkpoint is at step {}, but the view resumes at {step}",
                ckpt.step
            ),
        ));
    }
    ckpt.restore(model, device)?;
    s4tf_diag::event!("dist.rejoin_load", rank = env.rank, step = step);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_nn::FaultPolicy;
    use s4tf_tensor::FaultKind;
    use std::path::PathBuf;

    /// A config with no field at its `ClusterConfig::new` value, so a
    /// decoder that defaulted anything would fail the comparison.
    fn sample(abort: Option<(u32, u64, String)>) -> WorkerEnv {
        WorkerEnv {
            rank: 3,
            coord_port: 50_123,
            cfg: ClusterConfig {
                world: 5,
                steps: 17,
                shard_batch: 6,
                learning_rate: 0.1 + 0.2, // not representable in short decimal
                seed: u64::MAX,
                data_seed: 12,
                bucket_bytes: 4096,
                heartbeat_ms: 150,
                timeout_ms: 2500,
                deadline_ms: 90_000,
                max_retries: 2,
                ckpt_dir: PathBuf::from("/tmp/ckpt dir;a=b"),
                fault_policy: FaultPolicy::Retry(4),
                abort,
                restart_ms: Some(0),
                fault_spec: Some("net:0.01:seed=7".to_string()),
                net_mode: None,
            },
        }
    }

    #[test]
    fn worker_env_round_trips_every_field() {
        for abort in [None, Some((3, 2, "midring".to_string()))] {
            let env = sample(abort);
            let hex = env.encode().expect("UTF-8 ckpt_dir");
            assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()), "{hex}");
            let back = WorkerEnv::decode(&hex).expect("own encoding decodes");
            assert_eq!(back, env);
            assert_eq!(
                back.cfg.learning_rate.to_bits(),
                env.cfg.learning_rate.to_bits()
            );
        }
    }

    #[test]
    fn malformed_worker_env_is_a_typed_error_never_a_default() {
        let hex = sample(None).encode().expect("encodes");
        let mut flipped = hex.clone().into_bytes();
        flipped[20] = if flipped[20] == b'0' { b'1' } else { b'0' };
        let corruptions = [
            ("truncated", hex[..hex.len() - 16].to_string()),
            (
                "non-hex",
                hex.replacen(|c: char| c.is_ascii_hexdigit(), "g", 1),
            ),
            ("flipped digit", String::from_utf8(flipped).expect("ascii")),
            ("odd length", hex[1..].to_string()),
            ("empty", String::new()),
        ];
        for (what, bad) in corruptions {
            let err = WorkerEnv::decode(&bad).expect_err(what);
            assert_eq!(err.kind, FaultKind::Net, "{what}: {err}");
            assert_eq!(err.op, "dist.worker", "{what}: {err}");
        }
        // The test process was not spawned by a launcher.
        let err = WorkerEnv::from_env().expect_err("variable is not set");
        assert_eq!(err.op, "dist.worker", "{err}");
        assert!(!is_worker_process());
    }

    /// A heartbeat gets no reply, so under Nagle's algorithm the control
    /// message after it waits for the coordinator's delayed ACK (about
    /// 40 ms). Round trips interleaved with a 10 ms heartbeat pump must
    /// each stay well under one such stall; without `TCP_NODELAY` on the
    /// control streams this loop's worst round trip is ≈ 40 ms.
    #[test]
    fn control_round_trips_beside_heartbeats_without_nagle_stalls() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let coord_port = listener.local_addr().expect("addr").port();
        let coordinator = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            control_nodelay(&s, Some(0)).expect("coordinator side");
            let commit = Control::Commit {
                survivors: 1,
                then_sync: false,
            };
            let reply = commit.frame(COORDINATOR, 0, 0, 0).encode();
            while let Ok(frame) = read_frame(&mut s, None) {
                if frame.kind != kind::HEARTBEAT && write_encoded(&mut s, &reply, None).is_err() {
                    return;
                }
            }
        });
        let cfg = ClusterConfig::new(1, 1, PathBuf::from("unused"));
        let env = WorkerEnv {
            rank: 0,
            coord_port,
            cfg,
        };
        let mut link = ControlLink::connect(&env).expect("worker side");
        let pump = HeartbeatPump::start(Arc::clone(&link.writer), 0, 10);
        let done = Control::StepDone {
            loss: 0.0,
            allreduce_us: 0,
            tx_bytes: 0,
        };
        let mut worst = Duration::ZERO;
        for _ in 0..150 {
            std::thread::sleep(Duration::from_millis(1));
            let started = Instant::now();
            link.send(&done).expect("send");
            let (_, reply) = link.recv().expect("reply");
            assert!(matches!(reply, Control::Commit { .. }), "{reply:?}");
            worst = worst.max(started.elapsed());
        }
        drop(pump);
        drop(link);
        coordinator.join().expect("coordinator thread");
        assert!(
            worst < Duration::from_millis(25),
            "worst control round trip {worst:?}"
        );
    }

    /// A worker drops its pump when `Shutdown` arrives, and the process
    /// exits only after the drop returns. With a 10 s interval, a pump
    /// that slept out its interval would hold that exit for ≈ 10 s.
    #[test]
    fn dropping_the_heartbeat_pump_returns_without_waiting_out_its_interval() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let coord_port = listener.local_addr().expect("addr").port();
        let coordinator = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            while read_frame(&mut s, None).is_ok() {}
        });
        let cfg = ClusterConfig::new(1, 1, PathBuf::from("unused"));
        let env = WorkerEnv {
            rank: 0,
            coord_port,
            cfg,
        };
        let link = ControlLink::connect(&env).expect("worker side");
        let pump = HeartbeatPump::start(Arc::clone(&link.writer), 0, 10_000);
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        drop(pump);
        let took = started.elapsed();
        drop(link);
        coordinator.join().expect("coordinator thread");
        assert!(
            took < Duration::from_millis(500),
            "dropping the pump took {took:?}"
        );
    }
}
