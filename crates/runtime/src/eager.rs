//! The eager device: asynchronous op-by-op dispatch (paper §3.2).
//!
//! "The kernels are dispatched to the accelerator to execute asynchronously
//! and control is returned to the user's program before the kernel
//! finishes. As long as the user's program does not observe the contents of
//! a Tensor, the user's program runs ahead and fills a pipeline of
//! accelerator kernel invocations."
//!
//! Here the "accelerator" is a worker thread fed boxed kernel invocations
//! over a channel. The per-op cost of this strategy — allocation, boxing,
//! channel send, slot synchronization — is exactly the dispatch overhead
//! Table 3 measures against the lazy backend.

use crate::diag;
use crate::fault::FaultSite;
use crate::met;
use crate::prof;
use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use s4tf_tensor::{RuntimeError, Shape, Tensor};
use s4tf_xla::exec::eval_op_owned;
use s4tf_xla::scope::{injected_fault, KernelScope};
use s4tf_xla::HloOp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The value a slot resolves to: a materialized tensor, or the attributed
/// error that *poisoned* it (paper §4: asynchronous failures attach to
/// values and surface at observation points).
type SlotValue = Result<Tensor<f32>, RuntimeError>;

/// A write-once result slot the host can block on.
#[derive(Default)]
struct Slot {
    value: Mutex<Option<SlotValue>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, t: SlotValue) {
        let mut guard = self.value.lock();
        debug_assert!(guard.is_none(), "slot filled twice");
        *guard = Some(t);
        self.ready.notify_all();
    }

    fn wait(&self) -> SlotValue {
        let mut guard = self.value.lock();
        while guard.is_none() {
            self.ready.wait(&mut guard);
        }
        guard.clone().expect("checked above")
    }

    /// Non-blocking read (used inside the worker, where FIFO execution
    /// guarantees operands are already filled).
    fn take_ready(&self) -> SlotValue {
        self.value
            .lock()
            .clone()
            .expect("FIFO worker ordering guarantees operands are ready")
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// First *originated* error on the queue: kernel panics and injected
/// faults record here (propagated poison does not), so `sync_checked`
/// can report a failure even if every poisoned handle was dropped
/// unobserved.
type FirstError = Arc<Mutex<Option<RuntimeError>>>;

fn record_first(slot: &FirstError, err: &RuntimeError) {
    let mut guard = slot.lock();
    if guard.is_none() {
        *guard = Some(err.clone());
    }
}

struct QueueInner {
    sender: Option<Sender<Job>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    dispatched: AtomicU64,
    /// Kernels the worker has finished. Held behind its own `Arc` so
    /// jobs can bump it without keeping the whole queue alive (which
    /// would make the worker join itself on teardown).
    completed: Arc<AtomicU64>,
    /// See [`FirstError`]; its own `Arc` for the same teardown reason.
    first_error: FirstError,
}

impl QueueInner {
    fn sender(&self) -> &Sender<Job> {
        // Infallible: `sender` is only taken in `Drop`, after which no
        // method can run on this queue.
        self.sender.as_ref().expect("sender lives until drop")
    }
}

impl Drop for QueueInner {
    fn drop(&mut self) {
        // Close the channel so the worker exits, then join it.
        self.sender = None;
        if let Some(handle) = self.worker.get_mut().take() {
            let _ = handle.join();
        }
    }
}

/// The eager device's dispatch queue and worker thread.
#[derive(Clone)]
pub struct EagerQueue {
    inner: Arc<QueueInner>,
}

impl std::fmt::Debug for EagerQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EagerQueue(dispatched: {})", self.dispatched())
    }
}

impl Default for EagerQueue {
    fn default() -> Self {
        EagerQueue::new()
    }
}

impl EagerQueue {
    /// Starts a queue with its worker thread.
    pub fn new() -> Self {
        let (sender, receiver) = unbounded::<Job>();
        let worker = std::thread::Builder::new()
            .name("s4tf-eager-worker".into())
            .spawn(move || {
                prof::set_thread_name("eager-worker");
                for job in receiver {
                    job();
                }
            })
            .expect("failed to spawn eager worker");
        EagerQueue {
            inner: Arc::new(QueueInner {
                sender: Some(sender),
                worker: Mutex::new(Some(worker)),
                dispatched: AtomicU64::new(0),
                completed: Arc::new(AtomicU64::new(0)),
                first_error: Arc::new(Mutex::new(None)),
            }),
        }
    }

    /// True if both handles share one worker queue.
    pub fn same_queue(&self, other: &EagerQueue) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Total kernels dispatched so far (the op-by-op overhead metric).
    pub fn dispatched(&self) -> u64 {
        self.inner.dispatched.load(Ordering::Relaxed)
    }

    /// Blocks until every dispatched kernel has executed. A dead worker
    /// (killed by a Panic-mode numerics abort) counts as drained.
    pub fn sync(&self) {
        let slot = Arc::new(Slot::default());
        let s = Arc::clone(&slot);
        if self
            .inner
            .sender()
            .send(Box::new(move || s.fill(Ok(Tensor::scalar(0.0)))))
            .is_err()
        {
            // Receiver gone: the worker has terminated, so nothing is
            // still running — there is nothing to wait for.
            return;
        }
        let _ = slot.wait();
    }

    /// [`sync`](EagerQueue::sync), then reports the first error that
    /// *originated* on this queue (kernel panic or injected fault) since
    /// the last check, clearing it. Propagated poison that was already
    /// observed through `to_host_checked` is the same error.
    pub fn sync_checked(&self) -> Result<(), RuntimeError> {
        self.sync();
        match self.inner.first_error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Kernels dispatched but not yet executed by the worker.
    pub fn queue_depth(&self) -> u64 {
        self.dispatched()
            .saturating_sub(self.inner.completed.load(Ordering::Relaxed))
    }

    /// Enqueues a job; a dead worker is reported as an error rather than
    /// a panic, so the caller can poison the result slot. `flow_id` (0 =
    /// none) draws the Chrome-trace arrow from this enqueue to the
    /// worker-side `kernel_run` span.
    fn dispatch(&self, job: Job, flow_id: u64) -> Result<(), RuntimeError> {
        let mut span = prof::span("eager.enqueue");
        if flow_id != 0 {
            span.flow_start(flow_id);
        }
        self.inner.dispatched.fetch_add(1, Ordering::Relaxed);
        let sent = self.inner.sender().send(job);
        met::gauge!(
            "s4tf_queue_depth{queue=\"eager\"}",
            "Kernels dispatched to the eager worker but not yet executed"
        )
        .set(self.queue_depth() as i64);
        sent.map_err(|_| {
            let e = RuntimeError::kernel(
                "eager.dispatch",
                "eager",
                "eager worker thread has terminated (a previous kernel aborted)",
            );
            record_first(&self.inner.first_error, &e);
            e
        })
    }
}

/// A tensor resident on the eager device: a future-like handle whose shape
/// is known immediately (shape inference is synchronous, §3.2) but whose
/// contents materialize asynchronously.
#[derive(Clone, Debug)]
pub struct EagerTensor {
    queue: EagerQueue,
    shape: Shape,
    slot: Arc<Slot>,
    /// Profiler op id of the kernel that produces this tensor (0 for
    /// host transfers and poisoned handles): the dependency edge recorded
    /// by downstream dispatches for critical-path analysis.
    op_id: u64,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.value.lock().is_some() {
            "ready"
        } else {
            "pending"
        };
        write!(f, "Slot({state})")
    }
}

impl EagerTensor {
    /// Transfers a host tensor to the device (immediate).
    pub fn from_host(queue: &EagerQueue, t: Tensor<f32>) -> Self {
        let slot = Arc::new(Slot::default());
        let shape = t.shape().clone();
        slot.fill(Ok(t));
        EagerTensor {
            queue: queue.clone(),
            shape,
            slot,
            op_id: 0,
        }
    }

    /// A handle already poisoned with `err` (used when lifting a poisoned
    /// value from another device onto this queue).
    pub fn poisoned(queue: &EagerQueue, dims: &[usize], err: RuntimeError) -> Self {
        let slot = Arc::new(Slot::default());
        slot.fill(Err(err));
        EagerTensor {
            queue: queue.clone(),
            shape: Shape::new(dims),
            slot,
            op_id: 0,
        }
    }

    /// The tensor's shape (known without blocking).
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dispatches one kernel asynchronously; returns immediately with a
    /// handle to the (future) result.
    ///
    /// # Panics
    /// Panics (synchronously) on shape-inference failures.
    pub fn dispatch_op(queue: &EagerQueue, op: HloOp, inputs: &[&EagerTensor]) -> EagerTensor {
        let shapes: Vec<&Shape> = inputs.iter().map(|t| &t.shape).collect();
        let shape = op.infer_shape(&shapes);
        let scope = KernelScope::enqueue("eager");
        let op_id = scope.op_id();
        let flow_id = if scope.profiling() {
            prof::next_flow_id()
        } else {
            0
        };
        // What only this side knows about the launch, for its `OpEvent`.
        // The worker thread is the queue's FIFO lane, so the kernel scope
        // adds the edge to the job before.
        let attribution = scope.profiling().then(|| {
            let shapes: Vec<Shape> = inputs.iter().map(|t| t.shape.clone()).collect();
            (shapes, inputs.iter().map(|t| t.op_id).collect())
        });
        let slot = Arc::new(Slot::default());
        let out = Arc::clone(&slot);
        let in_slots: Vec<Arc<Slot>> = inputs.iter().map(|t| Arc::clone(&t.slot)).collect();
        let completed = Arc::clone(&queue.inner.completed);
        let first_error = Arc::clone(&queue.inner.first_error);
        diag::event!("op.dispatch", op = op.mnemonic(), backend = "eager");
        if let Some(e) = injected_fault(FaultSite::Dispatch, &op, "eager") {
            record_first(&first_error, &e);
            slot.fill(Err(e));
            return EagerTensor {
                queue: queue.clone(),
                shape,
                slot,
                op_id: 0,
            };
        }
        let job = Box::new(move || {
            // Result buffers allocated by this kernel are attributed to
            // the eager subsystem in `memory_by_site()`.
            let _site = met::mem_site("eager");
            let mut span = prof::span("eager.kernel_run");
            if span.is_recording() {
                span.annotate("op", op.mnemonic());
                span.annotate_f64("threads_used", s4tf_threads::num_threads() as f64);
                if flow_id != 0 {
                    span.flow_end(flow_id);
                }
            }
            // A poisoned operand propagates without running the kernel:
            // the *first* error (FIFO order makes it the originating op's)
            // rides through the whole downstream dataflow.
            //
            // An operand slot whose only reference is this job (the handle
            // died and no later dispatch captured it) can never be read
            // again, so its value is *stolen* rather than cloned — the
            // kernel then owns the buffer uniquely and may run in place.
            let mut operands: Vec<Tensor<f32>> = Vec::with_capacity(in_slots.len());
            let mut poison: Option<RuntimeError> = None;
            for s in &in_slots {
                let value = if Arc::strong_count(s) == 1 {
                    s.value
                        .lock()
                        .take()
                        .expect("FIFO worker ordering guarantees operands are ready")
                } else {
                    s.take_ready()
                };
                match value {
                    Ok(t) => operands.push(t),
                    Err(e) => {
                        poison = Some(e);
                        break;
                    }
                }
            }
            let result: SlotValue = match poison {
                Some(e) => Err(e),
                // Owned dispatch: operands move into the kernel, which
                // releases (or reuses, via `eval_op_owned`) each input
                // buffer as soon as it has executed instead of pinning
                // all of them until the job completes.
                None => scope
                    .run(
                        &op,
                        || eval_op_owned(&op, operands),
                        || attribution.expect("a profiling scope was given its attribution"),
                        // `dispatch_op` inferred the shape synchronously.
                        || (),
                    )
                    .map(|(t, cost)| {
                        span.record_work(cost.flops, cost.bytes);
                        t
                    })
                    .inspect_err(|e| record_first(&first_error, e)),
            };
            // Fill the slot *before* scanning: in Panic mode the scan
            // unwinds the worker thread, and an unfilled slot would
            // deadlock any host thread already blocked in `to_host`.
            // Observers get the (non-finite) value; the worker dies and
            // the next dispatch poisons its result.
            let probe = match &result {
                Ok(t) if diag::numerics_enabled() => Some(t.clone()),
                _ => None,
            };
            out.fill(result);
            completed.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = probe {
                scope.scan(&op, &t);
            }
        });
        if let Err(e) = queue.dispatch(job, flow_id) {
            // The worker is gone; fill the slot here so observation never
            // deadlocks on a job that will never run.
            slot.fill(Err(e));
        }
        EagerTensor {
            queue: queue.clone(),
            shape,
            slot,
            op_id,
        }
    }

    /// Observes the contents: blocks until the pipeline has produced them.
    ///
    /// # Panics
    /// Panics with the original attributed error if the value is
    /// poisoned; [`to_host_checked`](EagerTensor::to_host_checked) is the
    /// non-panicking observation point.
    pub fn to_host(&self) -> Tensor<f32> {
        self.to_host_checked()
            .unwrap_or_else(|e| panic!("eager tensor observation failed: {e}"))
    }

    /// Observes the contents, surfacing a poisoned value as the error
    /// that originally caused it (with op/backend attribution).
    pub fn to_host_checked(&self) -> Result<Tensor<f32>, RuntimeError> {
        let _span = prof::span("eager.block_on_observe");
        self.slot.wait()
    }

    /// The queue this tensor lives on.
    pub fn queue(&self) -> &EagerQueue {
        &self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_xla::{ElemBinary, ElemUnary};

    #[test]
    fn dispatch_and_observe() {
        let q = EagerQueue::new();
        let x = EagerTensor::from_host(&q, Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        let y = EagerTensor::dispatch_op(&q, HloOp::Unary(ElemUnary::Relu), &[&x]);
        assert_eq!(y.shape().dims(), &[2]);
        assert_eq!(y.to_host().as_slice(), &[0.0, 2.0]);
        assert_eq!(q.dispatched(), 1);
    }

    #[test]
    fn pipeline_runs_ahead() {
        let q = EagerQueue::new();
        let mut t = EagerTensor::from_host(&q, Tensor::ones(&[64]));
        // Dispatch a long chain without observing anything: returns fast.
        for _ in 0..100 {
            t = EagerTensor::dispatch_op(&q, HloOp::Binary(ElemBinary::Add), &[&t, &t]);
        }
        assert_eq!(q.dispatched(), 100);
        // Observation drains the pipeline.
        let v = t.to_host();
        assert_eq!(v.as_slice()[0], 2.0f32.powi(100));
    }

    #[test]
    fn sync_drains() {
        let q = EagerQueue::new();
        let x = EagerTensor::from_host(&q, Tensor::ones(&[8]));
        let y = EagerTensor::dispatch_op(&q, HloOp::Unary(ElemUnary::Exp), &[&x]);
        q.sync();
        // After sync the slot is filled; to_host returns without waiting.
        assert!((y.to_host().as_slice()[0] - std::f32::consts::E).abs() < 1e-6);
    }

    #[test]
    fn shape_errors_are_synchronous() {
        let q = EagerQueue::new();
        let a = EagerTensor::from_host(&q, Tensor::ones(&[2, 3]));
        let b = EagerTensor::from_host(&q, Tensor::ones(&[4]));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            EagerTensor::dispatch_op(&q, HloOp::Binary(ElemBinary::Add), &[&a, &b])
        }));
        assert!(r.is_err(), "shape mismatch must fail at dispatch");
    }

    #[test]
    fn queues_are_independent() {
        let q1 = EagerQueue::new();
        let q2 = EagerQueue::new();
        let x = EagerTensor::from_host(&q1, Tensor::ones(&[4]));
        let _ = EagerTensor::dispatch_op(&q1, HloOp::Unary(ElemUnary::Neg), &[&x]);
        assert_eq!(q1.dispatched(), 1);
        assert_eq!(q2.dispatched(), 0);
    }
}
