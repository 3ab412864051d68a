//! The per-kernel instrumentation protocol, in one place.
//!
//! Every backend launches kernels through a [`KernelScope`]: the naive
//! device around each op, the eager device split across its enqueue and
//! its worker job, the compiled executor around each plan node. The scope
//! owns the order of the bookkeeping:
//!
//! 1. [`KernelScope::enqueue`] fixes the op id and reads the clock;
//! 2. [`KernelScope::run`] draws the kernel-site fault, runs the kernel
//!    under `catch_unwind`, turns a failure into an attributed
//!    [`RuntimeError`] plus its `fault.*` event, and on success records
//!    the dispatch-latency sample and the `OpEvent` with its cost;
//! 3. [`KernelScope::scan`] checks the output's numerics. The caller
//!    invokes it *after* handing the result to any other thread: in
//!    [`NumericsMode::Panic`](s4tf_diag::NumericsMode) the scan unwinds,
//!    and a waiter on an unpublished result would never wake.
//!
//! This module is also the only code that builds an op event, so every
//! backend's events obey one scheduling rule: a thread is one lane, and an
//! event depends on its data inputs and on the event recorded before it on
//! the same thread. The eager worker is its queue's FIFO lane; a lazy
//! barrier's trace, compile ([`phase_event`]) and kernel events follow each
//! other on the barrier's thread; naive ops chain in program order.
//!
//! With every switch off a launch costs the relaxed loads of the gates
//! and the `catch_unwind` frame; nothing is formatted, measured or
//! allocated for a layer that is not recording.

use crate::op::HloOp;
use crate::{diag, fault, met, prof};
use fault::FaultSite;
use s4tf_tensor::{panic_message, OpCost, RuntimeError, Shape, Tensor};
use std::borrow::Borrow;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

thread_local! {
    /// The id of the last op event this thread recorded: the next one
    /// waits for it (0, no edge, before the first).
    static LANE_TAIL: Cell<u64> = const { Cell::new(0) };
}

/// `deps` plus the lane edge to the event recorded before `id` on this
/// thread; `id` becomes the lane's tail.
fn with_lane_edge(id: u64, mut deps: Vec<u64>) -> Vec<u64> {
    deps.push(LANE_TAIL.with(|tail| tail.replace(id)));
    deps
}

/// Records a non-kernel `phase` of `backend` (the lazy device's `trace`
/// and `compile`) that ran on this thread from `start_us` until now. It
/// has no data inputs, so it waits only on its lane. A no-op unless the
/// profiler is on.
pub fn phase_event(backend: &'static str, phase: &'static str, start_us: u64) {
    if prof::enabled() {
        let id = prof::next_op_id();
        let deps = with_lane_edge(id, Vec::new());
        let end_us = prof::now_us();
        prof::op_event(
            id, phase, backend, phase, "", start_us, start_us, end_us, deps, 0, 0,
        );
    }
}

/// Draws `site` for `op`: an injected fault comes back as the attributed
/// error, with its `fault.injected` event already logged.
pub fn injected_fault(site: FaultSite, op: &HloOp, backend: &'static str) -> Option<RuntimeError> {
    if !fault::should_inject(site) {
        return None;
    }
    let mnemonic = op.mnemonic();
    diag::event!(
        "fault.injected",
        site = site.name(),
        op = mnemonic,
        backend = backend,
    );
    Some(RuntimeError::injected(mnemonic, backend, site.name()).with_span(prof::current_span()))
}

/// One kernel launch's identity and clocks, fixed when the op is
/// enqueued; see the module docs for the protocol.
#[derive(Debug)]
pub struct KernelScope {
    backend: &'static str,
    op_id: u64,
    /// Whether the profiler was on at enqueue; the `OpEvent` is recorded
    /// only then, so its clocks are always real.
    profiling: bool,
    /// Whether metrics were on at enqueue: the launch then feeds its
    /// backend's dispatch-latency histogram (enqueue to completion).
    sampling: bool,
    /// [`prof::now_us`] at enqueue, read when either record is kept.
    enqueue_us: u64,
}

impl KernelScope {
    /// Opens the scope where the op is dispatched.
    pub fn enqueue(backend: &'static str) -> KernelScope {
        let profiling = prof::enabled();
        let sampling = met::enabled();
        KernelScope {
            backend,
            op_id: if profiling { prof::next_op_id() } else { 0 },
            profiling,
            sampling,
            enqueue_us: if profiling || sampling {
                prof::now_us()
            } else {
                0
            },
        }
    }

    /// The profiler id of this launch, which downstream ops name as their
    /// dependency; 0 (no edge) when the launch records no `OpEvent`.
    pub fn op_id(&self) -> u64 {
        self.op_id
    }

    /// Whether [`run`](KernelScope::run) will ask for `operands`.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Runs `kernel` for `op`. An injected kernel-site fault or a kernel
    /// panic returns the attributed error; the caller poisons its result
    /// with it. On success it returns the launch's analytic cost beside
    /// the output (zero unless profiling).
    ///
    /// `operands` gives the shapes of the kernel's operands and the op ids
    /// that produced them (its data dependencies); it runs only when the
    /// scope is profiling, after the kernel's end is timed.
    ///
    /// # Panics
    /// Resumes the kernel's panic when `validate` panics too: the operands
    /// were invalid, and shape errors stay synchronous (paper §4). It runs
    /// only after a kernel panic; backends that infer shapes before
    /// dispatching pass `|| ()`.
    pub fn run<S: Borrow<Shape>>(
        &self,
        op: &HloOp,
        kernel: impl FnOnce() -> Tensor<f32>,
        operands: impl FnOnce() -> (Vec<S>, Vec<u64>),
        validate: impl FnOnce(),
    ) -> Result<(Tensor<f32>, OpCost), RuntimeError> {
        if let Some(e) = injected_fault(FaultSite::Kernel, op, self.backend) {
            return Err(e);
        }
        let start_us = if self.profiling { prof::now_us() } else { 0 };
        // Only the kernel is caught: the numerics scan stays outside so a
        // Panic-mode abort unwinds as requested, not as a poisoned value.
        let out = match catch_unwind(AssertUnwindSafe(kernel)) {
            Ok(out) => out,
            Err(payload) => {
                if catch_unwind(AssertUnwindSafe(validate)).is_err() {
                    resume_unwind(payload);
                }
                let mnemonic = op.mnemonic();
                diag::event!("fault.kernel_panic", op = mnemonic, backend = self.backend);
                return Err(
                    RuntimeError::kernel(mnemonic, self.backend, panic_message(&*payload))
                        .with_span(prof::current_span()),
                );
            }
        };
        let end_us = if self.profiling || self.sampling {
            prof::now_us()
        } else {
            0
        };
        if self.sampling {
            met::dispatch_hist(self.backend, op.family())
                .record(end_us.saturating_sub(self.enqueue_us));
        }
        if !self.profiling {
            return Ok((out, OpCost::ZERO));
        }
        let (shapes, deps) = operands();
        let shapes: Vec<&Shape> = shapes.iter().map(Borrow::borrow).collect();
        let cost = crate::cost::op_cost(op, &shapes, out.shape());
        // Fused nodes get their own roofline rows (`fused@codegen`):
        // compiled loop nests are not comparable with the per-op kernels'
        // `simd8`/`scalar` rows.
        let path = if matches!(op, HloOp::Fused { .. }) {
            "codegen"
        } else {
            s4tf_tensor::path_label()
        };
        prof::op_event(
            self.op_id,
            op.family(),
            self.backend,
            "kernel",
            path,
            self.enqueue_us,
            start_us,
            end_us,
            with_lane_edge(self.op_id, deps),
            cost.flops,
            cost.bytes,
        );
        Ok((out, cost))
    }

    /// Scans `out` for the first non-finite value and attributes it to
    /// `op` (a no-op unless numerics checking is on). Call it after the
    /// result is visible to every thread that may be waiting for it.
    pub fn scan(&self, op: &HloOp, out: &Tensor<f32>) {
        if diag::numerics_enabled() {
            let _ = diag::check_f32s(
                &op.mnemonic(),
                self.backend,
                out.dims(),
                out.as_slice(),
                prof::current_span().as_deref(),
            );
        }
    }
}
