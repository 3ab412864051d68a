//! Multi-process data-parallel training with a fault-hardened ring
//! all-reduce over local TCP (paper §7: the distributed training story,
//! reproduced std-only).
//!
//! One launcher process ([`cluster::run`]) spawns `world` worker
//! processes — this same executable re-exec'd with its whole
//! configuration in `S4TF_DIST_WORKER` — and drives them through a typed control
//! protocol ([`protocol::Control`]) while gradients travel the data plane
//! as a bucketed ring all-reduce ([`collective::ring_all_reduce`]) with
//! length-prefixed, checksummed frames ([`wire`]).
//!
//! The headline is robustness, not just bandwidth:
//!
//! * **Bit-exact data parallelism.** The ring's f32 addition order is
//!   fixed and replayable ([`collective::reference_ring_sum`]), so a
//!   4-worker run matches the single-process baseline bit for bit
//!   ([`reference::reference_run`]).
//! * **Two-phase commit.** Updates apply only after every member reported
//!   the collective done; a worker dying mid-step can never cause
//!   divergence among survivors.
//! * **Failure detection and expulsion.** Per-peer heartbeats, straggler
//!   timeouts, and control-connection EOF detect a dead worker; under
//!   [`s4tf_nn::FaultPolicy::DropShard`] it is expelled, the step is
//!   redone by the survivors, and the gradient average renormalizes over
//!   the shrunken membership — graceful degradation, never a hang.
//! * **Checkpoint rejoin.** A restarted worker is readmitted at a commit
//!   boundary via a sync checkpoint ([`s4tf_nn::checkpoint`]), resuming
//!   bit-identically.
//! * **Deterministic chaos.** The `net` fault site
//!   (`S4TF_FAULT_SPEC=net:p:seed=s`) injects corrupt/drop/delay wire
//!   faults with per-link replayable draws ([`faults`]), and
//!   [`ClusterConfig::abort`] plants a `kill -9`-style death at an exact
//!   rank, step and phase.
//!
//! Every socket and thread-join path returns typed per-peer
//! [`s4tf_tensor::RuntimeError`]s (`FaultKind::Net`, message prefixed
//! with `peer rank N:`); there are no `unwrap()`s on I/O.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod collective;
pub mod coordinator;
pub mod faults;
pub mod lenet;
pub mod protocol;
pub mod reference;
pub mod wire;
pub mod worker;

pub use cluster::{run, ClusterConfig};
pub use coordinator::{ClusterReport, StepRecord};
pub use faults::NetFaultMode;
pub use reference::{full_schedule, reference_run};
pub use worker::{is_worker_process, run_worker, WorkerEnv};
