//! # s4tf-runtime
//!
//! The device runtime: the three Tensor execution strategies of paper §3,
//! behind one value-semantic tensor type, plus the simulated accelerator
//! used by the datacenter-scale experiments (§5.1).
//!
//! * **Naive** (§3.1): direct, synchronous CPU kernels — no dispatch layer
//!   at all. Portable, tiny, the backend used for on-device training
//!   (Table 4).
//! * **Eager** (§3.2): define-by-run asynchronous op-by-op dispatch. Each
//!   operation is boxed and queued to a worker thread (the "accelerator");
//!   the host runs ahead, pipelining kernel launches, and blocks only when
//!   the program *observes* a tensor's contents.
//! * **Lazy** (§3.3): operations record a trace (an
//!   [`s4tf_xla::HloGraph`]); nothing executes until a tensor is observed
//!   or [`Device::barrier`] (the paper's `LazyTensorBarrier()`) cuts the
//!   trace, which is then hashed into the program cache, JIT-compiled with
//!   fusion, and run.
//!
//! The user-facing type is [`DTensor`]: the same eager programming model on
//! every device — code cannot tell when a lazy operation actually executes
//! (the paper's "illusion of eager execution"), except through timing.
//! `DTensor` has mutable value semantics like the underlying
//! [`s4tf_tensor::Tensor`], and implements the `s4tf-core` `Differentiable`
//! protocol, so models built from it train on any backend.
//!
//! ## Example
//!
//! ```
//! use s4tf_runtime::{Device, DTensor};
//! use s4tf_tensor::Tensor;
//!
//! for device in [Device::naive(), Device::eager(), Device::lazy()] {
//!     let x = DTensor::from_tensor(Tensor::from_vec(vec![1.0, -2.0], &[2]), &device);
//!     let y = x.relu().mul_scalar(10.0);
//!     // Observation forces execution on every backend:
//!     assert_eq!(y.to_tensor().as_slice(), &[10.0, 0.0]);
//! }
//! ```

pub mod device;
pub mod dtensor;
pub mod eager;
pub mod lazy;
pub mod sim;

// Short names for the instrumentation crates; each gates itself at run time.
use s4tf_diag as diag;
use s4tf_fault as fault;
use s4tf_metrics as met;
use s4tf_profile as prof;

pub use device::Device;
pub use dtensor::DTensor;
pub use s4tf_tensor::{FaultKind, RuntimeError};
// The fused-kernel compiler behind the lazy backend: its counters
// surface here so training code can ask how its fused kernels were
// compiled and launched without depending on `s4tf-xla` directly.
pub use s4tf_xla::codegen;
pub use s4tf_xla::{CacheStats, CodegenStats};
