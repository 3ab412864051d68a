//! # s4tf-nn
//!
//! The neural-network library of the Swift-for-TensorFlow reproduction:
//! the paper's `Layer` protocol and the standard layers, losses, optimizers
//! and training loop built on *mutable value semantics* (paper §4.1–4.2).
//!
//! Key correspondences with the paper:
//!
//! * **[`Layer`]** ↔ Swift's `Layer` protocol: a `Differentiable` struct of
//!   parameters whose `callAsFunction` (here [`Layer::forward`]) is
//!   differentiable. Reverse-mode derivatives are provided as explicit VJPs
//!   ([`Layer::forward_with_pullback_wrt`]), the exact formulation of paper
//!   Figure 3, asked for with respect to the parameters alone or the
//!   parameters and the input ([`Wrt`]); the `differentiable_struct!`
//!   macro synthesizes each model's `TangentVector` like Swift's derived
//!   conformances.
//! * **Models are plain structs of layers** (paper Figure 6) — no
//!   `Variable` type, no parameter wrappers: composition of mutable value
//!   semantics and the AD protocol lets types be used directly.
//! * **Optimizers borrow the model uniquely** (paper §4.2): an
//!   [`optimizer::Optimizer::update`] takes `&mut M` and moves the model
//!   along the scaled gradient in place, so training is
//!   `(inout Model, Minibatch) -> Void` — no second copy of the weights.
//! * **The training loop auto-inserts the barrier** (paper §3.4): "a
//!   training-loop library can automatically call `LazyTensorBarrier()`
//!   after the optimizer update step on behalf of the user" — see
//!   [`train::train_classifier_step`].
//!
//! Everything is written against [`s4tf_runtime::DTensor`], so the same
//! model definition trains on the naive, eager and lazy backends.

pub mod activation;
pub mod checkpoint;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod optimizer;
pub mod schedule;
pub mod train;

// Short names for the instrumentation crates; each gates itself at run time.
use s4tf_diag as diag;
use s4tf_fault as fault;
use s4tf_metrics as met;
use s4tf_profile as prof;

pub use activation::Activation;
pub use checkpoint::{Checkpoint, Checkpointable, TrainingSession};
pub use layer::{input_cotangent, Layer, PullbackFn, PullbackWrtFn, Wrt};
pub use layers::{
    AvgPool2D, BatchNorm, Chain, Conv2D, Dense, Dropout, Embedding, Flatten, MaxPool2D,
};
pub use loss::{mse, softmax_cross_entropy};
pub use optimizer::{Adam, Optimizer, RmsProp, Sgd};
pub use schedule::Schedule;
pub use train::FaultPolicy;

/// Convenient glob-import surface for model code.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::checkpoint::{Checkpoint, Checkpointable, TrainingSession};
    pub use crate::layer::{input_cotangent, Layer, PullbackFn, PullbackWrtFn, Wrt};
    pub use crate::layers::{
        AvgPool2D, BatchNorm, Chain, Conv2D, Dense, Dropout, Embedding, Flatten, MaxPool2D,
    };
    pub use crate::loss::{mse, softmax_cross_entropy};
    pub use crate::optimizer::{Adam, Optimizer, RmsProp, Sgd};
    pub use crate::schedule::Schedule;
    pub use crate::train::FaultPolicy;
    pub use s4tf_core::prelude::*;
    pub use s4tf_runtime::{DTensor, Device};
    pub use s4tf_tensor::{Padding, Tensor};
}
