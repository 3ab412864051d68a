//! # s4tf-core
//!
//! The differentiable-programming core of the Swift-for-TensorFlow
//! reproduction: Section 2 of *Swift for TensorFlow: A portable, flexible
//! platform for deep learning* (MLSys 2021).
//!
//! The paper's AD system has three pillars, each reproduced here:
//!
//! 1. **The [`Differentiable`] protocol** (paper Figure 1): any type with an
//!    associated [`Differentiable::TangentVector`] (an
//!    [`AdditiveArithmetic`] vector-space type) and a
//!    [`Differentiable::move_along`] ("exponential map") can be
//!    differentiated — AD is *not coupled to any Tensor type*.
//!    The [`differentiable_struct!`] macro plays the role of Swift's derived
//!    conformances, synthesizing a `TangentVector` struct for aggregates.
//! 2. **Differentiable function values** (paper Figure 3): a
//!    [`DifferentiableFn`] bundles the original function with its JVP
//!    (forward mode) and VJP (reverse mode) derivative functions, each
//!    returning the value paired with a *differential* or *pullback*
//!    closure. Differential operators — [`gradient`],
//!    [`value_with_gradient`], [`value_with_pullback`],
//!    [`value_with_differential`], [`derivative`] — are ordinary
//!    higher-order functions over these bundles, exactly as in the paper
//!    (Figure 2).
//! 3. **Custom base derivatives** (paper §2.1, `@derivative(of:)`): the
//!    [`registry`] maps operation names to user-registered derivative
//!    functions; the recursive derivative-synthesis in `s4tf-sil`
//!    terminates at these registered base cases.
//!
//! The compile-time *code transformation* itself (paper §2.2: activity
//! analysis, differentiability checking, derivative synthesis over an
//! SSA-form IR) lives in the sibling crate `s4tf-sil`, since it operates on
//! an intermediate representation rather than on values.
//!
//! Additionally this crate contains:
//!
//! * [`tape`] — a define-by-run, runtime-taped reverse-mode AD (the
//!   *alternative* design the paper positions itself against in §2.3);
//!   kept as an ablation baseline for the benchmarks;
//! * [`subscript`] — the paper's Appendix B case study: the O(n) functional
//!   formulation of the array-subscript pullback vs. the O(1)
//!   mutable-value-semantics (`inout`) formulation.
//!
//! ## Example: gradients via a differentiable function value
//!
//! ```
//! use s4tf_core::prelude::*;
//!
//! // f(x) = x² + 3x; f'(4) = 11.
//! let f = DifferentiableFn::<f64, f64>::from_vjp(|x| {
//!     let x = *x;
//!     (x * x + 3.0 * x, Box::new(move |dy: &f64| dy * (2.0 * x + 3.0)))
//! });
//! assert_eq!(gradient(&4.0, &f), 11.0);
//! ```

pub mod differentiable;
pub mod function;
mod macros;
pub mod registry;
pub mod subscript;
pub mod tape;
pub mod vector_space;
pub mod visit;

pub use differentiable::Differentiable;
pub use function::{
    derivative, gradient, value_with_differential, value_with_gradient, value_with_pullback,
    DifferentiableFn, Differential, Pullback,
};
pub use vector_space::{AdditiveArithmetic, LossValue, PointwiseMath, VectorSpace};
pub use visit::VisitTangent;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::differentiable::Differentiable;
    pub use crate::differentiable_struct;
    pub use crate::function::{
        derivative, gradient, value_with_differential, value_with_gradient, value_with_pullback,
        DifferentiableFn,
    };
    pub use crate::vector_space::{AdditiveArithmetic, LossValue, PointwiseMath, VectorSpace};
    pub use crate::visit::VisitTangent;
}
