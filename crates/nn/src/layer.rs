//! The `Layer` protocol (paper §4.1).

use s4tf_core::Differentiable;
use s4tf_runtime::DTensor;

/// The pullback a layer's VJP returns: maps the output cotangent to the
/// layer-parameter cotangent and the input cotangent.
pub type PullbackFn<L> =
    Box<dyn Fn(&DTensor) -> (<L as Differentiable>::TangentVector, DTensor) + Send>;

/// A neural-network layer: a `Differentiable` value whose application to an
/// input is differentiable with respect to *both* the parameters and the
/// input.
///
/// This is the paper's `Layer` protocol: "each conforming Layer must
/// provide an implementation of `callAsFunction` that defines how to apply
/// a transformation to a given input; this function must be annotated
/// `@differentiable`". In Rust the derivative is supplied explicitly as a
/// VJP ([`Layer::forward_with_pullback`]) — the same bundle Swift's
/// compiler synthesizes (paper Figure 3) — and composes mechanically:
/// a model's pullback chains its sublayers' pullbacks in reverse.
pub trait Layer: Differentiable {
    /// Applies the layer (Swift's `callAsFunction`).
    fn forward(&self, input: &DTensor) -> DTensor;

    /// Applies the layer, returning the output together with the pullback
    /// with respect to (parameters, input).
    fn forward_with_pullback(&self, input: &DTensor) -> (DTensor, PullbackFn<Self>);
}
