//! The `Layer` protocol (paper §4.1).

use s4tf_core::Differentiable;
use s4tf_runtime::DTensor;

/// The pullback a layer's VJP returns: maps the output cotangent to the
/// layer-parameter cotangent and the input cotangent.
pub type PullbackFn<L> =
    Box<dyn Fn(&DTensor) -> (<L as Differentiable>::TangentVector, DTensor) + Send>;

/// The pullback of [`Layer::forward_with_pullback_wrt`]: the input
/// cotangent is `Some` exactly when [`Wrt::ParametersAndInput`] was asked
/// for.
pub type PullbackWrtFn<L> =
    Box<dyn Fn(&DTensor) -> (<L as Differentiable>::TangentVector, Option<DTensor>) + Send>;

/// What a VJP differentiates with respect to.
///
/// The paper's `gradient(at: model)` asks for the parameters only, and
/// Swift's activity analysis then skips every derivative nobody consumes.
/// Here the caller states it: under [`Wrt::Parameters`] a layer does none
/// of the work that only the input cotangent needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrt {
    /// The parameter tangent only; the pullback returns no input cotangent.
    Parameters,
    /// The parameter tangent and the input cotangent.
    ParametersAndInput,
}

impl Wrt {
    /// True when the input cotangent is wanted.
    pub fn input(self) -> bool {
        self == Wrt::ParametersAndInput
    }
}

/// The input cotangent a composite's inner pullback returned: the
/// composite asked that layer for [`Wrt::ParametersAndInput`] because the
/// chain rule consumes it.
pub fn input_cotangent(dx: &Option<DTensor>) -> &DTensor {
    dx.as_ref().expect(WITH_INPUT)
}

const WITH_INPUT: &str = "a pullback asked for ParametersAndInput returns the input cotangent";

/// A neural-network layer: a `Differentiable` value whose application to an
/// input is differentiable with respect to its parameters and, when the
/// caller asks for it, its input.
///
/// This is the paper's `Layer` protocol: "each conforming Layer must
/// provide an implementation of `callAsFunction` that defines how to apply
/// a transformation to a given input; this function must be annotated
/// `@differentiable`". In Rust the derivative is supplied explicitly as a
/// VJP ([`Layer::forward_with_pullback_wrt`]) — the same bundle Swift's
/// compiler synthesizes (paper Figure 3) — and composes mechanically:
/// a model's pullback chains its sublayers' pullbacks in reverse, asking
/// each for the input cotangent only where the chain consumes it.
pub trait Layer: Differentiable + 'static {
    /// Applies the layer (Swift's `callAsFunction`).
    fn forward(&self, input: &DTensor) -> DTensor;

    /// Applies the layer, returning the output together with the pullback
    /// with respect to the parameters and, under
    /// [`Wrt::ParametersAndInput`], the input.
    fn forward_with_pullback_wrt(
        &self,
        input: &DTensor,
        wrt: Wrt,
    ) -> (DTensor, PullbackWrtFn<Self>);

    /// [`Layer::forward_with_pullback_wrt`] with respect to (parameters,
    /// input).
    fn forward_with_pullback(&self, input: &DTensor) -> (DTensor, PullbackFn<Self>) {
        let (y, pullback) = self.forward_with_pullback_wrt(input, Wrt::ParametersAndInput);
        let pullback = move |dy: &DTensor| {
            let (tangent, dx) = pullback(dy);
            (tangent, dx.expect(WITH_INPUT))
        };
        (y, Box::new(pullback))
    }
}
