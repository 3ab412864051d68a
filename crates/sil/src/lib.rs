//! # s4tf-sil
//!
//! A SIL-like SSA intermediate representation and the compile-time
//! source-to-source automatic-differentiation transformation of *Swift for
//! TensorFlow* (MLSys 2021), Section 2.2.
//!
//! The paper's differentiation transformation "operates on the Swift
//! Intermediate Language (SIL), an intermediate representation in static
//! single assignment form". Rust exposes no such compiler surface, so this
//! crate builds the IR the transformation needs:
//!
//! * [`ir`] — functions of basic blocks with *block arguments* (SIL-style
//!   phi nodes), scalar `f64`/`bool` values, arithmetic and transcendental
//!   instructions, calls, comparisons and branching terminators;
//! * [`builder`] — an ergonomic function builder;
//! * [`parser`] / [`printer`] — a stable textual format, round-trippable;
//! * [`verify`] — structural + dominance verification;
//! * [`interp`] — a small-step evaluator (with fuel) defining the IR's
//!   semantics, used to check that every transformation is
//!   semantics-preserving;
//! * [`passes`] — ordinary optimization passes (constant folding, CSE, DCE,
//!   inlining, CFG simplification). The paper's claim that "the code
//!   generated by the AD system is fully amenable to the same set of
//!   compile-time optimizations as regular Swift code" is checked in tests
//!   by running these passes over synthesized derivatives;
//! * [`ad`] — the differentiation transformation itself, in the paper's
//!   three steps:
//!   1. **activity analysis** ([`ad::activity`]): which instructions are
//!      both *varied* (depend on inputs) and *useful* (contribute to the
//!      output);
//!   2. **differentiability checking** ([`ad::check`]): errors for active
//!      non-differentiable instructions, warnings for constant returns;
//!   3. **derivative synthesis** ([`ad::jvp`], [`ad::vjp`]): the JVP is a
//!      plain IR-to-IR transform (tangents flow forwards along the same
//!      CFG); the VJP synthesizes, per basic block, a statically-determined
//!      *pullback record* (which values to capture, which adjoint
//!      operations to run) — the paper's "statically-typed records
//!      corresponding to the basic blocks of the control flow graph" —
//!      linked at runtime into a nested branch-trace structure.
//!
//! Custom base derivatives come from the `s4tf-core`
//! [derivative registry](s4tf_core::registry) (`@derivative(of:)`), so the
//! synthesis recursion terminates exactly where the paper says it does.
//!
//! ## Example
//!
//! ```
//! use s4tf_sil::parser::parse_module;
//! use s4tf_sil::ad::gradient;
//!
//! let module = parse_module(
//!     r#"
//!     func @f(%x: f64) -> f64 {
//!     bb0(%x: f64):
//!       %y = mul %x, %x
//!       %z = sin %y
//!       ret %z
//!     }
//!     "#,
//! )?;
//! let f = module.func_id("f").unwrap();
//! // d/dx sin(x²) = cos(x²)·2x
//! let g = gradient(&module, f, &[0.7])?;
//! assert!((g[0] - (0.49f64.cos() * 1.4)).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ad;
pub mod builder;
pub mod interp;
pub mod ir;
pub mod parser;
pub mod passes;
pub mod printer;
pub mod verify;

// Short names for the instrumentation crates; each gates itself at run time.
use s4tf_diag as diag;

pub use builder::FunctionBuilder;
pub use interp::{EvalError, Interpreter, Value};
pub use ir::{Block, BlockId, CmpPred, FuncId, Function, Inst, Module, Terminator, Type, ValueId};
