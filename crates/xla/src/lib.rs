//! # s4tf-xla
//!
//! An XLA-like domain-specific tensor compiler: the JIT behind the
//! LazyTensor backend (paper §3.3).
//!
//! The paper's LazyTensor records a dynamic trace of tensor operations and
//! hands it "as a program in its own domain-specific IR" to XLA, which
//! performs whole-program optimization (most importantly operation fusion)
//! and code generation. This crate is that compiler, built from scratch:
//!
//! * [`op`] — the HLO-like operation set with shape inference;
//! * [`graph`] — the operation DAG ([`HloGraph`]) with a structural
//!   fingerprint (the hash under which traces are cached, §3.4) and DOT
//!   export (paper Figure 4);
//! * [`passes`] — whole-program optimizations: dead-code elimination,
//!   common-subexpression elimination, constant folding, algebraic
//!   simplification and — the headline — *elementwise operation fusion*,
//!   which collapses chains of same-shape elementwise operations into
//!   single fused kernels with no intermediate buffers;
//! * [`exec`] — compilation to an [`Executable`]: a topologically ordered
//!   kernel plan whose fused nodes run as single loops;
//! * [`scope`] — the per-kernel instrumentation protocol every backend
//!   launches kernels through (fault draw, panic capture, latency sample,
//!   op event, numerics scan);
//! * [`cache`] — the XLA-program cache: "trace fragments are hashed to
//!   become keys in an XLA-program cache; each unique trace is only
//!   compiled by XLA once" (§3.4).
//!
//! ## Example
//!
//! ```
//! use s4tf_xla::graph::HloGraph;
//! use s4tf_xla::op::{ElemBinary, ElemUnary};
//! use s4tf_xla::exec::compile;
//! use s4tf_tensor::Tensor;
//!
//! // y = relu(x·2 + 1) — three elementwise ops fuse into one kernel.
//! let mut g = HloGraph::new();
//! let x = g.parameter(0, &[4]);
//! let two = g.constant(Tensor::scalar(2.0));
//! let one = g.constant(Tensor::scalar(1.0));
//! let m = g.binary(ElemBinary::Mul, x, two);
//! let a = g.binary(ElemBinary::Add, m, one);
//! let r = g.unary(ElemUnary::Relu, a);
//! g.mark_output(r);
//!
//! let exe = compile(&g);
//! let out = exe.run(&[&Tensor::from_vec(vec![-1.0, 0.0, 1.0, 2.0], &[4])]);
//! assert_eq!(out[0].as_slice(), &[0.0, 1.0, 3.0, 5.0]);
//! assert_eq!(exe.kernel_count(), 1, "fused into a single kernel");
//! ```

pub mod cache;
pub mod codegen;
pub mod cost;
pub mod exec;
pub mod graph;
pub mod op;
pub mod passes;
pub mod scope;

// Short names for the instrumentation crates; each gates itself at run time.
use s4tf_diag as diag;
use s4tf_fault as fault;
use s4tf_metrics as met;
use s4tf_profile as prof;

pub use cache::{CacheStats, ProgramCache};
pub use codegen::CodegenStats;
pub use cost::op_cost;
pub use exec::{compile, compile_unoptimized, eval_op, eval_op_owned, Executable, PlanCounters};
pub use graph::{HloGraph, NodeId};
pub use op::{ElemBinary, ElemUnary, HloOp, ReduceKind};
pub use passes::{plan_memory, MemoryPlan};
