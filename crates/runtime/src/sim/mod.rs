//! The simulated accelerator — the substitute for the TPU/GPU hardware the
//! paper's §5.1 experiments ran on (see DESIGN.md, "Substitutions").
//!
//! The simulation boundary is deliberately narrow: *real* models are traced
//! by the *real* lazy backend and optimized by the *real* compiler; only
//! the kernel clock is analytic. [`cost`] reads each compiled kernel's
//! FLOP count and memory traffic off `xla::op_cost` (the profiler's own
//! roofline model), [`AcceleratorModel`] turns those into
//! time (roofline-style), and [`cluster`] adds synchronous data-parallel
//! semantics with a ring all-reduce — the regime Table 1 measures.

pub mod cluster;
pub mod cost;

pub use cluster::ClusterModel;
pub use cost::AcceleratorModel;
