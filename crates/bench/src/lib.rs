//! # s4tf-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§5), plus ablation binaries and Criterion micro-benchmarks.
//! See DESIGN.md's per-experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! Binaries (run with `cargo run -p s4tf-bench --release --bin <name>`):
//!
//! * `table1` — ResNet/ImageNet throughput scaling on simulated TPUv3
//!   clusters (16/32/128 cores).
//! * `table2` — framework-pipeline comparison on a simulated TPUv3-32.
//! * `table3` — ResNet-56/CIFAR-10 backend comparison (simulated GTX 1080
//!   + real CPU wall clock).
//! * `table4` — on-device spline personalization across the four
//!   implementation strategies (time, peak memory, binary size).
//! * `figure4` — the LeNet-5 forward-pass trace as DOT + summary.
//! * `appendix_b` — functional vs. `inout` subscript pullbacks over `n`.
//! * `ablation_retrace` — trace-cache hit/miss/shape-change costs (§3.4).
//! * `ablation_allreduce` — per-core throughput retention vs. interconnect.

pub mod alloc_track;
pub mod harness;
pub mod report;
pub mod tracing;

pub use harness::TrialStats;
pub use report::{print_table, Row};
