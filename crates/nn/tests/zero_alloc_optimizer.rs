//! SGD updates do zero allocator calls per step (ISSUE 5 satellite):
//! `move_along_scaled` / `scale_assign` / `add_scaled_assign` mutate the
//! model and velocity buffers through unique borrows, so once the
//! optimizer state exists, stepping touches the allocator not at all.
//!
//! Lives in its own integration-test binary: `diag::memory_stats()`
//! counters are process-wide atomics, and the measurement window must not
//! overlap other tests' allocations.

use s4tf_diag::memory_stats;
use s4tf_nn::{Optimizer, Sgd};
use s4tf_tensor::Tensor;

#[test]
fn sgd_steps_are_allocation_free() {
    let n = 4096;
    let mut model = Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n]);
    let grad = Tensor::from_vec(vec![0.5f32; n], &[n]);

    // --- plain SGD ---------------------------------------------------
    let mut sgd = Sgd::<Tensor<f32>>::new(0.01);
    sgd.update(&mut model, &grad); // warm-up: nothing to materialize even here
    let before = memory_stats();
    for _ in 0..100 {
        sgd.update(&mut model, &grad);
    }
    let after = memory_stats();
    assert_eq!(
        after.allocs, before.allocs,
        "plain SGD steps must not call the allocator"
    );
    assert_eq!(after.frees, before.frees);
    assert_eq!(after.live_bytes, before.live_bytes);

    // --- SGD with momentum -------------------------------------------
    let mut sgd = Sgd::<Tensor<f32>>::with_momentum(0.01, 0.9);
    // Warm-up materializes the velocity buffer (the one allowed alloc).
    sgd.update(&mut model, &grad);
    let before = memory_stats();
    for _ in 0..100 {
        sgd.update(&mut model, &grad);
    }
    let after = memory_stats();
    assert_eq!(
        after.allocs, before.allocs,
        "momentum SGD steps must not call the allocator once velocity exists"
    );
    assert_eq!(after.frees, before.frees);
    assert_eq!(after.live_bytes, before.live_bytes);

    // The updates really happened (weights moved off their start values).
    assert!(model.as_slice()[1] < 1.0);
}
