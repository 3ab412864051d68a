//! Integration tests for paper §4: mutable value semantics across the
//! whole stack — the Figure 5 semantics, copy-on-write behavior, in-place
//! optimizer updates, and the Figure 8 inout/pass-by-value equivalence.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use s4tf::models::LeNet;
use s4tf::prelude::*;
// Per-thread: sibling tests copying on other threads cannot race the
// deltas asserted below.
use s4tf::tensor::storage::thread_cow_copy_count;

/// Paper Figure 5, third column: `var y = x; x[0] += 1` leaves `y`
/// untouched.
#[test]
fn figure_5_swift_array_semantics() {
    let mut x = Tensor::from_vec(vec![3.0f32], &[1]);
    let y = x.clone();
    *x.at_mut(&[0]) += 1.0;
    assert_eq!(x.as_slice(), &[4.0]);
    assert_eq!(y.as_slice(), &[3.0], "no spooky action at a distance");
}

/// "Large values are copied lazily, upon mutation, and only when shared."
#[test]
fn copies_happen_lazily_upon_mutation_and_only_when_shared() {
    let mut a = Tensor::<f32>::zeros(&[1024]);

    // Unshared mutation: no copy.
    let before = thread_cow_copy_count();
    a.add_scalar_assign(1.0);
    assert_eq!(
        thread_cow_copy_count(),
        before,
        "unique mutation must not copy"
    );

    // Sharing alone: no copy.
    let b = a.clone();
    assert_eq!(thread_cow_copy_count(), before, "cloning must be O(1)");
    assert!(a.shares_storage_with(&b));

    // First mutation through a shared handle: exactly one copy.
    a.add_scalar_assign(1.0);
    assert_eq!(thread_cow_copy_count(), before + 1);
    assert!(!a.shares_storage_with(&b));

    // Subsequent mutations: unique again, no more copies.
    a.add_scalar_assign(1.0);
    assert_eq!(thread_cow_copy_count(), before + 1);
}

/// §4.2: training updates the model in place — the optimizer's unique
/// borrow never materializes a second copy of unshared parameters.
#[test]
fn optimizer_update_is_in_place_when_unshared() {
    let mut model = Tensor::<f32>::zeros(&[4096]);
    let grad = Tensor::<f32>::ones(&[4096]);
    let mut opt = Sgd::<Tensor<f32>>::new(0.1);
    let before = thread_cow_copy_count();
    for _ in 0..10 {
        opt.update(&mut model, &grad);
    }
    assert_eq!(
        thread_cow_copy_count(),
        before,
        "in-place updates must not copy the weights"
    );
    assert!((model.as_slice()[0] + 1.0).abs() < 1e-6);
}

/// Whole models are value types: assigning one and training it leaves the
/// original untouched (the property that makes checkpoint-keeping trivial).
#[test]
fn models_are_value_types() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let d = Device::naive();
    let mut model = LeNet::new(&d, &mut rng);
    let checkpoint = model.clone();

    let x = DTensor::from_tensor(Tensor::<f32>::randn(&[2, 28, 28, 1], &mut rng), &d);
    let (y, pb) = model.forward_with_pullback(&x);
    let (grads, _) = pb(&y.ones_like());
    model.move_along(&grads.scaled_by(-0.1));

    // The checkpoint still produces the original outputs.
    let restored = checkpoint.forward(&x).to_tensor();
    let trained = model.forward(&x).to_tensor();
    assert!(
        restored.max_abs_diff(&trained) > 1e-6,
        "training must have changed the live model"
    );
    assert_eq!(
        restored,
        y.to_tensor(),
        "the checkpoint must be unaffected by training"
    );
}

/// Paper Figure 8: a call using `&mut` (inout) is equivalent to a
/// pass-by-value call returning the updated value.
#[test]
fn figure_8_inout_equals_pass_by_value() {
    fn inc_inout(x: &mut i64) -> bool {
        *x += 1;
        *x < 10
    }
    fn inc_by_value(x0: i64) -> (i64, bool) {
        let x = x0 + 1;
        (x, x < 10)
    }
    let mut y1 = 2i64;
    let z1 = inc_inout(&mut y1);
    let (y2, z2) = inc_by_value(2);
    assert_eq!((y1, z1), (y2, z2));
    assert_eq!((y1, z1), (3, true), "both programs print \"3 true\"");
}

/// The same value semantics hold for DTensor on all three devices.
#[test]
fn dtensor_value_semantics_everywhere() {
    for device in [Device::naive(), Device::eager(), Device::lazy()] {
        let x = DTensor::from_tensor(Tensor::from_vec(vec![3.0f32], &[1]), &device);
        let mut y = x.clone();
        y.scaled_add_assign(1.0, &x.ones_like());
        assert_eq!(x.to_tensor().as_slice(), &[3.0], "{}", device.kind());
        assert_eq!(y.to_tensor().as_slice(), &[4.0], "{}", device.kind());
    }
}

/// Gradients are first-class values (§4.2): they can be stored, compared
/// and combined like any other value.
#[test]
fn gradients_are_first_class() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let d = Device::naive();
    let model = Dense::new(3, 2, Activation::Tanh, &d, &mut rng);
    let x = DTensor::from_tensor(Tensor::<f32>::randn(&[4, 3], &mut rng), &d);
    let (y, pb) = model.forward_with_pullback(&x);
    let (g1, _) = pb(&y.ones_like());
    let (g2, _) = pb(&y.ones_like());
    // Stored, doubled, compared.
    let doubled = g1.adding(&g2);
    let direct = g1.scaled_by(2.0);
    assert!(doubled
        .weight
        .to_tensor()
        .allclose(&direct.weight.to_tensor(), 1e-6));
    let zero = s4tf::nn::layers::DenseTangent::zero();
    assert_eq!(g1.adding(&zero).weight.to_tensor(), g1.weight.to_tensor());
}
