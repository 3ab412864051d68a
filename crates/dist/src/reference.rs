//! In-process replay of a cluster run: the *prediction-free* baseline the
//! multi-process runtime must match bit for bit.
//!
//! Given the membership schedule a coordinator committed (which ranks
//! contributed at each step — shrinking after a `DropShard` expulsion,
//! growing back after a rejoin), [`reference_run`] executes the identical
//! numeric program single-process: each member's shard gradient, the ring
//! fold of [`crate::collective::reference_ring_sum`], and the shared
//! [`crate::worker::apply_reduced`] renormalize-and-update. Any bit of
//! divergence in the real cluster is therefore a runtime bug, not noise.

use crate::collective::{flatten_tangent, reference_ring_sum};
use crate::worker::{apply_reduced, shard_gradient};
use s4tf_core::VisitTangent;
use s4tf_nn::{Layer, Optimizer};
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::RuntimeError;

/// Replays `schedule` (ascending member ranks per committed step) against
/// `model`, returning the per-step mean survivor loss. `shard_data` maps
/// `(step, rank)` to that member's batch, exactly as the workers see it.
pub fn reference_run<L, O, D>(
    model: &mut L,
    optimizer: &mut O,
    schedule: &[Vec<u32>],
    mut shard_data: D,
    bucket_elems: usize,
    device: &Device,
) -> Result<Vec<f64>, RuntimeError>
where
    L: Layer,
    L::TangentVector: VisitTangent<DTensor>,
    O: Optimizer<L>,
    D: FnMut(u64, u32) -> (DTensor, DTensor),
{
    let mut losses = Vec::with_capacity(schedule.len());
    for (step, members) in schedule.iter().enumerate() {
        if members.is_empty() {
            return Err(RuntimeError::net(
                "dist.reference",
                None,
                format!("empty membership at step {step}"),
            ));
        }
        let mut flats: Vec<Vec<f32>> = Vec::with_capacity(members.len());
        let mut tangent = None;
        let mut loss_sum = 0.0;
        // Position order == ascending rank order, as in a real `View`.
        for &rank in members {
            let (images, labels) = shard_data(step as u64, rank);
            let (loss, grads) = shard_gradient(model, &images, &labels);
            loss_sum += loss;
            let (flat, _) = flatten_tangent(&grads)?;
            flats.push(flat);
            if tangent.is_none() {
                tangent = Some(grads);
            }
        }
        let shards: Vec<&[f32]> = flats.iter().map(|f| f.as_slice()).collect();
        let mut reduced = reference_ring_sum(&shards, bucket_elems);
        let mut tangent = tangent.expect("members is nonempty");
        apply_reduced(
            model,
            optimizer,
            &mut tangent,
            &mut reduced,
            members.len() as u32,
            device,
        )?;
        losses.push(loss_sum / members.len() as f64);
    }
    Ok(losses)
}

/// The schedule of a fault-free run: `world` members for every step.
pub fn full_schedule(world: u32, steps: u64) -> Vec<Vec<u32>> {
    (0..steps).map(|_| (0..world).collect()).collect()
}
