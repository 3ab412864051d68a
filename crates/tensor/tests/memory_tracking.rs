//! Memory-tracking balance: live bytes rise with every tensor and return
//! to baseline once it is dropped, whether the capacity came from the
//! allocator or the recycling pool, while `allocs`/`frees` count real
//! allocator traffic only — a parked buffer is neither live nor freed.

use s4tf_diag::memory_stats;
use s4tf_tensor::{clear_pools, Tensor};
use std::sync::Mutex;

// The counters are process-global; concurrent tests would tear each
// other's baselines.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn live_bytes_return_to_baseline_after_drop() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    clear_pools();
    let baseline = memory_stats();
    for round in 0..4 {
        let before = memory_stats();
        let a = Tensor::<f32>::ones(&[64, 64]);
        let b = a.add(&a);
        let c = b.mul(&b);
        let grew = memory_stats();
        assert!(
            grew.live_bytes >= baseline.live_bytes + 3 * 64 * 64 * 4,
            "three 64x64 f32 tensors must be live: {} -> {}",
            baseline.live_bytes,
            grew.live_bytes
        );
        if round == 0 {
            // The emptied pool has nothing to recycle.
            assert!(grew.allocs >= before.allocs + 3);
        } else {
            assert_eq!(grew.allocs, before.allocs, "round {round} recycles");
        }
        drop((a, b, c));
        assert_eq!(
            memory_stats().live_bytes,
            baseline.live_bytes,
            "alloc/free accounting must balance"
        );
    }
    // Parked capacity was not handed back to the allocator: the gap
    // between the alloc and free counters *is* the pool's saving.
    assert_eq!(memory_stats().frees, baseline.frees);
    clear_pools();
}

#[test]
fn cow_copy_is_tracked_as_a_new_allocation() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    clear_pools();
    let baseline = memory_stats();
    let a = Tensor::<f32>::ones(&[32]);
    let mut b = a.clone(); // shares storage: no new bytes yet
    let shared = memory_stats();
    // Writing through the clone triggers the copy-on-write duplication,
    // which must show up in the counters like any other allocation.
    b.as_mut_slice()[0] = 2.0;
    let after_cow = memory_stats();
    assert!(
        after_cow.live_bytes >= shared.live_bytes + 32 * 4,
        "CoW duplication must be tracked"
    );
    assert!(after_cow.allocs > shared.allocs);
    drop((a, b));
    assert_eq!(memory_stats().live_bytes, baseline.live_bytes);
}

/// With the event log on, a buffer that lifts the ledger's peak by at
/// least 64 KiB raises one `mem.high_water` event carrying the new
/// peak; growth below that step raises none.
#[test]
fn new_peak_raises_a_high_water_event() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    s4tf_diag::set_events_enabled(true);
    s4tf_diag::clear_events();
    s4tf_diag::reset_peak_bytes();
    let big = Tensor::<f32>::zeros(&[1 << 18]); // 1 MiB over the restarted mark
    let peak = memory_stats().peak_bytes;
    let small = Tensor::<f32>::zeros(&[16]); // a new peak, but under the step
    s4tf_diag::set_events_enabled(false);
    let marks: Vec<_> = s4tf_diag::events()
        .into_iter()
        .filter(|e| e.kind == "mem.high_water")
        .collect();
    s4tf_diag::clear_events();
    assert_eq!(marks.len(), 1, "{marks:?}");
    assert_eq!(marks[0].fields[0].0, "live_bytes");
    assert_eq!(marks[0].fields[0].1, peak.to_string());
    assert!(
        memory_stats().peak_bytes > peak,
        "the small buffer set a peak"
    );
    drop((big, small));
}
