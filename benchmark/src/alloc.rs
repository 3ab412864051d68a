//! The benchmark's own counting global allocator: live bytes, their peak
//! and the number of allocation calls, for `peak_heap_mb` (paper Table 4's
//! memory column) and `heap.allocs_per_op`. It counts every heap byte of
//! the process — tensors, traces, queues, boxed closures — which
//! `tensor::storage`'s ledger does not; only the harness's own sample
//! buffers ([`Samples`]) are left out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes held by [`Samples`] buffers: live, but left out of the peak.
static SAMPLES: AtomicUsize = AtomicUsize::new(0);

fn counted_live() -> usize {
    LIVE.load(Ordering::Relaxed)
        .saturating_sub(SAMPLES.load(Ordering::Relaxed))
}

/// A [`System`]-backed allocator that counts as it goes.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics and never
// allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            let counted = live.saturating_sub(SAMPLES.load(Ordering::Relaxed));
            PEAK.fetch_max(counted, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Allocation calls so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the peak watermark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(counted_live(), Ordering::Relaxed);
}

/// The harness's per-operation sample buffer. A fast workload fills it
/// with megabytes over a run — more than the workload itself holds — so its
/// bytes are announced to the allocator and kept out of the peak: the peak
/// is the program's, not the stopwatch's.
#[derive(Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        if self.values.len() == self.values.capacity() {
            let old = self.values.capacity();
            let grown = (old * 2).max(1024);
            // Announce the new buffer before it exists and retire the old
            // one after it is gone, so the peak never sees either.
            SAMPLES.fetch_add(grown * size_of::<f64>(), Ordering::Relaxed);
            self.values.reserve_exact(grown - old);
            SAMPLES.fetch_sub(old * size_of::<f64>(), Ordering::Relaxed);
        }
        self.values.push(value);
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }
}

impl Drop for Samples {
    fn drop(&mut self) {
        let bytes = self.values.capacity() * size_of::<f64>();
        self.values = Vec::new();
        SAMPLES.fetch_sub(bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_keep_their_values_and_release_their_bytes() {
        // Tests share the process's allocator counters; `SAMPLES` moves
        // only here.
        let before = SAMPLES.load(Ordering::Relaxed);
        let mut samples = Samples::default();
        for i in 0..5000 {
            samples.push(i as f64);
        }
        assert_eq!(samples.as_slice().len(), 5000);
        assert_eq!(samples.as_slice()[4999], 4999.0);
        let held = SAMPLES.load(Ordering::Relaxed) - before;
        assert_eq!(held, samples.values.capacity() * size_of::<f64>());
        drop(samples);
        assert_eq!(SAMPLES.load(Ordering::Relaxed), before);
    }
}
