//! Size-bucketed buffer recycling for tensor storage and kernel scratch.
//!
//! The paper's lazy backend exists so a compiler can plan resources for a
//! whole program (§3.3); this module is the allocator-side half of that
//! plan. Every buffer dropped by [`crate::Storage`] is offered to a
//! per-element-type free list here instead of going back to the system
//! allocator, and every storage allocation first asks the free list for
//! a buffer of at least the requested capacity. On allocation-bound CPU
//! workloads (small/medium tensors) this removes the malloc/free pair
//! from the steady-state training loop entirely.
//!
//! **One seam.** Only `storage.rs` and this file talk to the free lists.
//! A kernel builds its output through `Tensor::build` (a zero- or
//! value-filled slice to write) or `Tensor::build_pushed` (an empty
//! `Vec` to push into), and `storage.rs` books whether the capacity was
//! recycled or fresh. Kernel scratch is a [`Scratch`]: taken here, handed
//! back when it drops. No kernel sees where its bytes came from.
//!
//! Buffers are bucketed by power-of-two *capacity in bytes*: a request
//! for `n` bytes looks only in bucket `ceil(log2 n)`, whose entries are
//! guaranteed to hold at least `n` bytes, so reuse wastes less than 2x
//! the requested size. For that exact-bucket lookup to hit in the steady
//! state, fresh allocations on a pool miss reserve capacity rounded *up*
//! to the bucket's byte size ([`recycle_capacity`]): a training step
//! re-requests the same (usually non-power-of-two) sizes every
//! iteration, and a buffer allocated at exactly that size would park one
//! bucket *below* where the next identical request looks — it would
//! never be found again. Each bucket keeps at most
//! [`MAX_ENTRIES_PER_BUCKET`] buffers and the pool as a whole at most
//! [`MAX_POOLED_BYTES`], so the cache cannot grow without bound.
//!
//! Interaction with the memory ledger's live/peak accounting: a pool
//! *hit* raises live-bytes (`track_alloc(.., fresh = false)`) without
//! counting an allocator call, and a buffer accepted by the pool lowers
//! live-bytes without counting an allocator free — so
//! `MemoryStats::allocs`/`frees` keep meaning *real allocator traffic*,
//! which is what the step benchmark's `tensor.allocs_per_op` reports.
//! Scratch never becomes storage and is invisible to the ledger both
//! ways; the pool's hit/miss instruments count it like any other take.
//! Buffers evicted by [`clear_pools`] are dropped without touching the
//! alloc/free counters (their original allocation was already counted).
//!
//! There is no off-switch: the pool only changes *where* bytes come
//! from, never what is written into them (every taker fills or pushes
//! before it reads), which `runtime/tests/memory_bit_identity.rs` checks
//! by dropping NaN-filled tensors into the free lists first.

use crate::dtype::Scalar;
use crate::met;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum buffers kept per size bucket. Sized so a whole traced step's
/// worth of same-bucket buffers (a LeNet trace holds a few dozen live
/// scalar constants at once) can park between iterations.
pub const MAX_ENTRIES_PER_BUCKET: usize = 64;

/// Maximum bytes the pool will hold across all buckets and element types.
pub const MAX_POOLED_BYTES: u64 = 256 * 1024 * 1024;

/// Buffers larger than this are never pooled (one giant buffer would
/// crowd out the steady-state working set).
pub const MAX_BUFFER_BYTES: usize = 64 * 1024 * 1024;

// ------------------------------------------------------------------ stats

/// Capacity bytes parked in the free lists — state `give` reads to
/// enforce [`MAX_POOLED_BYTES`], published as `s4tf_pool_resident_bytes`.
static POOLED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool counters (process-wide, across element types).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocation requests served from the free list.
    pub hits: u64,
    /// Allocation requests the free list could not serve (fresh alloc).
    pub misses: u64,
    /// Total capacity bytes served from the free list so far.
    pub recycled_bytes: u64,
    /// Capacity bytes currently parked in the free lists.
    pub pooled_bytes: u64,
}

/// Current pool counters: a view of the registry's `s4tf_pool_*`
/// instruments, which count whether or not `S4TF_METRICS` is on.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HIT_COUNTERS.total(),
        misses: MISS_COUNTERS.total(),
        recycled_bytes: recycled_bytes_counter().value(),
        pooled_bytes: POOLED_BYTES.load(Ordering::Relaxed),
    }
}

// -------------------------------------------------- registry instruments

/// One registry counter per power-of-two size bucket, interned lazily so
/// the hot path never formats a metric name: bucket indices are small
/// (`MAX_BUFFER_BYTES` = 64 MiB caps them at 26) and stable, so a fixed
/// slot table of `OnceLock`s suffices.
const METRIC_BUCKET_SLOTS: usize = 28;

struct BucketCounters {
    name: &'static str,
    help: &'static str,
    slots: [OnceLock<&'static met::Counter>; METRIC_BUCKET_SLOTS],
}

impl BucketCounters {
    const fn new(name: &'static str, help: &'static str) -> Self {
        BucketCounters {
            name,
            help,
            slots: [const { OnceLock::new() }; METRIC_BUCKET_SLOTS],
        }
    }

    fn get(&'static self, bucket: u32) -> &'static met::Counter {
        let idx = (bucket as usize).min(METRIC_BUCKET_SLOTS - 1);
        self.slots[idx].get_or_init(|| {
            met::counter(
                &format!("{}{{bucket=\"{}\"}}", self.name, 1u64 << idx),
                self.help,
            )
        })
    }

    /// Sum over every bucket that has counted.
    fn total(&self) -> u64 {
        let counted = self.slots.iter().filter_map(OnceLock::get);
        counted.map(|c| c.value()).sum()
    }
}

static HIT_COUNTERS: BucketCounters = BucketCounters::new(
    "s4tf_pool_hits_total",
    "Pool allocation requests served from the free list, by power-of-two byte bucket",
);
static MISS_COUNTERS: BucketCounters = BucketCounters::new(
    "s4tf_pool_misses_total",
    "Pool allocation requests that fell through to the allocator, by power-of-two byte bucket",
);
static RECYCLE_COUNTERS: BucketCounters = BucketCounters::new(
    "s4tf_pool_recycled_total",
    "Dead buffers accepted back into the free list, by power-of-two byte bucket",
);

fn recycled_bytes_counter() -> &'static met::Counter {
    met::counter!(
        "s4tf_pool_recycled_bytes_total",
        "Capacity bytes served from the buffer-recycling free lists"
    )
}

fn resident_gauge() -> &'static met::Gauge {
    met::gauge!(
        "s4tf_pool_resident_bytes",
        "Capacity bytes currently parked in the buffer-recycling free lists"
    )
}

// -------------------------------------------------------- bucket rounding

/// Whether the pool keeps buffers of `bytes` capacity: anything
/// non-empty up to [`MAX_BUFFER_BYTES`]. Tiny buffers are individually
/// cheap to malloc, but scalar constants dominate a traced graph's
/// allocation *count*, and the per-step allocator-call number is what
/// the step benchmark reports and `tests/telemetry.rs` bounds.
fn poolable(bytes: usize) -> bool {
    (1..=MAX_BUFFER_BYTES).contains(&bytes)
}

/// Bucket a request for `bytes` looks in: the smallest power-of-two
/// exponent `b` with `2^b >= bytes`. Every buffer parked in bucket `b`
/// has capacity `>= 2^b`, so any entry satisfies the request.
pub(crate) fn bucket_for_request(bytes: usize) -> u32 {
    debug_assert!(bytes > 0);
    usize::BITS - bytes.saturating_sub(1).leading_zeros()
}

/// Bucket a buffer of capacity `bytes` is parked in: the largest
/// power-of-two exponent `b` with `2^b <= bytes`.
pub(crate) fn bucket_for_capacity(bytes: usize) -> u32 {
    debug_assert!(bytes > 0);
    usize::BITS - 1 - bytes.leading_zeros()
}

/// Elements a *fresh* allocation should reserve so the buffer, once
/// dead, parks in exactly the bucket future same-size requests search:
/// the request's bucket rounded up to its power-of-two byte size. Without
/// this, any non-power-of-two tensor size would miss the pool on every
/// single step (capacities round *down* into buckets, requests round
/// *up*). Returns `n` unchanged when the pool would not keep the buffer
/// anyway (empty, or past [`MAX_BUFFER_BYTES`]). The slack is
/// real memory and is reported to the live/peak tracker as such.
#[inline]
pub(crate) fn recycle_capacity<T>(n: usize) -> usize {
    let size = std::mem::size_of::<T>();
    let Some(need) = n.checked_mul(size) else {
        return n;
    };
    if !poolable(need) {
        return n;
    }
    // `MAX_BUFFER_BYTES` is itself a power of two, so the round-up never
    // produces a capacity the pool would refuse to park.
    (1usize << bucket_for_request(need)) / size
}

// -------------------------------------------------------------- the pool

/// A free list of buffers of one element type, bucketed by capacity.
///
/// One static instance exists per [`Scalar`] type, reached through
/// `Scalar::buffer_pool()` (the static lives inside the trait-impl
/// method body — the standard workaround for Rust's lack of generic
/// statics). Const-constructible so the statics need no lazy init.
pub struct TypedPool<T> {
    buckets: Mutex<BTreeMap<u32, Vec<Vec<T>>>>,
}

impl<T> TypedPool<T> {
    /// An empty pool (usable in `static` initializers).
    pub const fn new() -> Self {
        TypedPool {
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u32, Vec<Vec<T>>>> {
        // Keep recycling alive after a panic unwound through a holder
        // (fault injection panics inside kernels on purpose).
        match self.buckets.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Takes a buffer with capacity for at least `n` elements, emptied
    /// (`len == 0`). `None` — a miss — means the caller should allocate.
    fn take(&self, n: usize) -> Option<Vec<T>> {
        let need = n.checked_mul(std::mem::size_of::<T>())?;
        if !poolable(need) {
            return None;
        }
        let bucket = bucket_for_request(need);
        let taken = self.lock().get_mut(&bucket).and_then(Vec::pop);
        match taken {
            Some(v) => {
                debug_assert!(v.capacity() >= n);
                let cap_bytes = (v.capacity() * std::mem::size_of::<T>()) as u64;
                let pooled = POOLED_BYTES.fetch_sub(cap_bytes, Ordering::Relaxed) - cap_bytes;
                HIT_COUNTERS.get(bucket).inc();
                recycled_bytes_counter().add(cap_bytes);
                resident_gauge().set(pooled as i64);
                Some(v)
            }
            None => {
                MISS_COUNTERS.get(bucket).inc();
                None
            }
        }
    }

    /// Offers a dead buffer to the free list. Returns `true` if the pool
    /// kept it (the buffer is cleared, its capacity retained); `false`
    /// if it was rejected and dropped to the allocator.
    fn give(&self, mut v: Vec<T>) -> bool {
        let cap_bytes = v.capacity() * std::mem::size_of::<T>();
        if !poolable(cap_bytes) {
            return false;
        }
        if POOLED_BYTES.load(Ordering::Relaxed) + cap_bytes as u64 > MAX_POOLED_BYTES {
            return false;
        }
        let bucket = bucket_for_capacity(cap_bytes);
        let mut buckets = self.lock();
        let entries = buckets.entry(bucket).or_default();
        if entries.len() >= MAX_ENTRIES_PER_BUCKET {
            return false;
        }
        v.clear();
        entries.push(v);
        let pooled = POOLED_BYTES.fetch_add(cap_bytes as u64, Ordering::Relaxed) + cap_bytes as u64;
        RECYCLE_COUNTERS.get(bucket).inc();
        resident_gauge().set(pooled as i64);
        true
    }

    /// Drops every parked buffer back to the allocator.
    fn clear(&self) {
        let buckets = std::mem::take(&mut *self.lock());
        let bytes: usize = buckets
            .values()
            .flatten()
            .map(|v| v.capacity() * std::mem::size_of::<T>())
            .sum();
        let pooled = POOLED_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed) - bytes as u64;
        resident_gauge().set(pooled as i64);
    }

    /// Parked buffers.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }
}

impl<T> Default for TypedPool<T> {
    fn default() -> Self {
        TypedPool::new()
    }
}

/// Empties the free lists of all element types, returning parked
/// capacity to the allocator (e.g. between benchmark scenarios).
pub fn clear_pools() {
    // `Scalar` is sealed, so this list is exhaustive.
    f32::buffer_pool().clear();
    f64::buffer_pool().clear();
    i32::buffer_pool().clear();
    i64::buffer_pool().clear();
}

/// Calls after the first within which [`assert_steady`] asks for
/// [`STEADY_CALLS`] clean calls in a row.
const WARM_CALLS: usize = 16;

/// Clean calls in a row [`assert_steady`] asks for.
const STEADY_CALLS: usize = 2;

/// Test support for the steady-state suites (`kernel_steady_state.rs` in
/// this crate, `fused_steady_state.rs` in `s4tf-xla`): runs `kernel` once
/// from empty free lists, then until [`STEADY_CALLS`] calls in a row each
/// make no allocator call the memory ledger counts, miss the pool nowhere
/// and take from it. Panics naming `name` if that takes more than
/// [`WARM_CALLS`] calls, or if the calls after the first together
/// allocate and miss more often than the first call did, times the
/// thread count.
///
/// Which call is the first clean one depends on the schedule, not on the
/// kernel: a call's tasks may run in turn, each taking the scratch the
/// last one returned, or side by side, each holding its own, so a call
/// can hold more buffers at once than any call before it. The first call
/// starts from empty lists, so it misses at least as often as one task,
/// or the caller, holds buffers at once; a call runs at most one task per
/// thread; and each miss parks the buffer it allocated. So the later
/// misses stay within the budget, and a kernel that allocates on every
/// call, or on every other call, fails.
#[doc(hidden)]
pub fn assert_steady<R>(name: &str, mut kernel: impl FnMut() -> R) {
    let counts = || (s4tf_diag::memory_stats().allocs, stats().misses);
    clear_pools();
    let before = counts();
    drop(kernel());
    let after = counts();
    let first = (after.0 - before.0) + (after.1 - before.1);
    let budget = first * s4tf_threads::num_threads() as u64;
    let (mut spent, mut clean) = (0, 0);
    for _ in 0..WARM_CALLS {
        let (before, hits) = (counts(), stats().hits);
        drop(kernel());
        let after = counts();
        let (allocs, misses) = (after.0 - before.0, after.1 - before.1);
        spent += allocs + misses;
        assert!(
            spent <= budget,
            "{name}: calls after the first made {spent} allocator calls and pool misses, \
             past {budget} (the first call's {first} × {} threads)",
            s4tf_threads::num_threads()
        );
        if (allocs, misses) != (0, 0) {
            clean = 0;
            continue;
        }
        assert!(stats().hits > hits, "{name}: took nothing from the pool");
        clean += 1;
        if clean == STEADY_CALLS {
            return;
        }
    }
    panic!("{name}: no {STEADY_CALLS} calls in a row took everything from the pool");
}

// ------------------------------------------------------------- the seam

/// Room for at least `n` elements, empty: a parked buffer when one fits
/// (`true`: recycled), else a fresh allocation rounded up to its bucket
/// ([`recycle_capacity`]). Only `storage.rs` sees the flag — it decides
/// whether the memory ledger counts an allocator call.
#[inline]
pub(crate) fn take<T: Scalar>(n: usize) -> (Vec<T>, bool) {
    match T::buffer_pool().take(n) {
        Some(v) => (v, true),
        None => (Vec::with_capacity(recycle_capacity::<T>(n)), false),
    }
}

/// Offers a dead buffer to the free list: `false` when the pool declines
/// it (too small, too large, or full) and it went back to the allocator.
#[inline]
pub(crate) fn give<T: Scalar>(v: Vec<T>) -> bool {
    T::buffer_pool().give(v)
}

/// Kernel scratch borrowed from the pool, given back when it drops.
///
/// Derefs to its `Vec`, so a kernel slices, fills or pushes into it like
/// any buffer; `Default` holds no allocation. Scratch never becomes
/// tensor storage, so the memory ledger does not see it; the pool's
/// hit and miss instruments count its takes.
#[derive(Debug)]
pub struct Scratch<T: Scalar>(Vec<T>);

impl<T: Scalar> Scratch<T> {
    /// `n` zeros.
    #[inline]
    pub fn zeroed(n: usize) -> Self {
        let mut s = Scratch::with_capacity(n);
        s.0.resize(n, T::zero());
        s
    }

    /// Empty, with room for at least `n` elements.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        Scratch(take(n).0)
    }
}

impl<T: Scalar> Default for Scratch<T> {
    fn default() -> Self {
        Scratch(Vec::new())
    }
}

impl<T: Scalar> std::ops::Deref for Scratch<T> {
    type Target = Vec<T>;

    #[inline(always)]
    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T: Scalar> std::ops::DerefMut for Scratch<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

impl<T: Scalar> Drop for Scratch<T> {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_rounding() {
        // Requests round up: bucket 2^b is the smallest holding `bytes`.
        assert_eq!(bucket_for_request(1), 0);
        assert_eq!(bucket_for_request(2), 1);
        assert_eq!(bucket_for_request(3), 2);
        assert_eq!(bucket_for_request(4), 2);
        assert_eq!(bucket_for_request(5), 3);
        assert_eq!(bucket_for_request(1024), 10);
        assert_eq!(bucket_for_request(1025), 11);

        // Capacities round down: a buffer lands in the largest bucket it
        // fully covers.
        assert_eq!(bucket_for_capacity(1), 0);
        assert_eq!(bucket_for_capacity(3), 1);
        assert_eq!(bucket_for_capacity(4), 2);
        assert_eq!(bucket_for_capacity(1023), 9);
        assert_eq!(bucket_for_capacity(1024), 10);

        // The invariant that makes `take` safe with an exact-bucket
        // lookup: anything parked in bucket b satisfies any request
        // that maps to bucket b.
        for cap in [64usize, 65, 100, 127, 128, 4096, 5000] {
            for need in [64usize, 65, 100, 127, 128, 4096, 5000] {
                if bucket_for_capacity(cap) == bucket_for_request(need) {
                    assert!(cap >= need, "cap {cap} must satisfy need {need}");
                }
            }
        }
    }

    #[test]
    fn take_returns_parked_buffer_of_sufficient_capacity() {
        let pool: TypedPool<f32> = TypedPool::new();
        assert!(pool.take(100).is_none(), "empty pool misses");
        let v = Vec::with_capacity(128);
        assert!(pool.give(v));
        assert_eq!(pool.len(), 1);
        // 100 f32 = 400 bytes -> bucket 9; 128 f32 = 512 bytes -> bucket 9.
        let got = pool.take(100).expect("hit");
        assert!(got.capacity() >= 100);
        assert!(got.is_empty());
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn empty_and_giant_buffers_are_rejected() {
        let pool: TypedPool<f32> = TypedPool::new();
        assert!(!pool.give(Vec::new()), "zero capacity is below the floor");
        assert!(
            !pool.give(Vec::with_capacity(MAX_BUFFER_BYTES / 4 + 1)),
            "above MAX_BUFFER_BYTES"
        );
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn recycle_capacity_rounds_fresh_allocations_to_the_lookup_bucket() {
        // The steady-state guarantee: allocate n, free it, request n again
        // — the request must find the freed buffer.
        for n in [1usize, 16, 37, 100, 960, 37_632 / 4, 150_528 / 4] {
            let cap = recycle_capacity::<f32>(n);
            assert!(cap >= n);
            assert_eq!(
                bucket_for_capacity(cap * 4),
                bucket_for_request(n * 4),
                "n = {n}: freed capacity must park where requests look"
            );
        }
        // Out-of-range sizes are left alone (the pool won't keep them).
        assert_eq!(recycle_capacity::<f32>(MAX_BUFFER_BYTES), MAX_BUFFER_BYTES);
    }

    #[test]
    fn bucket_entry_cap_is_enforced() {
        let pool: TypedPool<f32> = TypedPool::new();
        for _ in 0..MAX_ENTRIES_PER_BUCKET {
            assert!(pool.give(Vec::with_capacity(64)));
        }
        assert!(!pool.give(Vec::with_capacity(64)), "bucket is full");
        assert_eq!(pool.len(), MAX_ENTRIES_PER_BUCKET);
        pool.clear();
        assert_eq!(pool.len(), 0);
    }
}
