//! A work-chunking global thread pool for the CPU kernel suite.
//!
//! Every hot kernel in `s4tf-tensor` (GEMM, conv2d, large elementwise and
//! reduction loops) splits its index range across this pool via
//! [`parallel_chunks`] and joins before returning, so callers never observe
//! concurrency — kernels stay synchronous functions, they just use more of
//! the machine.
//!
//! Design points:
//!
//! - **Lazy, global, std-only.** Workers are spawned on first real
//!   dispatch; the pool is process-wide and never torn down. No
//!   dependencies beyond `std` (and, optionally, `s4tf-profile`).
//! - **Sizing.** The worker count defaults to
//!   [`std::thread::available_parallelism`], overridable with the
//!   `S4TF_NUM_THREADS` environment variable (read once, at first use) or
//!   programmatically with [`set_num_threads`]. A count of `1` forces the
//!   exact single-threaded code path: [`parallel_chunks`] invokes the
//!   closure inline with the full range, byte-for-byte the serial kernel.
//! - **Grain thresholds.** Ranges of at most `min_grain` elements run
//!   inline, so small tensors pay one atomic load and a branch — nothing
//!   else.
//! - **Caller participation.** The dispatching thread executes the first
//!   chunk itself while workers drain the rest, then blocks on a latch.
//! - **Nested calls run inline.** A `parallel_chunks` issued from inside a
//!   pool worker executes serially on that worker, so kernels may freely
//!   compose without deadlocking the (finite) pool.
//! - **Panics propagate.** A panicking chunk poisons nothing: the caller
//!   waits for every chunk to finish, then re-raises the first payload on
//!   its own thread.
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! s4tf_threads::set_num_threads(2);
//! let hits = AtomicUsize::new(0);
//! s4tf_threads::parallel_chunks(0..10_000, 64, |sub| {
//!     hits.fetch_add(sub.len(), Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 10_000);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use s4tf_metrics as met;
use s4tf_profile as prof;

/// The pool's queue-depth gauge (set under the queue lock, so sampling
/// never racily overshoots).
fn queue_depth_gauge() -> &'static met::Gauge {
    met::gauge!(
        "s4tf_queue_depth{queue=\"threadpool\"}",
        "Chunks waiting in the kernel thread pool queue"
    )
}

// ------------------------------------------------------------ configuration

/// Configured thread count: 0 = uninitialized (consult the environment).
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("S4TF_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The number of threads kernels currently split work across (including
/// the calling thread). Initialized on first use from `S4TF_NUM_THREADS`,
/// falling back to [`std::thread::available_parallelism`].
pub fn num_threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => {
            let n = default_threads();
            // Racing initializers compute the same value; only install
            // when still uninitialized so a concurrent `set_num_threads`
            // wins.
            let _ = CONFIGURED.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
            CONFIGURED.load(Ordering::Relaxed)
        }
        n => n,
    }
}

/// Overrides the thread count at runtime (used by benchmarks and the
/// determinism tests to compare `1` vs `N` in one process). `1` restores
/// the exact single-threaded code path.
///
/// # Panics
/// Panics if `n` is zero.
pub fn set_num_threads(n: usize) {
    assert!(n >= 1, "thread count must be at least 1");
    CONFIGURED.store(n, Ordering::Relaxed);
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a pool worker (where nested parallel
/// calls run inline).
pub fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

// ------------------------------------------------------------------- stats

/// Lifetime counters for the kernel thread pool, in the style of
/// `Device::cache_stats()`: independent of the span recorder and never
/// reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently spawned (excludes callers).
    pub workers: usize,
    /// Chunks executed by pool workers.
    pub tasks_run: u64,
    /// Chunks handed to the pool queue.
    pub chunks_dispatched: u64,
    /// Parallel calls that ran inline (below grain, single-threaded, or
    /// nested inside a worker).
    pub inline_runs: u64,
    /// Total wall time workers spent executing chunks, in microseconds.
    pub busy_us: u64,
}

#[derive(Default)]
struct Stats {
    tasks_run: AtomicU64,
    chunks_dispatched: AtomicU64,
    inline_runs: AtomicU64,
    busy_us: AtomicU64,
}

static STATS: Stats = Stats {
    tasks_run: AtomicU64::new(0),
    chunks_dispatched: AtomicU64::new(0),
    inline_runs: AtomicU64::new(0),
    busy_us: AtomicU64::new(0),
};

/// Snapshot of the pool's lifetime counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        workers: POOL.get().map_or(0, |p| *lock(&p.spawned)),
        tasks_run: STATS.tasks_run.load(Ordering::Relaxed),
        chunks_dispatched: STATS.chunks_dispatched.load(Ordering::Relaxed),
        inline_runs: STATS.inline_runs.load(Ordering::Relaxed),
        busy_us: STATS.busy_us.load(Ordering::Relaxed),
    }
}

// -------------------------------------------------------------------- pool

/// One queued chunk: a type-erased pointer to the caller's stack-pinned
/// [`BatchState`] plus the sub-range to run. Sound because the caller
/// always blocks until every chunk of its batch has finished.
struct Task {
    batch: *const BatchState<'static>,
    range: Range<usize>,
}

// The batch pointer is only dereferenced while the owning caller is
// parked on the batch latch, which keeps the pointee alive.
unsafe impl Send for Task {}

struct BatchState<'a> {
    f: &'a (dyn Fn(Range<usize>) + Sync),
    /// Queued chunks not yet finished; the caller waits for zero.
    left: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

struct Pool {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Locks ignoring poisoning: chunk panics are caught and re-raised by the
/// dispatching caller, so a poisoned mutex carries no broken invariant.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Spawns workers until `target` are alive. Workers are detached and
    /// live for the remainder of the process.
    fn ensure_workers(&'static self, target: usize) {
        let mut spawned = lock(&self.spawned);
        while *spawned < target {
            let id = *spawned;
            std::thread::Builder::new()
                .name(format!("s4tf-worker-{id}"))
                .spawn(move || self.worker_main())
                .expect("failed to spawn pool worker");
            *spawned += 1;
        }
    }

    fn worker_main(&'static self) {
        IN_WORKER.with(|w| w.set(true));
        loop {
            let task = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(task) = queue.pop_front() {
                        queue_depth_gauge().set(queue.len() as i64);
                        break task;
                    }
                    queue = match self.available.wait(queue) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            };
            let start = Instant::now();
            {
                let mut span = prof::span("pool.task");
                if span.is_recording() {
                    span.annotate_f64("chunk_len", task.range.len() as f64);
                }
                run_chunk(task);
            }
            let elapsed_us = start.elapsed().as_micros() as u64;
            met::histogram!(
                "s4tf_pool_task_us",
                "Thread-pool chunk execution latency in microseconds"
            )
            .record(elapsed_us);
            STATS.tasks_run.fetch_add(1, Ordering::Relaxed);
            STATS.busy_us.fetch_add(elapsed_us, Ordering::Relaxed);
        }
    }
}

/// Runs one queued chunk, records a panic payload if any, and counts the
/// batch latch down (always, so the caller never deadlocks).
fn run_chunk(task: Task) {
    let batch = unsafe { &*task.batch };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.f)(task.range))) {
        lock(&batch.panic).get_or_insert(payload);
    }
    let mut left = lock(&batch.left);
    *left -= 1;
    if *left == 0 {
        batch.done.notify_all();
    }
}

// --------------------------------------------------------------- chunking

/// Splits `n` items into at most `threads` near-equal contiguous chunks of
/// at least... well, of sizes within one of each other; fewer chunks when
/// `min_grain` would be undershot.
fn chunk_count(n: usize, min_grain: usize, threads: usize) -> usize {
    let grain = min_grain.max(1);
    threads.min(n.div_ceil(grain)).max(1)
}

fn chunk_ranges(range: &Range<usize>, chunks: usize) -> Vec<Range<usize>> {
    let n = range.end - range.start;
    let base = n / chunks;
    let rem = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = range.start;
    for i in 0..chunks {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// How many ways [`parallel_chunks`] would currently split a range of `n`
/// items at the given grain (1 when it would run inline).
pub fn effective_chunks(n: usize, min_grain: usize) -> usize {
    let threads = num_threads();
    if threads <= 1 || in_worker() || n <= min_grain.max(1) {
        1
    } else {
        chunk_count(n, min_grain, threads)
    }
}

// ------------------------------------------------------------- primitives

/// Splits `range` into per-worker chunks, runs `f` on each chunk across
/// the pool (the calling thread takes one chunk itself), and returns once
/// every chunk has finished.
///
/// Runs `f(range)` inline — the exact single-threaded code path — when the
/// range has at most `min_grain` items, the configured thread count is 1,
/// or the caller is itself a pool worker.
///
/// # Panics
/// Re-raises the first panic raised by any chunk, after all chunks have
/// completed.
pub fn parallel_chunks<F>(range: Range<usize>, min_grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let n = range.end.saturating_sub(range.start);
    if n == 0 {
        return;
    }
    let threads = num_threads();
    if threads <= 1 || n <= min_grain.max(1) || in_worker() {
        STATS.inline_runs.fetch_add(1, Ordering::Relaxed);
        f(range);
        return;
    }

    let chunks = chunk_count(n, min_grain, threads);
    let ranges = chunk_ranges(&range, chunks);
    let state = BatchState {
        f: &f,
        left: Mutex::new(chunks - 1),
        done: Condvar::new(),
        panic: Mutex::new(None),
    };
    // Erase the stack lifetime; the latch wait below keeps `state` (and the
    // borrowed `f`) alive until the last queued chunk has run.
    let erased: *const BatchState<'static> = std::ptr::from_ref(&state).cast();

    let pool = pool();
    pool.ensure_workers(threads - 1);
    {
        let mut queue = lock(&pool.queue);
        for r in &ranges[1..] {
            queue.push_back(Task {
                batch: erased,
                range: r.clone(),
            });
        }
        queue_depth_gauge().set(queue.len() as i64);
        drop(queue);
        pool.available.notify_all();
    }
    STATS
        .chunks_dispatched
        .fetch_add((chunks - 1) as u64, Ordering::Relaxed);

    // The caller works too; hold its panic until the batch has drained.
    let caller_panic = catch_unwind(AssertUnwindSafe(|| f(ranges[0].clone()))).err();

    let mut left = lock(&state.left);
    while *left > 0 {
        left = match state.done.wait(left) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
    drop(left);

    let queued_panic = lock(&state.panic).take();
    if let Some(payload) = caller_panic.or(queued_panic) {
        resume_unwind(payload);
    }
}

/// Wrapper making a raw pointer shippable to workers; the chunks handed
/// out are disjoint, and the join in [`parallel_chunks`] bounds every
/// access within the caller's borrow.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits a mutable slice into disjoint chunks and runs
/// `f(start_offset, chunk)` on each across the pool. Chunk boundaries are
/// always multiples of `quantum` (in elements), so row-structured outputs
/// are never split mid-row.
///
/// Inline fallback rules match [`parallel_chunks`].
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `quantum`; re-raises chunk
/// panics like [`parallel_chunks`].
pub fn parallel_chunks_mut<T, F>(data: &mut [T], quantum: usize, min_grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let q = quantum.max(1);
    assert!(
        data.len().is_multiple_of(q),
        "slice length {} is not a multiple of quantum {q}",
        data.len()
    );
    let units = data.len() / q;
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_chunks(0..units, min_grain.div_ceil(q).max(1), |unit_range| {
        let start = unit_range.start * q;
        let len = (unit_range.end - unit_range.start) * q;
        // Disjoint unit ranges → disjoint element sub-slices.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), len) };
        f(start, chunk);
    });
}

/// Maps each chunk of `range` to a value on the pool and returns the
/// values in chunk order — the building block for parallel reductions
/// with a deterministic (chunk-index) combine order. A single-chunk run
/// (inline fallback) returns exactly one value covering the whole range,
/// so the serial summation order is preserved bit-for-bit.
pub fn parallel_map_chunks<R, F>(range: Range<usize>, min_grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let n = range.end.saturating_sub(range.start);
    if n == 0 {
        return Vec::new();
    }
    let chunks = effective_chunks(n, min_grain);
    if chunks <= 1 {
        STATS.inline_runs.fetch_add(1, Ordering::Relaxed);
        return vec![f(range)];
    }
    let ranges = chunk_ranges(&range, chunks);
    let mut out: Vec<Option<R>> = Vec::with_capacity(chunks);
    out.resize_with(chunks, || None);
    let ptr = SendPtr(out.as_mut_ptr());
    let ranges_ref = &ranges;
    parallel_chunks(0..chunks, 1, |idx_range| {
        for i in idx_range {
            let value = f(ranges_ref[i].clone());
            // Disjoint indices → disjoint slots.
            unsafe { *ptr.get().add(i) = Some(value) };
        }
    });
    out.into_iter()
        .map(|v| v.expect("every chunk ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    // The pool's thread count is process-global; tests that flip it live
    // in `tests/pool.rs` behind a serializing lock. Unit tests here only
    // touch pure helpers.
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [1usize, 2, 7, 64, 1000] {
            for chunks in 1..=8usize.min(n) {
                let ranges = chunk_ranges(&(10..10 + n), chunks);
                assert_eq!(ranges.len(), chunks);
                let mut next = 10;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(r.len() >= n / chunks);
                    next = r.end;
                }
                assert_eq!(next, 10 + n);
            }
        }
    }

    #[test]
    fn chunk_count_respects_grain() {
        assert_eq!(chunk_count(100, 1, 4), 4);
        assert_eq!(chunk_count(100, 60, 4), 2);
        assert_eq!(chunk_count(100, 100, 4), 1);
        assert_eq!(chunk_count(3, 1, 8), 3);
        assert_eq!(chunk_count(1, 0, 8), 1);
    }
}
