//! Copy-on-write element storage — the mechanism behind the paper's
//! "large values are copied lazily, upon mutation, and only when shared"
//! (§4, "Mutable value semantics").
//!
//! A [`Storage`] clones in O(1) by bumping a reference count. The first
//! mutation through a *shared* storage copies the buffer
//! ([`std::sync::Arc::make_mut`]); mutation through a *uniquely owned*
//! storage is in-place and free. This is exactly Swift's CoW array behavior
//! that the paper relies on for both value semantics (§4) and in-place
//! optimizer updates (§4.2).

use crate::diag;
use crate::dtype::Scalar;
use crate::pool;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global count of CoW buffer copies, for tests and the memory experiments
/// (Table 4): proves that unique mutation does not copy.
static COW_COPIES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of [`COW_COPIES`].
    static THREAD_COW_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Number of copy-on-write buffer copies performed process-wide so far.
pub fn cow_copy_count() -> u64 {
    COW_COPIES.load(Ordering::Relaxed)
}

/// Number of copy-on-write buffer copies the *calling thread* has
/// performed. A delta of this count cannot be raced by other threads —
/// what a test asserting "this mutation copied exactly once" needs.
pub fn thread_cow_copy_count() -> u64 {
    THREAD_COW_COPIES.with(Cell::get)
}

fn count_cow_copy() {
    COW_COPIES.fetch_add(1, Ordering::Relaxed);
    THREAD_COW_COPIES.with(|c| c.set(c.get() + 1));
}

/// Element buffer with allocation accounting: books its byte size into
/// the memory ledger (`s4tf-metrics`, through `s4tf-diag`) when created
/// and when released. The `Drop` runs exactly once — when the last
/// `Storage` sharing the buffer goes away — so live-bytes bookkeeping is
/// race-free by construction.
#[derive(Debug, Default)]
struct Buf<T: Scalar> {
    vec: Vec<T>,
    /// Bytes booked into the ledger (buffer capacity at creation).
    bytes: usize,
    /// Allocation site the ledger credited (`""` when per-site
    /// attribution is off), handed back with the release.
    site: &'static str,
}

impl<T: Scalar> Buf<T> {
    /// Wraps `vec`; `fresh` says it came from the allocator, not out of
    /// the recycling pool (live/peak accounting moves either way, an
    /// allocator call is counted only when fresh).
    fn new(vec: Vec<T>, fresh: bool) -> Self {
        let bytes = vec.capacity() * std::mem::size_of::<T>();
        let site = diag::track_alloc(bytes, fresh);
        Buf { vec, bytes, site }
    }

    /// The `n` elements `push` appends to a pool-aware empty buffer,
    /// booked as recycled or fresh by where the capacity came from.
    fn pushed(n: usize, push: impl FnOnce(&mut Vec<T>)) -> Self {
        let (mut vec, recycled) = pool::take::<T>(n);
        push(&mut vec);
        assert_eq!(
            vec.len(),
            n,
            "a kernel pushed {} of {n} elements",
            vec.len()
        );
        Buf::new(vec, !recycled)
    }

    /// Moves the elements out, settling the tracker account immediately
    /// (the subsequent `Drop` then has nothing left to report).
    fn take(mut self) -> Vec<T> {
        diag::track_free(self.site, self.bytes, true);
        self.bytes = 0;
        std::mem::take(&mut self.vec)
    }
}

impl<T: Scalar> Clone for Buf<T> {
    /// A buffer copy (`Arc::make_mut` on a shared storage) needs fresh
    /// capacity — recycled from the pool when possible, and tracked as a
    /// fresh allocation otherwise.
    fn clone(&self) -> Self {
        Buf::pushed(self.vec.len(), |v| v.extend_from_slice(&self.vec))
    }
}

impl<T: Scalar> PartialEq for Buf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}

impl<T: Scalar> Drop for Buf<T> {
    /// The last `Storage` sharing the buffer dropped: offer the capacity
    /// to the recycling pool, and settle with the allocator only if the
    /// pool declines.
    fn drop(&mut self) {
        if self.bytes == 0 {
            return;
        }
        // The bytes leave tensor-live accounting either way: capacity the
        // pool keeps is reported separately as `s4tf_pool_resident_bytes`.
        let pooled = pool::give(std::mem::take(&mut self.vec));
        diag::track_free(self.site, self.bytes, !pooled);
    }
}

/// Reference-counted, copy-on-write element buffer.
///
/// ```
/// use s4tf_tensor::Storage;
/// let mut a = Storage::from_vec(vec![1, 2, 3]);
/// let b = a.clone();            // O(1): shared
/// a.as_mut_slice()[0] = 9;      // copies, then mutates
/// assert_eq!(b.as_slice()[0], 1);
/// assert_eq!(a.as_slice()[0], 9);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Storage<T: Scalar> {
    data: Arc<Buf<T>>,
}

impl<T: Scalar> Storage<T> {
    /// Creates storage owning `data`.
    pub fn from_vec(data: Vec<T>) -> Self {
        Storage {
            data: Arc::new(Buf::new(data, true)),
        }
    }

    /// Creates storage holding a copy of `data`, recycling pooled
    /// capacity when available.
    pub(crate) fn copy_of_slice(data: &[T]) -> Self {
        Storage::pushed(data.len(), |v| v.extend_from_slice(data))
    }

    /// Creates storage of `n` copies of `value`, recycling pooled
    /// capacity when available.
    pub fn filled(n: usize, value: T) -> Self {
        Storage::build(n, value, |_| ())
    }

    /// One of the two ways a kernel makes its output: `n` copies of
    /// `init` in pool-aware capacity, which `write` then overwrites in
    /// place.
    #[inline]
    pub(crate) fn build(n: usize, init: T, write: impl FnOnce(&mut [T])) -> Self {
        Storage::pushed(n, |v| {
            v.resize(n, init);
            write(v);
        })
    }

    /// The other way: `push` appends exactly `n` elements to an empty
    /// buffer with room for them — for kernels that never need a fill.
    #[inline]
    pub(crate) fn pushed(n: usize, push: impl FnOnce(&mut Vec<T>)) -> Self {
        Storage {
            data: Arc::new(Buf::pushed(n, push)),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.vec.len()
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.vec.is_empty()
    }

    /// Read-only view of the elements.
    pub fn as_slice(&self) -> &[T] {
        &self.data.vec
    }

    /// Mutable view of the elements.
    ///
    /// If the buffer is shared with another `Storage`, it is copied first
    /// (copy-on-write); if uniquely owned, this is free.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if Arc::strong_count(&self.data) > 1 {
            count_cow_copy();
        }
        Arc::make_mut(&mut self.data).vec.as_mut_slice()
    }

    /// True if this storage uniquely owns its buffer (mutation will not
    /// copy).
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// True if `self` and `other` share the same underlying buffer.
    pub fn ptr_eq(&self, other: &Storage<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Extracts the underlying vector, copying only if shared.
    pub fn into_vec(self) -> Vec<T> {
        match Arc::try_unwrap(self.data) {
            Ok(buf) => buf.take(),
            Err(arc) => {
                count_cow_copy();
                arc.vec.clone()
            }
        }
    }
}

impl<T: Scalar> From<Vec<T>> for Storage<T> {
    fn from(data: Vec<T>) -> Self {
        Storage::from_vec(data)
    }
}

impl<T: Scalar> FromIterator<T> for Storage<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Storage::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_buffer() {
        let a = Storage::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert!(!a.is_unique());
        assert!(!b.is_unique());
    }

    #[test]
    fn mutation_through_shared_copies() {
        let before = thread_cow_copy_count();
        let mut a = Storage::from_vec(vec![1, 2, 3]);
        let b = a.clone();
        a.as_mut_slice()[0] = 42;
        assert_eq!(thread_cow_copy_count(), before + 1);
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.as_slice(), &[42, 2, 3]);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn unique_mutation_is_in_place() {
        let mut a = Storage::from_vec(vec![1, 2, 3]);
        let before = thread_cow_copy_count();
        let ptr = a.as_slice().as_ptr();
        a.as_mut_slice()[1] = 7;
        assert_eq!(thread_cow_copy_count(), before);
        assert_eq!(a.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn into_vec_unique_does_not_copy() {
        let a = Storage::from_vec(vec![1, 2, 3]);
        let before = thread_cow_copy_count();
        let v = a.into_vec();
        assert_eq!(thread_cow_copy_count(), before);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn into_vec_shared_copies() {
        let a = Storage::from_vec(vec![1, 2, 3]);
        let _b = a.clone();
        let before = thread_cow_copy_count();
        let v = a.into_vec();
        assert_eq!(thread_cow_copy_count(), before + 1);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn collect_and_len() {
        let s: Storage<i32> = (0..4).collect();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(Storage::<i32>::from_vec(vec![]).is_empty());
    }
}
