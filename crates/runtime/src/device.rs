//! Device handles: the user-facing way to pick an execution strategy
//! (paper §3.3: "end-users can switch between the two implementations by
//! specifying a device for the computation to run on").

use crate::eager::EagerQueue;
use crate::lazy::LazyContext;
use s4tf_xla::CacheStats;
use std::sync::Arc;

/// An execution device.
#[derive(Clone, Debug)]
pub enum Device {
    /// Direct synchronous CPU kernels (paper §3.1, "naïve Tensor").
    Naive,
    /// Asynchronous op-by-op dispatch to a worker thread (§3.2).
    Eager(EagerQueue),
    /// Trace-record with JIT compilation and a program cache (§3.3).
    Lazy(Arc<LazyContext>),
}

impl Device {
    /// The naive CPU device.
    pub fn naive() -> Device {
        Device::Naive
    }

    /// A fresh eager device (spawns its worker thread).
    pub fn eager() -> Device {
        Device::Eager(EagerQueue::new())
    }

    /// A fresh lazy device (its own trace and program cache).
    pub fn lazy() -> Device {
        Device::Lazy(Arc::new(LazyContext::new()))
    }

    /// A short name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Device::Naive => "naive",
            Device::Eager(_) => "eager",
            Device::Lazy(_) => "lazy",
        }
    }

    /// Synchronization point: the paper's `LazyTensorBarrier()` on the
    /// lazy device, a pipeline drain on the eager device, a no-op on the
    /// naive device.
    pub fn barrier(&self) {
        match self {
            Device::Naive => {}
            Device::Eager(q) => q.sync(),
            Device::Lazy(ctx) => ctx.barrier(),
        }
    }

    /// Like [`Device::barrier`], but surfaces the first runtime error the
    /// device recorded since the last check instead of panicking at an
    /// observation point. `Ok(())` on the naive device (errors there attach
    /// directly to poisoned tensors and surface at observation).
    pub fn sync_checked(&self) -> Result<(), s4tf_tensor::RuntimeError> {
        match self {
            Device::Naive => Ok(()),
            Device::Eager(q) => q.sync_checked(),
            Device::Lazy(ctx) => {
                ctx.barrier();
                match ctx.take_error() {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
        }
    }

    /// Program-cache hit/miss statistics: `Some` on the lazy device (the
    /// only backend with a JIT cache), `None` otherwise.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match self {
            Device::Lazy(ctx) => Some(ctx.cache().stats()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        assert_eq!(Device::naive().kind(), "naive");
        assert_eq!(Device::eager().kind(), "eager");
        assert_eq!(Device::lazy().kind(), "lazy");
    }

    #[test]
    fn barriers_do_not_panic() {
        for d in [Device::naive(), Device::eager(), Device::lazy()] {
            d.barrier();
        }
    }

    #[test]
    fn cache_stats_only_on_lazy() {
        assert!(Device::naive().cache_stats().is_none());
        assert!(Device::eager().cache_stats().is_none());
        assert_eq!(Device::lazy().cache_stats(), Some(CacheStats::default()));
    }
}
