//! The one memory ledger: process totals plus live/peak attribution by
//! allocating subsystem.
//!
//! The tensor storage layer books every buffer through
//! [`mem_alloc`]/[`mem_free`]. The process totals
//! ([`memory_stats`]) always count. While the registry is enabled each
//! buffer is also credited to a site: subsystems scope the allocations
//! they cause with an RAII [`mem_site`] guard ("eager", "trace",
//! "checkpoint", …) and unscoped ones land on `"host"`, so the totals
//! equal the sum of the sites. `allocs`/`frees` count *allocator calls*:
//! a buffer recycled through the tensor pool moves live bytes only.
//!
//! The hot path is three relaxed RMWs on the totals plus, when sites are
//! on, a thread-local read, one site lookup (cached per-thread by
//! `&'static str` identity) and three more.

use crate::lock_unpoisoned;
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

#[derive(Default)]
struct SiteStats {
    live: AtomicI64,
    peak: AtomicI64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl SiteStats {
    /// Books `bytes` as live; returns the new level and whether it is a
    /// new peak. Only `fresh` buffers (from the allocator, not the pool)
    /// count in `allocs`.
    fn on_alloc(&self, bytes: i64, fresh: bool) -> (i64, bool) {
        if fresh {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        (live, self.peak.fetch_max(live, Ordering::Relaxed) < live)
    }

    /// Returns the new live level.
    fn on_free(&self, bytes: i64, fresh: bool) -> i64 {
        if fresh {
            self.frees.fetch_add(1, Ordering::Relaxed);
        }
        self.live.fetch_sub(bytes, Ordering::Relaxed) - bytes
    }

    /// Restarts the watermark from the live level, which it returns.
    fn restart_peak(&self) -> i64 {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }
}

/// Process totals (kept alongside the per-site split so they never
/// depend on summing sites, and count while sites are gated off).
static TOTAL: SiteStats = SiteStats {
    live: AtomicI64::new(0),
    peak: AtomicI64::new(0),
    allocs: AtomicU64::new(0),
    frees: AtomicU64::new(0),
};

/// The profiler track the hot path samples live bytes into — the same
/// name [`publish`] gives the registry gauge.
const LIVE_GAUGE: &str = "s4tf_mem_live_bytes";

static SITES: Mutex<Vec<(&'static str, &'static SiteStats)>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT_SITE: Cell<&'static str> = const { Cell::new("host") };
    /// Per-thread memo of the last site looked up, keyed by pointer
    /// identity of the `&'static str` (site names are literals).
    static SITE_CACHE: Cell<Option<(*const u8, &'static SiteStats)>> = const { Cell::new(None) };
}

fn stats_for(site: &'static str) -> &'static SiteStats {
    if let Some((ptr, stats)) = SITE_CACHE.with(Cell::get) {
        if std::ptr::eq(ptr, site.as_ptr()) {
            return stats;
        }
    }
    let mut table = lock_unpoisoned(&SITES);
    let found = table.iter().find(|(name, _)| *name == site);
    let stats = match found {
        Some((_, stats)) => *stats,
        None => {
            let leaked: &'static SiteStats = Box::leak(Box::default());
            table.push((site, leaked));
            leaked
        }
    };
    drop(table);
    SITE_CACHE.with(|c| c.set(Some((site.as_ptr(), stats))));
    stats
}

/// Restores the previous attribution site on drop.
pub struct MemSiteGuard {
    prev: &'static str,
}

impl Drop for MemSiteGuard {
    fn drop(&mut self) {
        CURRENT_SITE.with(|c| c.set(self.prev));
    }
}

/// Attributes allocations on this thread to `site` until the guard
/// drops.
pub fn mem_site(site: &'static str) -> MemSiteGuard {
    let prev = CURRENT_SITE.with(|c| c.replace(site));
    MemSiteGuard { prev }
}

/// Books a `bytes`-sized buffer: into the totals always, and against
/// the current site while the registry is enabled. `fresh` says the
/// buffer came from the allocator rather than the recycling pool.
/// Returns the site — which the buffer hands back to [`mem_free`],
/// since buffers outlive site scopes (`""` when sites are off) — and the
/// new total peak if this allocation set one.
#[inline]
pub fn mem_alloc(bytes: usize, fresh: bool) -> (&'static str, Option<u64>) {
    if bytes == 0 {
        return ("", None);
    }
    let (live, new_peak) = TOTAL.on_alloc(bytes as i64, fresh);
    s4tf_profile::gauge_set(LIVE_GAUGE, live as f64);
    let site = if crate::enabled() {
        let site = CURRENT_SITE.with(Cell::get);
        stats_for(site).on_alloc(bytes as i64, fresh);
        site
    } else {
        ""
    };
    (site, new_peak.then_some(live as u64))
}

/// Books the matching release for a [`mem_alloc`] that returned
/// `site`; `fresh` here says the buffer went back to the allocator
/// rather than into the pool.
#[inline]
pub fn mem_free(site: &'static str, bytes: usize, fresh: bool) {
    if bytes == 0 {
        return;
    }
    let live = TOTAL.on_free(bytes as i64, fresh);
    s4tf_profile::gauge_set(LIVE_GAUGE, live as f64);
    if !site.is_empty() {
        stats_for(site).on_free(bytes as i64, fresh);
    }
}

/// One site's attribution snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteMem {
    /// The allocating subsystem (`"eager"`, `"trace"`, `"checkpoint"`,
    /// `"host"`, …).
    pub site: &'static str,
    /// Bytes currently live that this site allocated.
    pub live_bytes: i64,
    /// High-water mark of this site's live bytes.
    pub peak_bytes: i64,
    /// Allocator calls attributed here.
    pub allocs: u64,
    /// Allocator frees of buffers this site allocated.
    pub frees: u64,
}

/// Live/peak bytes broken down by allocating subsystem, sorted by site
/// name.
pub fn memory_by_site() -> Vec<SiteMem> {
    let mut out: Vec<SiteMem> = lock_unpoisoned(&SITES)
        .iter()
        .map(|(site, s)| SiteMem {
            site,
            live_bytes: s.live.load(Ordering::Relaxed),
            peak_bytes: s.peak.load(Ordering::Relaxed),
            allocs: s.allocs.load(Ordering::Relaxed),
            frees: s.frees.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by_key(|m| m.site);
    out
}

/// The process totals: every tensor-storage buffer, whichever site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes currently held by live tensor-storage buffers.
    pub live_bytes: u64,
    /// Highest `live_bytes` observed since [`reset_peak_bytes`].
    pub peak_bytes: u64,
    /// Allocator calls (includes copy-on-write clones; a buffer the
    /// pool recycled is not one).
    pub allocs: u64,
    /// Buffers released to the allocator (not those the pool kept).
    pub frees: u64,
}

/// Current process totals.
pub fn memory_stats() -> MemoryStats {
    MemoryStats {
        live_bytes: TOTAL.live.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: TOTAL.peak.load(Ordering::Relaxed).max(0) as u64,
        allocs: TOTAL.allocs.load(Ordering::Relaxed),
        frees: TOTAL.frees.load(Ordering::Relaxed),
    }
}

/// Restarts the one watermark — the total's and every site's — from the
/// current live levels (e.g. per training step, so per-step peaks are
/// meaningful). Returns the total live bytes it restarted from.
pub fn reset_peak_bytes() -> u64 {
    for (_, site) in lock_unpoisoned(&SITES).iter() {
        site.restart_peak();
    }
    TOTAL.restart_peak().max(0) as u64
}

/// Refreshes the registry gauges from the attribution tables (called at
/// every export so scrapes and snapshots see current levels without the
/// hot path touching the registry).
pub(crate) fn publish() {
    let total = memory_stats();
    crate::gauge(LIVE_GAUGE, "Live tensor-storage bytes").set(total.live_bytes as i64);
    crate::gauge("s4tf_mem_peak_bytes", "Peak tensor-storage bytes").set(total.peak_bytes as i64);
    for m in memory_by_site() {
        crate::gauge(
            &format!("s4tf_mem_site_live_bytes{{site=\"{}\"}}", m.site),
            "Live bytes by allocating subsystem",
        )
        .set(m.live_bytes);
        crate::gauge(
            &format!("s4tf_mem_site_peak_bytes{{site=\"{}\"}}", m.site),
            "Peak live bytes by allocating subsystem",
        )
        .set(m.peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Both tests move the process totals; `alloc_free_balance` counts them.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn sites_scope_and_nest() {
        let _serial = crate::lock_unpoisoned(&SERIAL);
        crate::set_enabled(true);
        let alloc = |bytes| mem_alloc(bytes, true).0;
        let outer = alloc(8);
        let (inner, nested) = {
            let _g = mem_site("mem-test-a");
            let inner = alloc(100);
            let nested = {
                let _g2 = mem_site("mem-test-b");
                alloc(50)
            };
            (inner, nested)
        };
        assert_eq!(outer, "host");
        assert_eq!(inner, "mem-test-a");
        assert_eq!(nested, "mem-test-b");

        let by_site = memory_by_site();
        let get = |s: &str| *by_site.iter().find(|m| m.site == s).unwrap();
        assert_eq!(get("mem-test-a").live_bytes, 100);
        assert_eq!(get("mem-test-b").live_bytes, 50);

        // Frees credit the allocation site even after the scope is gone.
        mem_free(inner, 100, true);
        mem_free(nested, 50, true);
        mem_free(outer, 8, true);
        let by_site = memory_by_site();
        let get = |s: &str| *by_site.iter().find(|m| m.site == s).unwrap();
        assert_eq!(get("mem-test-a").live_bytes, 0);
        assert_eq!(get("mem-test-a").peak_bytes, 100);
        assert_eq!(get("mem-test-b").allocs, 1);
        assert_eq!(get("mem-test-b").frees, 1);
    }

    #[test]
    fn alloc_free_balance() {
        let _serial = crate::lock_unpoisoned(&SERIAL);
        let before = memory_stats();
        let (site, _) = mem_alloc(1 << 20, true);
        let during = memory_stats();
        assert!(during.live_bytes >= before.live_bytes + (1 << 20));
        assert!(during.peak_bytes >= before.live_bytes + (1 << 20));
        // A recycled buffer moves live bytes but is no allocator call.
        let (pooled, _) = mem_alloc(64, false);
        mem_free(pooled, 64, false);
        mem_free(site, 1 << 20, true);
        let after = memory_stats();
        assert_eq!(after.allocs, before.allocs + 1);
        assert_eq!(after.frees, before.frees + 1);
        // Live returns to baseline (other tests may run concurrently, so
        // compare against what this test added, not an absolute value).
        assert_eq!(
            after.live_bytes.wrapping_sub(before.live_bytes),
            during.live_bytes.wrapping_sub(before.live_bytes) - (1 << 20)
        );
    }
}
