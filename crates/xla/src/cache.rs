//! The XLA-program cache (paper §3.4): "trace fragments are hashed to
//! become keys in an XLA-program cache; each unique trace is only compiled
//! by XLA once. Even though we reuse previously compiled traces, we still
//! incur tracing overhead on each iteration."
//!
//! Shape changes alter the fingerprint and therefore force recompilation —
//! the behavior §3.4 calls out as a limitation, reproduced faithfully and
//! measured by the retracing ablation (experiment E8).

use crate::diag;
use crate::exec::{compile, compile_unoptimized, Executable};
use crate::fault;
use crate::graph::HloGraph;
use crate::met;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled program.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Compilations that exhausted their retries and degraded to the
    /// unoptimized trace interpreter (same semantics, no fusion).
    pub compile_fallbacks: u64,
    /// Analytic peak live bytes, summed over the cache's distinct
    /// programs (each program's liveness-schedule budget).
    pub planned_bytes: u64,
    /// Kernels (across all cached programs' runs) that committed to
    /// writing in place into a dying operand's buffer.
    pub in_place: u64,
    /// The subset of `in_place` that overwrote a caller-donated
    /// parameter buffer.
    pub donated: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when empty).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Inner {
    // Fingerprint → compiled entries. A bucket holds the graphs too so a
    // (vanishingly unlikely) fingerprint collision cannot return the wrong
    // program.
    entries: HashMap<u64, Vec<(HloGraph, Arc<Executable>)>>,
    stats: CacheStats,
    compile_time: Duration,
}

/// A thread-safe compiled-program cache keyed by trace fingerprint.
#[derive(Default)]
pub struct ProgramCache {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        write!(
            f,
            "ProgramCache(programs: {}, stats: {:?})",
            inner.entries.values().map(Vec::len).sum::<usize>(),
            inner.stats
        )
    }
}

const LOOKUP_HELP: &str = "Program-cache lookups, by whether a compiled program was found";

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Returns the compiled program for `graph`, compiling at most once
    /// per unique trace.
    pub fn get_or_compile(&self, graph: &HloGraph) -> Arc<Executable> {
        let key = graph.fingerprint();
        let mut inner = self.inner.lock();
        if let Some(bucket) = inner.entries.get(&key) {
            if let Some((_, exe)) = bucket.iter().find(|(g, _)| g == graph) {
                let exe = Arc::clone(exe);
                inner.stats.hits += 1;
                met::counter!("s4tf_xla_cache_total{result=\"hit\"}", LOOKUP_HELP).inc();
                diag::event!("xla.cache.hit", fingerprint = format_args!("{key:016x}"));
                return exe;
            }
        }
        inner.stats.misses += 1;
        met::counter!("s4tf_xla_cache_total{result=\"miss\"}", LOOKUP_HELP).inc();
        diag::event!("xla.cache.miss", fingerprint = format_args!("{key:016x}"));
        diag::event!(
            "xla.compile.start",
            fingerprint = format_args!("{key:016x}"),
            nodes = graph.len(),
        );
        let start = std::time::Instant::now();
        // Buffers the compiler materializes (folded constants, fused
        // graphs) are attributed to the compile site, not the caller's.
        let site = met::mem_site("xla.compile");
        let (exe, fell_back) = compile_resilient(graph, key);
        drop(site);
        let exe = Arc::new(exe);
        if fell_back {
            inner.stats.compile_fallbacks += 1;
            met::counter!(
                "s4tf_xla_compile_fallback_total",
                "Compilations that exhausted retries and degraded to the trace interpreter"
            )
            .inc();
        }
        met::histogram!(
            "s4tf_xla_compile_us",
            "Wall time of one XLA-program compilation, microseconds"
        )
        .record(start.elapsed().as_micros() as u64);
        inner.compile_time += start.elapsed();
        diag::event!(
            "xla.compile.finish",
            fingerprint = format_args!("{key:016x}"),
            kernels = exe.kernel_count(),
            dur_us = start.elapsed().as_micros(),
        );
        inner
            .entries
            .entry(key)
            .or_default()
            .push((graph.clone(), Arc::clone(&exe)));
        exe
    }

    /// Current statistics, including each cached program's planner
    /// budget and accumulated run-time plan outcomes.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats;
        for (_, exe) in inner.entries.values().flatten() {
            stats.planned_bytes += exe.planned_bytes();
            let counters = exe.plan_counters();
            stats.in_place += counters.in_place.load(Ordering::Relaxed);
            stats.donated += counters.donated.load(Ordering::Relaxed);
        }
        stats
    }

    /// Total time spent compiling (the JIT cost the cache amortizes).
    pub fn compile_time(&self) -> Duration {
        self.inner.lock().compile_time
    }

    /// Number of distinct compiled programs.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.values().map(Vec::len).sum()
    }

    /// True if nothing has been compiled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all compiled programs and statistics.
    pub fn clear(&self) {
        *self.inner.lock() = Inner::default();
    }
}

/// How many times a failed compile is retried before degrading.
const COMPILE_RETRIES: u32 = 2;

/// Compiles with the graceful-degradation ladder: a failure (a compiler
/// panic, or an injected `compile`-site fault) is retried up to
/// [`COMPILE_RETRIES`] times with bounded backoff; if every attempt
/// fails, the trace degrades to [`compile_unoptimized`] — the trace
/// interpreter: same kernels in the same topological order, no fusion —
/// so training continues at reduced speed instead of aborting.
///
/// Returns the executable and whether it is the fallback.
fn compile_resilient(graph: &HloGraph, key: u64) -> (Executable, bool) {
    let mut attempt = 0u32;
    loop {
        let failure: Option<String> = if fault::should_inject(fault::FaultSite::Compile) {
            diag::event!(
                "fault.injected",
                site = "compile",
                fingerprint = format_args!("{key:016x}"),
                attempt = attempt,
            );
            Some("injected fault at site `compile` (S4TF_FAULT_SPEC)".to_string())
        } else {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compile(graph))) {
                Ok(exe) => return (exe, false),
                Err(payload) => Some(s4tf_tensor::panic_message(&*payload)),
            }
        };
        let failure = failure.unwrap_or_default();
        if attempt >= COMPILE_RETRIES {
            diag::event!(
                "xla.compile.fallback",
                fingerprint = format_args!("{key:016x}"),
                attempts = attempt + 1,
                error = failure,
            );
            eprintln!(
                "s4tf fault: XLA compile of trace {key:016x} failed {} times ({failure}); \
                 falling back to trace interpreter",
                attempt + 1,
            );
            return (compile_unoptimized(graph), true);
        }
        met::counter!(
            "s4tf_xla_compile_retry_total",
            "Failed compilation attempts that were retried"
        )
        .inc();
        diag::event!(
            "xla.compile.retry",
            fingerprint = format_args!("{key:016x}"),
            attempt = attempt,
            error = failure,
        );
        std::thread::sleep(fault::backoff_delay(attempt));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{ElemBinary, ElemUnary};
    use s4tf_tensor::Tensor;

    fn graph(dim: usize, scale: f32) -> HloGraph {
        let mut g = HloGraph::new();
        let x = g.parameter(0, &[dim]);
        let c = g.constant(Tensor::scalar(scale));
        let m = g.binary(ElemBinary::Mul, x, c);
        let r = g.unary(ElemUnary::Relu, m);
        g.mark_output(r);
        g
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ProgramCache::new();
        let g = graph(8, 2.0);
        let a = cache.get_or_compile(&g);
        let b = cache.get_or_compile(&g);
        assert!(Arc::ptr_eq(&a, &b), "same trace must reuse the program");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.compile_fallbacks),
            (1, 1, 0)
        );
        assert!(
            stats.planned_bytes > 0,
            "a cached program carries its planner budget"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shape_change_forces_recompile() {
        let cache = ProgramCache::new();
        cache.get_or_compile(&graph(8, 2.0));
        cache.get_or_compile(&graph(16, 2.0)); // §3.4: new shape → compile
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_constants_are_distinct_programs() {
        let cache = ProgramCache::new();
        cache.get_or_compile(&graph(8, 2.0));
        cache.get_or_compile(&graph(8, 3.0));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stats_and_clear() {
        let cache = ProgramCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hit_ratio(), 0.0);
        let g = graph(4, 1.5);
        for _ in 0..9 {
            cache.get_or_compile(&g);
        }
        assert!((cache.stats().hit_ratio() - 8.0 / 9.0).abs() < 1e-12);
        assert!(cache.compile_time() > Duration::ZERO);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn compiled_program_runs_correctly_from_cache() {
        let cache = ProgramCache::new();
        let g = graph(3, 2.0);
        let exe = cache.get_or_compile(&g);
        let out = exe.run(&[&Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3])]);
        assert_eq!(out[0].as_slice(), &[0.0, 1.0, 4.0]);
    }
}
