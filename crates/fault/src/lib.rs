//! Deterministic, seed-driven fault injection for chaos-testing the s4tf
//! runtime.
//!
//! The ROADMAP north star is a production-scale system, and production
//! systems are only as robust as the failures they have rehearsed. This
//! crate makes faults *injectable* and the injection *replayable*: a spec
//! names the sites to perturb, a probability per site, and a seed — and
//! the decision sequence is a pure function of `(seed, site, draw index)`,
//! so a chaos run reproduces exactly, independent of thread interleaving.
//!
//! ## Spec grammar
//!
//! ```text
//! S4TF_FAULT_SPEC = <entry> [ "," <entry> ]*
//! <entry>         = <site> ":" <prob> ":" <seed>
//! <site>          = dispatch | kernel | compile | allreduce | checkpoint_io | io | net
//! ```
//!
//! e.g. `S4TF_FAULT_SPEC=kernel:0.05:42,compile:1:7` injects kernel faults
//! on 5% of draws (seed 42) and fails every XLA compile (seed 7).
//!
//! ## Sites
//!
//! | site | where it fires |
//! |------|----------------|
//! | `dispatch` | op dispatch/record on the naive, eager and lazy devices |
//! | `kernel` | kernel execution (eager worker, naive eval, compiled-plan nodes) |
//! | `compile` | XLA compilation inside the program cache |
//! | `allreduce` | per-shard gradient reduction in the data-parallel step |
//! | `checkpoint_io` | checkpoint writes (`nn::checkpoint::save`) |
//! | `io` | checkpoint reads and other file I/O |
//! | `net` | data-plane wire frames in `s4tf::dist` (drop / delay / corrupt) |
//!
//! The `net` site is consumed differently from the others: `s4tf-dist`
//! keeps a *per-peer* draw counter and calls [`would_inject`] directly
//! (via [`site_params`]), so the injected sequence for each peer link is
//! independent of traffic on the other links — expelling one worker does
//! not shift the fault stream another worker sees.
//!
//! The disabled path is one relaxed atomic load (the gate pattern shared
//! with `s4tf-profile`/`s4tf-diag`).
//!
//! The other half of fault tolerance is *detecting* corruption: this crate
//! also defines [`digest64`], the one integrity digest that seals wire
//! frames, worker environment blobs and checkpoint files.

mod digest;

pub use digest::digest64;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

/// A place in the runtime where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Op dispatch / trace record on any device.
    Dispatch,
    /// Kernel execution on any backend.
    Kernel,
    /// XLA compilation (program-cache miss path).
    Compile,
    /// Per-shard gradient all-reduce in the data-parallel step.
    Allreduce,
    /// Checkpoint writes.
    CheckpointIo,
    /// Checkpoint reads / generic file I/O.
    Io,
    /// Data-plane network frames (the `s4tf::dist` wire).
    Net,
}

/// Number of distinct sites (array-index bound).
const N_SITES: usize = 7;

impl FaultSite {
    /// Every site, in spec order.
    pub const ALL: [FaultSite; N_SITES] = [
        FaultSite::Dispatch,
        FaultSite::Kernel,
        FaultSite::Compile,
        FaultSite::Allreduce,
        FaultSite::CheckpointIo,
        FaultSite::Io,
        FaultSite::Net,
    ];

    /// The spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Dispatch => "dispatch",
            FaultSite::Kernel => "kernel",
            FaultSite::Compile => "compile",
            FaultSite::Allreduce => "allreduce",
            FaultSite::CheckpointIo => "checkpoint_io",
            FaultSite::Io => "io",
            FaultSite::Net => "net",
        }
    }

    /// Parses a spec-grammar name.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == s)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::Dispatch => 0,
            FaultSite::Kernel => 1,
            FaultSite::Compile => 2,
            FaultSite::Allreduce => 3,
            FaultSite::CheckpointIo => 4,
            FaultSite::Io => 5,
            FaultSite::Net => 6,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One site's injection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SiteSpec {
    prob: f64,
    seed: u64,
}

// Tri-state gate: 0 = uninitialized (consult S4TF_FAULT_SPEC once),
// 1 = off, 2 = on. The hot path of `should_inject` with no spec set is
// one relaxed load.
static GATE: AtomicU8 = AtomicU8::new(0);
const GATE_OFF: u8 = 1;
const GATE_ON: u8 = 2;

static SPECS: Mutex<[Option<SiteSpec>; N_SITES]> = Mutex::new([None; N_SITES]);

// Per-site draw/injection counters. Draws only advance for configured
// sites, so the decision sequence for a site depends only on how often
// that site was consulted — not on what other sites were doing.
static DECISIONS: [AtomicU64; N_SITES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static INJECTIONS: [AtomicU64; N_SITES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

fn lock_specs() -> std::sync::MutexGuard<'static, [Option<SiteSpec>; N_SITES]> {
    // The only writers are `set_fault_spec` and env init; a panic while
    // holding the lock leaves valid data, so poisoning is ignorable.
    SPECS.lock().unwrap_or_else(|e| e.into_inner())
}

#[cold]
fn init_from_env() -> u8 {
    let state = match std::env::var("S4TF_FAULT_SPEC") {
        Ok(spec) if !spec.trim().is_empty() => match parse_spec(&spec) {
            Ok(parsed) => {
                *lock_specs() = parsed;
                GATE_ON
            }
            Err(err) => {
                eprintln!("s4tf fault: ignoring invalid S4TF_FAULT_SPEC: {err}");
                GATE_OFF
            }
        },
        _ => GATE_OFF,
    };
    // Racing initializers compute the same value; an explicit
    // `set_fault_spec` in between wins.
    let _ = GATE.compare_exchange(0, state, Ordering::Relaxed, Ordering::Relaxed);
    GATE.load(Ordering::Relaxed)
}

/// True if any site has injection configured (one relaxed load once
/// initialized).
#[inline]
pub fn injection_enabled() -> bool {
    match GATE.load(Ordering::Relaxed) {
        0 => init_from_env() == GATE_ON,
        state => state == GATE_ON,
    }
}

fn parse_spec(spec: &str) -> Result<[Option<SiteSpec>; N_SITES], String> {
    let mut out: [Option<SiteSpec>; N_SITES] = [None; N_SITES];
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let mut parts = entry.split(':');
        let (site, prob, seed) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(site), Some(prob), Some(seed), None) => (site, prob, seed),
            _ => return Err(format!("`{entry}` is not <site>:<prob>:<seed>")),
        };
        let site =
            FaultSite::parse(site.trim()).ok_or_else(|| format!("unknown fault site `{site}`"))?;
        let prob: f64 = prob
            .trim()
            .parse()
            .map_err(|_| format!("`{prob}` is not a probability"))?;
        if !(0.0..=1.0).contains(&prob) {
            return Err(format!("probability {prob} outside [0, 1]"));
        }
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("`{seed}` is not a u64 seed"))?;
        out[site.index()] = Some(SiteSpec { prob, seed });
    }
    Ok(out)
}

/// Installs (or with `None`, clears) the fault spec, overriding
/// `S4TF_FAULT_SPEC`, and resets the draw counters so the injected
/// sequence restarts from draw 0.
pub fn set_fault_spec(spec: Option<&str>) -> Result<(), String> {
    let parsed = match spec {
        Some(s) if !s.trim().is_empty() => parse_spec(s)?,
        _ => [None; N_SITES],
    };
    let any = parsed.iter().any(Option::is_some);
    *lock_specs() = parsed;
    GATE.store(if any { GATE_ON } else { GATE_OFF }, Ordering::Relaxed);
    reset_counters();
    Ok(())
}

/// The `(prob, seed)` configured for `site`, or `None` when the site (or
/// injection as a whole) is off. Consumers that need their own draw-index
/// streams — `s4tf-dist` keeps one per peer link — read the spec here and
/// decide via [`would_inject`] without advancing the global counters.
pub fn site_params(site: FaultSite) -> Option<(f64, u64)> {
    if !injection_enabled() {
        return None;
    }
    lock_specs()[site.index()].map(|s| (s.prob, s.seed))
}

/// SplitMix64 finalizer, exposed so consumers deriving sub-streams (e.g.
/// a per-peer seed `seed ^ mix64(rank)`) mix with the same function the
/// decision hash uses.
pub fn mix64(x: u64) -> u64 {
    splitmix64(x)
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The pure injection decision: would draw `index` at `site` inject under
/// (`seed`, `prob`)? This is the whole determinism story — no RNG state,
/// no thread sensitivity.
pub fn would_inject(seed: u64, site: FaultSite, index: u64, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    if prob >= 1.0 {
        return true;
    }
    let mixed = splitmix64(seed ^ splitmix64((site.index() as u64 + 1) ^ index.rotate_left(17)));
    // 53 uniform mantissa bits → [0, 1).
    let u = (mixed >> 11) as f64 / (1u64 << 53) as f64;
    u < prob
}

std::thread_local! {
    // Depth of nested `suppress()` guards on this thread.
    static SUPPRESS_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// An RAII guard marking a *protected region*: while it lives, injection
/// draws on this thread return `false` without consuming a draw index, so
/// protected work is invisible to the deterministic fault stream.
///
/// Chaos specs target the work being stressed (worker kernels, compiles,
/// checkpoint writes) — not the fault-handling machinery itself. Recovery
/// code (validation probes, rollback, the renormalized all-reduce) runs
/// under this guard; real faults still propagate through it as poisoned
/// values, only *new* injections are paused.
///
/// The guard is thread-local: it does not reach ops executed by another
/// thread (e.g. the eager worker).
#[must_use = "suppression ends when the guard drops"]
#[derive(Debug)]
pub struct SuppressionGuard(());

impl Drop for SuppressionGuard {
    fn drop(&mut self) {
        SUPPRESS_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Enters a protected region on the current thread (see
/// [`SuppressionGuard`]). Nests.
pub fn suppress() -> SuppressionGuard {
    SUPPRESS_DEPTH.with(|d| d.set(d.get() + 1));
    SuppressionGuard(())
}

/// True while the current thread is inside a [`suppress`] region.
pub fn suppressed() -> bool {
    SUPPRESS_DEPTH.with(|d| d.get() > 0)
}

/// Draws the next injection decision for `site`. Returns `false`
/// immediately (one relaxed load) when no spec is active or the site is
/// unconfigured; otherwise advances the site's draw counter and hashes
/// `(seed, site, draw)` into a decision. Inside a [`suppress`] region no
/// draw is consumed.
pub fn should_inject(site: FaultSite) -> bool {
    if !injection_enabled() {
        return false;
    }
    if suppressed() {
        return false;
    }
    let spec = match lock_specs()[site.index()] {
        Some(s) => s,
        None => return false,
    };
    let index = DECISIONS[site.index()].fetch_add(1, Ordering::Relaxed);
    let inject = would_inject(spec.seed, site, index, spec.prob);
    if inject {
        INJECTIONS[site.index()].fetch_add(1, Ordering::Relaxed);
    }
    inject
}

/// Draws evaluated at `site` since the last reset.
pub fn decisions(site: FaultSite) -> u64 {
    DECISIONS[site.index()].load(Ordering::Relaxed)
}

/// Faults injected at `site` since the last reset.
pub fn injections(site: FaultSite) -> u64 {
    INJECTIONS[site.index()].load(Ordering::Relaxed)
}

/// Resets every site's draw/injection counters (the spec is unchanged),
/// restarting the deterministic sequence from draw 0.
pub fn reset_counters() {
    for i in 0..N_SITES {
        DECISIONS[i].store(0, Ordering::Relaxed);
        INJECTIONS[i].store(0, Ordering::Relaxed);
    }
}

/// Bounded exponential backoff for retry ladders: 1ms, 2ms, 4ms, 8ms,
/// then capped. Small on purpose — tests retry through this too.
pub fn backoff_delay(attempt: u32) -> std::time::Duration {
    std::time::Duration::from_millis(1u64 << attempt.min(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The spec/gate is process-global; tests serialize on one lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parsed_spec_reaches_its_sites() {
        let _g = guard();
        set_fault_spec(Some("kernel:0.25:42, compile:1:7")).unwrap();
        assert_eq!(site_params(FaultSite::Kernel), Some((0.25, 42)));
        assert_eq!(site_params(FaultSite::Compile), Some((1.0, 7)));
        assert_eq!(site_params(FaultSite::Net), None);
        assert!(injection_enabled());
        set_fault_spec(None).unwrap();
        assert!(!injection_enabled());
        assert_eq!(site_params(FaultSite::Kernel), None);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let _g = guard();
        assert!(set_fault_spec(Some("bogus:0.5:1")).is_err());
        assert!(set_fault_spec(Some("kernel:1.5:1")).is_err());
        assert!(set_fault_spec(Some("kernel:0.5")).is_err());
        assert!(set_fault_spec(Some("kernel:0.5:abc")).is_err());
        assert!(!injection_enabled());
    }

    #[test]
    fn same_seed_same_sequence() {
        let _g = guard();
        set_fault_spec(Some("kernel:0.3:123")).unwrap();
        let a: Vec<bool> = (0..200).map(|_| should_inject(FaultSite::Kernel)).collect();
        set_fault_spec(Some("kernel:0.3:123")).unwrap();
        let b: Vec<bool> = (0..200).map(|_| should_inject(FaultSite::Kernel)).collect();
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        assert!(a.iter().any(|&x| x), "p=0.3 over 200 draws injects");
        assert!(!a.iter().all(|&x| x));

        set_fault_spec(Some("kernel:0.3:124")).unwrap();
        let c: Vec<bool> = (0..200).map(|_| should_inject(FaultSite::Kernel)).collect();
        assert_ne!(a, c, "a different seed draws a different sequence");
        set_fault_spec(None).unwrap();
    }

    #[test]
    fn sites_are_independent_streams() {
        let _g = guard();
        set_fault_spec(Some("kernel:0.5:9,dispatch:0.5:9")).unwrap();
        let k: Vec<bool> = (0..64).map(|_| should_inject(FaultSite::Kernel)).collect();
        let d: Vec<bool> = (0..64)
            .map(|_| should_inject(FaultSite::Dispatch))
            .collect();
        assert_ne!(k, d, "same seed, different sites → different streams");
        assert_eq!(decisions(FaultSite::Kernel), 64);
        assert_eq!(
            injections(FaultSite::Kernel),
            k.iter().filter(|&&x| x).count() as u64
        );
        set_fault_spec(None).unwrap();
    }

    #[test]
    fn extreme_probabilities() {
        let _g = guard();
        set_fault_spec(Some("io:0:1,compile:1:1")).unwrap();
        assert!((0..50).all(|_| !should_inject(FaultSite::Io)));
        assert!((0..50).all(|_| should_inject(FaultSite::Compile)));
        // Unconfigured sites never inject and never advance.
        assert!(!should_inject(FaultSite::Kernel));
        assert_eq!(decisions(FaultSite::Kernel), 0);
        set_fault_spec(None).unwrap();
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let _g = guard();
        set_fault_spec(Some("allreduce:0.1:77")).unwrap();
        let n = 2000;
        let hits = (0..n)
            .filter(|_| should_inject(FaultSite::Allreduce))
            .count();
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 0.1).abs() < 0.03,
            "empirical rate {rate} far from 0.1"
        );
        set_fault_spec(None).unwrap();
    }

    #[test]
    fn suppression_pauses_draws_without_consuming_them() {
        let _g = guard();
        set_fault_spec(Some("kernel:1:5")).unwrap();
        assert!(should_inject(FaultSite::Kernel));
        {
            let _s = suppress();
            assert!(suppressed());
            assert!(!should_inject(FaultSite::Kernel), "protected region");
            {
                let _s2 = suppress();
                assert!(!should_inject(FaultSite::Kernel), "nested");
            }
            assert!(suppressed(), "outer guard still active");
        }
        assert!(!suppressed());
        assert!(should_inject(FaultSite::Kernel), "resumes after the guard");
        assert_eq!(
            decisions(FaultSite::Kernel),
            2,
            "suppressed draws not counted"
        );
        set_fault_spec(None).unwrap();
    }

    #[test]
    fn net_site_parses_and_exposes_params() {
        let _g = guard();
        set_fault_spec(Some("net:0.25:99")).unwrap();
        assert_eq!(site_params(FaultSite::Net), Some((0.25, 99)));
        assert_eq!(site_params(FaultSite::Kernel), None);
        // Per-peer sub-streams: mixing the peer rank into the seed gives
        // independent deterministic sequences per link.
        let a: Vec<bool> = (0..64)
            .map(|i| would_inject(99 ^ mix64(1), FaultSite::Net, i, 0.25))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| would_inject(99 ^ mix64(2), FaultSite::Net, i, 0.25))
            .collect();
        assert_ne!(a, b, "different peers draw different streams");
        let a2: Vec<bool> = (0..64)
            .map(|i| would_inject(99 ^ mix64(1), FaultSite::Net, i, 0.25))
            .collect();
        assert_eq!(a, a2, "per-peer streams replay exactly");
        // The direct draws above consumed no global indices.
        assert_eq!(decisions(FaultSite::Net), 0);
        set_fault_spec(None).unwrap();
        assert_eq!(site_params(FaultSite::Net), None);
    }

    #[test]
    fn backoff_is_bounded() {
        assert_eq!(backoff_delay(0).as_millis(), 1);
        assert_eq!(backoff_delay(2).as_millis(), 4);
        assert_eq!(backoff_delay(30).as_millis(), 8, "capped");
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("nope"), None);
    }
}
