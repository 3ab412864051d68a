//! Pillar 1: numerics checking — scan op outputs for NaN/Inf and report
//! the *first* offending op with provenance.
//!
//! # Policy for legitimately non-finite results
//!
//! Some ops produce non-finite values from perfectly finite inputs:
//! `log(0) = -inf`, `x / 0 = ±inf` (or NaN for `0/0`), `exp` overflow to
//! `+inf`. The checker does not try to second-guess intent — *any*
//! non-finite output is reported, but always attributed to the producing
//! op (name, shape, dtype, backend, enclosing profile span), never as a
//! generic failure. The [`NumericsMode`] knob then decides severity:
//!
//! * [`NumericsMode::Warn`] (the default when `S4TF_CHECK_NUMERICS=1`)
//!   prints one warning per distinct op mnemonic and records the first
//!   violation for [`first_violation`] — expected-infinity workloads keep
//!   running and stay debuggable.
//! * [`NumericsMode::Panic`] (`S4TF_CHECK_NUMERICS=panic`) panics at the
//!   check site with the full attribution — for flushing out the origin
//!   of a divergence under a debugger or in CI.
//! * [`NumericsMode::Off`] disables scanning (the default).

use crate::{events, lock_unpoisoned, Gate, GATE_OFF};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the checker does when a scan finds a non-finite value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericsMode {
    /// No scanning at all (the hot-path check is one relaxed load).
    Off,
    /// Report (stderr, once per op mnemonic) and keep going.
    Warn,
    /// Panic at the check site with full attribution.
    Panic,
}

const GATE_PANIC: u8 = 3;

fn init_from_env() -> u8 {
    let value = std::env::var("S4TF_CHECK_NUMERICS").unwrap_or_default();
    match value.trim().to_ascii_lowercase().as_str() {
        "panic" => GATE_PANIC,
        "warn" => crate::GATE_ON,
        other if s4tf_metrics::parse_flag(other) == Some(true) => crate::GATE_ON,
        _ => GATE_OFF,
    }
}

static GATE: Gate = Gate::new(init_from_env);

/// Whether numerics checking is active. One relaxed atomic load: this is
/// the branch every dispatch path takes before deciding to scan.
#[inline]
pub fn numerics_enabled() -> bool {
    GATE.raw() >= crate::GATE_ON
}

/// The current [`NumericsMode`].
pub fn numerics_mode() -> NumericsMode {
    match GATE.raw() {
        GATE_PANIC => NumericsMode::Panic,
        crate::GATE_ON => NumericsMode::Warn,
        _ => NumericsMode::Off,
    }
}

/// Sets the checking mode, overriding `S4TF_CHECK_NUMERICS`.
pub fn set_numerics_mode(mode: NumericsMode) {
    GATE.set(match mode {
        NumericsMode::Off => GATE_OFF,
        NumericsMode::Warn => crate::GATE_ON,
        NumericsMode::Panic => GATE_PANIC,
    });
}

/// A non-finite value found in an op's output, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Mnemonic of the producing op (e.g. `log`, `div`, `matmul`).
    pub op: String,
    /// Which executor produced it: `naive`, `eager`, `lazy`, or `xla`.
    pub backend: &'static str,
    /// Output shape.
    pub shape: Vec<usize>,
    /// Element dtype (currently always `f32` on the device paths).
    pub dtype: &'static str,
    /// `"NaN"`, `"+Inf"` or `"-Inf"`.
    pub kind: &'static str,
    /// Flat index of the first non-finite element.
    pub index: usize,
    /// Innermost enclosing profile span on the checking thread, if the
    /// profiler was recording one.
    pub span: Option<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op `{}` produced {} at index {} (shape {:?}, dtype {}, backend {}",
            self.op, self.kind, self.index, self.shape, self.dtype, self.backend
        )?;
        if let Some(span) = &self.span {
            write!(f, ", span `{span}`")?;
        }
        write!(f, ")")
    }
}

static FIRST: Mutex<Option<Violation>> = Mutex::new(None);
static WARNED_OPS: Mutex<Vec<String>> = Mutex::new(Vec::new());
static SCANS: AtomicU64 = AtomicU64::new(0);

/// Scans `data` for the first non-finite element. Call sites gate on
/// [`numerics_enabled`] first so the disabled path never touches the
/// slice.
///
/// On a violation: records it as the process-wide first (if none is
/// recorded yet), pushes a `numerics.violation` event into the event
/// ring, and then either warns (once per op mnemonic) or panics
/// depending on [`numerics_mode`].
pub fn check_f32s(
    op: &str,
    backend: &'static str,
    dims: &[usize],
    data: &[f32],
    span: Option<&str>,
) -> Option<Violation> {
    if !numerics_enabled() {
        return None;
    }
    SCANS.fetch_add(1, Ordering::Relaxed);
    let (index, value) = data
        .iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite())
        .map(|(i, v)| (i, *v))?;
    let violation = Violation {
        op: op.to_string(),
        backend,
        shape: dims.to_vec(),
        dtype: "f32",
        kind: if value.is_nan() {
            "NaN"
        } else if value > 0.0 {
            "+Inf"
        } else {
            "-Inf"
        },
        index,
        span: span.map(str::to_string),
    };
    lock_unpoisoned(&FIRST).get_or_insert_with(|| violation.clone());
    events::record_forced(
        "numerics.violation",
        vec![
            ("op".into(), violation.op.clone()),
            ("backend".into(), backend.to_string()),
            ("kind".into(), violation.kind.to_string()),
            ("shape".into(), format!("{dims:?}")),
        ],
    );
    match numerics_mode() {
        NumericsMode::Panic => panic!("numerics check failed: {violation}"),
        NumericsMode::Warn => {
            let mut warned = lock_unpoisoned(&WARNED_OPS);
            if !warned.iter().any(|w| w == &violation.op) {
                warned.push(violation.op.clone());
                eprintln!("[s4tf-diag] numerics warning: {violation}");
            }
        }
        NumericsMode::Off => {}
    }
    Some(violation)
}

/// The first violation seen since the last [`clear_numerics`] — the op
/// that introduced the NaN/Inf, not whichever op a caller happened to
/// observe it through.
pub fn first_violation() -> Option<Violation> {
    lock_unpoisoned(&FIRST).clone()
}

/// Number of output scans performed (only bumped while checking is on);
/// lets tests assert the disabled path really skips the scan.
pub fn scans_performed() -> u64 {
    SCANS.load(Ordering::Relaxed)
}

/// Forgets the recorded first violation, the once-per-op warn set, and
/// the scan count (the mode is left unchanged).
pub fn clear_numerics() {
    lock_unpoisoned(&FIRST).take();
    lock_unpoisoned(&WARNED_OPS).clear();
    SCANS.store(0, Ordering::Relaxed);
}
