//! The runtime-switch plumbing every crate above shares: the tri-state
//! [`Gate`] and the one parser for boolean `S4TF_*` variables.

use std::sync::atomic::{AtomicU8, Ordering};

/// [`Gate`] state: off.
pub const GATE_OFF: u8 = 1;
/// [`Gate`] state: on. States above it are the owner's own "on" modes.
pub const GATE_ON: u8 = 2;

/// The tri-state switch every runtime gate in the workspace is built
/// from: uninitialized until first read, when `init` consults the
/// environment once; afterwards the hot-path check is one relaxed load.
/// An explicit [`Gate::set`] beats the environment.
pub struct Gate {
    state: AtomicU8,
    init: fn() -> u8,
}

impl Gate {
    /// A gate whose first read runs `init` (usually [`env_gate`]).
    pub const fn new(init: fn() -> u8) -> Self {
        Gate {
            state: AtomicU8::new(0),
            init,
        }
    }

    /// The current state, initializing on first use.
    #[inline]
    pub fn raw(&self) -> u8 {
        match self.state.load(Ordering::Relaxed) {
            0 => self.init_slow(),
            state => state,
        }
    }

    /// Whether the gate is in [`GATE_ON`] or one of the owner's modes.
    #[inline]
    pub fn on(&self) -> bool {
        self.raw() >= GATE_ON
    }

    #[cold]
    fn init_slow(&self) -> u8 {
        let computed = (self.init)();
        // Racing initializers compute the same value; only install when
        // still uninitialized so an explicit `set` in between wins.
        let _ = self
            .state
            .compare_exchange(0, computed, Ordering::Relaxed, Ordering::Relaxed);
        self.state.load(Ordering::Relaxed)
    }

    /// Overrides the environment with `state`.
    pub fn set(&self, state: u8) {
        self.state.store(state, Ordering::Relaxed);
    }

    /// Overrides the environment with on/off.
    pub fn set_on(&self, on: bool) {
        self.set(if on { GATE_ON } else { GATE_OFF });
    }
}

/// The one spelling set every boolean `S4TF_*` switch accepts, in any
/// case and ignoring surrounding whitespace: `1`/`true`/`on`/`yes` and
/// `0`/`false`/`off`/`no`. Anything else is `None`.
pub fn parse_flag(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// The [`Gate`] state the boolean environment switch `var` asks for;
/// `default` when it is unset, empty or not a [`parse_flag`] spelling.
pub fn env_gate(var: &str, default: bool) -> u8 {
    let on = std::env::var(var).ok().and_then(|v| parse_flag(&v));
    if on.unwrap_or(default) {
        GATE_ON
    } else {
        GATE_OFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_spellings() {
        for on in ["1", "true", "True", "TRUE", "on", "yes", " on "] {
            assert_eq!(parse_flag(on), Some(true), "{on:?}");
        }
        for off in ["0", "false", "off", "OFF", "no", "No"] {
            assert_eq!(parse_flag(off), Some(false), "{off:?}");
        }
        for other in ["", "2", "enable"] {
            assert_eq!(parse_flag(other), None, "{other:?}");
        }
    }
}
