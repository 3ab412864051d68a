//! Pillar 2: IR and trace dumping.
//!
//! `S4TF_DUMP=<dir>` (or [`set_dump_dir`]) turns every compiler stage
//! into a file: the SIL module before/after each optimization pass and
//! AD synthesis stage, the lazy trace (Graphviz DOT), and the XLA graph
//! before/after each fusion/optimization pass. Filenames carry a
//! process-wide sequence number so `ls` shows pipeline order:
//!
//! ```text
//! 00000.sil.before.sil
//! 00001.sil.inline.sil
//! ...
//! 00007.lazy.trace.dot
//! 00008.xla.before.txt
//! 00009.xla.pass.constant_fold.txt
//! ```
//!
//! Rendering is pure string generation — the `dot` binary is never
//! invoked, so dump-enabled runs work on machines without Graphviz.

use crate::{lock_unpoisoned, Gate, GATE_OFF, GATE_ON};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn init_from_env() -> u8 {
    match std::env::var("S4TF_DUMP") {
        Ok(dir) if !dir.is_empty() => {
            *lock_unpoisoned(&DIR) = Some(PathBuf::from(dir));
            GATE_ON
        }
        _ => GATE_OFF,
    }
}

static GATE: Gate = Gate::new(init_from_env);

/// Whether dumping is active — the one-relaxed-load branch compiler
/// stages take before rendering anything.
#[inline]
pub fn dump_enabled() -> bool {
    GATE.on()
}

/// Points dumping at `dir` (created on first dump), or disables it with
/// `None`. Overrides `S4TF_DUMP`.
pub fn set_dump_dir(dir: Option<&Path>) {
    *lock_unpoisoned(&DIR) = dir.map(Path::to_path_buf);
    GATE.set_on(dir.is_some());
}

/// The current dump directory, if dumping is enabled.
pub fn dump_dir() -> Option<PathBuf> {
    if !dump_enabled() {
        return None;
    }
    lock_unpoisoned(&DIR).clone()
}

/// Replaces anything that would be awkward in a filename.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes `contents` to `<dir>/<seq>.<category>.<name>.<ext>` and
/// returns the path, or `None` when dumping is off (in which case
/// `contents` should not even have been rendered — gate on
/// [`dump_enabled`] first) or the write failed.
pub fn dump(category: &str, name: &str, ext: &str, contents: &str) -> Option<PathBuf> {
    if !dump_enabled() {
        return None;
    }
    let dir = lock_unpoisoned(&DIR).clone()?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "{seq:05}.{}.{}.{}",
        sanitize(category),
        sanitize(name),
        sanitize(ext)
    ));
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    match std::fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("[s4tf-diag] dump to {} failed: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sanitize;

    #[test]
    fn filenames_are_sanitized() {
        assert_eq!(
            sanitize("xla.pass/fuse elementwise"),
            "xla.pass_fuse_elementwise"
        );
    }
}
