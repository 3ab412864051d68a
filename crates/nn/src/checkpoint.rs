//! Crash-safe checkpointing.
//!
//! Because models are value types of plain tensors (paper §4.1 — no
//! `Variable` wrappers, no graph state), a checkpoint is exactly the
//! parameter tensors. [`Checkpointable`] gives every layer a named-parameter
//! traversal (the analogue of Swift's `KeyPathIterable` conformance used by
//! the S4TF checkpoint readers), and [`Checkpoint`] serializes that flat
//! `name → tensor` map into a versioned, checksummed binary file.
//!
//! Durability model:
//!
//! * **Atomic writes** — a checkpoint is written to a `*.tmp` file in the
//!   same directory and then `rename`d into place, so a crash mid-write can
//!   never leave a truncated file under the final name.
//! * **Checksummed reads** — the file ends with `s4tf_fault::digest64` of
//!   every preceding byte (format version 2; a version-1 file, sealed with
//!   FNV-1a, is rejected by its version); corruption surfaces as a typed
//!   [`RuntimeError`] (`FaultKind::Io`), never as a garbage model.
//! * **Resumable training** — [`TrainingSession`] checkpoints every *k*
//!   steps and, on construction, restores from the newest checkpoint in its
//!   directory; with a stateless optimizer the resumed run is bit-identical
//!   to an uninterrupted one.
//!
//! Checkpoint I/O participates in fault injection (`S4TF_FAULT_SPEC` sites
//! `checkpoint_io` and `io`), so chaos runs exercise the save/restore path.

use crate::diag;
use crate::fault;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::{RuntimeError, Tensor};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
const MAGIC: &[u8; 8] = b"S4TFCKPT";
/// Current format version.
const FORMAT_VERSION: u32 = 2;
/// File extension for finished checkpoints.
const EXTENSION: &str = "ckpt";

/// Named-parameter traversal: the model-structure half of checkpointing.
///
/// Implementations visit every trainable parameter exactly once, in a
/// stable order, with a hierarchical dotted name (`"conv1.filter"`,
/// `"first.second.weight"`). Layers without parameters implement it as a
/// no-op so combinators like [`crate::layers::Chain`] compose.
pub trait Checkpointable {
    /// Visits every parameter as `(name, tensor)`.
    fn for_each_param(&self, prefix: &str, f: &mut dyn FnMut(&str, &DTensor));

    /// Visits every parameter mutably, for restore.
    fn for_each_param_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut DTensor));

    /// The parameter names, in traversal order.
    fn param_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.for_each_param("", &mut |name, _| names.push(name.to_string()));
        names
    }
}

/// Joins a traversal prefix with a field name (`"" + "weight"` → `"weight"`,
/// `"fc1" + "weight"` → `"fc1.weight"`).
pub fn join_name(prefix: &str, field: &str) -> String {
    if prefix.is_empty() {
        field.to_string()
    } else {
        format!("{prefix}.{field}")
    }
}

/// A point-in-time snapshot of a model's parameters, tagged with the
/// training step it was taken at.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The training step this snapshot was taken at.
    pub step: u64,
    params: BTreeMap<String, Tensor<f32>>,
}

impl Checkpoint {
    /// Snapshots `model` at `step`. Fails with the attributed error if any
    /// parameter is poisoned (a deferred fault from an earlier op).
    pub fn from_model<M: Checkpointable + ?Sized>(
        step: u64,
        model: &M,
    ) -> Result<Checkpoint, RuntimeError> {
        // Host copies of the parameters are checkpoint-I/O working set,
        // not model memory — credit them to the checkpoint site.
        let _site = crate::met::mem_site("checkpoint");
        let mut params = BTreeMap::new();
        let mut first_err: Option<RuntimeError> = None;
        model.for_each_param("", &mut |name, t| {
            if first_err.is_some() {
                return;
            }
            match t.to_tensor_checked() {
                Ok(host) => {
                    params.insert(name.to_string(), host);
                }
                Err(e) => first_err = Some(e),
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(Checkpoint { step, params }),
        }
    }

    /// Builds a checkpoint from an explicit `name → tensor` map.
    pub fn from_params(step: u64, params: BTreeMap<String, Tensor<f32>>) -> Checkpoint {
        Checkpoint { step, params }
    }

    /// The tensor stored under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Tensor<f32>> {
        self.params.get(name)
    }

    /// Number of stored parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the checkpoint stores no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The stored parameter names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.params.keys().map(|s| s.as_str()).collect()
    }

    /// Restores every parameter of `model` from this checkpoint, placing the
    /// tensors on `device`. A missing name or a shape mismatch is a typed
    /// I/O error and leaves `model` partially updated.
    pub fn restore<M: Checkpointable + ?Sized>(
        &self,
        model: &mut M,
        device: &Device,
    ) -> Result<(), RuntimeError> {
        let mut first_err: Option<RuntimeError> = None;
        model.for_each_param_mut("", &mut |name, slot| {
            if first_err.is_some() {
                return;
            }
            match self.params.get(name) {
                None => {
                    first_err = Some(RuntimeError::io(
                        "checkpoint.restore",
                        format!("checkpoint has no parameter `{name}`"),
                    ));
                }
                Some(stored) if stored.dims() != slot.dims().as_slice() => {
                    first_err = Some(RuntimeError::io(
                        "checkpoint.restore",
                        format!(
                            "shape mismatch for `{name}`: checkpoint {:?}, model {:?}",
                            stored.dims(),
                            slot.dims()
                        ),
                    ));
                }
                Some(stored) => *slot = DTensor::from_tensor(stored.clone(), device),
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Serializes to the versioned binary format (see module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for (name, tensor) in &self.params {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            let dims = tensor.dims();
            out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            for &d in dims {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            let data = tensor.as_slice();
            out.extend_from_slice(&(data.len() as u64 * 4).to_le_bytes());
            for v in data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        let digest = fault::digest64(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Parses the binary format, verifying magic, version, structure and
    /// the trailing checksum. Every failure mode is a typed I/O error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, RuntimeError> {
        // Tensors decoded from the file are checkpoint-I/O allocations.
        let _site = crate::met::mem_site("checkpoint");
        let bad = |msg: String| RuntimeError::io("checkpoint.load", msg);
        if bytes.len() < MAGIC.len() + 4 + 8 + 4 + 8 {
            return Err(bad(format!("file too short ({} bytes)", bytes.len())));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        // Magic and version come before the digest, so a file of another
        // format version (sealed with another digest) is named as such,
        // not as corrupt.
        let mut r = Reader { buf: body, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(bad("bad magic: not an s4tf checkpoint".to_string()));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(bad(format!(
                "unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
            )));
        }
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        let computed = fault::digest64(body);
        if stored != computed {
            return Err(bad(format!(
                "checksum mismatch: stored {stored:016x}, computed {computed:016x} \
                 (file is corrupt or truncated)"
            )));
        }
        let step = r.u64()?;
        let count = r.u32()? as usize;
        let mut params = BTreeMap::new();
        for _ in 0..count {
            let name_len = r.u32()? as usize;
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|e| bad(format!("parameter name is not UTF-8: {e}")))?;
            let rank = r.u32()? as usize;
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(r.u64()? as usize);
            }
            let byte_len = r.u64()? as usize;
            let expected: usize = dims.iter().product::<usize>() * 4;
            if byte_len != expected {
                return Err(bad(format!(
                    "parameter `{name}`: payload is {byte_len} bytes but shape {dims:?} \
                     needs {expected}"
                )));
            }
            let raw = r.take(byte_len)?;
            let data: Vec<f32> = raw
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            params.insert(name, Tensor::from_vec(data, &dims));
        }
        if r.pos != body.len() {
            return Err(bad(format!(
                "{} trailing bytes after the last parameter",
                body.len() - r.pos
            )));
        }
        Ok(Checkpoint { step, params })
    }

    /// The canonical filename for this checkpoint (`ckpt-00000042.ckpt`).
    pub fn file_name(&self) -> String {
        format!("ckpt-{:08}.{EXTENSION}", self.step)
    }

    /// Writes the checkpoint into `dir` atomically: serialize → write to a
    /// `.tmp` sibling → `rename` into place. Returns the final path.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, RuntimeError> {
        let final_path = dir.join(self.file_name());
        if fault::should_inject(fault::FaultSite::CheckpointIo) {
            diag::event!(
                "fault.injected",
                site = "checkpoint_io",
                op = "checkpoint.save",
                backend = "host",
            );
            return Err(RuntimeError::injected(
                "checkpoint.save",
                "host",
                "checkpoint_io",
            ));
        }
        let io_err = |what: &str, e: std::io::Error| {
            RuntimeError::io(
                "checkpoint.save",
                format!("{what} {}: {e}", final_path.display()),
            )
        };
        std::fs::create_dir_all(dir).map_err(|e| io_err("creating directory for", e))?;
        let tmp = dir.join(format!("{}.tmp", self.file_name()));
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| io_err("writing", e))?;
        std::fs::rename(&tmp, &final_path).map_err(|e| io_err("committing", e))?;
        diag::event!(
            "checkpoint.saved",
            step = self.step,
            params = self.params.len(),
            path = final_path.display(),
        );
        Ok(final_path)
    }

    /// Reads and verifies a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, RuntimeError> {
        if fault::should_inject(fault::FaultSite::CheckpointIo) {
            diag::event!(
                "fault.injected",
                site = "checkpoint_io",
                op = "checkpoint.load",
                backend = "host",
            );
            return Err(RuntimeError::injected(
                "checkpoint.load",
                "host",
                "checkpoint_io",
            ));
        }
        let bytes = std::fs::read(path).map_err(|e| {
            RuntimeError::io(
                "checkpoint.load",
                format!("reading {}: {e}", path.display()),
            )
        })?;
        Checkpoint::from_bytes(&bytes)
    }
}

/// Bounds-checked cursor over the serialized body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RuntimeError> {
        if self.pos + n > self.buf.len() {
            return Err(RuntimeError::io(
                "checkpoint.load",
                format!(
                    "truncated checkpoint: wanted {n} bytes at offset {}, file body is {}",
                    self.pos,
                    self.buf.len()
                ),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, RuntimeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, RuntimeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// The step number encoded in a checkpoint filename, if it is one.
pub fn step_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let stem = name
        .strip_prefix("ckpt-")?
        .strip_suffix(&format!(".{EXTENSION}"))?;
    stem.parse().ok()
}

/// The newest checkpoint in `dir` (highest step), or `None` if there are no
/// checkpoints. A missing directory is `None`, not an error, so a fresh
/// training run starts cleanly.
pub fn latest(dir: &Path) -> Result<Option<PathBuf>, RuntimeError> {
    if fault::should_inject(fault::FaultSite::Io) {
        diag::event!(
            "fault.injected",
            site = "io",
            op = "checkpoint.latest",
            backend = "host",
        );
        return Err(RuntimeError::injected("checkpoint.latest", "host", "io"));
    }
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(RuntimeError::io(
                "checkpoint.latest",
                format!("listing {}: {e}", dir.display()),
            ))
        }
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| {
            RuntimeError::io(
                "checkpoint.latest",
                format!("listing {}: {e}", dir.display()),
            )
        })?;
        let path = entry.path();
        if let Some(step) = step_of(&path) {
            if best.as_ref().map(|(s, _)| step > *s).unwrap_or(true) {
                best = Some((step, path));
            }
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// A resumable training loop: owns the model, counts steps, checkpoints
/// every `every` steps, and restores from the newest checkpoint in `dir` on
/// construction.
///
/// With a stateless optimizer (plain SGD) and a deterministic data order,
/// killing the process mid-step and re-running yields exactly the weights
/// of an uninterrupted run: the interrupted step's partial effects live
/// only in the dead process, and the survivor replays from the last
/// durable snapshot.
pub struct TrainingSession<M> {
    /// The live model.
    pub model: M,
    /// Steps completed so far (across restarts).
    pub step: u64,
    dir: PathBuf,
    every: u64,
    device: Device,
    resumed_from: Option<u64>,
}

impl<M: Checkpointable> TrainingSession<M> {
    /// Opens a session in `dir`, restoring `model` from the newest
    /// checkpoint there if one exists. `every == 0` disables periodic
    /// checkpointing.
    pub fn new(
        mut model: M,
        device: &Device,
        dir: impl Into<PathBuf>,
        every: u64,
    ) -> Result<TrainingSession<M>, RuntimeError> {
        let dir = dir.into();
        let mut step = 0;
        let mut resumed_from = None;
        if let Some(path) = latest(&dir)? {
            let ckpt = Checkpoint::load(&path)?;
            ckpt.restore(&mut model, device)?;
            step = ckpt.step;
            resumed_from = Some(ckpt.step);
            diag::event!("checkpoint.resumed", step = step, path = path.display());
        }
        Ok(TrainingSession {
            model,
            step,
            dir,
            every,
            device: device.clone(),
            resumed_from,
        })
    }

    /// The step this session resumed from, if it found a checkpoint.
    pub fn resumed_from(&self) -> Option<u64> {
        self.resumed_from
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Runs one training step via `f` (which receives the model and the
    /// 0-based index of the step it is computing), then checkpoints if the
    /// completed-step count hits a multiple of `every`.
    pub fn run_step(&mut self, f: impl FnOnce(&mut M, u64) -> f64) -> Result<f64, RuntimeError> {
        let loss = f(&mut self.model, self.step);
        self.step += 1;
        if self.every > 0 && self.step.is_multiple_of(self.every) {
            Checkpoint::from_model(self.step, &self.model)?.save(&self.dir)?;
        }
        Ok(loss)
    }

    /// The device restored parameters are placed on.
    pub fn device(&self) -> &Device {
        &self.device
    }
}

// ---------------------------------------------------------------------------
// Checkpointable implementations for the layer suite.
// ---------------------------------------------------------------------------

use crate::layers::{
    AvgPool2D, BatchNorm, Chain, Conv2D, Dense, Dropout, Embedding, Flatten, MaxPool2D,
};

impl Checkpointable for Dense {
    fn for_each_param(&self, prefix: &str, f: &mut dyn FnMut(&str, &DTensor)) {
        f(&join_name(prefix, "weight"), &self.weight);
        f(&join_name(prefix, "bias"), &self.bias);
    }

    fn for_each_param_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut DTensor)) {
        f(&join_name(prefix, "weight"), &mut self.weight);
        f(&join_name(prefix, "bias"), &mut self.bias);
    }
}

impl Checkpointable for Conv2D {
    fn for_each_param(&self, prefix: &str, f: &mut dyn FnMut(&str, &DTensor)) {
        f(&join_name(prefix, "filter"), &self.filter);
        f(&join_name(prefix, "bias"), &self.bias);
    }

    fn for_each_param_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut DTensor)) {
        f(&join_name(prefix, "filter"), &mut self.filter);
        f(&join_name(prefix, "bias"), &mut self.bias);
    }
}

impl Checkpointable for BatchNorm {
    fn for_each_param(&self, prefix: &str, f: &mut dyn FnMut(&str, &DTensor)) {
        f(&join_name(prefix, "scale"), &self.scale);
        f(&join_name(prefix, "offset"), &self.offset);
    }

    fn for_each_param_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut DTensor)) {
        f(&join_name(prefix, "scale"), &mut self.scale);
        f(&join_name(prefix, "offset"), &mut self.offset);
    }
}

impl Checkpointable for Embedding {
    fn for_each_param(&self, prefix: &str, f: &mut dyn FnMut(&str, &DTensor)) {
        f(&join_name(prefix, "table"), &self.table);
    }

    fn for_each_param_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut DTensor)) {
        f(&join_name(prefix, "table"), &mut self.table);
    }
}

impl<A: Checkpointable, B: Checkpointable> Checkpointable for Chain<A, B> {
    fn for_each_param(&self, prefix: &str, f: &mut dyn FnMut(&str, &DTensor)) {
        self.first.for_each_param(&join_name(prefix, "first"), f);
        self.second.for_each_param(&join_name(prefix, "second"), f);
    }

    fn for_each_param_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut DTensor)) {
        self.first
            .for_each_param_mut(&join_name(prefix, "first"), f);
        self.second
            .for_each_param_mut(&join_name(prefix, "second"), f);
    }
}

/// Parameterless layers checkpoint as nothing, so combinators compose.
macro_rules! checkpointable_stateless {
    ($($ty:ty),* $(,)?) => {$(
        impl Checkpointable for $ty {
            fn for_each_param(&self, _prefix: &str, _f: &mut dyn FnMut(&str, &DTensor)) {}
            fn for_each_param_mut(
                &mut self,
                _prefix: &str,
                _f: &mut dyn FnMut(&str, &mut DTensor),
            ) {}
        }
    )*};
}

checkpointable_stateless!(Flatten, AvgPool2D, MaxPool2D, Dropout);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn mlp(device: &Device) -> Chain<Dense, Dense> {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        Chain::new(
            Dense::new(4, 3, Activation::Tanh, device, &mut rng),
            Dense::new(3, 2, Activation::Identity, device, &mut rng),
        )
    }

    #[test]
    fn traversal_names_are_hierarchical_and_stable() {
        let model = mlp(&Device::naive());
        assert_eq!(
            model.param_names(),
            vec!["first.weight", "first.bias", "second.weight", "second.bias"]
        );
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let model = mlp(&Device::naive());
        let ckpt = Checkpoint::from_model(17, &model).unwrap();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.step, 17);
        assert_eq!(back, ckpt);
        // Exact bit-level round trip of the payload.
        assert_eq!(
            back.get("first.weight").unwrap().as_slice(),
            ckpt.get("first.weight").unwrap().as_slice()
        );
    }

    #[test]
    fn corrupted_bytes_surface_typed_errors_not_panics() {
        let model = mlp(&Device::naive());
        let good = Checkpoint::from_model(1, &model).unwrap().to_bytes();

        // Flip a payload byte: checksum catches it.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        let err = Checkpoint::from_bytes(&flipped).unwrap_err();
        assert_eq!(err.kind, s4tf_tensor::FaultKind::Io);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // Truncate: also an error, not a panic.
        let err = Checkpoint::from_bytes(&good[..good.len() / 3]).unwrap_err();
        assert_eq!(err.kind, s4tf_tensor::FaultKind::Io);

        // Wrong magic (with a valid checksum) is rejected by name.
        let mut wrong = good.clone();
        wrong[0] = b'X';
        let body_len = wrong.len() - 8;
        let digest = fault::digest64(&wrong[..body_len]).to_le_bytes();
        wrong[body_len..].copy_from_slice(&digest);
        let err = Checkpoint::from_bytes(&wrong).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");

        // A version-1 file (FNV-1a trailer) is named by its version.
        let mut v1 = good.clone();
        v1[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        let err = Checkpoint::from_bytes(&v1).unwrap_err();
        assert_eq!(err.kind, s4tf_tensor::FaultKind::Io);
        assert!(
            err.to_string().contains("unsupported checkpoint version 1"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_missing_and_mismatched_params() {
        let d = Device::naive();
        let model = mlp(&d);
        let ckpt = Checkpoint::from_model(0, &model).unwrap();

        // Restoring an unrelated (differently-shaped) model fails by shape.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut other = Chain::new(
            Dense::new(4, 5, Activation::Tanh, &d, &mut rng),
            Dense::new(5, 2, Activation::Identity, &d, &mut rng),
        );
        let err = ckpt.restore(&mut other, &d).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");

        // A checkpoint missing a parameter fails by name.
        let sparse = Checkpoint::from_params(0, BTreeMap::new());
        let mut target = mlp(&d);
        let err = sparse.restore(&mut target, &d).unwrap_err();
        assert!(err.to_string().contains("no parameter"), "{err}");
    }

    #[test]
    fn filename_step_round_trips() {
        let model = mlp(&Device::naive());
        let ckpt = Checkpoint::from_model(42, &model).unwrap();
        assert_eq!(ckpt.file_name(), "ckpt-00000042.ckpt");
        assert_eq!(step_of(Path::new("/tmp/x/ckpt-00000042.ckpt")), Some(42));
        assert_eq!(step_of(Path::new("/tmp/x/ckpt-broken.ckpt")), None);
        assert_eq!(step_of(Path::new("/tmp/x/other.bin")), None);
    }

    #[test]
    fn latest_finds_the_highest_step() {
        let dir = std::env::temp_dir().join(format!("s4tf-ckpt-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(latest(&dir).unwrap(), None, "missing dir is empty");
        let model = mlp(&Device::naive());
        for step in [3, 12, 7] {
            Checkpoint::from_model(step, &model)
                .unwrap()
                .save(&dir)
                .unwrap();
        }
        let newest = latest(&dir).unwrap().unwrap();
        assert_eq!(step_of(&newest), Some(12));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_atomic_no_tmp_residue() {
        let dir = std::env::temp_dir().join(format!("s4tf-ckpt-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let model = mlp(&Device::naive());
        let path = Checkpoint::from_model(5, &model)
            .unwrap()
            .save(&dir)
            .unwrap();
        assert!(path.exists());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp file must be renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
