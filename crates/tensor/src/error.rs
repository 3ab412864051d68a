//! Error types for fallible tensor operations.
//!
//! Most kernels validate shapes with panics (documented per method) because a
//! shape mismatch is a programming error; the `try_*` entry points on
//! [`crate::Tensor`] return [`TensorError`] for callers — such as the lazy
//! graph compiler in `s4tf-xla` — that need to recover.

use std::error::Error;
use std::fmt;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Error produced by a fallible tensor operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that must match (possibly after broadcasting) do not.
    ShapeMismatch {
        /// Left-hand shape, as dims.
        lhs: Vec<usize>,
        /// Right-hand shape, as dims.
        rhs: Vec<usize>,
        /// The operation that was attempted.
        op: &'static str,
    },
    /// An operation requires a specific rank.
    RankMismatch {
        /// Rank required by the operation.
        expected: usize,
        /// Rank of the argument.
        actual: usize,
        /// The operation that was attempted.
        op: &'static str,
    },
    /// A reshape target has a different element count.
    ElementCountMismatch {
        /// Element count of the source.
        from: usize,
        /// Element count of the target shape.
        to: usize,
    },
    /// An axis argument is out of range for the tensor's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// An index is out of bounds for a dimension.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The dimension size.
        dim: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::RankMismatch {
                expected,
                actual,
                op,
            } => {
                write!(
                    f,
                    "rank mismatch in {op}: expected {expected}, got {actual}"
                )
            }
            TensorError::ElementCountMismatch { from, to } => {
                write!(f, "cannot reshape {from} elements into {to} elements")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::IndexOutOfBounds { index, dim } => {
                write!(f, "index {index} out of bounds for dimension of size {dim}")
            }
        }
    }
}

impl Error for TensorError {}

/// What category of fault a [`RuntimeError`] represents.
///
/// Mirrors the fault-injection sites of `s4tf-fault`, but lives here
/// because attributed errors are part of every kernel-calling crate's
/// public API, including the ones below the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Shape inference or validation failed.
    Shape,
    /// XLA compilation failed (after retry/fallback exhausted).
    Compile,
    /// A kernel panicked during execution.
    Kernel,
    /// File I/O failed (checkpoint read/write and friends).
    Io,
    /// A network/wire failure (frame checksum mismatch, peer reset,
    /// straggler timeout) in the distributed runtime.
    Net,
    /// A deliberately injected fault (`S4TF_FAULT_SPEC`).
    Injected,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Shape => "shape",
            FaultKind::Compile => "compile",
            FaultKind::Kernel => "kernel",
            FaultKind::Io => "io",
            FaultKind::Net => "net",
            FaultKind::Injected => "injected",
        })
    }
}

/// An attributed runtime failure.
///
/// Asynchronous backends cannot raise at the call site (paper §4): the
/// error is captured where it happens — with the op mnemonic, backend,
/// and (when profiling is on) the enclosing profile span — poisons the
/// value it would have produced, and surfaces at an observation point
/// (`to_host_checked` / `sync_checked`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Fault category.
    pub kind: FaultKind,
    /// The op mnemonic that failed (e.g. `"matmul"`), or a phase name for
    /// non-op failures (e.g. `"xla.compile"`, `"checkpoint.save"`).
    pub op: String,
    /// The backend the failure occurred on (`"naive"`, `"eager"`,
    /// `"lazy"`, or `"host"` for I/O).
    pub backend: &'static str,
    /// The innermost profile span open when the fault originated, if
    /// profiling was on.
    pub span: Option<String>,
    /// Human-readable detail (panic payload, io error text, …).
    pub message: String,
}

impl RuntimeError {
    fn new(
        kind: FaultKind,
        op: impl Into<String>,
        backend: &'static str,
        message: impl Into<String>,
    ) -> Self {
        RuntimeError {
            kind,
            op: op.into(),
            backend,
            span: None,
            message: message.into(),
        }
    }

    /// A kernel execution failure.
    pub fn kernel(
        op: impl Into<String>,
        backend: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Self::new(FaultKind::Kernel, op, backend, message)
    }

    /// A compilation failure.
    pub fn compile(
        op: impl Into<String>,
        backend: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Self::new(FaultKind::Compile, op, backend, message)
    }

    /// A file-I/O failure.
    pub fn io(op: impl Into<String>, message: impl Into<String>) -> Self {
        Self::new(FaultKind::Io, op, "host", message)
    }

    /// A wire failure in the distributed runtime, attributed to the peer
    /// it occurred against. `peer` is the peer's worker rank, or `None`
    /// when the failure is not tied to one link (e.g. a listener error).
    pub fn net(op: impl Into<String>, peer: Option<usize>, message: impl Into<String>) -> Self {
        let message = message.into();
        let message = match peer {
            Some(rank) => format!("peer rank {rank}: {message}"),
            None => message,
        };
        Self::new(FaultKind::Net, op, "net", message)
    }

    /// A shape-validation failure.
    pub fn shape(op: impl Into<String>, backend: &'static str, message: impl Into<String>) -> Self {
        Self::new(FaultKind::Shape, op, backend, message)
    }

    /// A deliberately injected fault.
    pub fn injected(op: impl Into<String>, backend: &'static str, site: &str) -> Self {
        Self::new(
            FaultKind::Injected,
            op,
            backend,
            format!("injected fault at site `{site}` (S4TF_FAULT_SPEC)"),
        )
    }

    /// Attaches the originating profile span.
    pub fn with_span(mut self, span: Option<String>) -> Self {
        self.span = span;
        self
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault in op `{}` on backend `{}`",
            self.kind, self.op, self.backend
        )?;
        if let Some(span) = &self.span {
            write!(f, " (span `{span}`)")?;
        }
        if !self.message.is_empty() {
            write!(f, ": {}", self.message)?;
        }
        Ok(())
    }
}

impl Error for RuntimeError {}

/// Extracts a readable message from a `catch_unwind` payload.
///
/// Panic payloads are `&str` for literal messages and `String` for
/// formatted ones; anything else gets a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TensorError::ShapeMismatch {
            lhs: vec![2, 3],
            rhs: vec![4],
            op: "add",
        };
        assert_eq!(e.to_string(), "shape mismatch in add: [2, 3] vs [4]");
        let e = TensorError::ElementCountMismatch { from: 6, to: 8 };
        assert_eq!(e.to_string(), "cannot reshape 6 elements into 8 elements");
        let e = TensorError::AxisOutOfRange { axis: 3, rank: 2 };
        assert_eq!(e.to_string(), "axis 3 out of range for rank 2");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<TensorError>();
        assert_err::<RuntimeError>();
    }

    #[test]
    fn runtime_error_display_carries_attribution() {
        let e =
            RuntimeError::kernel("matmul", "eager", "boom").with_span(Some("train.step".into()));
        let s = e.to_string();
        assert!(s.contains("kernel fault"), "{s}");
        assert!(s.contains("`matmul`"), "{s}");
        assert!(s.contains("`eager`"), "{s}");
        assert!(s.contains("`train.step`"), "{s}");
        assert!(s.contains("boom"), "{s}");

        let e = RuntimeError::injected("add", "lazy", "dispatch");
        assert!(e.to_string().contains("injected fault"), "{e}");
        assert!(e.to_string().contains("S4TF_FAULT_SPEC"), "{e}");
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        let err = std::panic::catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(&*err), "literal");
        let err = std::panic::catch_unwind(|| panic!("{}", 42)).unwrap_err();
        assert_eq!(panic_message(&*err), "42");
        let err = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(&*err), "non-string panic payload");
    }
}
