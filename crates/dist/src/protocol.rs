//! Control-plane message vocabulary.
//!
//! The coordinator and the workers speak a small typed protocol over the
//! framing of [`crate::wire`]. Worker→coordinator messages report liveness
//! and step progress; coordinator→worker messages drive the membership
//! view, the two-phase commit of each step, retries, checkpoint barriers,
//! and shutdown. Step, attempt and epoch travel in the frame header; the
//! payload carries only message-specific fields.

use crate::wire::{Frame, PayloadReader, PayloadWriter};
use s4tf_tensor::RuntimeError;

/// One member of the active view: `(rank, data-plane port)`. All workers
/// live on 127.0.0.1, so an address is just a port.
pub type Member = (u32, u16);

/// A control-plane message (worker→coordinator or coordinator→worker).
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    // -- worker → coordinator ------------------------------------------
    /// First message on a worker's control connection: its rank is in the
    /// frame header, the payload carries its data-plane listener port.
    Register {
        /// Port the worker's ring listener is bound to.
        data_port: u16,
    },
    /// Periodic liveness beacon.
    Heartbeat,
    /// The worker finished the collective for (step, attempt) and is
    /// waiting for [`Control::Commit`] before applying the update.
    StepDone {
        /// The worker's shard loss for the step.
        loss: f64,
        /// Wall time its all-reduce took, microseconds.
        allreduce_us: u64,
        /// Bytes it sent on the ring during the collective.
        tx_bytes: u64,
    },
    /// The collective for (step, attempt) failed with a wire error.
    CollectiveFailed {
        /// Rendered [`RuntimeError`] message.
        error: String,
    },
    /// The sync checkpoint requested by [`Control::Commit`] is durable.
    SavedSync,
    /// The worker is giving up (unrecoverable local error).
    Fatal {
        /// Rendered error message.
        error: String,
    },

    // -- coordinator → worker ------------------------------------------
    /// Registration accepted; a [`Control::View`] follows.
    Welcome,
    /// The active membership for the epoch in the frame header. Workers
    /// (re)build their ring from this list and continue at `resume_step`.
    View {
        /// Step training continues from under this view.
        resume_step: u64,
        /// Active members, ascending by rank.
        members: Vec<Member>,
    },
    /// All members finished (step, attempt): apply the update, averaged
    /// over `survivors` shards. When `then_sync` is set, the lowest active
    /// rank saves a sync checkpoint and everyone barriers on the next
    /// [`Control::View`] before computing further (rejoin admission and
    /// end-of-run both ride on this).
    Commit {
        /// Number of shards that contributed to the reduced gradient.
        survivors: u32,
        /// Checkpoint-and-barrier flag.
        then_sync: bool,
    },
    /// Abandon the in-flight collective for the step in the header and
    /// redo it as the attempt in the header (under the current view).
    Retry,
    /// The run is over (`ok`) or aborted (`error` is non-empty).
    Shutdown {
        /// Error message; empty on clean shutdown.
        error: String,
    },
}

/// Frame kind discriminants for [`Control`].
pub mod kind {
    /// Data-plane ring handshake.
    pub const DATA_HELLO: u8 = 1;
    /// Data-plane gradient chunk.
    pub const DATA_CHUNK: u8 = 2;
    /// [`super::Control::Register`].
    pub const REGISTER: u8 = 10;
    /// [`super::Control::Heartbeat`].
    pub const HEARTBEAT: u8 = 11;
    /// [`super::Control::StepDone`].
    pub const STEP_DONE: u8 = 12;
    /// [`super::Control::CollectiveFailed`].
    pub const COLLECTIVE_FAILED: u8 = 13;
    /// [`super::Control::SavedSync`].
    pub const SAVED_SYNC: u8 = 14;
    /// [`super::Control::Fatal`].
    pub const FATAL: u8 = 15;
    /// [`super::Control::Welcome`].
    pub const WELCOME: u8 = 20;
    /// [`super::Control::View`].
    pub const VIEW: u8 = 21;
    /// [`super::Control::Commit`].
    pub const COMMIT: u8 = 22;
    /// [`super::Control::Retry`].
    pub const RETRY: u8 = 23;
    /// [`super::Control::Shutdown`].
    pub const SHUTDOWN: u8 = 24;
}

impl Control {
    /// The frame kind for this message.
    pub fn kind(&self) -> u8 {
        match self {
            Control::Register { .. } => kind::REGISTER,
            Control::Heartbeat => kind::HEARTBEAT,
            Control::StepDone { .. } => kind::STEP_DONE,
            Control::CollectiveFailed { .. } => kind::COLLECTIVE_FAILED,
            Control::SavedSync => kind::SAVED_SYNC,
            Control::Fatal { .. } => kind::FATAL,
            Control::Welcome => kind::WELCOME,
            Control::View { .. } => kind::VIEW,
            Control::Commit { .. } => kind::COMMIT,
            Control::Retry => kind::RETRY,
            Control::Shutdown { .. } => kind::SHUTDOWN,
        }
    }

    /// Wraps the message into a frame with the given header fields.
    pub fn frame(&self, sender: u32, epoch: u32, attempt: u32, step: u64) -> Frame {
        let mut w = PayloadWriter::default();
        match self {
            Control::Register { data_port } => w.u16(*data_port),
            Control::Heartbeat | Control::SavedSync | Control::Welcome | Control::Retry => {}
            Control::StepDone {
                loss,
                allreduce_us,
                tx_bytes,
            } => {
                w.f64(*loss);
                w.u64(*allreduce_us);
                w.u64(*tx_bytes);
            }
            Control::CollectiveFailed { error } | Control::Fatal { error } => w.str(error),
            Control::View {
                resume_step,
                members,
            } => {
                w.u64(*resume_step);
                w.u32(members.len() as u32);
                for (rank, port) in members {
                    w.u32(*rank);
                    w.u16(*port);
                }
            }
            Control::Commit {
                survivors,
                then_sync,
            } => {
                w.u32(*survivors);
                w.u16(u16::from(*then_sync));
            }
            Control::Shutdown { error } => w.str(error),
        }
        Frame::control(self.kind(), sender, epoch, attempt, step).with_payload(w.0)
    }

    /// Decodes a control message from a frame. `peer` attributes decode
    /// failures.
    pub fn decode(frame: &Frame, peer: Option<usize>) -> Result<Control, RuntimeError> {
        let mut r = PayloadReader::new(frame.payload(), peer);
        Ok(match frame.kind {
            kind::REGISTER => Control::Register {
                data_port: r.u16()?,
            },
            kind::HEARTBEAT => Control::Heartbeat,
            kind::STEP_DONE => Control::StepDone {
                loss: r.f64()?,
                allreduce_us: r.u64()?,
                tx_bytes: r.u64()?,
            },
            kind::COLLECTIVE_FAILED => Control::CollectiveFailed { error: r.str()? },
            kind::SAVED_SYNC => Control::SavedSync,
            kind::FATAL => Control::Fatal { error: r.str()? },
            kind::WELCOME => Control::Welcome,
            kind::VIEW => {
                let resume_step = r.u64()?;
                let n = r.u32()? as usize;
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    let rank = r.u32()?;
                    let port = r.u16()?;
                    members.push((rank, port));
                }
                Control::View {
                    resume_step,
                    members,
                }
            }
            kind::COMMIT => Control::Commit {
                survivors: r.u32()?,
                then_sync: r.u16()? != 0,
            },
            kind::RETRY => Control::Retry,
            kind::SHUTDOWN => Control::Shutdown { error: r.str()? },
            other => {
                return Err(RuntimeError::net(
                    "dist.decode",
                    peer,
                    format!("unknown control frame kind {other}"),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_round_trips() {
        let msgs = vec![
            Control::Register { data_port: 4321 },
            Control::Heartbeat,
            Control::StepDone {
                loss: 2.5,
                allreduce_us: 777,
                tx_bytes: 65536,
            },
            Control::CollectiveFailed {
                error: "peer rank 2: checksum mismatch".into(),
            },
            Control::SavedSync,
            Control::Fatal {
                error: "boom".into(),
            },
            Control::Welcome,
            Control::View {
                resume_step: 9,
                members: vec![(0, 1111), (2, 2222), (3, 3333)],
            },
            Control::Commit {
                survivors: 3,
                then_sync: true,
            },
            Control::Retry,
            Control::Shutdown {
                error: String::new(),
            },
        ];
        for msg in msgs {
            let frame = msg.frame(7, 3, 1, 42);
            assert_eq!(frame.sender, 7);
            assert_eq!(frame.epoch, 3);
            assert_eq!(frame.attempt, 1);
            assert_eq!(frame.step, 42);
            let bytes = frame.encode();
            let back = crate::wire::read_frame(&mut bytes.as_slice(), Some(7)).expect("frame");
            let decoded = Control::decode(&back, Some(7)).expect("decode");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn unknown_kind_is_a_typed_error() {
        let f = Frame::control(199, 0, 0, 0, 0);
        let err = Control::decode(&f, Some(4)).expect_err("unknown kind");
        assert!(err.to_string().contains("peer rank 4"), "{err}");
    }
}
