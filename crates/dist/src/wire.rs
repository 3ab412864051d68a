//! Length-prefixed, checksummed framing for the distributed runtime.
//!
//! Every message on either plane (control or data) is one frame:
//!
//! ```text
//! magic    u32  "S4DF"
//! kind     u8   message discriminant (see [`crate::protocol`])
//! sender   u32  sender rank ([`COORDINATOR`] for the coordinator)
//! epoch    u32  membership-view epoch the frame belongs to
//! attempt  u32  collective attempt within the step
//! step     u64  training step
//! seq      u64  data-plane sequence tag (bucket/phase/iteration)
//! len      u32  payload length in bytes
//! payload  [u8; len]
//! digest   u64  `s4tf_fault::digest64` over every preceding byte
//! ```
//!
//! A frame that fails magic, bounds, or digest validation surfaces a typed
//! [`RuntimeError`] (`FaultKind::Net`) attributed to the peer the stream
//! belongs to — corruption can never deliver garbage into a gradient, and
//! the sender's identity travels in the header so attribution survives
//! multi-peer fan-in.

use s4tf_fault as fault;
use s4tf_tensor::RuntimeError;
use std::io::{Read, Write};
use std::ops::Range;

/// Frame magic: `S4DF`.
pub const MAGIC: u32 = 0x5334_4446;

/// Sender id used by the coordinator (workers use their rank).
pub const COORDINATOR: u32 = u32::MAX;

/// Fixed header length in bytes (everything before the payload).
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4 + 4 + 8 + 8 + 4;

/// Hard cap on payload size — a corrupted length field must not cause an
/// unbounded allocation before the digest check can reject the frame.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// One frame: the header fields and its payload.
///
/// A frame read off the wire keeps the one buffer [`read_frame`] read it
/// into (header, payload and trailer); a frame built to send owns just its
/// payload. [`Frame::payload`] hides the difference.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Message discriminant.
    pub kind: u8,
    /// Sender rank, or [`COORDINATOR`].
    pub sender: u32,
    /// Membership epoch.
    pub epoch: u32,
    /// Collective attempt within the step.
    pub attempt: u32,
    /// Training step.
    pub step: u64,
    /// Data-plane sequence tag.
    pub seq: u64,
    bytes: Vec<u8>,
    payload_at: Range<usize>,
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        let head = |f: &Frame| (f.kind, f.sender, f.epoch, f.attempt, f.step, f.seq);
        head(self) == head(other) && self.payload() == other.payload()
    }
}

impl Eq for Frame {}

impl Frame {
    /// A control-plane frame (no sequence tag, empty payload).
    pub fn control(kind: u8, sender: u32, epoch: u32, attempt: u32, step: u64) -> Frame {
        Frame {
            kind,
            sender,
            epoch,
            attempt,
            step,
            seq: 0,
            bytes: Vec::new(),
            payload_at: 0..0,
        }
    }

    /// The same frame carrying `payload`.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Frame {
        self.payload_at = 0..payload.len();
        self.bytes = payload;
        self
    }

    /// The message payload.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.payload_at.clone()]
    }

    /// Serializes the frame, appending the trailing digest.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload();
        self.encode_with(payload.len(), |out| out.copy_from_slice(payload))
    }

    /// Serializes this frame's header with a `len`-byte payload that `fill`
    /// writes in place (the frame's own payload is not used), then appends
    /// the digest: one exact-size buffer and no intermediate payload copy.
    pub fn encode_with(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + len + 8);
        self.encode_into(&mut out, len, fill);
        out
    }

    /// [`encode_with`](Frame::encode_with) into `out`'s allocation, which
    /// is overwritten. Only bytes past `out`'s current length are
    /// zero-filled before `fill` runs, so a recycled buffer at least as
    /// long as the frame is written once.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>, len: usize, fill: impl FnOnce(&mut [u8])) {
        out.resize(HEADER_LEN + len, 0);
        let (head, payload) = out.split_at_mut(HEADER_LEN);
        let fields: [&[u8]; 8] = [
            &MAGIC.to_le_bytes(),
            &[self.kind],
            &self.sender.to_le_bytes(),
            &self.epoch.to_le_bytes(),
            &self.attempt.to_le_bytes(),
            &self.step.to_le_bytes(),
            &self.seq.to_le_bytes(),
            &(len as u32).to_le_bytes(),
        ];
        let mut at = 0;
        for field in fields {
            head[at..at + field.len()].copy_from_slice(field);
            at += field.len();
        }
        fill(payload);
        let digest = fault::digest64(out);
        out.extend_from_slice(&digest.to_le_bytes());
    }

    /// The frame's buffer, for reuse by [`read_frame_into`] or
    /// [`encode_into`](Frame::encode_into).
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.bytes
    }
}

/// Maps an I/O failure on a peer stream to a typed net error. Timeouts are
/// labelled as straggler timeouts so the failure mode is legible in logs.
pub fn io_err(op: &'static str, peer: Option<usize>, e: &std::io::Error) -> RuntimeError {
    use std::io::ErrorKind;
    let detail = match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            format!("straggler timeout waiting on the wire ({e})")
        }
        ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::BrokenPipe => {
            format!("connection lost ({e})")
        }
        _ => e.to_string(),
    };
    RuntimeError::net(op, peer, detail)
}

/// Writes pre-encoded frame bytes (the send path encodes once, so the
/// injector can corrupt the serialized form after the digest is computed).
pub fn write_encoded(
    w: &mut impl Write,
    bytes: &[u8],
    peer: Option<usize>,
) -> Result<(), RuntimeError> {
    w.write_all(bytes)
        .and_then(|_| w.flush())
        .map_err(|e| io_err("dist.send", peer, &e))
}

/// Reads one frame from `r`, validating magic, bounds and digest. Every
/// failure mode is a typed net error attributed to `peer`.
pub fn read_frame(r: &mut impl Read, peer: Option<usize>) -> Result<Frame, RuntimeError> {
    read_frame_into(r, peer, Vec::new())
}

/// [`read_frame`] into `bytes`'s allocation (its contents are discarded):
/// a long-lived link reads every frame into one buffer, taken back with
/// [`Frame::into_buffer`].
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    peer: Option<usize>,
    mut bytes: Vec<u8>,
) -> Result<Frame, RuntimeError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| io_err("dist.recv", peer, &e))?;
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("fixed slice"));
    if magic != MAGIC {
        return Err(RuntimeError::net(
            "dist.recv",
            peer,
            format!("bad frame magic {magic:08x} (stream corrupt or desynchronized)"),
        ));
    }
    let kind = header[4];
    let sender = u32::from_le_bytes(header[5..9].try_into().expect("fixed slice"));
    let epoch = u32::from_le_bytes(header[9..13].try_into().expect("fixed slice"));
    let attempt = u32::from_le_bytes(header[13..17].try_into().expect("fixed slice"));
    let step = u64::from_le_bytes(header[17..25].try_into().expect("fixed slice"));
    let seq = u64::from_le_bytes(header[25..33].try_into().expect("fixed slice"));
    let len = u32::from_le_bytes(header[33..37].try_into().expect("fixed slice")) as usize;
    if len > MAX_PAYLOAD {
        return Err(RuntimeError::net(
            "dist.recv",
            peer,
            format!("frame declares {len} payload bytes (cap {MAX_PAYLOAD}); rejecting"),
        ));
    }
    // Header, payload and trailer land in one buffer (`take` +
    // `read_to_end` fill its spare capacity without zeroing it first), and
    // the digest runs over it in place.
    let total = HEADER_LEN + len + 8;
    bytes.clear();
    bytes.reserve(total);
    bytes.extend_from_slice(&header);
    r.take((len + 8) as u64)
        .read_to_end(&mut bytes)
        .map_err(|e| io_err("dist.recv", peer, &e))?;
    if bytes.len() != total {
        let eof = std::io::Error::from(std::io::ErrorKind::UnexpectedEof);
        return Err(io_err("dist.recv", peer, &eof));
    }
    let (body, tail) = bytes.split_at(HEADER_LEN + len);
    let stored = u64::from_le_bytes(tail.try_into().expect("fixed slice"));
    let computed = fault::digest64(body);
    if stored != computed {
        return Err(RuntimeError::net(
            "dist.recv",
            peer,
            format!(
                "frame checksum mismatch: stored {stored:016x}, computed {computed:016x} \
                 (wire corruption)"
            ),
        ));
    }
    Ok(Frame {
        kind,
        sender,
        epoch,
        attempt,
        step,
        seq,
        bytes,
        payload_at: HEADER_LEN..HEADER_LEN + len,
    })
}

/// Little-endian payload writer for protocol messages.
#[derive(Default)]
pub struct PayloadWriter(pub Vec<u8>);

impl PayloadWriter {
    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked payload reader for protocol messages.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    peer: Option<usize>,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `buf`; decode errors are attributed to `peer`.
    pub fn new(buf: &'a [u8], peer: Option<usize>) -> Self {
        PayloadReader { buf, pos: 0, peer }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RuntimeError> {
        if self.pos + n > self.buf.len() {
            return Err(RuntimeError::net(
                "dist.decode",
                self.peer,
                format!(
                    "truncated payload: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                ),
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, RuntimeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("fixed slice"),
        ))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, RuntimeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("fixed slice"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, RuntimeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("fixed slice"),
        ))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, RuntimeError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("fixed slice"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, RuntimeError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|e| {
            RuntimeError::net("dist.decode", self.peer, format!("non-UTF-8 string: {e}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_tensor::FaultKind;

    fn sample() -> Frame {
        let mut f = Frame::control(2, 3, 1, 0, 7).with_payload(vec![1, 2, 3, 4, 5]);
        f.seq = 42;
        f
    }

    #[test]
    fn round_trip_is_exact() {
        let f = sample();
        let bytes = f.encode();
        let back = read_frame(&mut bytes.as_slice(), Some(3)).expect("valid frame");
        assert_eq!(back, f);
    }

    /// Encoding into a recycled buffer, longer or shorter than the frame,
    /// gives the bytes of a fresh encoding; reading into one reuses its
    /// allocation.
    #[test]
    fn recycled_buffers_round_trip_exactly() {
        let f = sample();
        let fresh = f.encode();
        for old_len in [0usize, 3, fresh.len(), 4 * fresh.len()] {
            let mut out = vec![0xee; old_len];
            f.encode_into(&mut out, f.payload().len(), |p| {
                p.copy_from_slice(f.payload())
            });
            assert_eq!(out, fresh, "recycled buffer of {old_len} bytes");
        }
        let buf = Vec::with_capacity(4 * fresh.len());
        let at = buf.as_ptr();
        let back = read_frame_into(&mut fresh.as_slice(), Some(3), buf).expect("valid frame");
        assert_eq!(back, f);
        let reused = back.into_buffer();
        assert_eq!(reused.as_ptr(), at, "the read reuses the buffer");
    }

    #[test]
    fn corruption_surfaces_typed_net_error_with_peer() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let err = read_frame(&mut bytes.as_slice(), Some(3)).expect_err("must reject");
        assert_eq!(err.kind, FaultKind::Net);
        assert!(err.to_string().contains("peer rank 3"), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncation_and_bad_magic_are_errors() {
        let bytes = sample().encode();
        let err = read_frame(&mut bytes[..10].to_vec().as_slice(), None).expect_err("short");
        assert_eq!(err.kind, FaultKind::Net);

        let mut wrong = bytes.clone();
        wrong[0] ^= 0x55;
        // Recompute the digest so only the magic is wrong.
        let body = wrong.len() - 8;
        let digest = fault::digest64(&wrong[..body]).to_le_bytes();
        wrong[body..].copy_from_slice(&digest);
        let err = read_frame(&mut wrong.as_slice(), Some(1)).expect_err("bad magic");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = sample().encode();
        bytes[33..37].copy_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut bytes.as_slice(), Some(2)).expect_err("oversized");
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn payload_reader_round_trips() {
        let mut w = PayloadWriter::default();
        w.u16(9);
        w.u32(12345);
        w.u64(1 << 40);
        w.f64(0.5);
        w.str("hello");
        let mut r = PayloadReader::new(&w.0, None);
        assert_eq!(r.u16().expect("u16"), 9);
        assert_eq!(r.u32().expect("u32"), 12345);
        assert_eq!(r.u64().expect("u64"), 1 << 40);
        assert_eq!(r.f64().expect("f64"), 0.5);
        assert_eq!(r.str().expect("str"), "hello");
        assert!(r.u16().is_err(), "reads past the end are typed errors");
    }
}
