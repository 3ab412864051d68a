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
use std::io::{ErrorKind, Read, Write};
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
    bytes: Vec<u8>,
) -> Result<Frame, RuntimeError> {
    let mut reader = FrameReader::new(bytes);
    while !reader.read_from(r, peer)? {}
    Ok(reader.into_frame())
}

/// The frame checks, run on a frame's first bytes as they arrive. On a
/// whole header it checks the magic and the [`MAX_PAYLOAD`] cap, so a
/// corrupt length is rejected before the buffer grows for the payload; on
/// a whole frame it also checks the digest. Returns the frame's total
/// length (header, payload and digest). `bytes` is at least a header and
/// either exactly a header or the whole frame.
fn check_frame(bytes: &[u8], peer: Option<usize>) -> Result<usize, RuntimeError> {
    let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("fixed slice"));
    let magic = field(0);
    if magic != MAGIC {
        return Err(RuntimeError::net(
            "dist.recv",
            peer,
            format!("bad frame magic {magic:08x} (stream corrupt or desynchronized)"),
        ));
    }
    let len = field(HEADER_LEN - 4) as usize;
    if len > MAX_PAYLOAD {
        return Err(RuntimeError::net(
            "dist.recv",
            peer,
            format!("frame declares {len} payload bytes (cap {MAX_PAYLOAD}); rejecting"),
        ));
    }
    let total = HEADER_LEN + len + 8;
    if bytes.len() == total {
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
    }
    Ok(total)
}

/// One frame read in pieces into one buffer: first its header, then —
/// once [`check_frame`] accepts the header — the rest of the frame. The
/// buffer is zero-filled only where it grows past its previous length, so
/// a recycled buffer is read into as it is.
pub(crate) struct FrameReader {
    bytes: Vec<u8>,
    filled: usize,
    /// The length the frame is known to have so far.
    want: usize,
}

impl FrameReader {
    /// A reader into `bytes`'s allocation (its contents are discarded).
    pub(crate) fn new(bytes: Vec<u8>) -> FrameReader {
        FrameReader {
            bytes,
            filled: 0,
            want: HEADER_LEN,
        }
    }

    /// One `read` from `r` toward the frame: whatever bytes it returns.
    /// `Ok(true)` once the frame is whole and has passed every check. A
    /// timeout, a closed stream or a failed check is a typed net error
    /// attributed to `peer`.
    pub(crate) fn read_from(
        &mut self,
        r: &mut impl Read,
        peer: Option<usize>,
    ) -> Result<bool, RuntimeError> {
        if self.bytes.len() < self.want {
            self.bytes.resize(self.want, 0);
        }
        self.filled += match r.read(&mut self.bytes[self.filled..self.want]) {
            Ok(0) => return Err(io_err("dist.recv", peer, &ErrorKind::UnexpectedEof.into())),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => 0,
            Err(e) => return Err(io_err("dist.recv", peer, &e)),
        };
        if self.filled < self.want {
            return Ok(false);
        }
        self.want = check_frame(&self.bytes[..self.filled], peer)?;
        Ok(self.filled == self.want)
    }

    /// The whole frame; call once [`read_from`](FrameReader::read_from)
    /// returned `Ok(true)`.
    pub(crate) fn into_frame(self) -> Frame {
        let h = &self.bytes[..HEADER_LEN];
        let u32_at = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().expect("fixed slice"));
        let u64_at = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().expect("fixed slice"));
        Frame {
            kind: h[4],
            sender: u32_at(5),
            epoch: u32_at(9),
            attempt: u32_at(13),
            step: u64_at(17),
            seq: u64_at(25),
            payload_at: HEADER_LEN..self.want - 8,
            bytes: self.bytes,
        }
    }
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

    /// Hands out its bytes in pieces: each `read` stops at the next cut.
    struct Pieces<'a> {
        bytes: &'a [u8],
        at: usize,
        cuts: Vec<usize>,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let cut = self.cuts.iter().copied().find(|&c| c > self.at);
            let end = cut.unwrap_or(self.bytes.len()).min(self.at + buf.len());
            let n = end - self.at;
            buf[..n].copy_from_slice(&self.bytes[self.at..end]);
            self.at = end;
            Ok(n)
        }
    }

    /// A frame fed in pieces — one byte at a time, split inside the
    /// header, split inside the payload — decodes to what `read_frame`
    /// returns, one `read` per piece.
    #[test]
    fn incremental_reader_decodes_a_frame_fed_in_pieces() {
        let mut f = Frame::control(5, 1, 2, 3, 4).with_payload((0..200u8).collect());
        f.seq = 0x1_0002;
        let bytes = f.encode();
        let whole = read_frame(&mut bytes.as_slice(), Some(1)).expect("valid frame");
        assert_eq!(whole, f);
        let one_byte: Vec<usize> = (1..bytes.len()).collect();
        for cuts in [one_byte, vec![10], vec![HEADER_LEN + 77]] {
            let mut pieces = Pieces {
                bytes: &bytes,
                at: 0,
                cuts: cuts.clone(),
            };
            let mut reader = FrameReader::new(Vec::new());
            let mut reads = 1;
            while !reader.read_from(&mut pieces, Some(1)).expect("valid frame") {
                reads += 1;
            }
            // A cut at the header's end costs no read of its own.
            let expect_reads = cuts.len() + 1 + usize::from(!cuts.contains(&HEADER_LEN));
            assert_eq!(reads, expect_reads, "cuts {cuts:?}");
            assert_eq!(reader.into_frame(), whole, "cuts {cuts:?}");
        }
    }

    /// A header declaring more than `MAX_PAYLOAD` is a typed error before
    /// the incremental reader's buffer grows past the header.
    #[test]
    fn incremental_reader_rejects_an_oversized_header_before_growing() {
        let mut bytes = sample().encode();
        bytes[33..37].copy_from_slice(&((MAX_PAYLOAD + 1) as u32).to_le_bytes());
        let mut reader = FrameReader::new(Vec::new());
        let mut stream = bytes.as_slice();
        let err = loop {
            match reader.read_from(&mut stream, Some(2)) {
                Ok(whole) => assert!(!whole, "an oversized frame is never whole"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind, FaultKind::Net, "{err}");
        assert!(err.to_string().contains("cap"), "{err}");
        assert!(err.to_string().contains("peer rank 2"), "{err}");
        assert_eq!(reader.bytes.len(), HEADER_LEN);
        assert!(reader.bytes.capacity() < 2 * HEADER_LEN, "the buffer grew");
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
