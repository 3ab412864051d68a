//! Bucketed ring all-reduce on the wire, plus the in-process reference
//! that replays its exact addition order.
//!
//! The gradient is flattened (leaf order is the tangent's declaration
//! order, identical on every worker), split into buckets of
//! `bucket_elems`, and each bucket is reduced with the classic two-phase
//! ring: *reduce-scatter* (k−1 iterations of send/accumulate, after which
//! position `p` owns the fully reduced chunk `p+1 mod k`) then
//! *all-gather* (k−1 iterations circulating the reduced chunks). Sends go
//! through a dedicated writer thread per link, so a worker never blocks on
//! its own send while a peer is mid-send — the ring cannot self-deadlock
//! on full socket buffers, and bucket `b+1`'s frames stream while bucket
//! `b`'s are still in flight.
//!
//! **Held links.** A [`RingConnection`] serves any number of collectives:
//! each one restarts the link's fault stream and byte count, stamps its
//! own `(epoch, attempt, step)` on every frame and checks it on every
//! frame received, and [`RingConnection::flush`] confirms that the
//! writer thread wrote all of it. The writer hands written send buffers
//! back and received frames are read into one buffer, so a held link
//! encodes and reads a step's frames without allocating. The send socket
//! has `TCP_NODELAY`: a long-lived link otherwise waits on Nagle's
//! algorithm and the peer's delayed ACK for every small final frame.
//!
//! **Bit-exactness.** f32 addition is commutative but not associative, so
//! the reduced bits depend on the grouping. The ring's grouping for chunk
//! `c` is the left fold over positions `c, c+1, …, c+k−1 (mod k)`;
//! [`reference_ring_sum`] replays exactly that fold in-process, which is
//! what lets the tests demand *bit-identical* convergence between a real
//! multi-process run and the single-process baseline.

use crate::faults::{corrupt_encoded, LinkFaults, NetFaultMode, NET_DELAY_MS};
use crate::protocol::kind;
use crate::wire::{read_frame_into, write_encoded, Frame};
use s4tf_core::VisitTangent;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::{RuntimeError, Tensor};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Header fields stamped on every data frame of one collective attempt.
#[derive(Debug, Clone, Copy)]
pub struct RingHeader {
    /// This worker's rank.
    pub rank: u32,
    /// Membership epoch of the view the ring was built from.
    pub epoch: u32,
    /// Collective attempt within the step.
    pub attempt: u32,
    /// Training step.
    pub step: u64,
}

/// The two wire phases of the ring.
const PHASE_REDUCE_SCATTER: u64 = 0;
const PHASE_ALL_GATHER: u64 = 1;

/// Sequence tag for a data frame: `bucket << 32 | phase << 16 | iter`.
fn seq_tag(bucket: usize, phase: u64, iter: usize) -> u64 {
    ((bucket as u64) << 32) | (phase << 16) | iter as u64
}

enum WriterCmd {
    Frame(Vec<u8>),
    Delay(u64),
    Flush,
}

/// One established ring link: a read stream from the left neighbor and a
/// writer thread feeding the right neighbor.
///
/// A link outlives one collective: [`ring_all_reduce`] restarts its fault
/// stream and byte count, and [`flush`](RingConnection::flush) confirms
/// that every frame queued so far was written, so a worker can hold the
/// link — streams, writer thread and frame buffers — from one committed
/// step to the next.
pub struct RingConnection {
    /// Rank of the left neighbor (frames are read from it).
    pub left_rank: u32,
    /// Rank of the right neighbor (frames are written to it).
    pub right_rank: u32,
    left: TcpStream,
    tx: Option<mpsc::Sender<WriterCmd>>,
    writer: Option<JoinHandle<()>>,
    write_err: Arc<Mutex<Option<RuntimeError>>>,
    /// One `()` per [`WriterCmd::Flush`] the writer thread reached.
    flushed: mpsc::Receiver<()>,
    /// Send buffers the writer thread has written, ready to re-encode.
    spare: mpsc::Receiver<Vec<u8>>,
    /// The buffer the next received frame is read into.
    rx_buf: Vec<u8>,
    faults: LinkFaults,
    /// Bytes written to the right neighbor by the current collective.
    pub tx_bytes: u64,
}

impl RingConnection {
    /// Builds a link from an accepted left-neighbor stream and a dialed
    /// right-neighbor stream. Read/write timeouts must already be set on
    /// both streams; the writer thread starts immediately. The right
    /// stream gets `TCP_NODELAY` — without it Nagle's algorithm and the
    /// peer's delayed ACK stall a long-lived link for tens of milliseconds
    /// per collective — and failing to set it is the link's first send
    /// error.
    pub fn new(
        my_rank: u32,
        left_rank: u32,
        left: TcpStream,
        right_rank: u32,
        right: TcpStream,
    ) -> RingConnection {
        let peer = right_rank as usize;
        let nodelay_err = right.set_nodelay(true).err().map(|e| {
            RuntimeError::net(
                "dist.link",
                Some(peer),
                format!("could not set TCP_NODELAY: {e}"),
            )
        });
        let write_err = Arc::new(Mutex::new(nodelay_err));
        let err_slot = Arc::clone(&write_err);
        let (tx, rx) = mpsc::channel::<WriterCmd>();
        let (flush_tx, flushed) = mpsc::channel::<()>();
        let (spare_tx, spare) = mpsc::channel::<Vec<u8>>();
        let writer = std::thread::spawn(move || {
            let mut right = right;
            let mut dead = false;
            for cmd in rx {
                match cmd {
                    WriterCmd::Delay(ms) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms))
                    }
                    WriterCmd::Flush => {
                        let _ = flush_tx.send(());
                    }
                    WriterCmd::Frame(bytes) => {
                        if dead {
                            continue; // drain so senders never block on a dead link
                        }
                        if let Err(e) = write_encoded(&mut right, &bytes, Some(peer)) {
                            if let Ok(mut slot) = err_slot.lock() {
                                *slot = Some(e);
                            }
                            dead = true;
                        }
                        let _ = spare_tx.send(bytes);
                    }
                }
            }
        });
        RingConnection {
            left_rank,
            right_rank,
            left,
            tx: Some(tx),
            writer: Some(writer),
            write_err,
            flushed,
            spare,
            rx_buf: Vec::new(),
            faults: LinkFaults::new(my_rank, right_rank),
            tx_bytes: 0,
        }
    }

    fn pending_write_err(&self) -> Option<RuntimeError> {
        self.write_err.lock().ok().and_then(|slot| slot.clone())
    }

    fn writer_cmd(&self, cmd: WriterCmd) -> Result<(), RuntimeError> {
        let peer = Some(self.right_rank as usize);
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| RuntimeError::net("dist.send", peer, "link closed"))?;
        tx.send(cmd)
            .map_err(|_| RuntimeError::net("dist.send", peer, "writer thread exited"))
    }

    /// A buffer to encode the next frame into: one the writer thread has
    /// finished with when there is one, so steady-state frames allocate
    /// and zero-fill nothing.
    fn frame_buffer(&mut self) -> Vec<u8> {
        self.spare.try_recv().unwrap_or_default()
    }

    /// Enqueues one encoded frame toward the right neighbor, applying any
    /// injected wire fault for this link. Never blocks on the socket.
    pub fn send(&mut self, mut bytes: Vec<u8>) -> Result<(), RuntimeError> {
        if let Some(e) = self.pending_write_err() {
            return Err(e);
        }
        match self.faults.next_frame() {
            Some((NetFaultMode::Drop, _)) => return Ok(()),
            Some((NetFaultMode::Corrupt, _)) => corrupt_encoded(&mut bytes),
            Some((NetFaultMode::Delay, _)) => self.writer_cmd(WriterCmd::Delay(NET_DELAY_MS))?,
            None => {}
        }
        self.tx_bytes += bytes.len() as u64;
        self.writer_cmd(WriterCmd::Frame(bytes))
    }

    /// Reads the next data frame from the left neighbor and validates its
    /// header against the expected collective coordinates. The ring hands
    /// each frame back once folded, so the next one is read into the same
    /// buffer.
    pub fn recv(&mut self, header: RingHeader, expect_seq: u64) -> Result<Frame, RuntimeError> {
        let peer = Some(self.left_rank as usize);
        let frame = read_frame_into(&mut self.left, peer, std::mem::take(&mut self.rx_buf))?;
        if frame.kind != kind::DATA_CHUNK
            || frame.sender != self.left_rank
            || frame.epoch != header.epoch
            || frame.attempt != header.attempt
            || frame.step != header.step
            || frame.seq != expect_seq
        {
            return Err(RuntimeError::net(
                "dist.recv",
                peer,
                format!(
                    "ring desync: got kind {} sender {} epoch {} attempt {} step {} seq {:x}, \
                     expected sender {} epoch {} attempt {} step {} seq {:x}",
                    frame.kind,
                    frame.sender,
                    frame.epoch,
                    frame.attempt,
                    frame.step,
                    frame.seq,
                    self.left_rank,
                    header.epoch,
                    header.attempt,
                    header.step,
                    expect_seq,
                ),
            ));
        }
        Ok(frame)
    }

    /// Returns a received frame's buffer to the link.
    fn reclaim(&mut self, frame: Frame) {
        self.rx_buf = frame.into_buffer();
    }

    /// Waits until the writer thread has written every frame queued so
    /// far, then returns the current collective's byte count — or the
    /// first write error, so a collective whose frames did not all leave
    /// is never reported done.
    pub fn flush(&mut self) -> Result<u64, RuntimeError> {
        self.writer_cmd(WriterCmd::Flush)?;
        self.flushed.recv().map_err(|_| {
            RuntimeError::net(
                "dist.link",
                Some(self.right_rank as usize),
                "writer thread exited",
            )
        })?;
        match self.pending_write_err() {
            Some(e) => Err(e),
            None => Ok(self.tx_bytes),
        }
    }

    /// [`flush`](RingConnection::flush), then tears the link down.
    pub fn shutdown(mut self) -> Result<u64, RuntimeError> {
        self.flush()
    }
}

impl Drop for RingConnection {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Even chunk partition of `len` elements into `k` ranges
/// (`[i·len/k, (i+1)·len/k)`), identical on every worker.
pub fn chunk_ranges(len: usize, k: usize) -> Vec<Range<usize>> {
    (0..k).map(|i| (i * len / k)..((i + 1) * len / k)).collect()
}

/// Bucket partition of `len` elements into spans of at most
/// `bucket_elems`.
pub fn bucket_ranges(len: usize, bucket_elems: usize) -> Vec<Range<usize>> {
    let be = bucket_elems.max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < len {
        let end = (start + be).min(len);
        out.push(start..end);
        start = end;
    }
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

/// Encodes one f32 chunk into a frame's payload bytes, little-endian.
fn put_chunk(out: &mut [u8], chunk: &[f32]) {
    for (dst, v) in out.chunks_exact_mut(4).zip(chunk) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// The f32 values of a received chunk's payload, checked against the
/// chunk's expected element count.
fn chunk_values(
    frame: &Frame,
    expect_elems: usize,
    peer: u32,
) -> Result<impl Iterator<Item = f32> + '_, RuntimeError> {
    let payload = frame.payload();
    if payload.len() != expect_elems * 4 {
        return Err(RuntimeError::net(
            "dist.recv",
            Some(peer as usize),
            format!(
                "chunk size mismatch: got {} bytes, expected {}",
                payload.len(),
                expect_elems * 4
            ),
        ));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("fixed slice"))))
}

/// One ring iteration on the wire: encodes `chunk` straight into a
/// recycled `DATA_CHUNK` frame buffer tagged `seq`, sends it right, and
/// reads the matching frame from the left.
fn exchange(
    ring: &mut RingConnection,
    header: RingHeader,
    seq: u64,
    chunk: &[f32],
) -> Result<Frame, RuntimeError> {
    let mut frame = Frame::control(
        kind::DATA_CHUNK,
        header.rank,
        header.epoch,
        header.attempt,
        header.step,
    );
    frame.seq = seq;
    let mut bytes = ring.frame_buffer();
    frame.encode_into(&mut bytes, chunk.len() * 4, |out| put_chunk(out, chunk));
    ring.send(bytes)?;
    ring.recv(header, seq)
}

/// In-place bucketed ring all-reduce (sum) of `flat` across `k` members,
/// with this worker at `position`. On return every member holds the same
/// bits: for chunk `c`, the left fold of the members' chunks in position
/// order `c, c+1, …, c+k−1 (mod k)`. The link's fault stream restarts at
/// draw 0 and its byte count at 0, so a held link behaves on the wire
/// exactly like a freshly dialed one.
pub fn ring_all_reduce(
    flat: &mut [f32],
    position: usize,
    k: usize,
    ring: &mut RingConnection,
    header: RingHeader,
    bucket_elems: usize,
) -> Result<(), RuntimeError> {
    if k <= 1 {
        return Ok(());
    }
    ring.faults.restart();
    ring.tx_bytes = 0;
    let mut span = s4tf_profile::span("dist.allreduce");
    for (b, bucket) in bucket_ranges(flat.len(), bucket_elems)
        .into_iter()
        .enumerate()
    {
        let buf = &mut flat[bucket];
        let ranges = chunk_ranges(buf.len(), k);
        // Phase 1: reduce-scatter. Iteration t sends chunk (p−t) and
        // accumulates the incoming chunk (p−t−1) into the local buffer.
        for t in 0..k - 1 {
            let send_idx = (position + k - t) % k;
            let recv_idx = (position + 2 * k - t - 1) % k;
            let seq = seq_tag(b, PHASE_REDUCE_SCATTER, t);
            let incoming = exchange(ring, header, seq, &buf[ranges[send_idx].clone()])?;
            let recv_range = ranges[recv_idx].clone();
            let values = chunk_values(&incoming, recv_range.len(), ring.left_rank)?;
            for (dst, src) in buf[recv_range].iter_mut().zip(values) {
                *dst += src;
            }
            ring.reclaim(incoming);
        }
        // Phase 2: all-gather. Iteration t sends chunk (p+1−t) and
        // overwrites the incoming chunk (p−t) with the reduced bits.
        for t in 0..k - 1 {
            let send_idx = (position + 1 + k - t) % k;
            let recv_idx = (position + k - t) % k;
            let seq = seq_tag(b, PHASE_ALL_GATHER, t);
            let incoming = exchange(ring, header, seq, &buf[ranges[send_idx].clone()])?;
            let recv_range = ranges[recv_idx].clone();
            let values = chunk_values(&incoming, recv_range.len(), ring.left_rank)?;
            for (dst, src) in buf[recv_range].iter_mut().zip(values) {
                *dst = src;
            }
            ring.reclaim(incoming);
        }
    }
    if span.is_recording() {
        span.annotate_f64("elems", flat.len() as f64);
        span.annotate_f64("members", k as f64);
    }
    Ok(())
}

/// The exact bits [`ring_all_reduce`] produces, computed in-process: for
/// every bucket and chunk `c`, the left fold of the shards' chunks in
/// position order `c, c+1, …, c+k−1 (mod k)`. `shards[p]` is the flat
/// gradient of the member at ring position `p`; all shards must have the
/// same length.
pub fn reference_ring_sum(shards: &[&[f32]], bucket_elems: usize) -> Vec<f32> {
    let k = shards.len();
    assert!(k >= 1, "reference_ring_sum needs ≥1 shard");
    let len = shards[0].len();
    for s in shards {
        assert_eq!(s.len(), len, "shards must have equal length");
    }
    let mut out = shards[0].to_vec();
    if k == 1 {
        return out;
    }
    for bucket in bucket_ranges(len, bucket_elems) {
        let base = bucket.start;
        let blen = bucket.end - bucket.start;
        for (c, chunk) in chunk_ranges(blen, k).into_iter().enumerate() {
            let abs = (base + chunk.start)..(base + chunk.end);
            out[abs.clone()].copy_from_slice(&shards[c][abs.clone()]);
            for j in 1..k {
                let src = &shards[(c + j) % k][abs.clone()];
                for (dst, s) in out[abs.clone()].iter_mut().zip(src.iter()) {
                    *dst += *s;
                }
            }
        }
    }
    out
}

/// Flattens a tangent's `DTensor` leaves into one host buffer, in leaf
/// declaration order. Returns the flat values and each leaf's shape.
pub fn flatten_tangent<T: VisitTangent<DTensor>>(
    tangent: &T,
) -> Result<(Vec<f32>, Vec<Vec<usize>>), RuntimeError> {
    let mut flat = Vec::new();
    let mut shapes = Vec::new();
    let mut first_err: Option<RuntimeError> = None;
    tangent.visit_leaves(&mut |leaf: &DTensor| {
        if first_err.is_some() {
            return;
        }
        match leaf.to_tensor_checked() {
            Ok(host) => {
                flat.extend_from_slice(host.as_slice());
                shapes.push(host.dims().to_vec());
            }
            Err(e) => first_err = Some(e),
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok((flat, shapes)),
    }
}

/// Scatters a flat buffer back into a tangent's leaves (inverse of
/// [`flatten_tangent`]), placing each leaf on `device`.
pub fn unflatten_tangent<T: VisitTangent<DTensor>>(
    tangent: &mut T,
    flat: &[f32],
    device: &Device,
) -> Result<(), RuntimeError> {
    let mut offset = 0usize;
    let mut first_err: Option<RuntimeError> = None;
    tangent.visit_leaves_mut(&mut |leaf: &mut DTensor| {
        if first_err.is_some() {
            return;
        }
        let dims = leaf.dims();
        let numel: usize = dims.iter().product();
        if offset + numel > flat.len() {
            first_err = Some(RuntimeError::net(
                "dist.unflatten",
                None,
                format!(
                    "flat buffer too short: leaf {dims:?} needs {numel} elements at offset \
                     {offset}, buffer has {}",
                    flat.len()
                ),
            ));
            return;
        }
        let host = Tensor::from_vec(flat[offset..offset + numel].to_vec(), &dims);
        *leaf = DTensor::from_tensor(host, device);
        offset += numel;
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    if offset != flat.len() {
        return Err(RuntimeError::net(
            "dist.unflatten",
            None,
            format!(
                "flat buffer length mismatch: leaves consumed {offset} of {} elements",
                flat.len()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s4tf_tensor::FaultKind;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    #[test]
    fn chunk_and_bucket_geometry() {
        let r = chunk_ranges(10, 3);
        assert_eq!(r, vec![0..3, 3..6, 6..10]);
        assert_eq!(chunk_ranges(2, 4), vec![0..0, 0..1, 1..1, 1..2]);
        assert_eq!(bucket_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(bucket_ranges(0, 4), vec![0..0]);
    }

    #[test]
    fn reference_sum_matches_plain_sum_in_value() {
        let a: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..100).map(|i| 1.0 - i as f32).collect();
        let c: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let out = reference_ring_sum(&[&a, &b, &c], 16);
        for i in 0..100 {
            let expect = a[i] + b[i] + c[i];
            assert!(
                (out[i] - expect).abs() < 1e-4,
                "{i}: {} vs {expect}",
                out[i]
            );
        }
    }

    /// The real wire ring (threads + localhost TCP) must produce exactly
    /// the bits of [`reference_ring_sum`].
    #[test]
    fn wire_ring_is_bit_identical_to_reference() {
        for k in [2usize, 3, 4] {
            let n = 1000usize;
            let shards: Vec<Vec<f32>> = (0..k)
                .map(|p| {
                    (0..n)
                        .map(|i| ((i * 31 + p * 7) as f32 * 0.001).sin() * 3.0)
                        .collect()
                })
                .collect();
            let refs: Vec<&[f32]> = shards.iter().map(|s| s.as_slice()).collect();
            let expect = reference_ring_sum(&refs, 173);

            // Build the ring: listener per position, everyone dials right.
            let listeners: Vec<TcpListener> = (0..k)
                .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
                .collect();
            let ports: Vec<u16> = listeners
                .iter()
                .map(|l| l.local_addr().expect("addr").port())
                .collect();
            let results: Vec<Vec<f32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..k)
                    .map(|p| {
                        let mut flat = shards[p].clone();
                        let listener = &listeners[p];
                        let right_port = ports[(p + 1) % k];
                        scope.spawn(move || {
                            let right =
                                TcpStream::connect(("127.0.0.1", right_port)).expect("dial");
                            let (left, _) = listener.accept().expect("accept");
                            let timeout = Some(std::time::Duration::from_secs(5));
                            left.set_read_timeout(timeout).expect("timeout");
                            right.set_write_timeout(timeout).expect("timeout");
                            let left_rank = ((p + k - 1) % k) as u32;
                            let right_rank = ((p + 1) % k) as u32;
                            let mut ring =
                                RingConnection::new(p as u32, left_rank, left, right_rank, right);
                            let header = RingHeader {
                                rank: p as u32,
                                epoch: 0,
                                attempt: 0,
                                step: 0,
                            };
                            ring_all_reduce(&mut flat, p, k, &mut ring, header, 173)
                                .expect("ring all-reduce");
                            ring.shutdown().expect("clean shutdown");
                            flat
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ring thread"))
                    .collect()
            });
            for (p, got) in results.iter().enumerate() {
                assert_eq!(
                    got.as_slice(),
                    expect.as_slice(),
                    "k={k} position {p}: wire bits must equal the reference fold"
                );
            }
        }
    }

    #[test]
    fn single_member_ring_is_identity() {
        let mut flat = vec![1.0f32, 2.0, 3.0];
        // k = 1 never touches the connection; build a dummy loopback.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let right = TcpStream::connect(("127.0.0.1", port)).expect("dial");
        let (left, _) = listener.accept().expect("accept");
        let mut ring = RingConnection::new(0, 0, left, 0, right);
        let header = RingHeader {
            rank: 0,
            epoch: 0,
            attempt: 0,
            step: 0,
        };
        ring_all_reduce(&mut flat, 0, 1, &mut ring, header, 2).expect("k=1");
        assert_eq!(flat, vec![1.0, 2.0, 3.0]);
    }

    /// Dials a `k`-member loopback ring in one thread (a dial completes
    /// in the listener's backlog before `accept`); entry `p` is position
    /// `p`'s link, with `timeout` on its reads and writes.
    fn dial_ring(k: usize, timeout: Duration) -> Vec<RingConnection> {
        let listeners: Vec<TcpListener> = (0..k)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let rights: Vec<TcpStream> = (0..k)
            .map(|p| {
                let addr = listeners[(p + 1) % k].local_addr().expect("addr");
                TcpStream::connect(addr).expect("dial")
            })
            .collect();
        rights
            .into_iter()
            .enumerate()
            .map(|(p, right)| {
                let (left, _) = listeners[p].accept().expect("accept");
                left.set_read_timeout(Some(timeout)).expect("timeout");
                right.set_write_timeout(Some(timeout)).expect("timeout");
                let left_rank = ((p + k - 1) % k) as u32;
                let right_rank = ((p + 1) % k) as u32;
                RingConnection::new(p as u32, left_rank, left, right_rank, right)
            })
            .collect()
    }

    fn header(p: usize, step: u64) -> RingHeader {
        RingHeader {
            rank: p as u32,
            epoch: 1,
            attempt: 0,
            step,
        }
    }

    /// Position `p`'s shard for collective `c`.
    fn shard(p: usize, c: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 31 + p * 7 + c * 13) as f32 * 0.001).sin() * (1.0 + c as f32))
            .collect()
    }

    /// Runs `collectives` collectives on every position's held link at
    /// once; returns each position's (result, flushed byte count) per
    /// collective.
    #[allow(clippy::type_complexity)]
    fn run_held(
        rings: &mut [RingConnection],
        collectives: usize,
        n: usize,
        bucket_elems: usize,
    ) -> Vec<Vec<Result<(Vec<f32>, u64), RuntimeError>>> {
        let k = rings.len();
        std::thread::scope(|scope| {
            let handles: Vec<_> = rings
                .iter_mut()
                .enumerate()
                .map(|(p, ring)| {
                    scope.spawn(move || {
                        (0..collectives)
                            .map(|c| {
                                let mut flat = shard(p, c, n);
                                let head = header(p, 10 + 3 * c as u64);
                                ring_all_reduce(&mut flat, p, k, ring, head, bucket_elems)?;
                                Ok((flat, ring.flush()?))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ring thread"))
                .collect()
        })
    }

    /// One link per position serves many collectives, each with its own
    /// step and data: every result is the reference fold's bits and every
    /// collective sends the same bytes.
    #[test]
    fn held_link_serves_many_collectives_bit_identically() {
        let (n, bucket, collectives) = (1000, 173, 20);
        for k in [2usize, 3, 4] {
            let mut rings = dial_ring(k, Duration::from_secs(5));
            let results = run_held(&mut rings, collectives, n, bucket);
            for c in 0..collectives {
                let shards: Vec<Vec<f32>> = (0..k).map(|p| shard(p, c, n)).collect();
                let refs: Vec<&[f32]> = shards.iter().map(|s| s.as_slice()).collect();
                let expect = reference_ring_sum(&refs, bucket);
                for (p, per_position) in results.iter().enumerate() {
                    let (got, tx) = per_position[c].as_ref().expect("clean collective");
                    assert_eq!(got, &expect, "k={k} collective {c} position {p}");
                    let (_, first_tx) = per_position[0].as_ref().expect("clean collective");
                    assert_eq!(tx, first_tx, "k={k} collective {c} position {p} tx bytes");
                }
            }
            for ring in rings {
                ring.shutdown().expect("clean shutdown");
            }
        }
    }

    /// A frame stamped with the previous step is a typed desync on a held
    /// link, never folded into the next step's gradient.
    #[test]
    fn held_link_rejects_a_frame_from_the_previous_step() {
        let (n, bucket) = (64, 16);
        let mut rings = dial_ring(2, Duration::from_secs(5));
        for per_position in run_held(&mut rings, 1, n, bucket) {
            per_position[0].as_ref().expect("clean collective");
        }
        // Position 1 replays its step-10 opening frame; position 0 runs
        // step 11.
        let stale_step = header(1, 10).step;
        let mut stale = Frame::control(kind::DATA_CHUNK, 1, 1, 0, stale_step);
        stale.seq = seq_tag(0, PHASE_REDUCE_SCATTER, 0);
        let chunk = vec![0.0f32; 8];
        rings[1]
            .send(stale.encode_with(chunk.len() * 4, |out| put_chunk(out, &chunk)))
            .expect("queue the stale frame");
        let mut flat = shard(0, 1, n);
        let err = ring_all_reduce(&mut flat, 0, 2, &mut rings[0], header(0, 11), bucket)
            .expect_err("a previous step's frame must not fold");
        assert_eq!(err.kind, FaultKind::Net, "{err}");
        assert!(err.to_string().contains("ring desync"), "{err}");
        assert!(err.to_string().contains("step 10"), "{err}");
    }

    /// With TCP_NODELAY a held link runs collectives back to back. Two full
    /// buckets then a short one (8 KB frames, then 512 B ones, like
    /// LeNet's gradient with its short last bucket) is the shape where
    /// Nagle's algorithm waits on the peer's delayed ACK: without the
    /// option these 50 collectives take over 2 s, with it about 0.1 s.
    #[test]
    fn held_link_runs_collectives_without_nagle_stalls() {
        let (n, bucket, collectives) = (2 * 4096 + 256, 4096, 50);
        let mut rings = dial_ring(2, Duration::from_secs(5));
        let started = Instant::now();
        for per_position in run_held(&mut rings, collectives, n, bucket) {
            for result in per_position {
                result.expect("clean collective");
            }
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "{collectives} collectives took {elapsed:?}"
        );
    }

    /// A peer that vanishes between collectives fails the next one on the
    /// held link with a typed net error, within the straggler timeout.
    #[test]
    fn vanished_peer_fails_the_next_collective_on_a_held_link() {
        let (n, bucket) = (256, 64);
        let timeout = Duration::from_secs(2);
        let mut rings = dial_ring(2, timeout);
        for per_position in run_held(&mut rings, 1, n, bucket) {
            per_position[0].as_ref().expect("clean collective");
        }
        drop(rings.pop()); // position 1 closes both of its streams
        let mut flat = shard(0, 1, n);
        let started = Instant::now();
        let result = ring_all_reduce(&mut flat, 0, 2, &mut rings[0], header(0, 13), bucket)
            .and_then(|()| rings[0].flush());
        let elapsed = started.elapsed();
        let err = result.expect_err("a collective with a vanished peer must fail");
        assert_eq!(err.kind, FaultKind::Net, "{err}");
        assert!(err.to_string().contains("peer rank 1"), "{err}");
        assert!(
            elapsed < timeout + Duration::from_millis(500),
            "the failure took {elapsed:?}"
        );
    }
}
