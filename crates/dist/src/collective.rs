//! Bucketed ring all-reduce on the wire, plus the in-process reference
//! that replays its exact addition order.
//!
//! The gradient is flattened (leaf order is the tangent's declaration
//! order, identical on every worker), split into buckets of
//! `bucket_elems`, and each bucket is reduced with the classic two-phase
//! ring: *reduce-scatter* (k−1 iterations of send/accumulate, after which
//! position `p` owns the fully reduced chunk `p+1 mod k`) then
//! *all-gather* (k−1 iterations circulating the reduced chunks). Each
//! iteration is one exchange, run on the calling thread: the worker writes
//! its frame to the right neighbor's non-blocking stream, reads whatever
//! the left neighbor has sent whenever the write would block, and once
//! the incoming frame is whole finishes any rest of its own with a
//! blocking write under the write timeout.
//!
//! **No deadlock.** Suppose every member of a ring waits. A member waits
//! in one of three places: (a) on a read from the left because its write
//! would block, (b) on a blocking write, which it starts only once its
//! incoming frame is whole, or (c) on a read from the left once its own
//! frame is out. A read never waits while bytes are queued for it, so the
//! right neighbor of a member in (a) or (b), which has bytes queued for
//! it, is in (b) with its incoming frame whole: the member writing to it
//! is an exchange ahead of it. If any member is in (a) or (b), every
//! member after it is in (b), each an exchange ahead of its right
//! neighbor. Otherwise every member is in (c) and waits for a frame its
//! left neighbor has not written, so each is an exchange ahead of its left
//! neighbor. Either way, going around the ring puts a member ahead of
//! itself.
//!
//! **Held links.** A [`RingConnection`] serves any number of collectives:
//! each one restarts the link's fault stream and byte count, stamps its
//! own `(epoch, attempt, step)` on every frame and checks it on every
//! frame received. No exchange ends before its frame is written, so a
//! collective's `Ok` means every frame it sent left. Each frame is encoded
//! into the link's one send buffer and read into its one receive buffer,
//! so a held link encodes and reads a step's frames without allocating.
//! The send socket has `TCP_NODELAY`: a long-lived link otherwise waits on
//! Nagle's algorithm and the peer's delayed ACK for every small final
//! frame.
//!
//! **Bit-exactness.** f32 addition is commutative but not associative, so
//! the reduced bits depend on the grouping. The ring's grouping for chunk
//! `c` is the left fold over positions `c, c+1, …, c+k−1 (mod k)`;
//! [`reference_ring_sum`] replays exactly that fold in-process, which is
//! what lets the tests demand *bit-identical* convergence between a real
//! multi-process run and the single-process baseline.

use crate::faults::{corrupt_encoded, stall, LinkFaults, NetFaultMode};
use crate::protocol::kind;
use crate::wire::{io_err, Frame, FrameReader};
use s4tf_core::VisitTangent;
use s4tf_runtime::{DTensor, Device};
use s4tf_tensor::{RuntimeError, Tensor};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::ops::Range;

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

/// One established ring link: a read stream from the left neighbor, a
/// non-blocking write stream to the right neighbor, and one buffer for
/// each direction. See the module doc for the exchange loop and why it
/// cannot deadlock.
///
/// A link outlives one collective: [`ring_all_reduce`] restarts its fault
/// stream and byte count, so a worker can hold the link — streams and
/// buffers — from one committed step to the next.
pub struct RingConnection {
    /// Rank of the left neighbor (frames are read from it).
    pub left_rank: u32,
    /// Rank of the right neighbor (frames are written to it).
    pub right_rank: u32,
    left: TcpStream,
    right: TcpStream,
    /// The frame being sent, encoded in place.
    tx_buf: Vec<u8>,
    /// The buffer the next received frame is read into.
    rx_buf: Vec<u8>,
    faults: LinkFaults,
    /// Bytes written to the right neighbor by the current collective.
    pub tx_bytes: u64,
}

impl RingConnection {
    /// Builds a link from an accepted left-neighbor stream and a dialed
    /// right-neighbor stream. Read/write timeouts must already be set on
    /// both streams. The right stream is made non-blocking and gets
    /// `TCP_NODELAY` — without it Nagle's algorithm and the peer's delayed
    /// ACK stall a long-lived link for tens of milliseconds per
    /// collective.
    pub fn new(
        my_rank: u32,
        left_rank: u32,
        left: TcpStream,
        right_rank: u32,
        right: TcpStream,
    ) -> Result<RingConnection, RuntimeError> {
        right
            .set_nodelay(true)
            .and_then(|()| right.set_nonblocking(true))
            .map_err(|e| {
                RuntimeError::net("dist.link", Some(right_rank as usize), e.to_string())
            })?;
        Ok(RingConnection {
            left_rank,
            right_rank,
            left,
            right,
            tx_buf: Vec::new(),
            rx_buf: Vec::new(),
            faults: LinkFaults::new(my_rank, right_rank),
            tx_bytes: 0,
        })
    }

    /// Writes `bytes` right with the stream blocking, under its write
    /// timeout: the rest of a frame whose write would block once the
    /// incoming frame is whole.
    fn write_blocking(&self, bytes: &[u8]) -> Result<(), RuntimeError> {
        let mut right = &self.right;
        right
            .set_nonblocking(false)
            .and_then(|()| right.write_all(bytes))
            .and_then(|()| right.set_nonblocking(true))
            .map_err(|e| io_err("dist.send", Some(self.right_rank as usize), &e))
    }

    /// Writes the send buffer right while reading the left neighbor's
    /// next frame; returns that frame.
    fn transfer(&mut self) -> Result<Frame, RuntimeError> {
        let peer = Some(self.right_rank as usize);
        let left_peer = Some(self.left_rank as usize);
        let mut incoming = FrameReader::new(std::mem::take(&mut self.rx_buf));
        let mut whole = false;
        let mut sent = 0;
        while sent < self.tx_buf.len() {
            let rest = &self.tx_buf[sent..];
            if whole {
                self.write_blocking(rest)?;
                break;
            }
            match (&self.right).write(rest) {
                Ok(0) => return Err(io_err("dist.send", peer, &ErrorKind::WriteZero.into())),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    whole = incoming.read_from(&mut self.left, left_peer)?;
                }
                Err(e) => return Err(io_err("dist.send", peer, &e)),
            }
        }
        while !whole {
            whole = incoming.read_from(&mut self.left, left_peer)?;
        }
        Ok(incoming.into_frame())
    }

    /// Returns a received frame's buffer to the link.
    fn reclaim(&mut self, frame: Frame) {
        self.rx_buf = frame.into_buffer();
    }
}

/// Checks a received data frame's header against the expected collective
/// coordinates.
fn check_header(
    frame: &Frame,
    left_rank: u32,
    header: RingHeader,
    expect_seq: u64,
) -> Result<(), RuntimeError> {
    if frame.kind != kind::DATA_CHUNK
        || frame.sender != left_rank
        || frame.epoch != header.epoch
        || frame.attempt != header.attempt
        || frame.step != header.step
        || frame.seq != expect_seq
    {
        return Err(RuntimeError::net(
            "dist.recv",
            Some(left_rank as usize),
            format!(
                "ring desync: got kind {} sender {} epoch {} attempt {} step {} seq {:x}, \
                 expected sender {} epoch {} attempt {} step {} seq {:x}",
                frame.kind,
                frame.sender,
                frame.epoch,
                frame.attempt,
                frame.step,
                frame.seq,
                left_rank,
                header.epoch,
                header.attempt,
                header.step,
                expect_seq,
            ),
        ));
    }
    Ok(())
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

/// One ring iteration on the wire: encodes `chunk` straight into the
/// link's send buffer as a `DATA_CHUNK` frame tagged `seq`, applies the
/// link's fault draw (a dropped frame empties the buffer), writes it right
/// while reading the matching frame from the left, and checks that
/// frame's header.
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
    frame.encode_into(&mut ring.tx_buf, chunk.len() * 4, |out| {
        put_chunk(out, chunk)
    });
    match ring.faults.next_frame() {
        Some((NetFaultMode::Drop, _)) => ring.tx_buf.clear(),
        Some((NetFaultMode::Corrupt, _)) => corrupt_encoded(&mut ring.tx_buf),
        Some((NetFaultMode::Delay, _)) => stall(),
        None => {}
    }
    ring.tx_bytes += ring.tx_buf.len() as u64;
    let incoming = ring.transfer()?;
    check_header(&incoming, ring.left_rank, header, seq)?;
    Ok(incoming)
}

/// In-place bucketed ring all-reduce (sum) of `flat` across `k` members,
/// with this worker at `position`. On return every member holds the same
/// bits: for chunk `c`, the left fold of the members' chunks in position
/// order `c, c+1, …, c+k−1 (mod k)`. The link's fault stream restarts at
/// draw 0 and its byte count at 0, so a held link behaves on the wire
/// exactly like a freshly dialed one. Every exchange writes and reads in
/// one loop on this thread, which cannot deadlock (see the module doc),
/// and `Ok` means every frame was written: `ring.tx_bytes` is then the
/// collective's byte count.
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
                                RingConnection::new(p as u32, left_rank, left, right_rank, right)
                                    .expect("ring link");
                            let header = RingHeader {
                                rank: p as u32,
                                epoch: 0,
                                attempt: 0,
                                step: 0,
                            };
                            ring_all_reduce(&mut flat, p, k, &mut ring, header, 173)
                                .expect("ring all-reduce");
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
        let mut ring = RingConnection::new(0, 0, left, 0, right).expect("ring link");
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
                    .expect("ring link")
            })
            .collect()
    }

    impl RingConnection {
        /// Writes one encoded frame right, outside any collective.
        fn send(&mut self, bytes: Vec<u8>) -> Result<(), RuntimeError> {
            self.write_blocking(&bytes)
        }
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
    /// once; returns each position's (result, byte count) per collective.
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
                                Ok((flat, ring.tx_bytes))
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
        }
    }

    /// Frames far larger than the kernel's socket buffers (16 MB, against
    /// a few MB of send buffer at most): every position's write would
    /// block long before its frame is out, so each must read while it
    /// writes. An exchange that wrote its whole frame before reading
    /// would stall every position on its write until the timeout.
    #[test]
    fn ring_survives_frames_larger_than_the_socket_buffers() {
        let chunk = 4 << 20; // f32s: a 16 MB frame
        for k in [2usize, 3] {
            let n = k * chunk;
            let expect = {
                let shards: Vec<Vec<f32>> = (0..k).map(|p| shard(p, 0, n)).collect();
                let refs: Vec<&[f32]> = shards.iter().map(|s| s.as_slice()).collect();
                reference_ring_sum(&refs, n)
            };
            let mut rings = dial_ring(k, Duration::from_secs(5));
            std::thread::scope(|scope| {
                for (p, ring) in rings.iter_mut().enumerate() {
                    let expect = &expect;
                    scope.spawn(move || {
                        let mut flat = shard(p, 0, n);
                        ring_all_reduce(&mut flat, p, k, ring, header(p, 0), n)
                            .expect("ring all-reduce");
                        let same = flat
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(expect.iter().map(|x| x.to_bits()));
                        assert!(
                            same,
                            "k={k} position {p}: wire bits must equal the reference fold"
                        );
                    });
                }
            });
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
        let result = ring_all_reduce(&mut flat, 0, 2, &mut rings[0], header(0, 13), bucket);
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
