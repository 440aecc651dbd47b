//! Per-peer ordered delivery.
//!
//! Stream sockets already deliver bytes in order, so on a healthy link the
//! [`Reorderer`] is a zero-cost pass-through. Its job is to make the
//! ordering guarantee *checked* rather than assumed: every frame carries a
//! per-link sequence number, frames ahead of sequence are buffered and
//! released in order (counted in `NetStats::reordered`), and a duplicate
//! or rewound sequence number is a [`NetError::Protocol`] instead of a
//! silently mis-ordered reduction. That keeps the collectives layer
//! deterministic over any transport that preserves frames at all — and
//! loudly broken over one that does not.

use crate::frame::{self, Frame, FrameKind, READ_CHUNK};
use crate::transport::Stream;
use crate::{NetError, NetStats};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Reassembles a per-link frame stream into strict sequence order.
#[derive(Debug, Default)]
pub struct Reorderer {
    next: u64,
    pending: BTreeMap<u64, Frame>,
    ready: VecDeque<Frame>,
}

impl Reorderer {
    /// A reorderer expecting sequence 0 first.
    pub fn new() -> Reorderer {
        Reorderer::default()
    }

    /// Accept one frame off the wire. Returns the number of frames that
    /// had to be buffered out-of-order (0 on the fast path), or a
    /// protocol error for a duplicate/rewound sequence number.
    pub fn accept(&mut self, f: Frame) -> Result<u64, NetError> {
        if f.seq < self.next || self.pending.contains_key(&f.seq) {
            return Err(NetError::Protocol(format!(
                "duplicate or rewound sequence {} from rank {} (expected ≥ {})",
                f.seq, f.rank, self.next
            )));
        }
        if f.seq == self.next {
            self.ready.push_back(f);
            self.advance();
            Ok(0)
        } else {
            self.pending.insert(f.seq, f);
            Ok(1)
        }
    }

    /// Step past the expected sequence number and release any earlier
    /// arrivals that are now contiguous.
    fn advance(&mut self) {
        self.next += 1;
        while let Some(g) = self.pending.remove(&self.next) {
            self.next += 1;
            self.ready.push_back(g);
        }
    }

    /// The healthy-link fast path: `true` if `seq` is the frame expected
    /// next and nothing is queued ahead of it, in which case it counts as
    /// delivered and the caller keeps its payload where it is. Otherwise
    /// nothing changes and the frame must go through [`Reorderer::accept`].
    pub(crate) fn passes(&mut self, seq: u64) -> bool {
        let in_order = seq == self.next && self.ready.is_empty();
        if in_order {
            self.advance();
        }
        in_order
    }

    /// Next in-order frame, if one is ready.
    pub fn pop_ready(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Frames buffered ahead of sequence (0 on a healthy stream link).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// One fully-formed link to a peer rank: a stream plus send-side sequence
/// stamping and receive-side order checking, with every byte accounted to
/// the shared [`NetStats`]. A data frame costs one `write` going out and
/// (up to the read buffer's size) one `read` coming in, through buffers
/// the link keeps across frames.
#[derive(Debug)]
pub struct OrderedLink {
    /// Reads go through a `READ_CHUNK` buffer, so the header and payload
    /// of a small frame arrive together; writes go to the socket directly.
    stream: BufReader<Stream>,
    /// The peer's rank.
    pub peer: usize,
    local_rank: u16,
    send_seq: u64,
    reorder: Reorderer,
    /// The outgoing frame being encoded.
    wire: Vec<u8>,
    /// The frame last received.
    frame: Frame,
    stats: Arc<NetStats>,
}

impl OrderedLink {
    /// Wrap a connected stream as an ordered link to `peer`.
    pub fn new(
        stream: Stream,
        local_rank: usize,
        peer: usize,
        stats: Arc<NetStats>,
    ) -> OrderedLink {
        OrderedLink {
            stream: BufReader::with_capacity(READ_CHUNK, stream),
            peer,
            local_rank: local_rank as u16,
            send_seq: 0,
            reorder: Reorderer::new(),
            wire: Vec::new(),
            frame: Frame::data(0, 0, 0, &[]),
            stats,
        }
    }

    /// Send `payload` as the next data frame on this link.
    pub fn send_f64(&mut self, tag: u32, payload: &[f64]) -> Result<(), NetError> {
        self.send(FrameKind::Data, tag, payload)
    }

    /// Encode header and payload into the link's buffer and hand them to
    /// the socket as one write — frame latency is the α the SA methods
    /// avoid, so a frame is never split across syscalls by this layer.
    fn send(&mut self, kind: FrameKind, tag: u32, payload: &[f64]) -> Result<(), NetError> {
        let t0 = Instant::now();
        self.wire.clear();
        let (rank, seq) = (self.local_rank, self.send_seq);
        frame::encode_header(&mut self.wire, kind, rank, tag, seq, payload.len() * 8);
        frame::encode_f64s(payload, &mut self.wire);
        self.stream
            .get_mut()
            .write_all(&self.wire)
            .map_err(|e| NetError::from_io(e, Some(self.peer), "send frame", t0.elapsed()))?;
        self.send_seq += 1;
        self.stats
            .bytes_tx
            .fetch_add(self.wire.len() as u64, Ordering::Relaxed);
        self.stats.frames_tx.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Receive the next in-order frame into `self.frame`. Blocks at most
    /// the stream's configured I/O timeout; a dead peer yields
    /// `Timeout`/`Closed`.
    fn recv(&mut self) -> Result<(), NetError> {
        loop {
            if let Some(f) = self.reorder.pop_ready() {
                self.frame = f;
                return Ok(());
            }
            let t0 = Instant::now();
            self.frame
                .read_over(&mut self.stream)
                .map_err(|e| NetError::from_io(e, Some(self.peer), "recv frame", t0.elapsed()))??;
            self.stats
                .bytes_rx
                .fetch_add(self.frame.wire_len() as u64, Ordering::Relaxed);
            self.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
            if self.reorder.passes(self.frame.seq) {
                return Ok(());
            }
            let buffered = self.reorder.accept(self.frame.clone())?;
            self.stats.reordered.fetch_add(buffered, Ordering::Relaxed);
        }
    }

    /// The wire bytes of the next in-order data frame, checked to belong
    /// to collective `tag`.
    fn recv_data(&mut self, tag: u32) -> Result<&[u8], NetError> {
        self.recv()?;
        let f = &self.frame;
        if f.kind == FrameKind::Bye {
            return Err(NetError::Closed {
                peer: Some(self.peer),
            });
        }
        if f.tag != tag {
            return Err(NetError::Protocol(format!(
                "rank {} answered tag {} while this rank is in collective {tag}",
                f.rank, f.tag
            )));
        }
        Ok(&f.bytes)
    }

    /// Receive the next in-order frame and decode it as `f64` words,
    /// checking that it belongs to collective `tag`.
    pub fn recv_f64(&mut self, tag: u32) -> Result<Vec<f64>, NetError> {
        frame::decode_f64s(self.recv_data(tag)?)
    }

    /// Receive the next in-order frame of collective `tag` straight into
    /// `buf`: `combine(&mut buf[i], word i)` for each decoded word. A
    /// frame of any other length than `buf`'s is a protocol error.
    pub fn recv_f64_with(
        &mut self,
        tag: u32,
        buf: &mut [f64],
        combine: impl Fn(&mut f64, f64),
    ) -> Result<(), NetError> {
        let peer = self.peer;
        let bytes = self.recv_data(tag)?;
        if bytes.len() != buf.len() * 8 {
            return Err(NetError::Protocol(format!(
                "rank {peer} sent {} bytes into a {}-word collective",
                bytes.len(),
                buf.len()
            )));
        }
        for (b, w) in buf.iter_mut().zip(bytes.chunks_exact(8)) {
            let bits = u64::from_le_bytes(w.try_into().expect("8 bytes"));
            combine(b, f64::from_bits(bits));
        }
        Ok(())
    }

    /// Best-effort orderly close: send Bye, shut the socket down.
    pub fn close(&mut self) {
        let _ = self.send(FrameKind::Bye, u32::MAX, &[]);
        self.stream.get_ref().shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64) -> Frame {
        Frame::data(1, 0, seq, &[seq as f64])
    }

    #[test]
    fn in_order_stream_passes_through() {
        let mut r = Reorderer::new();
        for s in 0..5 {
            assert_eq!(r.accept(data(s)).expect("in order"), 0);
            assert_eq!(r.pop_ready().expect("ready").seq, s);
        }
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn out_of_order_arrivals_are_released_in_order() {
        let mut r = Reorderer::new();
        // Arrivals: 2, 0, 3, 1 → releases must be 0, 1, 2, 3.
        assert_eq!(r.accept(data(2)).expect("buffer"), 1);
        assert!(r.pop_ready().is_none(), "2 must wait for 0 and 1");
        assert_eq!(r.accept(data(0)).expect("head"), 0);
        assert_eq!(r.accept(data(3)).expect("buffer"), 1);
        assert_eq!(r.accept(data(1)).expect("fills the gap"), 0);
        let order: Vec<u64> = std::iter::from_fn(|| r.pop_ready())
            .map(|f| f.seq)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn duplicate_and_rewound_sequences_are_protocol_errors() {
        let mut r = Reorderer::new();
        r.accept(data(0)).expect("first");
        r.pop_ready().expect("ready");
        assert!(
            matches!(r.accept(data(0)), Err(NetError::Protocol(_))),
            "replayed frame"
        );
        r.accept(data(5)).expect("buffered");
        assert!(
            matches!(r.accept(data(5)), Err(NetError::Protocol(_))),
            "duplicate in pending"
        );
    }

    #[test]
    fn links_over_a_real_socketpair_roundtrip_and_count() {
        use std::os::unix::net::UnixStream;
        let (a, b) = UnixStream::pair().expect("socketpair");
        let stats = Arc::new(NetStats::default());
        let mut la = OrderedLink::new(Stream::Unix(a), 0, 1, Arc::clone(&stats));
        let mut lb = OrderedLink::new(Stream::Unix(b), 1, 0, Arc::clone(&stats));
        la.send_f64(7, &[1.0, -2.5]).expect("send");
        la.send_f64(7, &[3.0]).expect("send");
        assert_eq!(lb.recv_f64(7).expect("first"), vec![1.0, -2.5]);
        assert_eq!(lb.recv_f64(7).expect("second"), vec![3.0]);
        let s = stats.snapshot();
        assert_eq!(s.frames_tx, 2);
        assert_eq!(s.frames_rx, 2);
        assert_eq!(s.bytes_tx, s.bytes_rx);
        assert_eq!(s.reordered, 0);
        // Tag mismatch is a protocol error, not a wrong answer.
        lb.send_f64(9, &[0.0]).expect("send");
        assert!(matches!(la.recv_f64(8), Err(NetError::Protocol(_))));
    }
}
