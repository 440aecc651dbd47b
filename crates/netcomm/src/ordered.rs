//! Per-peer ordered delivery.
//!
//! Stream sockets deliver bytes in order, so a healthy link never sees a
//! frame out of sequence. Every frame carries a per-link sequence number
//! all the same, to make the ordering guarantee *checked* rather than
//! assumed: a frame whose sequence is not the next one expected —
//! duplicated, rewound or ahead — is a [`NetError::Protocol`] instead of
//! a silently mis-ordered reduction. Nothing is buffered, so a peer that
//! runs ahead cannot grow this rank's memory.
//!
//! An [`OrderedLink`] reads its peer through the crate's one buffered
//! reader, [`FrameReader`]: a frame the size of the read buffer or less
//! is one `read`, and the payload buffer is reused from frame to frame.

use crate::frame::{self, FrameKind, FrameReader};
use crate::transport::Stream;
use crate::{NetError, NetStats};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One fully-formed link to a peer rank: a stream plus send-side sequence
/// stamping and receive-side sequence checking, with every byte accounted to
/// the shared [`NetStats`]. A data frame costs one `write` going out and
/// (up to the read buffer's size) one `read` coming in, through buffers
/// the link keeps across frames.
#[derive(Debug)]
pub struct OrderedLink {
    /// Reads go through the frame reader, whose frame is the one last
    /// received; writes go to the socket directly.
    reader: FrameReader<Stream>,
    /// The peer's rank.
    pub peer: usize,
    local_rank: u16,
    send_seq: u64,
    /// The sequence number the next received frame must carry.
    recv_seq: u64,
    /// The outgoing frame being encoded.
    wire: Vec<u8>,
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
            reader: FrameReader::new(stream),
            peer,
            local_rank: local_rank as u16,
            send_seq: 0,
            recv_seq: 0,
            wire: Vec::new(),
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
        self.reader
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

    /// Receive the next frame into the reader's frame and check that it
    /// is the one expected next. Blocks at most the stream's configured
    /// I/O timeout; a dead peer yields `Timeout`/`Closed`.
    fn recv(&mut self) -> Result<(), NetError> {
        let t0 = Instant::now();
        let peer = self.peer;
        let f = self
            .reader
            .read_next()
            .map_err(|e| NetError::from_io(e, Some(peer), "recv frame", t0.elapsed()))??;
        self.stats
            .bytes_rx
            .fetch_add(f.wire_len() as u64, Ordering::Relaxed);
        self.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
        if f.seq != self.recv_seq {
            return Err(NetError::Protocol(format!(
                "sequence {} from rank {} out of order (expected {})",
                f.seq, f.rank, self.recv_seq
            )));
        }
        self.recv_seq += 1;
        Ok(())
    }

    /// The wire bytes of the next in-order data frame, checked to belong
    /// to collective `tag`.
    fn recv_data(&mut self, tag: u32) -> Result<&[u8], NetError> {
        self.recv()?;
        let f = self.reader.frame();
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
        self.reader.get_ref().shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    /// Two links over a socketpair, rank 0 → rank 1, sharing one stats.
    fn pair() -> (OrderedLink, OrderedLink, Arc<NetStats>) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let stats = Arc::new(NetStats::default());
        let la = OrderedLink::new(Stream::Unix(a), 0, 1, Arc::clone(&stats));
        let lb = OrderedLink::new(Stream::Unix(b), 1, 0, Arc::clone(&stats));
        (la, lb, stats)
    }

    #[test]
    fn in_order_stream_passes_through() {
        let (mut la, mut lb, _) = pair();
        for s in 0..5 {
            la.send_f64(3, &[s as f64]).expect("send");
        }
        for s in 0..5 {
            assert_eq!(lb.recv_f64(3).expect("in order"), vec![s as f64]);
        }
        assert_eq!(lb.recv_seq, 5);
    }

    #[test]
    fn a_frame_ahead_of_sequence_is_a_protocol_error() {
        let (mut la, mut lb, _) = pair();
        la.send_f64(3, &[0.0]).expect("send");
        la.send_seq = 2; // sequence 1 never goes out
        la.send_f64(3, &[2.0]).expect("send");
        assert_eq!(lb.recv_f64(3).expect("in order"), vec![0.0]);
        assert!(
            matches!(lb.recv_f64(3), Err(NetError::Protocol(_))),
            "a frame ahead of sequence is not buffered"
        );
    }

    #[test]
    fn duplicate_and_rewound_sequences_are_protocol_errors() {
        for replay in [0, 1] {
            let (mut la, mut lb, _) = pair();
            la.send_f64(3, &[0.0]).expect("send");
            la.send_f64(3, &[1.0]).expect("send");
            la.send_seq = replay;
            la.send_f64(3, &[replay as f64]).expect("send");
            lb.recv_f64(3).expect("first");
            lb.recv_f64(3).expect("second");
            assert!(
                matches!(lb.recv_f64(3), Err(NetError::Protocol(_))),
                "sequence {replay} again after 1"
            );
        }
    }

    #[test]
    fn links_over_a_real_socketpair_roundtrip_and_count() {
        let (mut la, mut lb, stats) = pair();
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
