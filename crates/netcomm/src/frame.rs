//! The wire format: length-prefixed, sequence-numbered frames.
//!
//! ```text
//! offset  size  field
//!      0     4  magic  0x5AC0_4E54  ("SACO" ⊕ "NT")
//!      4     1  kind   (Hello | AddrTable | Data | Bye)
//!      5     1  reserved (0)
//!      6     2  sender rank        (u16 LE)
//!      8     4  collective tag     (u32 LE)
//!     12     8  per-link sequence  (u64 LE)
//!     20     4  payload byte count (u32 LE)
//!     24     …  payload
//! ```
//!
//! `f64` payloads are encoded value-by-value as `to_bits()` little-endian
//! — a bijection on bit patterns, so the wire preserves signed zeros,
//! subnormals and NaN payloads exactly. That is what lets the mesh
//! promise *bitwise* agreement with its serial tree reference: the only
//! arithmetic in a reduction is the summation itself, never the
//! transport.
//!
//! A stream of frames is read through one [`FrameReader`]: a 64 KiB
//! (`READ_CHUNK`) buffer in front of the socket and one frame whose
//! payload buffer is reused from frame to frame. A frame that fits the
//! buffer arrives with one `read` (header and payload together), several
//! small frames sent in one `write` are all served from that one `read`,
//! and a warm reader allocates nothing per frame. `OrderedLink`'s links
//! and the serve server's connections and client read through it; only
//! the mesh's one-off handshake frames use [`Frame::read_from`].

use crate::NetError;
use std::io::{BufReader, Read, Write};

/// Frame magic: rejects cross-talk from anything that is not a netcomm
/// peer (e.g. a stray client poking the rendezvous port).
pub const MAGIC: u32 = 0x5AC0_4E54;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 24;

/// Upper bound on a frame payload (256 MiB). A corrupt length prefix
/// fails immediately instead of driving a multi-gigabyte allocation.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 28;

/// How far a payload buffer may grow ahead of the bytes that have
/// arrived, the size of each [`FrameReader`]'s buffer, and the widest
/// frame the allreduce's top swap takes (`mesh`'s module doc).
pub const READ_CHUNK: usize = 64 << 10;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Mesh handshake: "I am rank r; my listener is at …".
    Hello = 1,
    /// Rendezvous reply: the rank-indexed listener address table.
    AddrTable = 2,
    /// A collective payload of `f64` words.
    Data = 3,
    /// Orderly teardown notice.
    Bye = 4,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::AddrTable),
            3 => Some(FrameKind::Data),
            4 => Some(FrameKind::Bye),
            _ => None,
        }
    }
}

/// One wire frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Payload discriminator.
    pub kind: FrameKind,
    /// Sender's rank.
    pub rank: u16,
    /// Collective-operation tag (sanity-checks that both ends of a link
    /// are inside the same collective).
    pub tag: u32,
    /// Per-link, per-direction sequence number (starts at 0).
    pub seq: u64,
    /// Raw payload bytes.
    pub bytes: Vec<u8>,
}

impl Frame {
    /// A data frame carrying `f64` words.
    pub fn data(rank: u16, tag: u32, seq: u64, payload: &[f64]) -> Frame {
        let mut bytes = Vec::with_capacity(payload.len() * 8);
        encode_f64s(payload, &mut bytes);
        Frame {
            kind: FrameKind::Data,
            rank,
            tag,
            seq,
            bytes,
        }
    }

    /// Decode the payload as `f64` words.
    pub fn payload_f64(&self) -> Result<Vec<f64>, NetError> {
        decode_f64s(&self.bytes)
    }

    /// Total on-wire size of this frame.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.bytes.len()
    }

    /// Serialize into `out` (appended).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.wire_len());
        encode_header(
            out,
            self.kind,
            self.rank,
            self.tag,
            self.seq,
            self.bytes.len(),
        );
        out.extend_from_slice(&self.bytes);
    }

    /// Write the frame to `w` in one buffered write (one syscall on an
    /// unsaturated socket — frame latency is the α the SA methods avoid,
    /// so the layer never splits a frame across writes).
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        w.write_all(&buf)?;
        w.flush()
    }

    /// Read one frame from `r`, validating magic, kind and payload bound.
    /// I/O errors (including read-timeout expiry) surface as the raw
    /// `io::Error`; the link layer maps them to typed [`NetError`]s with
    /// peer context.
    pub fn read_from<R: Read>(r: &mut R) -> std::io::Result<Result<Frame, NetError>> {
        let mut f = Frame::data(0, 0, 0, &[]);
        Ok(f.read_over(r)?.map(|()| f))
    }

    /// [`Frame::read_from`] into this frame, reusing its payload buffer.
    /// The buffer grows one [`READ_CHUNK`] at a time as bytes arrive — the
    /// length prefix is the peer's claim, so a peer that names a large
    /// payload and goes away has cost one chunk — and a payload up to one
    /// chunk is a single `read_exact`.
    pub(crate) fn read_over<R: Read>(
        &mut self,
        r: &mut R,
    ) -> std::io::Result<Result<(), NetError>> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC {
            return Ok(Err(NetError::Protocol(format!(
                "bad frame magic {magic:#010x}"
            ))));
        }
        let Some(kind) = FrameKind::from_u8(header[4]) else {
            return Ok(Err(NetError::Protocol(format!(
                "unknown frame kind {}",
                header[4]
            ))));
        };
        let len = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_BYTES {
            return Ok(Err(NetError::Protocol(format!(
                "frame payload of {len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte bound"
            ))));
        }
        self.kind = kind;
        self.rank = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
        self.tag = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        self.seq = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        let len = len as usize;
        self.bytes.clear();
        while self.bytes.len() < len {
            let at = self.bytes.len();
            self.bytes.resize(at + (len - at).min(READ_CHUNK), 0);
            r.read_exact(&mut self.bytes[at..])?;
        }
        Ok(Ok(()))
    }
}

/// Reads a stream of frames: a `READ_CHUNK`-byte buffer in front of the
/// stream and one [`Frame`] refilled in place, its payload buffer reused.
/// Writes bypass it through [`FrameReader::get_mut`], so a request and
/// its reply share one stream without a second handle.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: BufReader<R>,
    frame: Frame,
}

impl<R: Read> FrameReader<R> {
    /// Wrap `inner`; nothing is read until the first [`FrameReader::read_next`].
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner: BufReader::with_capacity(READ_CHUNK, inner),
            frame: Frame::data(0, 0, 0, &[]),
        }
    }

    /// Read the next frame into the reader's own frame and return it.
    /// Errors as [`Frame::read_from`]: the raw `io::Error` outside, a
    /// malformed header inside.
    pub fn read_next(&mut self) -> std::io::Result<Result<&Frame, NetError>> {
        Ok(self.frame.read_over(&mut self.inner)?.map(|()| &self.frame))
    }

    /// The frame last read.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }

    /// The underlying stream.
    pub fn get_ref(&self) -> &R {
        self.inner.get_ref()
    }

    /// The underlying stream, for writes. Reading from it directly would
    /// skip the bytes already buffered.
    pub fn get_mut(&mut self) -> &mut R {
        self.inner.get_mut()
    }
}

/// Append the 24 header bytes of a frame with a `len`-byte payload.
pub fn encode_header(
    out: &mut Vec<u8>,
    kind: FrameKind,
    rank: u16,
    tag: u32,
    seq: u64,
    len: usize,
) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(kind as u8);
    out.push(0);
    out.extend_from_slice(&rank.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Append `vals` to `out` as `to_bits()` little-endian words: the bytes
/// are sized once and filled 8 at a time.
pub fn encode_f64s(vals: &[f64], out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + vals.len() * 8, 0);
    fill_words(&mut out[at..], vals.iter().map(|v| v.to_bits()));
}

/// Write `words` into `dst` as little-endian 8-byte chunks, one chunk per
/// word, stopping at whichever runs out first.
pub fn fill_words(dst: &mut [u8], words: impl IntoIterator<Item = u64>) {
    for (chunk, w) in dst.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
}

/// The number of 8-byte words in a payload; errors if the byte count is
/// not a multiple of 8.
pub fn word_count(bytes: &[u8]) -> Result<usize, NetError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(NetError::Protocol(format!(
            "f64 payload of {} bytes is not word-aligned",
            bytes.len()
        )));
    }
    Ok(bytes.len() / 8)
}

/// Inverse of [`encode_f64s`]. Errors if the byte count is not a
/// multiple of 8.
pub fn decode_f64s(bytes: &[u8]) -> Result<Vec<f64>, NetError> {
    word_count(bytes)?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_a_byte_stream() {
        let f = Frame::data(3, 17, 42, &[1.5, -0.0, f64::MIN_POSITIVE]);
        let mut wire = Vec::new();
        f.encode_into(&mut wire);
        assert_eq!(wire.len(), f.wire_len());
        let g = Frame::read_from(&mut wire.as_slice())
            .expect("io")
            .expect("protocol");
        assert_eq!(f, g);
        assert_eq!(
            g.payload_f64().expect("aligned"),
            vec![1.5, -0.0, f64::MIN_POSITIVE]
        );
        assert!(g.payload_f64().expect("aligned")[1].is_sign_negative());
    }

    #[test]
    fn nan_bit_patterns_survive_the_wire() {
        let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
        let f = Frame::data(0, 0, 0, &[weird]);
        let mut wire = Vec::new();
        f.encode_into(&mut wire);
        let g = Frame::read_from(&mut wire.as_slice()).unwrap().unwrap();
        assert_eq!(g.payload_f64().unwrap()[0].to_bits(), weird.to_bits());
    }

    #[test]
    fn bad_magic_is_a_protocol_error_not_a_panic() {
        let mut wire = Vec::new();
        Frame::data(0, 0, 0, &[1.0]).encode_into(&mut wire);
        wire[0] ^= 0xff;
        let err = Frame::read_from(&mut wire.as_slice()).unwrap().unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        Frame::data(0, 0, 0, &[]).encode_into(&mut wire);
        wire[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Frame::read_from(&mut wire.as_slice()).unwrap().unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn claimed_length_is_not_allocated_before_bytes_arrive() {
        // 24 valid header bytes claiming the largest legal payload, then
        // EOF: the typed error the link layer maps to `Closed`, and no
        // more than one chunk reserved on the way to it.
        let mut wire = Vec::new();
        Frame::data(0, 0, 0, &[]).encode_into(&mut wire);
        wire[20..24].copy_from_slice(&MAX_PAYLOAD_BYTES.to_le_bytes());
        let err = Frame::read_from(&mut wire.as_slice()).expect_err("EOF mid-payload");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let typed = NetError::from_io(err, Some(1), "recv frame", Default::default());
        assert!(
            matches!(typed, NetError::Closed { peer: Some(1) }),
            "{typed}"
        );

        let mut f = Frame::data(0, 0, 0, &[]);
        f.read_over(&mut wire.as_slice())
            .expect_err("EOF mid-payload");
        assert!(
            f.bytes.capacity() <= READ_CHUNK,
            "reserved {} bytes for a payload that never arrived",
            f.bytes.capacity()
        );
        // …and a payload that does arrive in full still grows past a chunk.
        let big = Frame {
            bytes: vec![7u8; 3 * READ_CHUNK + 5],
            ..f.clone()
        };
        let mut wire = Vec::new();
        big.encode_into(&mut wire);
        f.read_over(&mut wire.as_slice()).expect("io").expect("ok");
        assert_eq!(f, big);
    }

    #[test]
    fn a_frame_reader_serves_back_to_back_frames_from_one_buffer() {
        let frames = [
            Frame::data(1, 5, 0, &[1.0, 2.0, 3.0]),
            Frame::data(1, 5, 1, &[]),
            Frame::data(1, 6, 2, &[-0.0]),
            Frame {
                kind: FrameKind::Bye,
                ..Frame::data(1, u32::MAX, 3, &[])
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut reader = FrameReader::new(wire.as_slice());
        for f in &frames {
            assert_eq!(reader.read_next().expect("io").expect("frame"), f);
        }
        assert_eq!(reader.frame(), &frames[3]);
        let err = reader.read_next().expect_err("the stream is spent");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn encode_f64s_appends_the_bit_patterns() {
        let vals = [1.5, -0.0, f64::from_bits(0x7ff8_dead_beef_cafe)];
        let mut out = vec![9u8];
        encode_f64s(&vals, &mut out);
        assert_eq!(out.len(), 1 + 8 * vals.len());
        assert_eq!(out[0], 9);
        for (c, v) in out[1..].chunks_exact(8).zip(vals) {
            assert_eq!(c, v.to_bits().to_le_bytes());
        }
        assert_eq!(word_count(&out[1..]).expect("aligned"), 3);
        assert!(word_count(&out).is_err());
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut wire = Vec::new();
        Frame::data(0, 0, 0, &[2.0, 3.0]).encode_into(&mut wire);
        wire.truncate(wire.len() - 5);
        assert!(Frame::read_from(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn misaligned_payload_rejected() {
        assert!(decode_f64s(&[0u8; 7]).is_err());
        assert_eq!(decode_f64s(&[]).unwrap(), Vec::<f64>::new());
    }
}
