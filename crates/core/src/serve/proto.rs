//! The serve request/response protocol, riding the netcomm framed
//! transport.
//!
//! Every message is one [`Frame`] of kind `Data`: the frame `tag` is the
//! message type, the payload is a flat `f64` word stream on netcomm's
//! lossless bit-pattern wire (integers travel as `f64::from_bits`, so no
//! second serialization layer exists and no value is ever rounded). A
//! `Bye` frame closes a connection; anything else is a protocol error.
//!
//! Request tags are small integers; a response reuses the request tag
//! with [`RESP_BIT`] set, and [`TAG_ERROR`] carries a UTF-8 message for
//! any request the server refuses.
//!
//! Both directions take one pass over a message. `encode_into` appends
//! the frame header and then the payload to a caller-held buffer, sized
//! once and filled 8 bytes at a time, ready for a single `write`.
//! Decoding reads the words in place from the frame's bytes, and
//! [`Request::decode_over`] refills a held score request's row buffers, so
//! a connection that keeps one `Request` allocates nothing per row once
//! warm. `to_frame` / `from_frame` are the same code with a fresh frame or
//! request, not a second codec.

use netcomm::frame::{self, Frame, FrameKind};
use netcomm::NetError;

/// Score a batch of sparse rows against the current model.
pub const TAG_SCORE: u32 = 1;
/// Resume training for `iters` more inner iterations.
pub const TAG_TRAIN_DELTA: u32 = 2;
/// Solve (or fetch from cache) one λ-path point.
pub const TAG_PATH_POINT: u32 = 3;
/// Fetch the server's telemetry snapshot as a run report.
pub const TAG_STATS: u32 = 4;
/// Ask the server to drain and exit.
pub const TAG_SHUTDOWN: u32 = 5;
/// The most inner iterations one `TrainDelta` or `PathPoint` may ask
/// for; a larger count is refused at decode. A request runs its whole
/// budget under the server's state lock, so an unbounded count off the
/// wire (`u64::MAX`) would hold that lock for good and overflow the
/// model's iteration total. 2^20 sits far above every real budget — the
/// CLI's default `--train-iters 512` and the 64 the serve benchmark sends
/// — so a bounded request still costs at most one long solve, never the
/// server. `saco serve` refuses a `--train-iters` above it too.
pub const MAX_REQUEST_ITERS: u64 = 1 << 20;
/// Set on a response frame's tag.
pub const RESP_BIT: u32 = 0x100;
/// An error response (UTF-8 message payload).
pub const TAG_ERROR: u32 = 0x1EE;

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Score sparse rows: parallel `(indices, values)` per row.
    Score {
        /// The rows to score, each strictly-increasing indices + values.
        rows: Vec<(Vec<usize>, Vec<f64>)>,
    },
    /// Continue training the resumable model state.
    TrainDelta {
        /// λ for the continued segment (the artifact's λ if NaN-free
        /// semantics are wanted, but any λ re-regularizes the chain).
        lambda: f64,
        /// How many more inner iterations to run.
        iters: u64,
    },
    /// Warm-started λ-path point (point k seeds point k+1).
    PathPoint {
        /// The requested regularization weight.
        lambda: f64,
        /// Per-segment iteration budget.
        iters: u64,
    },
    /// Telemetry snapshot.
    Stats,
    /// Drain and exit.
    Shutdown,
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Predictions, one per requested row.
    Scores(Vec<f64>),
    /// Train-delta outcome.
    Train {
        /// Objective after the segment.
        objective: f64,
        /// Support size after the segment.
        nonzeros: u64,
        /// Total inner iterations in the model's life (artifact + deltas).
        total_iters: u64,
    },
    /// Path-point outcome.
    Path {
        /// Objective at this λ.
        objective: f64,
        /// Support size at this λ.
        nonzeros: u64,
        /// Whether the exact λ was already solved (cache hit).
        cached: bool,
    },
    /// JSON run report.
    Stats(String),
    /// Refusal, with reason.
    Error(String),
}

/// A message's payload, encoded in one pass: its word count is known
/// before any byte is written, so the frame is sized once and filled.
trait Payload {
    fn tag(&self) -> u32;
    fn words(&self) -> usize;
    fn fill(&self, f: &mut Fill<'_>);
}

/// Append `msg` to `out` as one data frame: the header, then the payload
/// bytes, sized once and filled 8 at a time.
fn encode_into(msg: &impl Payload, seq: u64, out: &mut Vec<u8>) {
    let words = msg.words();
    frame::encode_header(out, FrameKind::Data, 0, msg.tag(), seq, 8 * words);
    fill_payload(msg, words, out);
}

/// `msg` as a [`Frame`] whose bytes are exactly what [`encode_into`]
/// writes after the header.
fn to_frame(msg: &impl Payload, seq: u64) -> Frame {
    let words = msg.words();
    let mut bytes = Vec::new();
    fill_payload(msg, words, &mut bytes);
    Frame {
        kind: FrameKind::Data,
        rank: 0,
        tag: msg.tag(),
        seq,
        bytes,
    }
}

fn fill_payload(msg: &impl Payload, words: usize, out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + 8 * words, 0);
    let mut f = Fill(&mut out[at..]);
    msg.fill(&mut f);
    debug_assert!(f.0.is_empty(), "payload word count and fill disagree");
}

/// The unwritten rest of a payload. Bytes it skips stay zero, which is
/// a string's padding.
struct Fill<'a>(&'a mut [u8]);

impl<'a> Fill<'a> {
    fn take(&mut self, words: usize) -> &'a mut [u8] {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(8 * words);
        self.0 = rest;
        head
    }

    fn word(&mut self, u: u64) {
        self.take(1).copy_from_slice(&u.to_le_bytes());
    }

    fn f64s(&mut self, vals: &[f64]) {
        frame::fill_words(self.take(vals.len()), vals.iter().map(|v| v.to_bits()));
    }

    fn indices(&mut self, idx: &[usize]) {
        frame::fill_words(self.take(idx.len()), idx.iter().map(|&i| i as u64));
    }

    /// A length word, then the UTF-8 bytes zero-padded to whole words.
    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.take(s.len().div_ceil(8))[..s.len()].copy_from_slice(s.as_bytes());
    }
}

/// The little-endian words of `bytes`, a whole number of them.
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
}

/// A cursor over a data frame's payload words, read in place.
struct Words<'a> {
    bytes: &'a [u8],
    /// Words consumed so far.
    at: usize,
}

impl<'a> Words<'a> {
    /// The payload of `f`, which must be a word-aligned data frame.
    fn of(f: &'a Frame, what: &str) -> Result<Words<'a>, NetError> {
        if f.kind != FrameKind::Data {
            return Err(NetError::Protocol(format!(
                "expected a Data {what} frame, got {:?}",
                f.kind
            )));
        }
        frame::word_count(&f.bytes)?;
        Ok(Words {
            bytes: &f.bytes,
            at: 0,
        })
    }

    fn left(&self) -> usize {
        self.bytes.len() / 8 - self.at
    }

    fn next(&mut self) -> Result<u64, NetError> {
        if self.left() == 0 {
            return Err(NetError::Protocol("truncated serve payload".to_string()));
        }
        Ok(u64::from_le_bytes(
            self.take(1).try_into().expect("8 bytes"),
        ))
    }

    fn next_f64(&mut self) -> Result<f64, NetError> {
        self.next().map(f64::from_bits)
    }

    /// The next `n` words' bytes; the caller has checked they are there.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let bytes = &self.bytes[8 * self.at..8 * (self.at + n)];
        self.at += n;
        bytes
    }

    /// A count read off the wire that announces `count` items of `per`
    /// words each, still to come: refused unless the payload holds them,
    /// so no allocation is ever sized by a claim the bytes cannot back.
    fn room(&self, count: u64, per: u64) -> Result<usize, NetError> {
        let left = self.left() as u64;
        match count.checked_mul(per) {
            Some(need) if need <= left => Ok(count as usize),
            _ => Err(NetError::Protocol(format!(
                "count {count} overruns the {left} payload words left"
            ))),
        }
    }

    /// [`Words::next`] a count of `per`-word items and bound it by
    /// [`Words::room`].
    fn take_count(&mut self, per: u64) -> Result<usize, NetError> {
        let count = self.next()?;
        self.room(count, per)
    }

    fn string(&mut self) -> Result<String, NetError> {
        let len = self.next()?;
        let nwords = self.room(len.div_ceil(8), 1)?;
        let bytes = &self.take(nwords)[..len as usize];
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::Protocol("string payload is not UTF-8".to_string()))
    }

    /// Refuse words left over after a complete message.
    fn finish(&self, what: &str, tag: u32) -> Result<(), NetError> {
        if self.left() != 0 {
            return Err(NetError::Protocol(format!(
                "trailing words in {what} tag {tag:#x}"
            )));
        }
        Ok(())
    }
}

impl Payload for Request {
    fn tag(&self) -> u32 {
        Request::tag(self)
    }

    fn words(&self) -> usize {
        match self {
            Request::Score { rows } => {
                1 + rows.iter().map(|(idx, _)| 1 + 2 * idx.len()).sum::<usize>()
            }
            Request::TrainDelta { .. } | Request::PathPoint { .. } => 2,
            Request::Stats | Request::Shutdown => 0,
        }
    }

    fn fill(&self, f: &mut Fill<'_>) {
        match self {
            Request::Score { rows } => {
                f.word(rows.len() as u64);
                for (idx, val) in rows {
                    assert_eq!(idx.len(), val.len(), "row indices/values mismatch");
                    f.word(idx.len() as u64);
                    f.indices(idx);
                    f.f64s(val);
                }
            }
            Request::TrainDelta { lambda, iters } | Request::PathPoint { lambda, iters } => {
                f.f64s(&[*lambda]);
                f.word(*iters);
            }
            Request::Stats | Request::Shutdown => {}
        }
    }
}

impl Request {
    /// The frame tag of this request kind.
    pub fn tag(&self) -> u32 {
        match self {
            Request::Score { .. } => TAG_SCORE,
            Request::TrainDelta { .. } => TAG_TRAIN_DELTA,
            Request::PathPoint { .. } => TAG_PATH_POINT,
            Request::Stats => TAG_STATS,
            Request::Shutdown => TAG_SHUTDOWN,
        }
    }

    /// Append this request to `out` as one wire frame with sequence
    /// number `seq`, header and payload written in one pass.
    pub fn encode_into(&self, seq: u64, out: &mut Vec<u8>) {
        encode_into(self, seq, out);
    }

    /// Encode as a data frame with sequence number `seq`.
    pub fn to_frame(&self, seq: u64) -> Frame {
        to_frame(self, seq)
    }

    /// Decode a request frame.
    pub fn from_frame(f: &Frame) -> Result<Request, NetError> {
        let mut req = Request::Stats;
        req.decode_over(f)?;
        Ok(req)
    }

    /// [`Request::from_frame`] into this request. A score decoded over a
    /// score refills the old rows' buffers, so a connection that keeps
    /// one `Request` allocates nothing per row once its buffers have
    /// grown. On an error this request holds some valid request that
    /// must not be answered.
    pub fn decode_over(&mut self, f: &Frame) -> Result<(), NetError> {
        let mut words = Words::of(f, "request")?;
        match f.tag {
            TAG_SCORE => {
                // Each row is at least its length word; each entry is an
                // index word and a value word.
                let k = words.take_count(1)?;
                if !matches!(self, Request::Score { .. }) {
                    *self = Request::Score {
                        rows: Vec::with_capacity(k),
                    };
                }
                let Request::Score { rows } = self else {
                    unreachable!("just made a score request")
                };
                for r in 0..k {
                    let len = words.take_count(2)?;
                    let (idx, val) = words.take(2 * len).split_at(8 * len);
                    if r == rows.len() {
                        rows.push((Vec::with_capacity(len), Vec::with_capacity(len)));
                    }
                    let (row_idx, row_val) = &mut rows[r];
                    row_idx.clear();
                    row_idx.extend(le_words(idx).map(|i| i as usize));
                    row_val.clear();
                    row_val.extend(le_words(val).map(f64::from_bits));
                }
                rows.truncate(k);
            }
            TAG_TRAIN_DELTA | TAG_PATH_POINT => {
                let lambda = words.next_f64()?;
                let iters = words.next()?;
                if iters > MAX_REQUEST_ITERS {
                    return Err(NetError::Protocol(format!(
                        "iters {iters} exceeds the per-request bound {MAX_REQUEST_ITERS}"
                    )));
                }
                *self = if f.tag == TAG_TRAIN_DELTA {
                    Request::TrainDelta { lambda, iters }
                } else {
                    Request::PathPoint { lambda, iters }
                };
            }
            TAG_STATS => *self = Request::Stats,
            TAG_SHUTDOWN => *self = Request::Shutdown,
            t => {
                return Err(NetError::Protocol(format!("unknown request tag {t:#x}")));
            }
        }
        words.finish("request", f.tag)
    }
}

impl Payload for Response {
    fn tag(&self) -> u32 {
        Response::tag(self)
    }

    fn words(&self) -> usize {
        match self {
            Response::Scores(preds) => 1 + preds.len(),
            Response::Train { .. } | Response::Path { .. } => 3,
            Response::Stats(s) | Response::Error(s) => 1 + s.len().div_ceil(8),
        }
    }

    fn fill(&self, f: &mut Fill<'_>) {
        match self {
            Response::Scores(preds) => {
                f.word(preds.len() as u64);
                f.f64s(preds);
            }
            Response::Train {
                objective,
                nonzeros,
                total_iters,
            } => {
                f.f64s(&[*objective]);
                f.word(*nonzeros);
                f.word(*total_iters);
            }
            Response::Path {
                objective,
                nonzeros,
                cached,
            } => {
                f.f64s(&[*objective]);
                f.word(*nonzeros);
                f.word(u64::from(*cached));
            }
            Response::Stats(s) | Response::Error(s) => f.str(s),
        }
    }
}

impl Response {
    /// The frame tag of this response kind.
    pub fn tag(&self) -> u32 {
        match self {
            Response::Scores(_) => TAG_SCORE | RESP_BIT,
            Response::Train { .. } => TAG_TRAIN_DELTA | RESP_BIT,
            Response::Path { .. } => TAG_PATH_POINT | RESP_BIT,
            Response::Stats(_) => TAG_STATS | RESP_BIT,
            Response::Error(_) => TAG_ERROR,
        }
    }

    /// Append this response to `out` as one wire frame with sequence
    /// number `seq`, header and payload written in one pass.
    pub fn encode_into(&self, seq: u64, out: &mut Vec<u8>) {
        encode_into(self, seq, out);
    }

    /// Encode as a data frame with sequence number `seq`.
    pub fn to_frame(&self, seq: u64) -> Frame {
        to_frame(self, seq)
    }

    /// Decode a response frame.
    pub fn from_frame(f: &Frame) -> Result<Response, NetError> {
        let mut words = Words::of(f, "response")?;
        let resp = match f.tag {
            t if t == TAG_SCORE | RESP_BIT => {
                let k = words.take_count(1)?;
                Response::Scores(le_words(words.take(k)).map(f64::from_bits).collect())
            }
            t if t == TAG_TRAIN_DELTA | RESP_BIT => Response::Train {
                objective: words.next_f64()?,
                nonzeros: words.next()?,
                total_iters: words.next()?,
            },
            t if t == TAG_PATH_POINT | RESP_BIT => Response::Path {
                objective: words.next_f64()?,
                nonzeros: words.next()?,
                cached: words.next()? != 0,
            },
            t if t == TAG_STATS | RESP_BIT => Response::Stats(words.string()?),
            TAG_ERROR => Response::Error(words.string()?),
            t => {
                return Err(NetError::Protocol(format!("unknown response tag {t:#x}")));
            }
        };
        words.finish("response", f.tag)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_req(r: Request) {
        let f = r.to_frame(3);
        assert_eq!(f.seq, 3);
        assert_eq!(Request::from_frame(&f).expect("decode"), r);
    }

    fn rt_resp(r: Response) {
        let f = r.to_frame(9);
        assert_eq!(Response::from_frame(&f).expect("decode"), r);
    }

    #[test]
    fn requests_roundtrip() {
        rt_req(Request::Score {
            rows: vec![(vec![0, 3, 17], vec![1.5, -2.25, 1e-300]), (vec![], vec![])],
        });
        rt_req(Request::TrainDelta {
            lambda: 0.125,
            iters: 640,
        });
        rt_req(Request::PathPoint {
            lambda: f64::MIN_POSITIVE,
            iters: 1,
        });
        rt_req(Request::Stats);
        rt_req(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        rt_resp(Response::Scores(vec![1.0, -0.0, f64::MAX]));
        rt_resp(Response::Train {
            objective: 0.25,
            nonzeros: 17,
            total_iters: 10_640,
        });
        rt_resp(Response::Path {
            objective: 3.5,
            nonzeros: 4,
            cached: true,
        });
        rt_resp(Response::Stats("{\"a\":1}".to_string()));
        rt_resp(Response::Error("no — résumé ünsupported".to_string()));
    }

    #[test]
    fn truncated_payloads_are_protocol_errors() {
        let mut f = Request::Score {
            rows: vec![(vec![0, 1], vec![1.0, 2.0])],
        }
        .to_frame(0);
        f.bytes.truncate(f.bytes.len() - 8);
        assert!(Request::from_frame(&f).is_err());
        // trailing garbage is rejected too
        let mut f = Request::Stats.to_frame(0);
        f.bytes.extend_from_slice(&[0u8; 8]);
        assert!(Request::from_frame(&f).is_err());
    }

    #[test]
    fn wire_counts_beyond_the_payload_are_refused_before_allocating() {
        let words = |v: &[u64]| v.iter().map(|&x| f64::from_bits(x)).collect::<Vec<f64>>();
        // One row claiming 2^40 entries (8 TiB of index words), a row
        // count of 2^62, and a length whose doubling overflows u64.
        for payload in [
            words(&[1, 1 << 40]),
            words(&[1 << 62, 0]),
            words(&[1, u64::MAX, 0]),
        ] {
            let f = Frame::data(0, TAG_SCORE, 0, &payload);
            assert!(Request::from_frame(&f).is_err());
        }
        let scores = Frame::data(0, TAG_SCORE | RESP_BIT, 0, &words(&[1 << 40, 0]));
        assert!(Response::from_frame(&scores).is_err());
        for len in [1u64 << 40, u64::MAX] {
            let err = Frame::data(0, TAG_ERROR, 0, &words(&[len, 0]));
            assert!(Response::from_frame(&err).is_err());
        }
    }
}
