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

use netcomm::frame::{Frame, FrameKind};
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

#[inline]
fn w(u: u64) -> f64 {
    f64::from_bits(u)
}

#[inline]
fn u(v: f64) -> u64 {
    v.to_bits()
}

fn push_str(words: &mut Vec<f64>, s: &str) {
    let bytes = s.as_bytes();
    words.push(w(bytes.len() as u64));
    for chunk in bytes.chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words.push(f64::from_le_bytes(b));
    }
}

fn pop_str(words: &[f64], at: &mut usize) -> Result<String, NetError> {
    let len = take(words, at)?;
    let nwords = room(words, *at, len.div_ceil(8), 1)?;
    let cap = nwords
        .checked_mul(8)
        .ok_or_else(|| NetError::Protocol(format!("string length {len} overflows")))?;
    let mut bytes = Vec::with_capacity(cap);
    for _ in 0..nwords {
        bytes.extend_from_slice(&next(words, at)?.to_le_bytes());
    }
    bytes.truncate(len as usize);
    String::from_utf8(bytes)
        .map_err(|_| NetError::Protocol("string payload is not UTF-8".to_string()))
}

fn next(words: &[f64], at: &mut usize) -> Result<f64, NetError> {
    let v = words
        .get(*at)
        .copied()
        .ok_or_else(|| NetError::Protocol("truncated serve payload".to_string()))?;
    *at += 1;
    Ok(v)
}

fn take(words: &[f64], at: &mut usize) -> Result<u64, NetError> {
    next(words, at).map(u)
}

/// A count read off the wire that announces `count` items of `per` words
/// each, still to come after word `at`: refused unless the payload holds
/// them, so no allocation is ever sized by a claim the bytes cannot back.
fn room(words: &[f64], at: usize, count: u64, per: u64) -> Result<usize, NetError> {
    let left = (words.len() - at) as u64;
    match count.checked_mul(per) {
        Some(need) if need <= left => Ok(count as usize),
        _ => Err(NetError::Protocol(format!(
            "count {count} overruns the {left} payload words left"
        ))),
    }
}

/// [`take`] a count of `per`-word items and bound it by [`room`].
fn take_count(words: &[f64], at: &mut usize, per: u64) -> Result<usize, NetError> {
    let count = take(words, at)?;
    room(words, *at, count, per)
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

    /// Encode as a data frame with sequence number `seq`.
    pub fn to_frame(&self, seq: u64) -> Frame {
        let mut words = Vec::new();
        match self {
            Request::Score { rows } => {
                words.reserve(1 + rows.iter().map(|(idx, _)| 1 + 2 * idx.len()).sum::<usize>());
                words.push(w(rows.len() as u64));
                for (idx, val) in rows {
                    assert_eq!(idx.len(), val.len(), "row indices/values mismatch");
                    words.push(w(idx.len() as u64));
                    words.extend(idx.iter().map(|&i| w(i as u64)));
                    words.extend_from_slice(val);
                }
            }
            Request::TrainDelta { lambda, iters } | Request::PathPoint { lambda, iters } => {
                words.push(*lambda);
                words.push(w(*iters));
            }
            Request::Stats | Request::Shutdown => {}
        }
        Frame::data(0, self.tag(), seq, &words)
    }

    /// Decode a request frame.
    pub fn from_frame(f: &Frame) -> Result<Request, NetError> {
        if f.kind != FrameKind::Data {
            return Err(NetError::Protocol(format!(
                "expected a Data request frame, got {:?}",
                f.kind
            )));
        }
        let words = f.payload_f64()?;
        let at = &mut 0usize;
        let req = match f.tag {
            TAG_SCORE => {
                // Each row is at least its length word; each entry is an
                // index word and a value word.
                let k = take_count(&words, at, 1)?;
                let mut rows = Vec::with_capacity(k);
                for _ in 0..k {
                    let len = take_count(&words, at, 2)?;
                    let (idx, val) = words[*at..*at + 2 * len].split_at(len);
                    *at += 2 * len;
                    rows.push((idx.iter().map(|&i| u(i) as usize).collect(), val.to_vec()));
                }
                Request::Score { rows }
            }
            TAG_TRAIN_DELTA | TAG_PATH_POINT => {
                let lambda = next(&words, at)?;
                let iters = take(&words, at)?;
                if f.tag == TAG_TRAIN_DELTA {
                    Request::TrainDelta { lambda, iters }
                } else {
                    Request::PathPoint { lambda, iters }
                }
            }
            TAG_STATS => Request::Stats,
            TAG_SHUTDOWN => Request::Shutdown,
            t => {
                return Err(NetError::Protocol(format!("unknown request tag {t:#x}")));
            }
        };
        if *at != words.len() {
            return Err(NetError::Protocol(format!(
                "trailing words in request tag {:#x}",
                f.tag
            )));
        }
        Ok(req)
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

    /// Encode as a data frame with sequence number `seq`.
    pub fn to_frame(&self, seq: u64) -> Frame {
        let mut words = Vec::new();
        match self {
            Response::Scores(preds) => {
                words.push(w(preds.len() as u64));
                words.extend_from_slice(preds);
            }
            Response::Train {
                objective,
                nonzeros,
                total_iters,
            } => {
                words.push(*objective);
                words.push(w(*nonzeros));
                words.push(w(*total_iters));
            }
            Response::Path {
                objective,
                nonzeros,
                cached,
            } => {
                words.push(*objective);
                words.push(w(*nonzeros));
                words.push(w(u64::from(*cached)));
            }
            Response::Stats(json) => push_str(&mut words, json),
            Response::Error(msg) => push_str(&mut words, msg),
        }
        Frame::data(0, self.tag(), seq, &words)
    }

    /// Decode a response frame.
    pub fn from_frame(f: &Frame) -> Result<Response, NetError> {
        if f.kind != FrameKind::Data {
            return Err(NetError::Protocol(format!(
                "expected a Data response frame, got {:?}",
                f.kind
            )));
        }
        let words = f.payload_f64()?;
        let at = &mut 0usize;
        let resp = match f.tag {
            t if t == TAG_SCORE | RESP_BIT => {
                let k = take_count(&words, at, 1)?;
                let mut preds = Vec::with_capacity(k);
                for _ in 0..k {
                    preds.push(next(&words, at)?);
                }
                Response::Scores(preds)
            }
            t if t == TAG_TRAIN_DELTA | RESP_BIT => Response::Train {
                objective: next(&words, at)?,
                nonzeros: take(&words, at)?,
                total_iters: take(&words, at)?,
            },
            t if t == TAG_PATH_POINT | RESP_BIT => Response::Path {
                objective: next(&words, at)?,
                nonzeros: take(&words, at)?,
                cached: take(&words, at)? != 0,
            },
            t if t == TAG_STATS | RESP_BIT => Response::Stats(pop_str(&words, at)?),
            TAG_ERROR => Response::Error(pop_str(&words, at)?),
            t => {
                return Err(NetError::Protocol(format!("unknown response tag {t:#x}")));
            }
        };
        if *at != words.len() {
            return Err(NetError::Protocol(format!(
                "trailing words in response tag {:#x}",
                f.tag
            )));
        }
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
        let words = |v: &[u64]| v.iter().map(|&x| w(x)).collect::<Vec<f64>>();
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
