//! The serve codec against its wire format, on random messages.
//!
//! * **Wire identity.** For every `Request` and `Response` kind, the
//!   one-pass `encode_into` writes exactly the bytes of
//!   `to_frame(seq).encode_into`, and both equal the word-by-word
//!   reference below: the payload built as a list of `f64` words and
//!   framed by `Frame::data`, which is how the format is defined.
//! * **Decoder equivalence.** `Request::decode_over` into a held request
//!   returns what `Request::from_frame` returns (the same request bit for
//!   bit, or an error with the same message) on valid, truncated,
//!   unaligned, count-overrunning and trailing-word payloads. The held
//!   request last decoded a score with more and longer rows, or another
//!   kind, so a stale row or value would show.

use netcomm::frame::{Frame, FrameKind};
use netcomm::NetError;
use proptest::prelude::*;
use saco::serve::{Request, Response, MAX_REQUEST_ITERS};
use xrng::Rng;

/// The reference payload: one `f64` per wire word, integers as
/// `f64::from_bits`, a string as its byte length and then its bytes in
/// zero-padded 8-byte words.
fn str_words(words: &mut Vec<f64>, s: &str) {
    words.push(f64::from_bits(s.len() as u64));
    for chunk in s.as_bytes().chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        words.push(f64::from_le_bytes(b));
    }
}

fn reference_request(req: &Request, seq: u64) -> Vec<u8> {
    let bits = |u: u64| f64::from_bits(u);
    let mut words = Vec::new();
    match req {
        Request::Score { rows } => {
            words.push(bits(rows.len() as u64));
            for (idx, val) in rows {
                words.push(bits(idx.len() as u64));
                words.extend(idx.iter().map(|&i| bits(i as u64)));
                words.extend_from_slice(val);
            }
        }
        Request::TrainDelta { lambda, iters } | Request::PathPoint { lambda, iters } => {
            words.push(*lambda);
            words.push(bits(*iters));
        }
        Request::Stats | Request::Shutdown => {}
    }
    let mut out = Vec::new();
    Frame::data(0, req.tag(), seq, &words).encode_into(&mut out);
    out
}

fn reference_response(resp: &Response, seq: u64) -> Vec<u8> {
    let bits = |u: u64| f64::from_bits(u);
    let mut words = Vec::new();
    match resp {
        Response::Scores(preds) => {
            words.push(bits(preds.len() as u64));
            words.extend_from_slice(preds);
        }
        Response::Train {
            objective,
            nonzeros,
            total_iters,
        } => words.extend([*objective, bits(*nonzeros), bits(*total_iters)]),
        Response::Path {
            objective,
            nonzeros,
            cached,
        } => words.extend([*objective, bits(*nonzeros), bits(u64::from(*cached))]),
        Response::Stats(s) | Response::Error(s) => str_words(&mut words, s),
    }
    let mut out = Vec::new();
    Frame::data(0, resp.tag(), seq, &words).encode_into(&mut out);
    out
}

/// Any bit pattern, NaN payloads and signed zeros included.
fn any_f64(rng: &mut Rng) -> f64 {
    f64::from_bits(rng.next_u64())
}

/// Small and huge values alike.
fn any_u64(rng: &mut Rng) -> u64 {
    let shift = rng.next_below(64) as u32;
    rng.next_u64() >> shift
}

fn any_str(rng: &mut Rng) -> String {
    const CHARS: [char; 6] = ['a', 'Z', '{', 'é', '—', '🦀'];
    (0..rng.next_below(24))
        .map(|_| CHARS[rng.next_index(CHARS.len())])
        .collect()
}

fn score(rng: &mut Rng, rows: std::ops::Range<u64>, len: std::ops::Range<u64>) -> Request {
    let k = rows.start + rng.next_below(rows.end - rows.start);
    Request::Score {
        rows: (0..k)
            .map(|_| {
                let n = len.start + rng.next_below(len.end - len.start);
                let idx = (0..n).map(|_| any_u64(rng) as usize).collect();
                let val = (0..n).map(|_| any_f64(rng)).collect();
                (idx, val)
            })
            .collect(),
    }
}

fn any_request(rng: &mut Rng) -> Request {
    let iters = if rng.next_bool(0.5) {
        rng.next_below(MAX_REQUEST_ITERS + 1)
    } else {
        any_u64(rng)
    };
    match rng.next_below(5) {
        0 => score(rng, 0..6, 0..9),
        1 => Request::TrainDelta {
            lambda: any_f64(rng),
            iters,
        },
        2 => Request::PathPoint {
            lambda: any_f64(rng),
            iters,
        },
        3 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn any_response(rng: &mut Rng) -> Response {
    match rng.next_below(5) {
        0 => Response::Scores((0..rng.next_below(40)).map(|_| any_f64(rng)).collect()),
        1 => Response::Train {
            objective: any_f64(rng),
            nonzeros: any_u64(rng),
            total_iters: any_u64(rng),
        },
        2 => Response::Path {
            objective: any_f64(rng),
            nonzeros: any_u64(rng),
            cached: rng.next_bool(0.5),
        },
        3 => Response::Stats(any_str(rng)),
        _ => Response::Error(any_str(rng)),
    }
}

/// A request's identity on the wire: its tag and payload bytes, so NaN
/// payloads and signed zeros compare by bits.
fn wire_of(req: &Request) -> (u32, Vec<u8>) {
    (req.tag(), req.to_frame(0).bytes)
}

fn outcome(r: Result<Request, NetError>) -> Result<(u32, Vec<u8>), String> {
    r.map(|req| wire_of(&req)).map_err(|e| e.to_string())
}

/// `f` damaged in one of the ways a payload can be wrong, or left whole.
fn damage(rng: &mut Rng, mut f: Frame) -> Frame {
    let len = f.bytes.len();
    match rng.next_below(7) {
        // Truncated, aligned or not.
        0 if len > 0 => f.bytes.truncate(rng.next_index(len)),
        // Unaligned by 1–7 extra bytes.
        1 => f.bytes.extend((0..1 + rng.next_below(7)).map(|b| b as u8)),
        // A word overwritten by a count far beyond the payload.
        2 if len >= 8 => {
            let w = 8 * rng.next_index(len / 8);
            let huge = u64::MAX >> rng.next_below(24);
            f.bytes[w..w + 8].copy_from_slice(&huge.to_le_bytes());
        }
        // A trailing word.
        3 => f.bytes.extend_from_slice(&any_u64(rng).to_le_bytes()),
        // A tag no request has, or a frame that is not data.
        4 => f.tag = rng.next_below(8) as u32,
        5 => f.kind = FrameKind::Hello,
        _ => {}
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_encoding_writes_the_reference_bytes(seed in any::<u64>(), seq in any::<u64>()) {
        let mut rng = xrng::rng_from_seed(seed);
        let req = any_request(&mut rng);
        let reference = reference_request(&req, seq);
        let mut framed = Vec::new();
        req.to_frame(seq).encode_into(&mut framed);
        prop_assert_eq!(&framed, &reference, "{:?}: to_frame", req.tag());
        // Appended after whatever the buffer already holds.
        let mut wire = vec![0xAB; rng.next_index(9)];
        let held = wire.len();
        req.encode_into(seq, &mut wire);
        prop_assert_eq!(&wire[held..], &reference[..], "{:?}: encode_into", req.tag());

        let resp = any_response(&mut rng);
        let reference = reference_response(&resp, seq);
        let mut framed = Vec::new();
        resp.to_frame(seq).encode_into(&mut framed);
        prop_assert_eq!(&framed, &reference, "{:?}: to_frame", resp.tag());
        let mut wire = Vec::new();
        resp.encode_into(seq, &mut wire);
        prop_assert_eq!(&wire, &reference, "{:?}: encode_into", resp.tag());
        // And the decoder reads the reference back to the same bytes.
        let back = Response::from_frame(&resp.to_frame(seq)).expect("a valid response");
        let mut again = Vec::new();
        back.encode_into(seq, &mut again);
        prop_assert_eq!(&again, &reference);
    }

    #[test]
    fn decoding_over_a_held_request_equals_a_fresh_decode(seed in any::<u64>()) {
        let mut rng = xrng::rng_from_seed(seed);
        // What the held request last decoded: a score with more and longer
        // rows than any target, or another kind.
        let before = match rng.next_below(4) {
            0 => Request::TrainDelta {
                lambda: any_f64(&mut rng),
                iters: rng.next_below(MAX_REQUEST_ITERS + 1),
            },
            _ => score(&mut rng, 6..10, 9..16),
        };
        let mut held = Request::Stats;
        held.decode_over(&before.to_frame(0)).expect("a valid request");
        prop_assert_eq!(wire_of(&held), wire_of(&before));

        let target = any_request(&mut rng);
        let f = damage(&mut rng, target.to_frame(1));
        let fresh = outcome(Request::from_frame(&f));
        let reused = outcome(held.decode_over(&f).map(|()| held.clone()));
        prop_assert_eq!(&reused, &fresh, "tag {:#x}, {} bytes", f.tag, f.bytes.len());
        if f == target.to_frame(1) {
            let valid = !matches!(
                target,
                Request::TrainDelta { iters, .. } | Request::PathPoint { iters, .. }
                    if iters > MAX_REQUEST_ITERS
            );
            prop_assert_eq!(fresh.is_ok(), valid);
            if valid {
                prop_assert_eq!(fresh, Ok(wire_of(&target)));
            }
        }
    }
}

#[test]
fn a_held_score_request_keeps_its_row_buffers() {
    let mut rng = xrng::rng_from_seed(7);
    let big = score(&mut rng, 8..9, 12..13);
    let small = score(&mut rng, 4..5, 3..4);
    let mut held = Request::Stats;
    held.decode_over(&big.to_frame(0)).expect("big");
    let ptrs = |r: &Request| match r {
        Request::Score { rows } => rows
            .iter()
            .map(|(i, v)| (i.as_ptr() as usize, v.as_ptr() as usize))
            .collect::<Vec<_>>(),
        _ => unreachable!(),
    };
    let first = ptrs(&held);
    held.decode_over(&small.to_frame(1)).expect("small");
    assert_eq!(wire_of(&held), wire_of(&small));
    assert_eq!(
        ptrs(&held),
        first[..4],
        "the first rows' buffers are reused"
    );
}
