//! `netcomm` — a real socket message layer for the SA solvers.
//!
//! Every other engine in the workspace *models* communication; this crate
//! moves the fused `sympack` payloads between actual OS processes (or
//! threads) over TCP or Unix-domain stream sockets, so the paper's
//! synchronization-avoidance claim can be measured as wall-clock time
//! rather than α-β-γ arithmetic.
//!
//! Built from `std` only (the container has no network crates), in layers:
//!
//! * [`frame`] — length-prefixed, sequence-numbered frames; `f64` payloads
//!   travel as `to_bits` little-endian words, so the wire is lossless down
//!   to NaN payload bits.
//! * [`transport`] — one [`transport::Stream`]/[`transport::Listener`]
//!   abstraction over `TcpStream` and `UnixStream`, with connect retry on
//!   a capped-exponential [`backoff::Backoff`] schedule and configurable
//!   send/recv timeouts that surface as typed [`NetError`]s — a dead peer
//!   produces an `Err`, never a hang.
//! * [`ordered`] — per-peer ordered delivery: every frame on a link is
//!   stamped with a sequence number and a frame out of sequence is a
//!   protocol error (stream sockets already guarantee order; the check
//!   turns any violation — a bug, a proxy — into a typed error instead of
//!   silent corruption, and buffers nothing).
//! * [`mesh`] — rendezvous (rank 0 collects every rank's listener address
//!   and broadcasts the table), full-mesh link formation, and the one
//!   deterministic allreduce: a binomial tree with one fixed combine
//!   order, whose two subtree roots swap partials at the top (so the net engine is bitwise reproducible at any rank count,
//!   and bitwise equal to the serial `tree_reference` of
//!   `tests/collectives.rs`).
//!   Collectives run on the calling thread: the nonblocking allreduce
//!   does at `start` what needs no peer (the send of a reduce-leaf, or
//!   of a root of the top swap with nothing to receive first) and the
//!   rest at `wait`, so what a solver's
//!   overlap window hides is the time its partial spends in the socket
//!   buffer and its peers spend getting to their own `wait`.
//! * [`cluster`] — an in-process harness running P thread-ranks over real
//!   loopback sockets, for tests and `saco simulate --engine net`.
//!
//! The crate knows nothing about solvers or matrices: its entire
//! vocabulary is frames, links and `Vec<f64>` reductions (enforced by
//! `scripts/shim_guard.sh`).

#![warn(missing_docs)]

pub mod backoff;
pub mod cluster;
pub mod frame;
pub mod mesh;
pub mod ordered;
pub mod transport;

pub use backoff::Backoff;
pub use mesh::{NetComm, NetConfig, PendingReduce};
pub use transport::{Addr, Listener, Stream};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Every way the message layer can fail, as data — callers decide whether
/// to retry, abort the rank, or surface the error to the user. Nothing in
/// this crate blocks forever: operations bounded by a timeout return
/// [`NetError::Timeout`] instead.
#[derive(Debug)]
pub enum NetError {
    /// An OS-level I/O failure on a link (connection reset, broken pipe…).
    Io {
        /// Peer rank, when the link is already identified.
        peer: Option<usize>,
        /// What the layer was doing ("send frame", "accept", …).
        during: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An operation exceeded its configured deadline.
    Timeout {
        /// Peer rank, when known.
        peer: Option<usize>,
        /// What timed out.
        during: &'static str,
        /// How long the layer waited before giving up.
        waited: Duration,
    },
    /// Connect retries exhausted the backoff schedule.
    ConnectFailed {
        /// The address that never answered.
        addr: String,
        /// Attempts made (= the schedule length).
        attempts: u32,
        /// The last OS error observed.
        last: String,
    },
    /// The peer spoke, but not the protocol (bad magic, wrong tag,
    /// duplicate sequence number, size mismatch…).
    Protocol(String),
    /// The peer closed the link mid-conversation.
    Closed {
        /// Peer rank, when known.
        peer: Option<usize>,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn peer_label(p: &Option<usize>) -> String {
            p.map_or_else(|| "unknown peer".into(), |r| format!("rank {r}"))
        }
        match self {
            NetError::Io {
                peer,
                during,
                source,
            } => write!(
                f,
                "i/o error during {during} ({}): {source}",
                peer_label(peer)
            ),
            NetError::Timeout {
                peer,
                during,
                waited,
            } => write!(
                f,
                "timed out during {during} ({}) after {:.3}s",
                peer_label(peer),
                waited.as_secs_f64()
            ),
            NetError::ConnectFailed {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "connect to {addr} failed after {attempts} attempts: {last}"
            ),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Closed { peer } => write!(f, "link closed by {}", peer_label(&peer.clone())),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl NetError {
    /// Classify an `io::Error` from a timed read/write: `WouldBlock` and
    /// `TimedOut` (the two kinds `set_read_timeout` produces, depending
    /// on platform) become [`NetError::Timeout`], EOF-ish kinds become
    /// [`NetError::Closed`], everything else stays [`NetError::Io`].
    pub fn from_io(
        e: std::io::Error,
        peer: Option<usize>,
        during: &'static str,
        waited: Duration,
    ) -> NetError {
        use std::io::ErrorKind::*;
        match e.kind() {
            WouldBlock | TimedOut => NetError::Timeout {
                peer,
                during,
                waited,
            },
            UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe => {
                NetError::Closed { peer }
            }
            _ => NetError::Io {
                peer,
                during,
                source: e,
            },
        }
    }
}

/// Wire/activity counters shared by every link of a [`NetComm`] (plain
/// atomics: a handshake helper or a telemetry reader may hold the `Arc`
/// on another thread). Snapshot with [`NetStats::snapshot`].
#[derive(Debug, Default)]
pub struct NetStats {
    /// Payload + header bytes written to sockets.
    pub bytes_tx: AtomicU64,
    /// Payload + header bytes read from sockets.
    pub bytes_rx: AtomicU64,
    /// Frames sent.
    pub frames_tx: AtomicU64,
    /// Frames received.
    pub frames_rx: AtomicU64,
    /// Connect attempts that failed and were retried on the backoff
    /// schedule.
    pub retries: AtomicU64,
    /// Links that had to be re-established after a handshake-time drop.
    /// Always 0 on a clean network — CI fails the smoke run otherwise.
    pub reconnects: AtomicU64,
    /// Collectives completed (allreduces + barriers).
    pub collectives: AtomicU64,
    /// Wall nanoseconds this rank's thread spent inside collective code:
    /// the start part (tag, eager send) plus the wait part.
    pub comm_nanos: AtomicU64,
    /// The wait part of `comm_nanos`: running a collective to completion
    /// once the solver has nothing left to overlap with it — receives,
    /// combines, the remaining sends, and all the blocking in between.
    pub wait_nanos: AtomicU64,
}

impl NetStats {
    fn get(a: &AtomicU64) -> u64 {
        a.load(Ordering::Relaxed)
    }

    /// Add wall time to a nanosecond counter.
    pub(crate) fn add_nanos(a: &AtomicU64, d: Duration) {
        a.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A plain-value copy of the counters at this instant.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_tx: Self::get(&self.bytes_tx),
            bytes_rx: Self::get(&self.bytes_rx),
            frames_tx: Self::get(&self.frames_tx),
            frames_rx: Self::get(&self.frames_rx),
            retries: Self::get(&self.retries),
            reconnects: Self::get(&self.reconnects),
            collectives: Self::get(&self.collectives),
            comm_secs: Self::get(&self.comm_nanos) as f64 * 1e-9,
            wait_secs: Self::get(&self.wait_nanos) as f64 * 1e-9,
            reordered: 0,
        }
    }
}

/// Plain-value view of [`NetStats`] — what telemetry reports consume.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Bytes written to sockets (headers + payloads).
    pub bytes_tx: u64,
    /// Bytes read from sockets.
    pub bytes_rx: u64,
    /// Frames sent.
    pub frames_tx: u64,
    /// Frames received.
    pub frames_rx: u64,
    /// Connect attempts retried on the backoff schedule.
    pub retries: u64,
    /// Handshake-time link re-establishments (0 on a clean network).
    pub reconnects: u64,
    /// Collectives completed.
    pub collectives: u64,
    /// Wall seconds this rank's thread spent inside collective code
    /// (start + wait).
    pub comm_secs: f64,
    /// The wait part of `comm_secs`.
    pub wait_secs: f64,
    /// Always 0: a frame out of sequence is a protocol error, never
    /// buffered. Kept so the `net.reordered` key and the struct's shape
    /// stay as consumers know them.
    pub reordered: u64,
}
