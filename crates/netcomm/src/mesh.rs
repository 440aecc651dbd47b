//! Rendezvous, mesh formation and deterministic collectives.
//!
//! Formation protocol (rank 0 is the rendezvous point):
//!
//! 1. every rank > 0 binds its own listener, connects to the rendezvous
//!    address on the [`Backoff`] retry schedule, and sends
//!    `Hello{rank, listener address}`; that connection *is* its link to
//!    rank 0,
//! 2. rank 0 accepts P−1 Hellos, then answers each with the complete
//!    rank-indexed `AddrTable`,
//! 3. rank r connects to the listeners of ranks 1..r and accepts from
//!    ranks r+1..P (each identified by a `Hello`), completing the
//!    pairwise mesh,
//! 4. an initial barrier crosses every tree edge, so a half-formed mesh
//!    fails loudly at startup instead of deadlocking mid-solve.
//!
//! The allreduce is a binomial tree with one fixed combine order —
//! receive the partner's partial and add it **after** the local one,
//! reducing toward rank 0, then broadcast down the mirror tree.
//! Floating-point addition is not associative, so fixing the association
//! is what makes a net run bitwise reproducible at every rank count (and
//! bitwise a serial replay of the same tree, `tests/collectives.rs`'s
//! `tree_reference`). It is the only allreduce.
//!
//! At the top of the tree the two subtree roots, rank 0 and rank
//! h = `P.next_power_of_two() / 2`, *swap* partials instead of sending
//! one up and the total back down: each sends its subtree's partial as
//! soon as it is complete, then receives the other's, and each adds the
//! two in the same operand order, rank 0's partial first, so both hold
//! the reference total bit for bit. Each then broadcasts down its own
//! half. Every rank sends exactly the frames and bytes of the plain tree,
//! and the critical path is `2⌈log₂P⌉ − 1` message hops instead of
//! `2⌈log₂P⌉` — one at P = 2.
//!
//! On every other tree edge one side sends while the other receives. The
//! swap is the one place where both ends of a link write before either
//! reads, so it is taken only for frames that fit one `READ_CHUNK` read
//! (`HEADER_LEN + 8w ≤ 64 KiB`, `w` the payload's words); a larger frame keeps the plain top edge, and both roots know
//! `w`, so they agree. The swap rests on the kernel buffering one such
//! frame per direction with no reader: AF_UNIX's default send buffer
//! (`net.core.wmem_default`, 208 KiB on the reference host) and TCP's
//! default receive buffer (`tcp_rmem`, 128 KiB) both exceed it. Under
//! that assumption no payload size can block both ends of a link in
//! `send`.
//!
//! Collectives run on the thread that calls them — no thread is spawned
//! and nothing is handed off. [`NetComm::iallreduce_start`] runs the tree
//! up to its first receive, which for a reduce-leaf means writing its
//! partial to its parent and for a swapping root with no children (both
//! ranks at P = 2) writing its partial to the other root;
//! [`NetComm::iallreduce_wait`] runs the rest. A blocking allreduce is
//! start-then-wait over the same code. What overlaps with the solver's
//! next block is therefore the kernel's socket buffer and the peers' own
//! progress, not a local helper: a leaf's data is already at its parent
//! when the parent reaches `wait`, while an interior rank makes no
//! progress between `start` and `wait`. One collective is in flight per
//! rank at a time; starting a second is a protocol error.

use crate::backoff::Backoff;
use crate::frame::{Frame, FrameKind, HEADER_LEN, READ_CHUNK};
use crate::ordered::OrderedLink;
use crate::transport::{self, Addr, Listener, Stream};
use crate::{NetError, NetStats, StatsSnapshot};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a rank needs to join a mesh.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// This process's rank in `0..size`.
    pub rank: usize,
    /// Total rank count P.
    pub size: usize,
    /// Rank 0's listener address; every other rank connects here first.
    pub rendezvous: Addr,
    /// Bound on any single socket read/write and on handshake accepts.
    pub io_timeout: Duration,
    /// Connect retry schedule (covers ranks racing the rendezvous bind).
    pub connect: Backoff,
}

impl NetConfig {
    /// A Unix-domain mesh rooted in `dir` (rendezvous at
    /// `dir/rendezvous.sock`, rank listeners beside it).
    pub fn unix(rank: usize, size: usize, dir: &Path) -> NetConfig {
        NetConfig {
            rank,
            size,
            rendezvous: Addr::Unix(dir.join("rendezvous.sock")),
            io_timeout: Duration::from_secs(30),
            connect: Backoff::default(),
        }
    }

    /// A TCP mesh with the rendezvous at `host_port` (rank listeners bind
    /// ephemeral ports on the same host).
    pub fn tcp(rank: usize, size: usize, host_port: &str) -> NetConfig {
        NetConfig {
            rank,
            size,
            rendezvous: Addr::Tcp(host_port.to_string()),
            io_timeout: Duration::from_secs(30),
            connect: Backoff::default(),
        }
    }

    /// The address this rank's own mesh listener binds: a sibling socket
    /// file for Unix, an ephemeral port on the rendezvous host for TCP.
    fn listener_addr(&self) -> Addr {
        match &self.rendezvous {
            Addr::Unix(p) => Addr::Unix(p.with_file_name(format!("rank{}.sock", self.rank))),
            Addr::Tcp(hp) => {
                let host = hp.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
                Addr::Tcp(format!("{host}:0"))
            }
        }
    }
}

/// The per-rank links plus the tree allreduce that runs over them.
struct Links {
    rank: usize,
    size: usize,
    /// Indexed by peer rank: the mesh is full, only `links[rank]` is
    /// `None` — until [`Links::close`] drops them all.
    links: Vec<Option<OrderedLink>>,
    next_tag: u32,
    stats: Arc<NetStats>,
}

/// Where an allreduce stands between start and wait: the tree resumes at
/// reduce distance `at`, and `swapped` records that this rank's partial
/// has already crossed the top exchange and only the peer's is awaited.
#[derive(Debug)]
struct Progress {
    tag: u32,
    at: usize,
    swapped: bool,
}

impl Links {
    fn link(&mut self, peer: usize) -> Result<&mut OrderedLink, NetError> {
        self.links
            .get_mut(peer)
            .and_then(Option::as_mut)
            .ok_or(NetError::Closed { peer: Some(peer) })
    }

    /// Take the next collective tag and run the tree as far as it goes
    /// without waiting on a peer, timed into `stats.comm_nanos`.
    fn start(&mut self, buf: &mut [f64]) -> Result<Progress, NetError> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        let t0 = Instant::now();
        let from = Progress {
            tag,
            at: 1,
            swapped: false,
        };
        let progress = self.tree_allreduce(from, buf, false);
        NetStats::add_nanos(&self.stats.comm_nanos, t0.elapsed());
        progress
    }

    /// Run a started collective to completion, timed into both
    /// `stats.comm_nanos` and `stats.wait_nanos`.
    fn finish(&mut self, p: Progress, buf: &mut [f64]) -> Result<(), NetError> {
        let t0 = Instant::now();
        let out = self.tree_allreduce(p, buf, true).map(drop);
        let spent = t0.elapsed();
        NetStats::add_nanos(&self.stats.comm_nanos, spent);
        NetStats::add_nanos(&self.stats.wait_nanos, spent);
        out
    }

    /// Binomial-tree reduce + broadcast in one fixed combine order: at
    /// distance d the receiving rank (`rank % 2d == 0`) adds its
    /// partner's partial **after** its own.
    ///
    /// At the top distance `h` (half of P rounded up to a power of two)
    /// ranks 0 and h *swap* their subtrees' partials when the frame fits
    /// one `READ_CHUNK` read: each sends, then receives, and rank h
    /// adds the other way round (`v + b`), so both roots evaluate rank
    /// 0's partial plus rank h's, operand for operand. Each then
    /// broadcasts down its own half of the mirror tree. A larger frame
    /// keeps the plain top edge: h sends up, 0 broadcasts back down.
    ///
    /// Resumable at a receive: entered at `from`, and with `may_wait`
    /// false it returns where it stopped instead of receiving. A rank
    /// with nothing to receive before its send (every odd rank, and a
    /// swapping root without children) has then already sent; resuming
    /// from the returned progress with `may_wait` true runs the rest.
    fn tree_allreduce(
        &mut self,
        from: Progress,
        buf: &mut [f64],
        may_wait: bool,
    ) -> Result<Progress, NetError> {
        let (rank, size, tag) = (self.rank, self.size, from.tag);
        let half = size.next_power_of_two() / 2;
        let swap = HEADER_LEN + 8 * buf.len() <= READ_CHUNK;
        let mut swapped = from.swapped;
        // Reduce toward rank 0 (and, swapping, toward rank h too).
        let mut d = from.at;
        while d < size {
            if swap && d == half && (rank == 0 || rank == half) {
                let peer = rank ^ half;
                if !swapped {
                    self.link(peer)?.send_f64(tag, buf)?;
                    swapped = true;
                }
                if !may_wait {
                    return Ok(Progress {
                        tag,
                        at: d,
                        swapped,
                    });
                }
                let link = self.link(peer)?;
                if rank == 0 {
                    link.recv_f64_with(tag, buf, |b, v| *b += v)?;
                } else {
                    // Rank 0's partial stays the left operand.
                    #[allow(clippy::assign_op_pattern)]
                    link.recv_f64_with(tag, buf, |b, v| *b = v + *b)?;
                }
                d = size;
                break;
            }
            if rank % (2 * d) == d {
                self.link(rank - d)?.send_f64(tag, buf)?;
                d = size; // this rank's partial has been absorbed upstream
                break;
            }
            if rank % (2 * d) == 0 && rank + d < size {
                if !may_wait {
                    return Ok(Progress {
                        tag,
                        at: d,
                        swapped,
                    });
                }
                self.link(rank + d)?
                    .recv_f64_with(tag, buf, |b, v| *b += v)?;
            }
            d *= 2;
        }
        if !may_wait {
            return Ok(Progress {
                tag,
                at: d,
                swapped,
            });
        }
        // Broadcast the total down the mirror tree; a swapping root
        // already holds it and sends down its own half only.
        if rank != 0 && !swapped {
            let parent = rank & (rank - 1);
            self.link(parent)?.recv_f64_with(tag, buf, |b, v| *b = v)?;
        }
        let lowest = match rank {
            0 if swapped => half,
            0 => 2 * half,
            _ => rank & rank.wrapping_neg(),
        };
        let mut down = lowest / 2;
        while down >= 1 {
            if rank + down < size {
                self.link(rank + down)?.send_f64(tag, buf)?;
            }
            down /= 2;
        }
        Ok(Progress {
            tag,
            at: d,
            swapped,
        })
    }

    /// Bye every link and drop it; a collective after this is `Closed`.
    fn close(&mut self) {
        for l in self.links.iter_mut().flatten() {
            l.close();
        }
        self.links.clear();
    }
}

/// A nonblocking allreduce in flight; redeem with
/// [`NetComm::iallreduce_wait`].
#[must_use = "an unredeemed allreduce leaves the mesh out of step"]
pub enum PendingReduce {
    /// Single-rank fast path: the reduction of one partial is itself.
    Immediate(Vec<f64>),
    /// Started on the wire; `wait` runs the remaining steps.
    Inflight(InflightReduce),
}

/// The partial being reduced and how far its collective has got.
pub struct InflightReduce {
    buf: Vec<f64>,
    progress: Progress,
}

/// A rank's connection to the mesh: the public API of this crate.
///
/// Collectives run in program order on the calling thread, one in flight
/// at a time, so every rank must call them in the same order — the same
/// contract as MPI communicators and `mpisim`'s virtual cluster.
pub struct NetComm {
    rendezvous: Addr,
    mesh: Links,
    /// A started collective has not been waited for yet. A second one
    /// would interleave its tag with the first's on the wire.
    in_flight: bool,
}

impl NetComm {
    /// Join the mesh described by `cfg`: bind, rendezvous, form all P−1
    /// links and run the initial barrier. Single-rank meshes open no
    /// sockets at all.
    pub fn establish(cfg: NetConfig) -> Result<NetComm, NetError> {
        if cfg.size == 0 || cfg.rank >= cfg.size {
            return Err(NetError::Protocol(format!(
                "rank {} outside mesh of size {}",
                cfg.rank, cfg.size
            )));
        }
        if cfg.size > u16::MAX as usize {
            return Err(NetError::Protocol(format!(
                "mesh size {} exceeds the u16 rank field",
                cfg.size
            )));
        }
        let stats = Arc::new(NetStats::default());
        let links = if cfg.size == 1 {
            vec![None]
        } else {
            form_mesh(&cfg, &stats)?
        };
        let mut comm = NetComm {
            rendezvous: cfg.rendezvous,
            mesh: Links {
                rank: cfg.rank,
                size: cfg.size,
                links,
                next_tag: 1, // tag 0 is reserved for the handshake frames
                stats,
            },
            in_flight: false,
        };
        if cfg.size > 1 {
            // A half-formed mesh must fail at startup, not deadlock later.
            comm.barrier()?;
        }
        Ok(comm)
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.mesh.rank
    }

    /// Mesh size P.
    pub fn size(&self) -> usize {
        self.mesh.size
    }

    /// The rendezvous address (recorded in run-report headers).
    pub fn rendezvous(&self) -> String {
        self.rendezvous.to_string()
    }

    /// Counters at this instant.
    pub fn stats(&self) -> StatsSnapshot {
        self.mesh.stats.snapshot()
    }

    /// Start a nonblocking sum-allreduce of `buf` across all ranks: the
    /// steps that need no peer run now (a reduce-leaf's partial is on the
    /// wire when this returns), the rest in [`NetComm::iallreduce_wait`].
    /// Errors, with nothing written, while another collective is pending.
    pub fn iallreduce_start(&mut self, mut buf: Vec<f64>) -> Result<PendingReduce, NetError> {
        if self.in_flight {
            return Err(NetError::Protocol(
                "a collective is already in flight on this rank: wait for it first".into(),
            ));
        }
        let pending = if self.mesh.size == 1 {
            PendingReduce::Immediate(buf)
        } else {
            let progress = self.mesh.start(&mut buf)?;
            PendingReduce::Inflight(InflightReduce { buf, progress })
        };
        self.in_flight = true;
        Ok(pending)
    }

    /// Run a pending allreduce to completion and return the total. The
    /// time spent here is the *visible* communication cost, counted in
    /// `stats.wait_nanos` (and, like the start, in `stats.comm_nanos`).
    pub fn iallreduce_wait(&mut self, pending: PendingReduce) -> Result<Vec<f64>, NetError> {
        self.in_flight = false;
        self.mesh.stats.collectives.fetch_add(1, Ordering::Relaxed);
        match pending {
            PendingReduce::Immediate(v) => Ok(v),
            PendingReduce::Inflight(InflightReduce { mut buf, progress }) => {
                self.mesh.finish(progress, &mut buf).map(|()| buf)
            }
        }
    }

    /// Blocking sum-allreduce: start, then wait.
    pub fn allreduce_sum(&mut self, buf: Vec<f64>) -> Result<Vec<f64>, NetError> {
        let p = self.iallreduce_start(buf)?;
        self.iallreduce_wait(p)
    }

    /// Sum one scalar across ranks (a 1-word allreduce, so the association
    /// matches `mpisim`'s scalar reductions too).
    pub fn allreduce_scalar(&mut self, x: f64) -> Result<f64, NetError> {
        Ok(self.allreduce_sum(vec![x])?[0])
    }

    /// Synchronize all ranks: an allreduce of an empty payload, which
    /// crosses exactly the tree edges and does no arithmetic.
    pub fn barrier(&mut self) -> Result<(), NetError> {
        self.allreduce_sum(Vec::new()).map(drop)
    }

    /// Orderly teardown: Bye every link. Also runs on drop; calling it
    /// twice is a no-op.
    pub fn shutdown(&mut self) {
        self.mesh.close();
    }
}

impl Drop for NetComm {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Mesh formation.
// ---------------------------------------------------------------------

/// Raw (pre-ordering) handshake send: the frame layer directly, counted.
fn send_raw(s: &mut Stream, f: &Frame, stats: &NetStats) -> Result<(), NetError> {
    let t0 = Instant::now();
    f.write_to(s)
        .map_err(|e| NetError::from_io(e, None, "handshake send", t0.elapsed()))?;
    stats
        .bytes_tx
        .fetch_add(f.wire_len() as u64, Ordering::Relaxed);
    stats.frames_tx.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Raw handshake receive.
fn recv_raw(s: &mut Stream, stats: &NetStats) -> Result<Frame, NetError> {
    let t0 = Instant::now();
    let f = Frame::read_from(s)
        .map_err(|e| NetError::from_io(e, None, "handshake recv", t0.elapsed()))??;
    stats
        .bytes_rx
        .fetch_add(f.wire_len() as u64, Ordering::Relaxed);
    stats.frames_rx.fetch_add(1, Ordering::Relaxed);
    Ok(f)
}

fn hello(rank: usize, addr: &str) -> Frame {
    Frame {
        kind: FrameKind::Hello,
        rank: rank as u16,
        tag: 0,
        seq: 0,
        bytes: addr.as_bytes().to_vec(),
    }
}

fn form_mesh(cfg: &NetConfig, stats: &Arc<NetStats>) -> Result<Vec<Option<OrderedLink>>, NetError> {
    let deadline = Instant::now() + cfg.connect.total_wait() + cfg.io_timeout;
    let mut slots: Vec<Option<OrderedLink>> = (0..cfg.size).map(|_| None).collect();
    if cfg.rank == 0 {
        let listener = Listener::bind(&cfg.rendezvous)?;
        let mut streams: Vec<Option<Stream>> = (0..cfg.size).map(|_| None).collect();
        let mut addrs: Vec<String> = vec![cfg.rendezvous.to_string(); cfg.size];
        let mut joined = 0;
        while joined < cfg.size - 1 {
            let mut s = listener.accept_deadline(deadline)?;
            s.set_io_timeout(Some(cfg.io_timeout))
                .map_err(|e| NetError::Io {
                    peer: None,
                    during: "set socket timeout",
                    source: e,
                })?;
            // A connection that dies before identifying itself is the
            // one failure worth absorbing: count it and keep accepting.
            let h = match recv_raw(&mut s, stats) {
                Ok(h) => h,
                Err(NetError::Closed { .. }) => {
                    stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(e) => return Err(e),
            };
            if h.kind != FrameKind::Hello {
                return Err(NetError::Protocol(format!(
                    "expected Hello at rendezvous, got {:?}",
                    h.kind
                )));
            }
            let r = h.rank as usize;
            if r == 0 || r >= cfg.size || streams[r].is_some() {
                return Err(NetError::Protocol(format!(
                    "duplicate or out-of-range Hello from rank {r}"
                )));
            }
            addrs[r] = String::from_utf8_lossy(&h.bytes).into_owned();
            streams[r] = Some(s);
            joined += 1;
        }
        let table = Frame {
            kind: FrameKind::AddrTable,
            rank: 0,
            tag: 0,
            seq: 0,
            bytes: addrs.join("\n").into_bytes(),
        };
        for (r, slot) in streams.iter_mut().enumerate().skip(1) {
            let mut s = slot.take().expect("all ranks joined");
            send_raw(&mut s, &table, stats)?;
            slots[r] = Some(OrderedLink::new(s, 0, r, Arc::clone(stats)));
        }
    } else {
        let my_listener = Listener::bind(&cfg.listener_addr())?;
        let my_addr = my_listener.local_addr()?;
        // Rendezvous: connect, identify, learn the table. One silent drop
        // (rank 0 still binding its accept loop is absorbed by connect
        // retry; a post-connect drop is a reconnect) is retried.
        let mut attempt = 0;
        let table = loop {
            let mut s0 =
                transport::connect_retry(&cfg.rendezvous, &cfg.connect, cfg.io_timeout, stats)?;
            s0.set_io_timeout(Some(cfg.io_timeout))
                .map_err(|e| NetError::Io {
                    peer: Some(0),
                    during: "set socket timeout",
                    source: e,
                })?;
            let handshake = send_raw(&mut s0, &hello(cfg.rank, &my_addr.to_string()), stats)
                .and_then(|()| recv_raw(&mut s0, stats));
            match handshake {
                Ok(t) => {
                    slots[0] = Some(OrderedLink::new(s0, cfg.rank, 0, Arc::clone(stats)));
                    break t;
                }
                Err(NetError::Closed { .. }) if attempt == 0 => {
                    attempt += 1;
                    stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(e) => return Err(e),
            }
        };
        if table.kind != FrameKind::AddrTable {
            return Err(NetError::Protocol(format!(
                "expected AddrTable from rendezvous, got {:?}",
                table.kind
            )));
        }
        let addrs: Vec<Addr> = String::from_utf8_lossy(&table.bytes)
            .lines()
            .map(Addr::parse)
            .collect::<Result<_, _>>()?;
        if addrs.len() != cfg.size {
            return Err(NetError::Protocol(format!(
                "address table lists {} ranks, expected {}",
                addrs.len(),
                cfg.size
            )));
        }
        // Connect to every lower nonzero rank's listener…
        for (i, addr) in addrs.iter().enumerate().take(cfg.rank).skip(1) {
            let mut s = transport::connect_retry(addr, &cfg.connect, cfg.io_timeout, stats)?;
            s.set_io_timeout(Some(cfg.io_timeout))
                .map_err(|e| NetError::Io {
                    peer: Some(i),
                    during: "set socket timeout",
                    source: e,
                })?;
            send_raw(&mut s, &hello(cfg.rank, ""), stats)?;
            slots[i] = Some(OrderedLink::new(s, cfg.rank, i, Arc::clone(stats)));
        }
        // …and accept from every higher rank.
        let mut accepted = 0;
        while accepted < cfg.size - cfg.rank - 1 {
            let mut s = my_listener.accept_deadline(deadline)?;
            s.set_io_timeout(Some(cfg.io_timeout))
                .map_err(|e| NetError::Io {
                    peer: None,
                    during: "set socket timeout",
                    source: e,
                })?;
            let h = match recv_raw(&mut s, stats) {
                Ok(h) => h,
                Err(NetError::Closed { .. }) => {
                    stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let r = h.rank as usize;
            if h.kind != FrameKind::Hello || r <= cfg.rank || r >= cfg.size || slots[r].is_some() {
                return Err(NetError::Protocol(format!(
                    "unexpected mesh handshake from rank {r}"
                )));
            }
            slots[r] = Some(OrderedLink::new(s, cfg.rank, r, Arc::clone(stats)));
            accepted += 1;
        }
        // All higher ranks have connected; the listener (and its socket
        // file) can go.
        drop(my_listener);
    }
    Ok(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc::{Receiver, Sender};

    impl Links {
        /// One in-place blocking allreduce (sum) over all ranks.
        fn allreduce(&mut self, buf: &mut [f64]) -> Result<(), NetError> {
            let p = self.start(buf)?;
            self.finish(p, buf)
        }
    }

    /// A size-2 `Links` pair over two connected streams, bypassing
    /// rendezvous — lets the collectives be unit-tested without process
    /// spawning.
    fn links_over(a: Stream, b: Stream) -> (Links, Links) {
        for s in [&a, &b] {
            s.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
        }
        let rank = |rank: usize, s: Stream| {
            let stats = Arc::new(NetStats::default());
            let mut links = vec![None, None];
            links[1 - rank] = Some(OrderedLink::new(s, rank, 1 - rank, Arc::clone(&stats)));
            Links {
                rank,
                size: 2,
                links,
                next_tag: 1,
                stats,
            }
        };
        (rank(0, a), rank(1, b))
    }

    /// Over a Unix socketpair.
    fn pair() -> (Links, Links) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        links_over(Stream::Unix(a), Stream::Unix(b))
    }

    /// Over TCP loopback, Nagle off as on a real mesh link.
    fn tcp_pair() -> (Links, Links) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = std::net::TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (b, _) = listener.accept().expect("accept");
        for s in [&a, &b] {
            s.set_nodelay(true).expect("nodelay");
        }
        links_over(Stream::Tcp(a), Stream::Tcp(b))
    }

    fn run_pair(x0: Vec<f64>, x1: Vec<f64>) -> (Vec<f64>, Vec<f64>) {
        let (mut l0, mut l1) = pair();
        let t = std::thread::spawn(move || {
            let mut b = x1;
            l1.allreduce(&mut b).expect("rank 1");
            b
        });
        let mut a = x0;
        l0.allreduce(&mut a).expect("rank 0");
        (a, t.join().expect("rank 1 thread"))
    }

    #[test]
    fn two_rank_tree_sum_is_exact_and_symmetric() {
        let (a, b) = run_pair(vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]);
        assert_eq!(a, vec![11.0, 22.0, 33.0]);
        assert_eq!(a, b, "both ranks must hold bitwise the same total");
    }

    #[test]
    fn two_rank_tree_association_adds_partner_after_own() {
        // 0.1 + 0.2 ≠ 0.2 + 0.1 is false for addition of two values, but
        // the *order* matters once more terms appear; with two ranks the
        // check is that rank 0's value is the left operand.
        let (a, b) = run_pair(vec![0.1], vec![0.2]);
        assert_eq!(a[0].to_bits(), (0.1f64 + 0.2f64).to_bits());
        assert_eq!(a, b);
    }

    /// The widest payload the top swap takes: header and words fill one
    /// `READ_CHUNK` read exactly.
    const SWAP_WORDS: usize = (READ_CHUNK - HEADER_LEN) / 8;

    /// Both ranks `start` — each writes its whole frame — and only then
    /// does either `wait`: no write may need the peer to read first. A
    /// blocked write would hold its rank off the hand-over until the 5 s
    /// I/O timeout, so the run finishing quickly and exactly is the proof.
    /// Three rounds, so a round's frame can sit unread beside the next.
    fn both_start_before_either_waits(links: (Links, Links)) {
        let t0 = Instant::now();
        let (l0, l1) = links;
        let (tx0, rx1) = std::sync::mpsc::channel();
        let (tx1, rx0) = std::sync::mpsc::channel();
        // A rank that fails drops its sender, so its peer fails too.
        let run = |mut l: Links, started: Sender<()>, peer_started: Receiver<()>| {
            let mut outs = Vec::new();
            for round in 0..3 {
                let mut buf: Vec<f64> = (0..SWAP_WORDS)
                    .map(|i| 0.1 * (l.rank + 1) as f64 + 1e-3 * (i + round) as f64)
                    .collect();
                let p = l.start(&mut buf).expect("start");
                assert!(p.swapped, "rank {}: the top swap sends at start", l.rank);
                assert_eq!(l.stats.snapshot().frames_tx, round as u64 + 1);
                started.send(()).expect("peer alive");
                peer_started
                    .recv_timeout(Duration::from_secs(10))
                    .expect("peer started");
                l.finish(p, &mut buf).expect("wait");
                outs.push(buf);
            }
            outs
        };
        let (a, b) = std::thread::scope(|sc| {
            let h = sc.spawn(|| run(l1, tx1, rx1));
            (run(l0, tx0, rx0), h.join().expect("rank 1 thread"))
        });
        for (round, (a, b)) in a.iter().zip(&b).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                let expect = (0.1 + 1e-3 * (i + round) as f64) + (0.2 + 1e-3 * (i + round) as f64);
                assert_eq!(x.to_bits(), expect.to_bits(), "round {round} word {i}");
                assert_eq!(x.to_bits(), y.to_bits(), "round {round} word {i}");
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn widest_swap_completes_with_both_ranks_sending_first_over_unix() {
        both_start_before_either_waits(pair());
    }

    #[test]
    fn widest_swap_completes_with_both_ranks_sending_first_over_tcp() {
        both_start_before_either_waits(tcp_pair());
    }

    /// One word past the guard the top edge is the plain tree again: at
    /// `start` rank 1 sends up and rank 0 sends nothing; the broadcast
    /// then brings the frame counts level.
    #[test]
    fn frames_past_the_swap_guard_take_the_tree_edge() {
        for (words, swaps) in [(SWAP_WORDS, true), (SWAP_WORDS + 1, false)] {
            let (mut l0, mut l1) = pair();
            let t = std::thread::spawn(move || {
                let mut b = vec![2.0; words];
                let p = l1.start(&mut b).expect("rank 1 start");
                assert_eq!(p.swapped, swaps);
                assert_eq!(l1.stats.snapshot().frames_tx, 1);
                l1.finish(p, &mut b).expect("rank 1 wait");
                (b, l1.stats.snapshot())
            });
            let mut a = vec![1.0; words];
            let p = l0.start(&mut a).expect("rank 0 start");
            assert_eq!(p.swapped, swaps, "{words} words");
            assert_eq!(l0.stats.snapshot().frames_tx, u64::from(swaps));
            l0.finish(p, &mut a).expect("rank 0 wait");
            let (b, s1) = t.join().expect("rank 1 thread");
            let s0 = l0.stats.snapshot();
            assert_eq!(a, vec![3.0; words]);
            assert_eq!(a, b);
            for s in [s0, s1] {
                assert_eq!((s.frames_tx, s.frames_rx), (1, 1), "{words} words");
                assert_eq!(s.bytes_tx, (HEADER_LEN + 8 * words) as u64);
            }
        }
    }

    #[test]
    fn single_rank_comm_needs_no_sockets() {
        let mut c = NetComm::establish(NetConfig::unix(
            0,
            1,
            Path::new("/nonexistent-dir-never-touched"),
        ))
        .expect("size 1 opens nothing");
        let out = c.allreduce_sum(vec![4.0, 5.0]).expect("identity");
        assert_eq!(out, vec![4.0, 5.0]);
        assert_eq!(c.allreduce_scalar(7.0).expect("identity"), 7.0);
        c.barrier().expect("trivial");
        assert_eq!(c.stats().collectives, 3);
        assert_eq!(c.stats().bytes_tx, 0);
    }
}
