//! Crate-level tests of the real socket mesh: frame fuzz, allreduce vs
//! serial references (bitwise), timeout and retry behaviour, overlap,
//! and what running collectives on the caller's thread changes — one
//! collective in flight, eager sends that block, peers lost mid-run, no
//! helper thread.

use netcomm::cluster::run_local;
use netcomm::frame::Frame;
use netcomm::mesh::{NetComm, NetConfig};
use netcomm::{Addr, Backoff, Listener, NetError, PendingReduce};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The exact combine order of the binomial-tree allreduce, replicated
/// serially: at distance d, rank r (r % 2d == 0) adds rank r+d's partial
/// AFTER its own — what the wire implementation must reproduce bit for
/// bit, and so the reference its bitwise claims are stated against.
fn tree_reference(partials: &[Vec<f64>]) -> Vec<f64> {
    let size = partials.len();
    let mut vals: Vec<Vec<f64>> = partials.to_vec();
    let mut d = 1;
    while d < size {
        let mut r = 0;
        while r + d < size {
            let (lo, hi) = vals.split_at_mut(r + d);
            for (x, y) in lo[r].iter_mut().zip(hi[0].iter()) {
                *x += *y;
            }
            r += 2 * d;
        }
        d *= 2;
    }
    vals[0].clone()
}

/// The fused SA payload width for a block of sb columns: packed upper
/// triangle + cross terms (one vector) + the traced residual scalar.
fn sympack_words(sb: usize) -> usize {
    sb * (sb + 1) / 2 + sb + 1
}

proptest! {
    /// Any bit pattern survives encode → wire → decode unchanged,
    /// including NaN payloads and signed zeros.
    #[test]
    fn frame_roundtrip_is_lossless(
        bits in proptest::collection::vec(any::<u64>(), 0..200),
        rank in any::<u16>(),
        tag in any::<u32>(),
        seq in any::<u64>(),
    ) {
        let payload: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let f = Frame::data(rank, tag, seq, &payload);
        let mut wire = Vec::new();
        f.encode_into(&mut wire);
        let g = Frame::read_from(&mut wire.as_slice()).expect("io").expect("protocol");
        prop_assert_eq!(&g, &f);
        let back = g.payload_f64().expect("aligned");
        prop_assert_eq!(back.len(), payload.len());
        for (a, b) in back.iter().zip(&payload) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// Integer-valued partials sum exactly, so *any* association must equal
/// the plain serial sum bitwise — for every fused payload width the SA
/// solvers produce (sb ∈ 1..=64), P up to 4.
#[test]
fn allreduce_matches_serial_reduction_bitwise_for_all_block_sizes() {
    for &p in &[1usize, 2, 3, 4] {
        let outs = run_local(p, |rank, comm| {
            let mut got = Vec::new();
            for sb in 1..=64usize {
                let n = sympack_words(sb);
                let mine: Vec<f64> = (0..n)
                    .map(|i| (((rank + 1) * (i + 3)) % 97) as f64)
                    .collect();
                got.push(comm.allreduce_sum(mine).expect("reduce"));
            }
            got
        });
        for sb in 1..=64usize {
            let n = sympack_words(sb);
            let serial: Vec<f64> = (0..n)
                .map(|i| (0..p).map(|r| (((r + 1) * (i + 3)) % 97) as f64).sum())
                .collect();
            for (rank, per_rank) in outs.iter().enumerate() {
                let got = &per_rank[sb - 1];
                assert_eq!(
                    got, &serial,
                    "p={p} sb={sb} rank={rank}: wire sum diverged from serial"
                );
            }
        }
    }
}

/// With non-exact values the association is observable; the wire tree
/// must match the serial binomial-tree reference bit for bit at every
/// rank count, and every rank must hold identical bits.
#[test]
fn tree_allreduce_reproduces_mpisim_association_bitwise() {
    let n = 33;
    for &p in &[1usize, 2, 3, 4, 5, 8] {
        let partials: Vec<Vec<f64>> = (0..p)
            .map(|r| {
                (0..n)
                    .map(|i| 0.1 * (r as f64 + 1.0) + i as f64 * 0.3)
                    .collect()
            })
            .collect();
        let expect = tree_reference(&partials);
        let outs = run_local(p, |rank, comm| {
            comm.allreduce_sum(partials[rank].clone()).expect("reduce")
        });
        for (rank, got) in outs.iter().enumerate() {
            assert_eq!(got.len(), expect.len());
            for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    e.to_bits(),
                    "p={p} rank={rank} word {i}: {g:e} vs reference {e:e}"
                );
            }
        }
    }
}

/// The nonblocking form returns the same bits as the blocking form, and
/// the mesh stays in step across a mix of both.
#[test]
fn overlapped_allreduce_matches_blocking() {
    let outs = run_local(4, |rank, comm| {
        let mine: Vec<f64> = (0..40).map(|i| 0.7 * (rank * 40 + i) as f64).collect();
        let blocking = comm.allreduce_sum(mine.clone()).expect("blocking");
        let pending = comm.iallreduce_start(mine).expect("start");
        // "Compute" while the leaves' partials sit in the socket buffers.
        let busy: f64 = (0..1000).map(|i| (i as f64).sqrt()).sum();
        assert!(busy > 0.0);
        let overlapped = comm.iallreduce_wait(pending).expect("wait");
        comm.barrier().expect("still in step");
        (blocking, overlapped)
    });
    for (rank, (blocking, overlapped)) in outs.iter().enumerate() {
        assert_eq!(
            blocking, overlapped,
            "rank {rank}: overlap changed the bits"
        );
    }
}

/// A missing rendezvous exhausts the backoff schedule and returns a typed
/// error — quickly, and without hanging.
#[test]
fn absent_rendezvous_fails_typed_not_hung() {
    let dir = std::env::temp_dir().join(format!("saco-net-absent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let t0 = Instant::now();
    let mut cfg = NetConfig::unix(1, 2, &dir);
    cfg.connect = Backoff::new(Duration::from_millis(2), Duration::from_millis(10), 5);
    cfg.io_timeout = Duration::from_millis(200);
    let err = match NetComm::establish(cfg) {
        Err(e) => e,
        Ok(_) => panic!("established a mesh against nothing"),
    };
    assert!(matches!(err, NetError::ConnectFailed { .. }), "{err}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "connect failure took {:?}",
        t0.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A peer that accepts the connection and then goes silent trips the I/O
/// timeout: the handshake returns `Timeout`, it does not block forever.
#[test]
fn silent_peer_times_out_instead_of_hanging() {
    let dir = std::env::temp_dir().join(format!("saco-net-silent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let rendezvous = Addr::Unix(dir.join("rendezvous.sock"));
    let listener = Listener::bind(&rendezvous).expect("bind");
    let sink = std::thread::spawn(move || {
        // Accept, read the Hello, answer nothing, hold the socket open.
        let mut s = listener
            .accept_deadline(Instant::now() + Duration::from_secs(20))
            .expect("accept");
        let _ = Frame::read_from(&mut s);
        std::thread::sleep(Duration::from_secs(2));
    });
    let mut cfg = NetConfig::unix(1, 2, &dir);
    cfg.io_timeout = Duration::from_millis(150);
    let t0 = Instant::now();
    let err = match NetComm::establish(cfg) {
        Err(e) => e,
        Ok(_) => panic!("handshake succeeded against a silent peer"),
    };
    assert!(matches!(err, NetError::Timeout { .. }), "{err}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "handshake hung for {:?}",
        t0.elapsed()
    );
    sink.join().expect("sink thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ranks that start before the rendezvous exists retry on the backoff
/// schedule and still form the mesh (`retries > 0`, `reconnects == 0`).
#[test]
fn late_rendezvous_is_absorbed_by_connect_retry() {
    let dir = std::env::temp_dir().join(format!("saco-net-late-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let dir0 = dir.clone();
    let rank0 = std::thread::spawn(move || {
        // Bind the rendezvous well after rank 1 starts dialing.
        std::thread::sleep(Duration::from_millis(120));
        let mut c = NetComm::establish(NetConfig::unix(0, 2, &dir0)).expect("rank 0");
        let out = c.allreduce_scalar(1.0).expect("reduce");
        (out, c.stats())
    });
    let mut cfg = NetConfig::unix(1, 2, &dir);
    cfg.connect = Backoff::new(Duration::from_millis(5), Duration::from_millis(50), 30);
    let mut c = NetComm::establish(cfg).expect("rank 1 outwaits the late bind");
    let out = c.allreduce_scalar(2.0).expect("reduce");
    let s1 = c.stats();
    let (out0, s0) = rank0.join().expect("rank 0 thread");
    assert_eq!(out, 3.0);
    assert_eq!(out0, 3.0);
    assert!(
        s1.retries > 0,
        "rank 1 must have retried the rendezvous connect"
    );
    assert_eq!(
        s0.reconnects + s1.reconnects,
        0,
        "retries are not reconnects"
    );
    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The TCP transport works end to end over loopback too (the launch path
/// uses it when `--rendezvous tcp:…` is given).
#[test]
fn tcp_loopback_mesh_reduces() {
    // Bind an ephemeral port first so the test never collides.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
    let port = probe.local_addr().expect("addr").port();
    drop(probe);
    let hp = format!("127.0.0.1:{port}");
    let cfgs: Vec<NetConfig> = (0..2).map(|r| NetConfig::tcp(r, 2, &hp)).collect();
    let outs = saco_par::scoped_map(cfgs, |rank, cfg| {
        let mut c = NetComm::establish(cfg).unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        let out = c.allreduce_sum(vec![rank as f64 + 1.0]).expect("reduce");
        (out, c.stats())
    });
    for (out, stats) in &outs {
        assert_eq!(out, &vec![3.0]);
        assert_eq!(stats.reconnects, 0);
        assert!(stats.bytes_tx > 0);
    }
}

/// `comm_secs` is the time inside collective code (start + wait),
/// `wait_secs` the wait part of it.
#[test]
fn stats_account_comm_and_wait_time() {
    let snaps = run_local(2, |rank, comm| {
        for _ in 0..8 {
            let _ = comm.allreduce_sum(vec![rank as f64; 512]).expect("reduce");
        }
        comm.stats()
    });
    for (rank, s) in snaps.iter().enumerate() {
        // establish barrier + 8 reduces.
        assert_eq!(s.collectives, 9, "rank {rank}");
        assert!(s.comm_secs > 0.0, "rank {rank}: no wire time recorded");
        assert!(s.wait_secs > 0.0, "rank {rank}: no wait time recorded");
        assert_eq!(s.frames_tx, s.frames_rx, "symmetric 2-rank traffic");
    }
}

/// Unused `PendingReduce` values are flagged by the compiler; redeeming
/// one from a single-rank mesh is the identity.
#[test]
fn single_rank_pending_reduce_is_identity() {
    let mut c =
        NetComm::establish(NetConfig::unix(0, 1, std::path::Path::new("/tmp/none"))).expect("p=1");
    let pending = c.iallreduce_start(vec![9.0, -9.0]).expect("start");
    assert!(matches!(pending, PendingReduce::Immediate(_)));
    assert_eq!(c.iallreduce_wait(pending).expect("wait"), vec![9.0, -9.0]);
}

/// A P-rank Unix-socket mesh on threads this test owns. Each rank holds
/// its `NetComm` by value, so it can drop it mid-run, and the I/O timeout
/// is the caller's, so a lost peer is noticed in test time.
fn owned_mesh<R: Send>(
    name: &str,
    p: usize,
    io_timeout: Duration,
    f: impl Fn(usize, NetComm) -> R + Sync,
) -> Vec<R> {
    let dir = std::env::temp_dir().join(format!("saco-net-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let outs = std::thread::scope(|sc| {
        let ranks: Vec<_> = (0..p)
            .map(|rank| {
                let mut cfg = NetConfig::unix(rank, p, &dir);
                cfg.io_timeout = io_timeout;
                let f = &f;
                sc.spawn(move || {
                    let comm = NetComm::establish(cfg)
                        .unwrap_or_else(|e| panic!("rank {rank}: failed to join mesh: {e}"));
                    f(rank, comm)
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    outs
}

/// Collectives run inline, so a second one started before the first is
/// waited for would interleave tags on the wire. It is refused with
/// nothing sent, and the pending one still redeems.
#[test]
fn second_collective_while_one_is_pending_is_refused_unsent() {
    let partials: Vec<Vec<f64>> = (0..4)
        .map(|r| (0..7).map(|i| 0.3 * r as f64 + 0.1 * i as f64).collect())
        .collect();
    let expect = tree_reference(&partials);
    let outs = run_local(4, |rank, comm| {
        let pending = comm
            .iallreduce_start(partials[rank].clone())
            .expect("start");
        let sent = comm.stats().frames_tx;
        assert!(matches!(
            comm.iallreduce_start(vec![1.0]),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            comm.allreduce_sum(vec![1.0]),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(comm.barrier(), Err(NetError::Protocol(_))));
        assert_eq!(
            comm.stats().frames_tx,
            sent,
            "rank {rank}: a refused collective reached the wire"
        );
        let out = comm.iallreduce_wait(pending).expect("wait");
        comm.barrier().expect("still in step");
        out
    });
    for (rank, got) in outs.iter().enumerate() {
        assert_eq!(got, &expect, "rank {rank}");
    }
}

/// A payload the socket buffer cannot hold: a tree leaf's eager send at
/// `start` blocks until its parent reads (800 KB per frame). start →
/// compute → wait must still equal the blocking result bitwise, well
/// inside the harness's 10 s I/O timeout.
#[test]
fn overlapped_allreduce_survives_payloads_larger_than_the_socket_buffer() {
    let words = 100_000usize;
    let t0 = Instant::now();
    let outs = run_local(4, |rank, comm| {
        let mine: Vec<f64> = (0..words)
            .map(|i| 0.7 * (rank + 1) as f64 + 1e-3 * i as f64)
            .collect();
        let blocking = comm.allreduce_sum(mine.clone()).expect("blocking");
        let pending = comm.iallreduce_start(mine).expect("start");
        let busy: f64 = (0..100_000).map(|i| (i as f64).sqrt()).sum();
        assert!(busy > 0.0);
        let overlapped = comm.iallreduce_wait(pending).expect("wait");
        comm.barrier().expect("still in step");
        (blocking, overlapped)
    });
    for (rank, (blocking, overlapped)) in outs.iter().enumerate() {
        assert_eq!(blocking.len(), words);
        assert!(
            blocking
                .iter()
                .zip(overlapped)
                .all(|(b, o)| b.to_bits() == o.to_bits()),
            "rank {rank}: overlap changed the bits"
        );
        assert!(
            blocking
                .iter()
                .zip(&outs[0].0)
                .all(|(b, o)| b.to_bits() == o.to_bits()),
            "rank {rank}: ranks disagree"
        );
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "{words}-word collectives took {:?}",
        t0.elapsed()
    );
}

/// A peer lost *after* the mesh formed — its `NetComm` dropped, or alive
/// but no longer calling collectives — is a typed error naming it on the
/// survivor, on the blocking and on the start/wait form, from either end
/// of the link, within two I/O timeouts. Nothing waits forever.
#[test]
fn peer_lost_after_establish_is_a_typed_error_naming_it() {
    const HEALTHY: usize = 3;
    let io_timeout = Duration::from_millis(300);
    for survivor in [0usize, 1] {
        for nonblocking in [false, true] {
            for dropped in [true, false] {
                let lost = 1 - survivor;
                // The survivor moves only once the peer is gone (or has
                // decided to stall); the staller holds its links open
                // until the survivor has its answer.
                let (gone, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
                let outs = owned_mesh("lost", 2, io_timeout, |rank, mut comm| {
                    for k in 0..HEALTHY {
                        let sum = comm.allreduce_scalar((rank + k) as f64).expect("healthy");
                        assert_eq!(sum, (2 * k + 1) as f64);
                    }
                    if rank == lost {
                        if dropped {
                            drop(comm);
                            gone.wait();
                            done.wait();
                        } else {
                            gone.wait();
                            done.wait();
                            drop(comm);
                        }
                        return None;
                    }
                    gone.wait();
                    let t0 = Instant::now();
                    let res = if nonblocking {
                        comm.iallreduce_start(vec![1.0; 5])
                            .and_then(|p| comm.iallreduce_wait(p))
                    } else {
                        comm.allreduce_sum(vec![1.0; 5])
                    };
                    let took = t0.elapsed();
                    done.wait();
                    Some((res.expect_err("the peer is gone"), took))
                });
                let (err, took) = outs[survivor].as_ref().expect("survivor reports");
                let case = format!(
                    "survivor {survivor}, {}, peer {}",
                    if nonblocking {
                        "start/wait"
                    } else {
                        "blocking"
                    },
                    if dropped { "dropped" } else { "stalled" }
                );
                if dropped {
                    assert!(
                        matches!(err, NetError::Closed { peer: Some(r) } if *r == lost),
                        "{case}: {err}"
                    );
                } else {
                    assert!(
                        matches!(err, NetError::Timeout { peer: Some(r), .. } if *r == lost),
                        "{case}: {err}"
                    );
                }
                assert!(*took < 2 * io_timeout, "{case}: took {took:?}");
            }
        }
    }
}

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// `establish` and a thousand allreduces start no thread: with both ranks
/// alive the process has exactly the two rank threads this test spawned
/// more than before. Other tests of this binary start and stop threads
/// of their own meanwhile, so a reading can be off in either direction;
/// a helper thread per rank would be a surplus of two in *every* round.
#[test]
fn collectives_start_no_thread() {
    let mut surplus = Vec::new();
    for _ in 0..10 {
        let before = process_threads();
        let hold = std::sync::Barrier::new(2);
        let during = owned_mesh("threads", 2, Duration::from_secs(10), |rank, mut comm| {
            for _ in 0..1000 {
                comm.allreduce_scalar(rank as f64).expect("reduce");
            }
            let n = process_threads();
            hold.wait(); // both ranks (and their meshes) alive at both readings
            n
        });
        let extra = during.iter().map(|&n| n as i64 - before as i64 - 2);
        surplus.push(extra.min().expect("two ranks"));
        if surplus.last() == Some(&0) {
            return;
        }
    }
    panic!("threads beyond the two rank threads, per round: {surplus:?}");
}
