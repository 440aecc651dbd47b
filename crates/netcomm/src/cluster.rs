//! In-process mesh harness: P thread-ranks over real loopback sockets.
//!
//! `saco launch` runs ranks as OS processes; this harness runs them as
//! threads in one process, but over exactly the same socket transport,
//! frames and collectives — so the engine matrix and the netcomm tests
//! exercise the real wire path without process spawning. Determinism is
//! inherited from the mesh: each thread-rank owns its `NetComm`, and the
//! tree association is fixed regardless of OS scheduling.

use crate::mesh::{NetComm, NetConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A fresh per-mesh socket directory: pid + a process-wide counter keeps
/// concurrent tests in one binary from colliding.
fn mesh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("saco-mesh-{}-{n}", std::process::id()))
}

/// Run `f(rank, comm)` on `p` concurrent thread-ranks joined into one
/// Unix-socket mesh; returns the rank-indexed results. Panics (fail-stop,
/// with the rank in the message) if any rank cannot join the mesh — a
/// harness for tests and `--engine net`, not a supervisor.
pub fn run_local<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut NetComm) -> R + Sync,
{
    assert!(p >= 1, "a mesh needs at least one rank");
    let dir = mesh_dir();
    std::fs::create_dir_all(&dir).expect("create mesh socket dir");
    // One thread per rank, never pooled: ranks block on each other.
    let (dir, f) = (&dir, &f);
    let out = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..p)
            .map(|rank| {
                scope.spawn(move || {
                    let mut cfg = NetConfig::unix(rank, p, dir);
                    // Loopback between live threads: anything slower than
                    // this is a real bug, so fail fast instead of the 30 s
                    // default.
                    cfg.io_timeout = Duration::from_secs(10);
                    let mut comm = NetComm::establish(cfg)
                        .unwrap_or_else(|e| panic!("rank {rank}: failed to join mesh: {e}"));
                    let r = f(rank, &mut comm);
                    comm.shutdown();
                    r
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let _ = std::fs::remove_dir_all(dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_thread_ranks_form_a_mesh_and_reduce() {
        let sums = run_local(4, |rank, comm| {
            comm.allreduce_sum(vec![rank as f64, 1.0]).expect("reduce")
        });
        for s in &sums {
            assert_eq!(s, &vec![0.0 + 1.0 + 2.0 + 3.0, 4.0]);
        }
    }

    /// At P = 3 the tree's top swap is 0 ↔ 2, not 0 ↔ 1: rank 0 touches
    /// two tree edges, ranks 1 and 2 one each, and each edge carries one
    /// frame each way per collective.
    #[test]
    fn clean_meshes_report_zero_reconnects() {
        let snaps = run_local(3, |rank, comm| {
            let before = comm.stats();
            let _ = comm.allreduce_scalar(rank as f64).expect("reduce");
            comm.barrier().expect("barrier");
            (before, comm.stats())
        });
        let edges = [2, 1, 1];
        for (rank, (before, s)) in snaps.iter().enumerate() {
            assert_eq!(s.reconnects, 0, "rank {rank} reconnected on loopback");
            // establish's barrier + scalar + barrier.
            assert_eq!(s.collectives, 3, "rank {rank}");
            // A 1-word and an empty frame per edge.
            let header = crate::frame::HEADER_LEN as u64;
            assert_eq!(
                s.frames_tx - before.frames_tx,
                2 * edges[rank],
                "rank {rank}"
            );
            assert_eq!(
                s.frames_rx - before.frames_rx,
                2 * edges[rank],
                "rank {rank}"
            );
            assert_eq!(
                s.bytes_tx - before.bytes_tx,
                (2 * header + 8) * edges[rank],
                "rank {rank}"
            );
        }
    }
}
