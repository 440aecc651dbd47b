//! The socket mesh as an engine: the measured counterpart of [`crate::dist`].
//!
//! Same layouts, same recurrences, same rank-data splits as the
//! thread-machine runs — [`LassoRankData`] 1D-row partitions for
//! Lasso, [`SvmRankData`] 1D-column partitions for SVM and K-DCD — but the
//! fused allreduce crosses actual TCP/Unix-socket links between OS
//! processes (`saco launch`) or thread-ranks (`Engine::Net`, over
//! `netcomm::cluster`). The mesh's tree allreduce
//! reproduces `mpisim`'s combine order bit for bit, so for identical
//! partitioned inputs a net run returns **bitwise** the iterates of its
//! `Engine::Dist` twin — including which K-DCD blocks skip the collective
//! (all-hit kernel caches are replicated, so every rank skips the same
//! rounds and the mesh never deadlocks); what changes is that time, bytes
//! and overlap are measured off the wire instead of charged to a model
//! (`tests/engine_matrix.rs` pins the first claim, the `net_fig4` bench
//! reports the second).
//!
//! Telemetry: [`record_net_stats`] turns a mesh's counters into the
//! `net.*` namespace documented in OBSERVABILITY.md.

use crate::config::LassoConfig;
use crate::prox::Regularizer;
use crate::run::{run_rank, Method, RankComm, RankData};
use crate::trace::SolveResult;
use saco_telemetry::{Phase, Registry};

pub use crate::dist::{LassoRankData, SvmRankData};
pub use netcomm::{Addr, Backoff, NetComm, NetConfig};

/// SA-accBCD over the socket mesh (Algorithm 2; `cfg.s = 1` is classical
/// accBCD) on a communicator the caller established: [`run_rank`] for the
/// accelerated Lasso method. Panics (fail-stop) if the mesh fails
/// mid-solve.
pub fn net_sa_accbcd<R: Regularizer>(
    comm: &mut NetComm,
    data: &LassoRankData,
    reg: &R,
    cfg: &LassoConfig,
) -> SolveResult {
    let method = Method::Lasso {
        reg,
        cfg,
        accel: true,
    };
    run_rank(&method, RankComm::Net(comm), RankData::Lasso(data))
        .expect("row blocks are the Lasso layout")
        .0
}

/// Record a mesh's wire counters into `registry` under the `net.*`
/// namespace (see OBSERVABILITY.md), attributing measured comm/wait wall
/// time to this rank's phase table. Call once, after the solve.
pub fn record_net_stats(registry: &mut Registry, comm: &NetComm, wall_secs: f64) {
    let s = comm.stats();
    registry.counter_add("net.bytes_tx", s.bytes_tx);
    registry.counter_add("net.bytes_rx", s.bytes_rx);
    registry.counter_add("net.frames_tx", s.frames_tx);
    registry.counter_add("net.frames_rx", s.frames_rx);
    registry.counter_add("net.collectives", s.collectives);
    registry.counter_add("net.retries", s.retries);
    registry.counter_add("net.reconnects", s.reconnects);
    registry.counter_add("net.reordered", s.reordered);
    registry.gauge_set("net.comm.wall_secs", s.comm_secs);
    registry.gauge_set("net.wait.wall_secs", s.wait_secs);
    registry.set_meta("net.rank", comm.rank());
    registry.set_meta("net.size", comm.size());
    registry.set_meta("net.rendezvous", comm.rendezvous());
    // Phase attribution for the run report: visible comm is what the
    // solver waited; everything else on this rank is computation.
    let rank = comm.rank();
    let bytes = s.bytes_tx + s.bytes_rx;
    registry.record_phase(rank, Phase::Comm, s.wait_secs, bytes / 8, 0);
    registry.record_phase(rank, Phase::Comp, (wall_secs - s.wait_secs).max(0.0), 0, 0);
}

#[cfg(test)]
mod tests {
    use crate::prox::Lasso;
    use crate::run::{run, Engine, Method, RunSpec, Source};
    use crate::LassoConfig;
    use sparsela::io::Dataset;

    fn problem(seed: u64) -> Dataset {
        let a = datagen::uniform_sparse(100, 50, 0.15, seed);
        datagen::planted_regression(a, 5, 0.05, seed).dataset
    }

    fn solve(ds: &Dataset, s: usize, p: usize) -> crate::run::RunOutcome {
        let cfg = LassoConfig {
            mu: 4,
            s,
            lambda: 0.05,
            seed: 11,
            max_iters: 64,
            trace_every: 16,
            rel_tol: None,
            ..Default::default()
        };
        let (reg, cfg, accel) = (&Lasso::new(cfg.lambda), &cfg, true);
        let method = Method::Lasso { reg, cfg, accel };
        let engine = Engine::Net { p, balanced: false };
        run(&RunSpec::new(method, engine, Source::InMemory(ds))).expect("net run")
    }

    /// Smoke: four socket ranks solve and agree bitwise; the full engine
    /// matrix (vs seq/sim/dist) lives in `tests/engine_matrix.rs`.
    #[test]
    fn four_socket_ranks_agree_bitwise() {
        let out = solve(&problem(1), 8, 4);
        for r in &out.results[1..] {
            assert_eq!(r.x, out.results[0].x, "replicated iterates must agree");
        }
        assert!(out.result().final_value() < out.result().trace.initial_value());
    }

    #[test]
    fn net_stats_land_in_registry() {
        let out = solve(&problem(2), 4, 2);
        let r = &out.telemetry;
        // Counters sum over the two ranks; both must have sent.
        assert!(r.counter("net.bytes_tx") > 0);
        assert_eq!(r.counter("net.reconnects"), 0);
        assert!(r.counter("net.collectives") > 0);
        assert!(r.gauge("net.comm.wall_secs").expect("gauge") > 0.0);
        assert_eq!(r.meta().get("net.size").map(String::as_str), Some("2"));
        assert_eq!(r.meta().get("net.rank").map(String::as_str), Some("all"));
        assert_eq!(r.rank_tables().len(), 2, "one phase table per rank");
    }
}
