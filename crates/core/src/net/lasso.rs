//! The Lasso rank layout of the socket mesh.
//!
//! Layout (§IV-B / Fig. 1): `A` is 1D-row partitioned — each rank holds a
//! contiguous block of data points, stored CSC so that gathering sampled
//! *columns* is cheap. Vectors in the partitioned dimension (`ỹ`, `z̃`,
//! both in `R^m`) are partitioned conformally; vectors in `R^n` (`y`, `z`,
//! the iterate `x`) and all scalars are replicated. One fused nonblocking
//! allreduce per outer iteration carries the packed symmetric Gram
//! triangle, the cross products, and (at trace boundaries) the piggybacked
//! residual norm in a single contiguous buffer, and the next block's
//! sampling and local Gram formation execute while it is in flight (they
//! depend only on the replicated RNG stream and `A`, so the iterates are
//! bitwise those of the blocking seq schedule).
//!
//! The recurrence lives in `crate::exec::lasso_family`; [`crate::run`]
//! binds a rank's local row block to the mesh. Every rank returns the
//! same replicated result, up to the bit: the reduction is one fixed
//! tree.

use datagen::Partition;
use sparsela::io::Dataset;
use sparsela::CscMatrix;

/// One rank's share of a row-partitioned Lasso problem.
#[derive(Clone, Debug)]
pub struct LassoRankData {
    /// Local row block of `A` in CSC (all `n` columns, local rows).
    pub csc: CscMatrix,
    /// Local slice of the labels `b`.
    pub b: Vec<f64>,
}

impl LassoRankData {
    /// Split a dataset into `p` row blocks. `balanced` splits by nnz
    /// (fixing the stragglers of §VI); otherwise by row count.
    pub fn split(ds: &Dataset, p: usize, balanced: bool) -> (Partition, Vec<LassoRankData>) {
        let part = datagen::row_partition(&ds.a, p, balanced);
        let csc = ds.a.to_csc();
        let blocks = (0..p)
            .map(|r| {
                let range = part.range(r);
                LassoRankData {
                    csc: csc.row_block(range.start, range.end),
                    b: ds.b[range].to_vec(),
                }
            })
            .collect();
        (part, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LassoConfig;
    use crate::prox::Lasso;
    use crate::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
    use crate::seq;
    use crate::trace::SolveResult;
    use datagen::{planted_regression, uniform_sparse};

    fn problem(seed: u64) -> Dataset {
        let a = uniform_sparse(120, 60, 0.15, seed);
        planted_regression(a, 5, 0.05, seed).dataset
    }

    fn cfg(mu: usize, s: usize, iters: usize) -> LassoConfig {
        LassoConfig {
            mu,
            s,
            lambda: 0.05,
            seed: 11,
            max_iters: iters,
            trace_every: 32,
            rel_tol: None,
            ..Default::default()
        }
    }

    fn net(ds: &Dataset, p: usize, c: &LassoConfig, accel: bool) -> RunOutcome {
        let (reg, cfg) = (&Lasso::new(c.lambda), c);
        let method = Method::Lasso { reg, cfg, accel };
        let engine = Engine::Net { p, balanced: false };
        run(&RunSpec::new(method, engine, Source::InMemory(ds))).expect("net run")
    }

    fn run_net(ds: &Dataset, p: usize, c: &LassoConfig, accel: bool) -> Vec<SolveResult> {
        net(ds, p, c, accel).results
    }

    #[test]
    fn all_ranks_agree_bitwise() {
        let ds = problem(1);
        let results = run_net(&ds, 4, &cfg(4, 8, 96), true);
        for r in &results[1..] {
            assert_eq!(r.x, results[0].x, "replicated iterates must agree");
        }
    }

    #[test]
    fn acc_distributed_matches_sequential() {
        let ds = problem(2);
        for p in [1usize, 2, 5] {
            for s in [1usize, 8] {
                let c = cfg(4, s, 160);
                let seq_res = seq::sa_accbcd(&ds, &Lasso::new(c.lambda), &c);
                let net_res = &run_net(&ds, p, &c, true)[0];
                let rel =
                    (seq_res.final_value() - net_res.final_value()).abs() / seq_res.final_value();
                assert!(rel < 1e-10, "p={p} s={s}: rel err {rel}");
            }
        }
    }

    #[test]
    fn plain_distributed_matches_sequential() {
        let ds = problem(3);
        for p in [2usize, 4] {
            for s in [1usize, 16] {
                let c = cfg(2, s, 128);
                let seq_res = seq::sa_bcd(&ds, &Lasso::new(c.lambda), &c);
                let net_res = &run_net(&ds, p, &c, false)[0];
                let rel =
                    (seq_res.final_value() - net_res.final_value()).abs() / seq_res.final_value();
                assert!(rel < 1e-10, "p={p} s={s}: rel err {rel}");
            }
        }
    }

    /// Table I's trade on the wire: s-step sends s× fewer frames, each
    /// carrying more bytes (the modeled running time is the virtual
    /// cluster's to compare, and `sim::lasso` does).
    #[test]
    fn sa_sends_fewer_and_larger_frames() {
        let ds = problem(4);
        let p = 8;
        let run = |s: usize| {
            let c = LassoConfig {
                trace_every: 0,
                ..cfg(1, s, 128)
            };
            let t = net(&ds, p, &c, true).telemetry;
            (
                t.counter("net.solve.frames_tx"),
                t.counter("net.solve.bytes_tx"),
            )
        };
        let (classic_frames, classic_bytes) = run(1);
        let (sa_frames, sa_bytes) = run(16);
        assert!(
            sa_frames < classic_frames / 8,
            "SA frames {sa_frames} vs classic {classic_frames}"
        );
        assert!(
            sa_bytes / sa_frames > classic_bytes / classic_frames,
            "SA must send larger frames"
        );
    }

    #[test]
    fn balanced_split_covers_all_rows() {
        let ds = problem(5);
        let (part, blocks) = LassoRankData::split(&ds, 3, true);
        assert_eq!(part.domain(), 120);
        let total_rows: usize = blocks.iter().map(|b| b.csc.rows()).sum();
        assert_eq!(total_rows, 120);
        let total_nnz: usize = blocks.iter().map(|b| b.csc.nnz()).sum();
        assert_eq!(total_nnz, ds.a.nnz());
    }

    #[test]
    fn trace_times_are_monotone() {
        let ds = problem(6);
        let results = run_net(&ds, 4, &cfg(2, 4, 64), true);
        for r in &results {
            let pts = r.trace.points();
            for w in pts.windows(2) {
                assert!(w[1].time >= w[0].time, "wall time must not regress");
            }
            assert!(pts.last().expect("nonempty").time > 0.0);
        }
    }
}
