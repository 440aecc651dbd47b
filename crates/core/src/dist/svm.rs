//! The SVM / K-DCD rank layout for the SPMD engines (`Engine::Dist`,
//! `Engine::Net`).
//!
//! Layout (§V): "unlike Lasso, SVM requires 1D-column partitioning in
//! order to compute dot-products in parallel" — each rank holds all `m`
//! rows restricted to a contiguous block of features, stored CSR so that
//! gathering sampled *rows* is cheap. The primal iterate `x ∈ Rⁿ` is
//! partitioned conformally — a rank's `SolveResult::x` is its local
//! slice; the dual iterate `α ∈ Rᵐ`, the labels, the gap trace and all
//! scalars are replicated. One allreduce per outer iteration carries the
//! packed symmetric `s × s` Gram block (whose diagonal is the step sizes
//! `η`, Alg. 4 line 11) and the cross products `Yᵀx`.
//!
//! The recurrence and the fused exchange live in
//! `crate::exec::{svm_family, DistBackend}`; [`crate::run`] binds a
//! rank's local column block to the engine.

use datagen::Partition;
use sparsela::io::Dataset;
use sparsela::CsrMatrix;

/// One rank's share of a column-partitioned SVM problem.
#[derive(Clone, Debug)]
pub struct SvmRankData {
    /// Local column block of `A` in CSR (all `m` rows, local features,
    /// feature ids renumbered to the local range).
    pub csr: CsrMatrix,
    /// Replicated ±1 labels (length `m`).
    pub b: Vec<f64>,
}

impl SvmRankData {
    /// Split a dataset into `p` column blocks. `balanced` splits by
    /// per-column nnz — the fix for the load-balance problem the paper
    /// reports for rcv1/news20 ("transforming datasets stored row-wise on
    /// disk to 1D-column partitioned matrices", §VI); otherwise an
    /// equal-column-count split.
    pub fn split(ds: &Dataset, p: usize, balanced: bool) -> (Partition, Vec<SvmRankData>) {
        let part = datagen::col_partition(&ds.a, p, balanced);
        let blocks = (0..p)
            .map(|r| {
                let range = part.range(r);
                SvmRankData {
                    csr: ds.a.col_block(range.start, range.end),
                    b: ds.b.clone(),
                }
            })
            .collect();
        (part, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SvmConfig, SvmLoss};
    use crate::run::{run, Engine, Method, RunOutcome, RunSpec, Source};
    use crate::seq;
    use crate::trace::SolveResult;
    use datagen::{binary_classification, dense_gaussian, powerlaw_sparse};
    use mpisim::CostModel;

    fn problem(seed: u64) -> Dataset {
        let a = dense_gaussian(60, 24, seed);
        binary_classification(a, 0.08, seed).dataset
    }

    fn cfg(loss: SvmLoss, s: usize, iters: usize) -> SvmConfig {
        SvmConfig {
            loss,
            lambda: 1.0,
            s,
            seed: 21,
            max_iters: iters,
            trace_every: 64,
            gap_tol: None,
            overlap: true,
        }
    }

    fn dist(ds: &Dataset, p: usize, c: &SvmConfig, balanced: bool) -> RunOutcome {
        let model = CostModel::cray_xc30();
        let engine = Engine::Dist { p, model, balanced };
        run(&RunSpec::new(Method::svm(c), engine, Source::InMemory(ds))).expect("dist run")
    }

    fn run_dist(ds: &Dataset, p: usize, c: &SvmConfig) -> Vec<SolveResult> {
        dist(ds, p, c, false).results
    }

    #[test]
    fn distributed_matches_sequential() {
        let ds = problem(1);
        for p in [1usize, 3, 4] {
            for (loss, s) in [(SvmLoss::L1, 1usize), (SvmLoss::L1, 16), (SvmLoss::L2, 8)] {
                let c = cfg(loss, s, 256);
                let seq_res = seq::sa_svm(&ds, &c);
                let dist_res = &run_dist(&ds, p, &c)[0];
                let denom = seq_res.trace.initial_value();
                let rel = (seq_res.final_value() - dist_res.final_value()).abs() / denom;
                assert!(rel < 1e-10, "p={p} {loss:?} s={s}: rel err {rel}");
            }
        }
    }

    #[test]
    fn gap_trace_is_replicated_across_ranks() {
        let ds = problem(2);
        let results = run_dist(&ds, 4, &cfg(SvmLoss::L2, 8, 128));
        for r in &results[1..] {
            assert_eq!(r.trace.len(), results[0].trace.len());
            for (p, q) in r.trace.points().iter().zip(results[0].trace.points()) {
                assert_eq!(p.value, q.value, "gap must be bitwise replicated");
            }
        }
    }

    #[test]
    fn local_x_slices_concatenate_to_global_solution() {
        let ds = problem(3);
        let p = 3;
        let c = cfg(SvmLoss::L1, 4, 200);
        let (part, _) = SvmRankData::split(&ds, p, false);
        let results = run_dist(&ds, p, &c);
        let mut x_global = Vec::new();
        for (r, res) in results.iter().enumerate() {
            assert_eq!(res.x.len(), part.range(r).len());
            x_global.extend_from_slice(&res.x);
        }
        let seq_res = seq::sa_svm(&ds, &c);
        for (a, b) in x_global.iter().zip(&seq_res.x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn sa_reduces_messages_on_sparse_data() {
        let a = powerlaw_sparse(400, 120, 0.05, 1.0, 4);
        let ds = binary_classification(a, 0.05, 4).dataset;
        let p = 8;
        let run = |s: usize| {
            let c = SvmConfig {
                trace_every: 0,
                ..cfg(SvmLoss::L1, s, 256)
            };
            dist(&ds, p, &c, true).report.expect("report")
        };
        let classic = run(1);
        let sa = run(32);
        assert!(sa.critical.messages < classic.critical.messages / 8);
        assert!(sa.running_time() < classic.running_time());
    }

    #[test]
    fn gap_tolerance_terminates() {
        let ds = problem(5);
        let mut c = cfg(SvmLoss::L2, 16, 100_000);
        c.gap_tol = Some(1e-1);
        c.trace_every = 64;
        let results = run_dist(&ds, 2, &c);
        assert!(results[0].iters < 100_000);
        assert!(results[0].final_value() <= 1e-1);
    }
}
