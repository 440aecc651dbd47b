//! Kernel dual coordinate descent (K-DCD / K-BDCD), sequential entry.
//!
//! Kernel SVM and kernel ridge solved in the dual against an implicit
//! kernel matrix: rows are built on demand from the CSR design matrix
//! (one dense-row SpMV per cache miss) and held in a bounded
//! [`sparsela::KernelCache`] — `K` never materializes at `m²`. The
//! s-step recurrence and the per-block kernel tile live in
//! `crate::exec::kdcd_family`; this module is the sequential engine
//! binding. `cfg.s = 1` is classical kernel coordinate descent.

use crate::config::KdcdConfig;
use crate::exec::{kdcd_family, KdcdStats, SeqBackend};
use crate::trace::SolveResult;
use sparsela::io::Dataset;

/// Solve a kernel dual problem (SVM or ridge, per `cfg.task`) with the
/// s-step K-DCD/K-BDCD recurrence. Returns the replicated dual iterate
/// `α` in `SolveResult::x` (the trace is the dual objective, per block)
/// plus the kernel-cache/exchange counters.
pub fn kdcd(ds: &Dataset, cfg: &KdcdConfig) -> (SolveResult, KdcdStats) {
    kdcd_family(&ds.a, &ds.b, cfg, &mut SeqBackend::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KdcdTask, SvmLoss};
    use datagen::{binary_classification, dense_gaussian};
    use sparsela::KernelFn;

    fn problem(seed: u64) -> Dataset {
        let a = dense_gaussian(48, 12, seed);
        binary_classification(a, 0.05, seed).dataset
    }

    fn cfg(task: KdcdTask, kernel: KernelFn, s: usize) -> KdcdConfig {
        KdcdConfig {
            task,
            kernel,
            lambda: 0.5,
            s,
            seed: 17,
            max_iters: 192,
            trace_every: 48,
            cache_budget_bytes: 1 << 20,
        }
    }

    #[test]
    fn ksvm_objective_decreases_on_rbf_separable_problem() {
        let ds = problem(1);
        for kernel in [
            KernelFn::Rbf { gamma: 0.5 },
            KernelFn::parse("poly:d=2,gamma=0.5,coef0=1").expect("spec"),
            KernelFn::Linear,
        ] {
            let (res, stats) = kdcd(&ds, &cfg(KdcdTask::Svm(SvmLoss::L1), kernel, 8));
            assert_eq!(res.trace.initial_value(), 0.0);
            assert!(
                res.final_value() < -1e-3,
                "{kernel:?}: {}",
                res.final_value()
            );
            let vals: Vec<f64> = res.trace.points().iter().map(|p| p.value).collect();
            assert!(
                vals.windows(2).all(|w| w[1] <= w[0] + 1e-12),
                "{kernel:?}: dual objective must decrease monotonically: {vals:?}"
            );
            assert!(stats.tile_rows > 0);
        }
    }

    #[test]
    fn kridge_objective_decreases() {
        let a = dense_gaussian(40, 10, 3);
        let ds = datagen::planted_regression(a, 4, 0.05, 3).dataset;
        let (res, _) = kdcd(&ds, &cfg(KdcdTask::Ridge, KernelFn::Rbf { gamma: 1.0 }, 4));
        assert!(res.final_value() < -1e-6, "{}", res.final_value());
        let vals: Vec<f64> = res.trace.points().iter().map(|p| p.value).collect();
        assert!(vals.windows(2).all(|w| w[1] <= w[0] + 1e-12), "{vals:?}");
    }

    #[test]
    fn s_step_matches_classical_cd_to_roundoff() {
        // The paper's central claim carried to the kernel family: the
        // s-step recurrence reproduces classical (s = 1) coordinate
        // descent in exact arithmetic. Floating point leaves last-ulp
        // differences (the correction reads K(i_j, i_t), the classic
        // margin update accumulates K(i_t, i_j); the symmetric entries
        // need not round identically), so this is to round-off, not
        // bitwise — the bitwise contracts are *across engines* at equal
        // `s`.
        let ds = problem(2);
        for task in [KdcdTask::Svm(SvmLoss::L2), KdcdTask::Ridge] {
            let classic = kdcd(&ds, &cfg(task, KernelFn::Rbf { gamma: 0.8 }, 1)).0;
            let sa = kdcd(&ds, &cfg(task, KernelFn::Rbf { gamma: 0.8 }, 16)).0;
            for (a, b) in classic.x.iter().zip(&sa.x) {
                assert!(
                    (a - b).abs() <= 1e-10 * (1.0 + a.abs()),
                    "{task:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn tiny_cache_still_converges_and_evicts() {
        let ds = problem(5);
        let mut c = cfg(KdcdTask::Svm(SvmLoss::L1), KernelFn::Rbf { gamma: 0.5 }, 8);
        c.cache_budget_bytes = 3 * 8 * ds.num_points();
        let (res, stats) = kdcd(&ds, &c);
        assert!(res.final_value() < -1e-3);
        assert!(stats.cache.evictions > 0, "budget forces evictions");
        // Soft budget: two-epoch pins may hold up to 2s rows past the
        // 3-row capacity, but never anywhere near all m rows.
        let row_bytes = 8 * ds.num_points() as u64;
        assert!(stats.cache_resident_bytes <= (3 + 2 * 8) * row_bytes);
    }
}
