//! Synchronization-avoiding *non-accelerated* BCD (the paper's SA-BCD /
//! SA-CD curves in Figures 2–3).
//!
//! The same s-step unrolling as Algorithm 2 applied to plain block
//! coordinate descent: with the residual frozen at the outer boundary,
//! the inner block gradients are
//!
//! ```text
//! ∇_{sk+j} = A_{sk+j}ᵀ r̃_sk + Σ_{t<j} G_{j,t} Δx_{sk+t}
//! ```
//!
//! so one `sµ × sµ` Gram + one `Yᵀr̃` cross product serve `s` iterations.
//!
//! The recurrence lives in `crate::exec::lasso_family` (unaccelerated
//! path); this module is the sequential entry point.

use crate::config::LassoConfig;
use crate::exec::{lasso_family, SeqBackend};
use crate::prox::Regularizer;
use crate::trace::SolveResult;
use sparsela::io::Dataset;

/// Solve `min_x ½‖Ax − b‖² + g(x)` with s-step SA-BCD (SA-CD for µ = 1).
/// With `cfg.s = 1` this coincides with classical BCD.
pub fn sa_bcd<R: Regularizer>(ds: &Dataset, reg: &R, cfg: &LassoConfig) -> SolveResult {
    let csc = ds.a.to_csc();
    lasso_family(&csc, &ds.b, reg, cfg, false, &mut SeqBackend::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prox::{GroupLasso, Lasso};
    use crate::seq::bcd;
    use datagen::{planted_regression, uniform_sparse};

    fn problem(seed: u64) -> datagen::RegressionData {
        let a = uniform_sparse(150, 80, 0.15, seed);
        planted_regression(a, 6, 0.05, seed)
    }

    fn cfg(mu: usize, s: usize, iters: usize, seed: u64) -> LassoConfig {
        LassoConfig {
            mu,
            s,
            lambda: 0.05,
            seed,
            max_iters: iters,
            trace_every: 25,
            rel_tol: None,
            ..Default::default()
        }
    }

    #[test]
    fn sa_matches_classical_bcd_along_trace() {
        let reg = problem(1);
        for s in [2usize, 8, 32, 100] {
            let c = cfg(4, s, 400, 2);
            let lasso = Lasso::new(c.lambda);
            let a = bcd(&reg.dataset, &lasso, &c);
            let b = sa_bcd(&reg.dataset, &lasso, &c);
            assert_eq!(a.trace.len(), b.trace.len());
            for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
                let rel = (p.value - q.value).abs() / p.value.abs().max(1e-300);
                assert!(rel < 1e-9, "s={s} iter {}: rel err {rel}", p.iter);
            }
        }
    }

    #[test]
    fn sa_cd_matches_cd() {
        let reg = problem(3);
        let c = cfg(1, 64, 1280, 4);
        let lasso = Lasso::new(c.lambda);
        let a = bcd(&reg.dataset, &lasso, &c);
        let b = sa_bcd(&reg.dataset, &lasso, &c);
        let rel = a.relative_error_vs(&b);
        assert!(rel < 1e-10, "relative objective error {rel}");
    }

    #[test]
    fn monotone_descent_at_trace_points() {
        let reg = problem(5);
        let c = cfg(4, 16, 800, 6);
        let res = sa_bcd(&reg.dataset, &Lasso::new(c.lambda), &c);
        for w in res.trace.points().windows(2) {
            assert!(w[1].value <= w[0].value + 1e-10);
        }
    }

    #[test]
    fn group_lasso_with_aligned_blocks() {
        // µ = group size and aligned sampling is approximated by whole-µ
        // blocks; the run must still descend.
        let reg = problem(7);
        let gl = GroupLasso::uniform(0.05, 80, 4);
        // µ comes from the regularizer itself: aligned_blocks derives the
        // uniform group size from the group map.
        let mu = gl.aligned_blocks();
        assert_eq!(mu, 4);
        let c = cfg(mu, 8, 400, 8);
        let res = sa_bcd(&reg.dataset, &gl, &c);
        assert!(res.final_value() < res.trace.initial_value());
    }

    #[test]
    fn zero_matrix_is_a_noop() {
        use sparsela::io::Dataset;
        use sparsela::CsrMatrix;
        let ds = Dataset {
            a: CsrMatrix::zeros(10, 5),
            b: vec![1.0; 10],
        };
        let c = cfg(2, 4, 20, 9);
        let res = sa_bcd(&ds, &Lasso::new(0.1), &c);
        assert!(res.x.iter().all(|&v| v == 0.0));
        assert_eq!(res.final_value(), res.trace.initial_value());
    }
}

#[cfg(test)]
mod aligned_group_tests {
    use super::*;
    use crate::config::BlockSampling;
    use crate::prox::GroupLasso;
    use crate::seq::bcd;
    use datagen::{planted_regression, uniform_sparse};

    /// With group-aligned sampling the Group Lasso prox is exact, so the
    /// solution must be group-sparse: no group partially selected.
    #[test]
    fn aligned_sampling_gives_group_sparse_solutions() {
        let a = uniform_sparse(400, 80, 0.3, 71);
        let reg = planted_regression(a, 8, 0.05, 71);
        let gl = GroupLasso::uniform(3.0, 80, 4);
        let c = LassoConfig {
            mu: 4,
            s: 8,
            lambda: 3.0,
            seed: 72,
            max_iters: 4000,
            trace_every: 0,
            rel_tol: None,
            sampling: BlockSampling::AlignedGroups { group_size: 4 },
        };
        let res = sa_bcd(&reg.dataset, &gl, &c);
        for g in 0..20 {
            let cnt = (0..4).filter(|k| res.x[g * 4 + k].abs() > 1e-10).count();
            assert!(
                cnt == 0 || cnt == 4,
                "group {g} partially selected ({cnt}/4 coordinates)"
            );
        }
        assert!(res.final_value() < res.trace.initial_value());
    }

    /// SA ≡ classical must hold under aligned sampling too (same stream).
    #[test]
    fn sa_equivalence_holds_under_aligned_sampling() {
        let a = uniform_sparse(200, 64, 0.2, 73);
        let reg = planted_regression(a, 6, 0.05, 73);
        let gl = GroupLasso::uniform(0.5, 64, 4);
        let c = LassoConfig {
            mu: 8,
            s: 16,
            lambda: 0.5,
            seed: 74,
            max_iters: 320,
            trace_every: 40,
            rel_tol: None,
            sampling: BlockSampling::AlignedGroups { group_size: 4 },
        };
        let classic = bcd(&reg.dataset, &gl, &c);
        let sa = sa_bcd(&reg.dataset, &gl, &c);
        for (p, q) in classic.trace.points().iter().zip(sa.trace.points()) {
            let rel = (p.value - q.value).abs() / p.value.abs().max(1e-300);
            assert!(rel < 1e-9, "iter {}: rel {rel}", p.iter);
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of the group size")]
    fn misaligned_mu_is_rejected() {
        let a = uniform_sparse(50, 64, 0.2, 75);
        let reg = planted_regression(a, 4, 0.05, 75);
        let c = LassoConfig {
            mu: 6,
            sampling: BlockSampling::AlignedGroups { group_size: 4 },
            ..Default::default()
        };
        let _ = sa_bcd(&reg.dataset, &GroupLasso::uniform(0.5, 64, 4), &c);
    }
}
