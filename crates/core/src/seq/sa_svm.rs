//! Algorithm 4: Synchronization-Avoiding linear SVM (SA-SVM).
//!
//! The s-step unrolling of Algorithm 3 (§V): draw all `s` coordinates up
//! front, compute one `s × s` Gram matrix `G = YᵀY + γIₛ` and one cross
//! product `x′ = Yᵀx_sk` (lines 9–10, the only communication), then run
//! `s` inner iterations from the recurrences of eqs. (14)–(15):
//!
//! ```text
//! β_{sk+j} = Iᵀα_sk + Σ_{t<j} θ_{sk+t}·[i_{sk+t} = i_{sk+j}]
//! g_{sk+j} = b_j·x′_j − 1 + γβ_{sk+j} + Σ_{t<j} θ_{sk+t}·b_j·b_t·G_{j,t}
//! ```
//!
//! The step sizes `η_{sk+j}` fall out for free as `diag(G)` (line 11).
//!
//! The recurrence lives in `crate::exec::svm_family`; this module is the
//! sequential entry point.

use crate::config::SvmConfig;
use crate::exec::{svm_family, SeqBackend};
use crate::trace::SolveResult;
use sparsela::io::Dataset;

/// Solve the dual SVM problem with Algorithm 4 (SA-SVM). With `cfg.s = 1`
/// this coincides with Algorithm 3.
pub fn sa_svm(ds: &Dataset, cfg: &SvmConfig) -> SolveResult {
    svm_family(&ds.a, &ds.b, cfg, &mut SeqBackend::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SvmLoss;
    use crate::seq::svm;
    use datagen::{binary_classification, dense_gaussian, powerlaw_sparse};
    use sparsela::io::Dataset;

    fn problem(seed: u64) -> Dataset {
        let a = dense_gaussian(80, 20, seed);
        binary_classification(a, 0.05, seed).dataset
    }

    fn cfg(loss: SvmLoss, s: usize, iters: usize, seed: u64) -> SvmConfig {
        SvmConfig {
            loss,
            lambda: 1.0,
            s,
            seed,
            max_iters: iters,
            trace_every: 200,
            gap_tol: None,
        }
    }

    /// Duplicate-index handling is the subtle part of eq. (14): with
    /// replacement sampling, the same coordinate can appear several times
    /// within one s-block; the β recurrence must chain those updates.
    #[test]
    fn sa_matches_classical_with_duplicates_in_block() {
        // m = 10 rows with s = 50 forces many duplicates per block.
        let a = dense_gaussian(10, 6, 1);
        let ds = binary_classification(a, 0.1, 1).dataset;
        for loss in [SvmLoss::L1, SvmLoss::L2] {
            let c = cfg(loss, 50, 600, 2);
            let ref_res = svm(&ds, &c);
            let sa_res = sa_svm(&ds, &c);
            assert_eq!(ref_res.trace.len(), sa_res.trace.len());
            let init = ref_res.trace.initial_value();
            for (p, q) in ref_res.trace.points().iter().zip(sa_res.trace.points()) {
                // Once the gap decays toward round-off of the primal scale,
                // relative comparison is noise; floor the denominator at a
                // fraction of the initial gap.
                let denom = p.value.abs().max(1e-7 * init);
                assert!(
                    (p.value - q.value).abs() / denom < 1e-8,
                    "{loss:?} iter {}: {} vs {}",
                    p.iter,
                    p.value,
                    q.value
                );
            }
        }
    }

    #[test]
    fn sa_matches_classical_l1_and_l2() {
        let ds = problem(3);
        for loss in [SvmLoss::L1, SvmLoss::L2] {
            for s in [4usize, 32, 500] {
                let c = cfg(loss, s, 2000, 4);
                let a = svm(&ds, &c);
                let b = sa_svm(&ds, &c);
                let rel = a.relative_error_vs(&b);
                assert!(rel < 1e-8, "{loss:?} s={s}: rel gap err {rel}");
            }
        }
    }

    #[test]
    fn s_500_is_numerically_stable() {
        // Figure 5 uses s = 500 and shows overlapping curves.
        let ds = problem(5);
        let c = cfg(SvmLoss::L2, 500, 5000, 6);
        let a = svm(&ds, &c);
        let b = sa_svm(&ds, &c);
        let rel = a.relative_error_vs(&b);
        assert!(rel < 1e-9, "relative duality-gap error {rel}");
        assert!(b.final_value() < 0.05 * b.trace.initial_value());
    }

    #[test]
    fn sparse_powerlaw_data_works() {
        let a = powerlaw_sparse(300, 100, 0.05, 1.0, 7);
        let ds = binary_classification(a, 0.05, 7).dataset;
        let c = cfg(SvmLoss::L1, 64, 6000, 8);
        let a_res = svm(&ds, &c);
        let b_res = sa_svm(&ds, &c);
        let rel = a_res.relative_error_vs(&b_res);
        assert!(rel < 1e-8, "rel err {rel}");
    }

    #[test]
    fn gap_tolerance_stops_at_inner_iteration() {
        let ds = problem(9);
        let mut c = cfg(SvmLoss::L2, 128, 500_000, 10);
        c.gap_tol = Some(1e-1);
        c.trace_every = 128;
        let res = sa_svm(&ds, &c);
        assert!(res.iters < 500_000);
        assert!(res.final_value() <= 1e-1);
    }
}
