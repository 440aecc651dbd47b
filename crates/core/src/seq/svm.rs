//! Algorithm 3: dual coordinate descent for linear SVM, after Hsieh et al.
//!
//! Works on the dual problem (eq. 12–13): pick a data point `i`, compute
//! the coordinate gradient `gₕ = bᵢAᵢx − 1 + γαᵢ` (this is the
//! communication step when `A` is 1D-column partitioned), take a projected
//! Newton step onto the box `[0, ν]`, and maintain the primal iterate
//! `x = Σ bᵢαᵢAᵢᵀ` incrementally.
//!
//! Algorithm 3 is the `s = 1` case of Algorithm 4's recurrence (η falls
//! out as the 1×1 Gram diagonal): this entry point runs
//! `crate::exec::svm_family` with the block size pinned to one.

use crate::config::SvmConfig;
use crate::exec::{svm_family, SeqBackend};
use crate::trace::SolveResult;
use sparsela::io::Dataset;

/// The projected coordinate update shared by Alg. 3 (lines 9–13) and
/// Alg. 4 (lines 15–19): given the current coordinate value `alpha_i`, the
/// gradient `g`, the curvature `eta` and the box bound `nu`, return the
/// step θ (0 when the projected gradient vanishes or the coordinate has no
/// curvature).
#[inline]
pub(crate) fn projected_step(alpha_i: f64, g: f64, eta: f64, nu: f64) -> f64 {
    let pg = (alpha_i - g).clamp(0.0, nu) - alpha_i;
    if pg == 0.0 || eta <= 0.0 {
        return 0.0;
    }
    (alpha_i - g / eta).clamp(0.0, nu) - alpha_i
}

/// Solve the dual SVM problem with coordinate descent (Algorithm 3).
/// Labels must be ±1.
pub fn svm(ds: &Dataset, cfg: &SvmConfig) -> SolveResult {
    let classic = SvmConfig {
        s: 1,
        ..cfg.clone()
    };
    svm_family(&ds.a, &ds.b, &classic, &mut SeqBackend::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SvmLoss;
    use crate::problem::SvmProblem;
    use datagen::{binary_classification, dense_gaussian, uniform_sparse};
    use sparsela::io::Dataset;

    fn problem(seed: u64) -> Dataset {
        let a = dense_gaussian(80, 20, seed);
        binary_classification(a, 0.05, seed).dataset
    }

    fn cfg(loss: SvmLoss, iters: usize, seed: u64) -> SvmConfig {
        SvmConfig {
            loss,
            lambda: 1.0,
            s: 1,
            seed,
            max_iters: iters,
            trace_every: 200,
            gap_tol: None,
        }
    }

    #[test]
    fn duality_gap_decreases_l1() {
        let ds = problem(1);
        let res = svm(&ds, &cfg(SvmLoss::L1, 8000, 2));
        assert!(
            res.final_value() < 0.05 * res.trace.initial_value(),
            "gap {} from {}",
            res.final_value(),
            res.trace.initial_value()
        );
        // gap stays nonnegative
        for p in res.trace.points() {
            assert!(p.value >= -1e-9, "negative gap {}", p.value);
        }
    }

    #[test]
    fn duality_gap_decreases_l2() {
        let ds = problem(3);
        let res = svm(&ds, &cfg(SvmLoss::L2, 8000, 4));
        assert!(res.final_value() < 0.05 * res.trace.initial_value());
    }

    #[test]
    fn l2_converges_faster_than_l1() {
        // Paper §VI: "SVM-L2 converges faster than SVM-L1 since the loss
        // function is smoothed."
        let ds = problem(5);
        let l1 = svm(&ds, &cfg(SvmLoss::L1, 4000, 6));
        let l2 = svm(&ds, &cfg(SvmLoss::L2, 4000, 6));
        let rel1 = l1.final_value() / l1.trace.initial_value();
        let rel2 = l2.final_value() / l2.trace.initial_value();
        assert!(
            rel2 < rel1 * 2.0,
            "L2 relative gap {rel2} should not lag far behind L1 {rel1}"
        );
    }

    #[test]
    fn dual_feasibility_l1_box() {
        let ds = problem(7);
        let c = cfg(SvmLoss::L1, 3000, 8);
        let prob = SvmProblem::new(c.loss, c.lambda);
        // re-run manually to access alpha: reconstruct from x is lossy, so
        // just assert the primal objective of the output is finite and the
        // classifier is sane.
        let res = svm(&ds, &c);
        let acc = prob.accuracy(&ds.a, &ds.b, &res.x);
        assert!(acc > 0.85, "training accuracy {acc}");
    }

    #[test]
    fn gap_tolerance_stops_early() {
        let ds = problem(9);
        let mut c = cfg(SvmLoss::L2, 200_000, 10);
        c.gap_tol = Some(1e-1);
        c.trace_every = 100;
        let res = svm(&ds, &c);
        assert!(res.iters < 200_000, "tolerance should stop early");
        assert!(res.final_value() <= 1e-1);
    }

    #[test]
    fn sparse_data_works() {
        let a = uniform_sparse(200, 50, 0.1, 11);
        let ds = binary_classification(a, 0.05, 11).dataset;
        let res = svm(&ds, &cfg(SvmLoss::L1, 5000, 12));
        assert!(res.final_value() < res.trace.initial_value());
    }

    #[test]
    fn projected_step_respects_box() {
        // at the lower bound with positive gradient: no step
        assert_eq!(projected_step(0.0, 1.0, 2.0, 1.0), 0.0);
        // free interior step
        let th = projected_step(0.5, -0.2, 2.0, 1.0);
        assert!((th - 0.1).abs() < 1e-15);
        // clipped at the upper bound
        let th = projected_step(0.9, -10.0, 2.0, 1.0);
        assert!((th - 0.1).abs() < 1e-15);
        // zero curvature guard
        assert_eq!(projected_step(0.5, -1.0, 0.0, 1.0), 0.0);
        // unbounded (L2) box
        let th = projected_step(0.5, -2.0, 1.0, f64::INFINITY);
        assert!((th - 2.0).abs() < 1e-15);
    }
}
