//! Algorithm 2: Synchronization-Avoiding accelerated BCD (SA-accBCD).
//!
//! The recurrence unrolling of §III: every outer iteration samples `s`
//! blocks up front, computes **one** `sµ × sµ` Gram matrix
//! `G = YᵀY` and **one** cross product `Yᵀ[ỹ z̃]` (lines 10–12 — the only
//! communication in the distributed setting), then runs `s` inner
//! iterations whose residual-gradients are reconstructed from `G` and the
//! accumulated `Δz`s via eq. (3):
//!
//! ```text
//! r_{sk+j} = θ²ỹ′ + z̃′ − Σ_{t<j} (θ²_{sk+j−1}(1−qθ_{sk+t−1})/θ²_{sk+t−1} − 1)·G_{j,t}·Δz_{sk+t}
//! ```
//!
//! No fresh `AᵀA` or `Aᵀ(θ²ỹ + z̃)` products are formed inside the inner
//! loop — that is the whole point. In exact arithmetic the iterates equal
//! Algorithm 1's; the `engine_matrix` tests check this to round-off.
//!
//! The recurrence itself lives in `crate::exec::lasso_family`; this module
//! is the sequential entry point (`SeqBackend`: no communication, exact
//! per-iteration traces). `crate::run` with `Engine::Seq` is the same
//! solve with per-stage wall spans recorded in the returned registry:
//! `seq.sa_accbcd.{sampling,gram,inner}`, the gram span firing twice per
//! outer iteration (Gram, then cross products).

use crate::config::LassoConfig;
use crate::exec::{lasso_family, SeqBackend};
use crate::prox::Regularizer;
use crate::trace::SolveResult;
use sparsela::io::Dataset;

/// Solve `min_x ½‖Ax − b‖² + g(x)` with Algorithm 2 (SA-accBCD;
/// SA-accCD for µ = 1). With `cfg.s = 1` this coincides with Algorithm 1.
pub fn sa_accbcd<R: Regularizer>(ds: &Dataset, reg: &R, cfg: &LassoConfig) -> SolveResult {
    let csc = ds.a.to_csc();
    lasso_family(&csc, &ds.b, reg, cfg, true, &mut SeqBackend::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prox::Lasso;
    use crate::seq::acc_bcd;
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
    fn s_equals_one_matches_acc_bcd_exactly() {
        let reg = problem(1);
        let c = cfg(4, 1, 300, 2);
        let lasso = Lasso::new(c.lambda);
        let a = acc_bcd(&reg.dataset, &lasso, &c);
        let b = sa_accbcd(&reg.dataset, &lasso, &c);
        // identical computation graph up to benign reassociation
        for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
            assert!(
                (p.value - q.value).abs() < 1e-10 * p.value.abs().max(1.0),
                "iter {}: {} vs {}",
                p.iter,
                p.value,
                q.value
            );
        }
    }

    #[test]
    fn sa_matches_classical_along_the_whole_trace() {
        // The central claim: "the convergence rates and behavior of the
        // standard accelerated BCD algorithm is the same (in exact
        // arithmetic)" — same seed ⇒ same iterates to round-off.
        let reg = problem(3);
        for s in [2usize, 5, 16, 64] {
            let c = cfg(4, s, 320, 4);
            let lasso = Lasso::new(c.lambda);
            let a = acc_bcd(&reg.dataset, &lasso, &c);
            let b = sa_accbcd(&reg.dataset, &lasso, &c);
            assert_eq!(a.trace.len(), b.trace.len());
            for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
                let rel = (p.value - q.value).abs() / p.value.abs().max(1e-300);
                assert!(rel < 1e-9, "s={s} iter {}: rel err {rel}", p.iter);
            }
            // final iterates agree coordinate-wise
            for (xa, xb) in a.x.iter().zip(&b.x) {
                assert!((xa - xb).abs() < 1e-8, "s={s}: {xa} vs {xb}");
            }
        }
    }

    #[test]
    fn sa_cd_variant_matches_too() {
        let reg = problem(5);
        let c = cfg(1, 32, 640, 6);
        let lasso = Lasso::new(c.lambda);
        let a = acc_bcd(&reg.dataset, &lasso, &c);
        let b = sa_accbcd(&reg.dataset, &lasso, &c);
        let rel = a.relative_error_vs(&b);
        assert!(rel < 1e-10, "relative objective error {rel}");
    }

    #[test]
    fn partial_final_block_is_handled() {
        // H = 100 with s = 64 leaves a 36-iteration tail block.
        let reg = problem(7);
        let c = cfg(2, 64, 100, 8);
        let lasso = Lasso::new(c.lambda);
        let res = sa_accbcd(&reg.dataset, &lasso, &c);
        assert_eq!(res.iters, 100);
        let reference = acc_bcd(&reg.dataset, &lasso, &c);
        let rel = res.relative_error_vs(&reference);
        assert!(rel < 1e-10, "relative error {rel}");
    }

    #[test]
    fn instrumented_run_is_bit_identical_and_records_spans() {
        let reg = problem(11);
        let c = cfg(2, 8, 64, 12);
        let lasso = Lasso::new(c.lambda);
        let plain = sa_accbcd(&reg.dataset, &lasso, &c);
        use crate::run::{run, Engine, Method, RunSpec, Source};
        let method = Method::Lasso {
            reg: &lasso,
            cfg: &c,
            accel: true,
        };
        let spec = RunSpec::new(method, Engine::Seq, Source::InMemory(&reg.dataset));
        let out = run(&spec).expect("seq run");
        let (inst, registry) = (out.result(), &out.telemetry);
        assert_eq!(plain.x, inst.x, "instrumentation must not perturb numerics");
        let wall = registry.wall();
        // 64 iterations at s = 8 → 8 outer iterations: one sampling and
        // one inner span each, and two gram spans (Gram, then cross).
        for (name, count) in [
            ("seq.sa_accbcd.sampling", 8),
            ("seq.sa_accbcd.gram", 16),
            ("seq.sa_accbcd.inner", 8),
        ] {
            let stat = wall.get(name).expect(name);
            assert_eq!(stat.count, count, "{name}");
            assert!(stat.total_secs >= 0.0);
        }
        assert_eq!(registry.counter("solver.iterations"), 64);
    }

    #[test]
    fn huge_s_is_numerically_stable() {
        // The paper tests s = 1000 and finds errors at machine precision
        // (Table III).
        let reg = problem(9);
        let c = LassoConfig {
            mu: 1,
            s: 1000,
            lambda: 0.05,
            seed: 10,
            max_iters: 1000,
            trace_every: 0,
            rel_tol: None,
            ..Default::default()
        };
        let lasso = Lasso::new(c.lambda);
        let a = acc_bcd(&reg.dataset, &lasso, &c);
        let b = sa_accbcd(&reg.dataset, &lasso, &c);
        let rel = a.relative_error_vs(&b);
        assert!(rel < 1e-12, "relative objective error {rel} at s=1000");
    }
}
